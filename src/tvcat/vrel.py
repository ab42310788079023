"""V-relations: quantale-valued matrices between finite carriers.

Carrier elements are arbitrary hashable values (strings, or nested tuples for
product and monad carriers).  Entries map carrier pairs to quantale element
indices; missing pairs are bottom, so sparse structures stay sparse.  A
relation checks its values only: keys are checked where data enters
(``categories.structure_on``), and tvcat builds them inside the carriers.
Every relation given cell by cell is built by ``tabulate``, every relation
given as a join of images by ``push_forward``.  ``compose`` ORs the value
levels of its left factor (Python-int bitsets), built per call, as a . Ta does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping

from .quantale import FormatError, Quantale
from .report import sort_key


def pair_carrier(xs: tuple, ys: tuple) -> tuple:
    """Row-major product carrier; every module pairs carriers through this
    single helper so projections and joint structures stay aligned."""
    return tuple((x, y) for x in xs for y in ys)


@dataclass(frozen=True)
class VRel:
    quantale: Quantale
    src: tuple
    dst: tuple
    entries: Mapping = field(default_factory=dict)

    def __post_init__(self):
        n = self.quantale.n
        if not all(0 <= v < n for v in self.entries.values()):
            raise FormatError("relation entry out of quantale range")

    def __call__(self, x, y) -> int:
        return self.entries.get((x, y), self.quantale.bottom)

    def rows(self) -> dict:
        """The non-bottom entries grouped by source: rows[x] lists (y, v)."""
        out: dict = {}
        for (x, y), v in self.entries.items():
            if v != self.quantale.bottom:
                out.setdefault(x, []).append((y, v))
        return out

    # ---- relational calculus ----

    def compose(self, r: "VRel") -> "VRel":
        """self . r, for r: X -|-> Y and self: Y -|-> Z: the rows of r
        through ``compose_levels`` on the levels of self, decoded."""
        if self.quantale is not r.quantale and self.quantale != r.quantale:
            raise FormatError("composition across different quantales")
        if self.src != r.dst:
            raise FormatError("carrier mismatch in composition")
        q, dst, levels = self.quantale, self.dst, value_levels(self.rows(), self.dst)
        return VRel(q, r.src, dst, {
            (x, z): w for x, row in r.rows().items()
            for z, w in decode_levels(q.join, compose_levels(q, row, levels), dst).items()})

    def transpose(self) -> "VRel":
        return tabulate(self.quantale, self.dst, self.src, lambda y, x: self(x, y))

    def owedge(self, s: "VRel") -> "VRel":
        """Joint relation on product carriers with entrywise meet."""
        q = self.quantale
        meet, bot = q.meet, q.bottom
        # bottom absorbs the meet, so only pairs of non-bottom entries count
        return VRel(q, pair_carrier(self.src, s.src), pair_carrier(self.dst, s.dst),
                    {((x, x1), (y, y1)): m
                     for (x, y), u in self.entries.items()
                     for (x1, y1), v in s.entries.items()
                     if (m := meet[u][v]) != bot})

    def tensor_scalar(self, u: int) -> "VRel":
        q = self.quantale
        return tabulate(q, self.src, self.dst, lambda x, y: q.tens(self(x, y), u))

    def meet(self, s: "VRel") -> "VRel":
        q = self.quantale
        return tabulate(q, self.src, self.dst, lambda x, y: q.meet[self(x, y)][s(x, y)])

    def join(self, s: "VRel") -> "VRel":
        q = self.quantale
        return tabulate(q, self.src, self.dst, lambda x, y: q.join[self(x, y)][s(x, y)])

    def leq(self, s: "VRel") -> bool:
        q = self.quantale
        return all(q.le(self(x, y), s(x, y))
                   for x in self.src for y in self.dst)

    def first_gap(self, s: "VRel"):
        """First (x, y) in sort_key order, x before y, where self(x,y) is not
        below s(x,y), or None; the witness primitive for relation
        comparisons.  First is well defined when sort_key is injective on
        the carriers, as the ranks of ``TheoryMonad.inbound`` need too."""
        q = self.quantale
        # bottom is below everything, so gaps sit at entries of self
        gaps = [xy for xy, v in self.entries.items() if not q.le(v, s(*xy))]
        return min(gaps, key=sort_key, default=None)

    def __eq__(self, other):
        if not isinstance(other, VRel):
            return NotImplemented
        if (self.quantale != other.quantale or self.src != other.src
                or self.dst != other.dst):
            return False
        bot = self.quantale.bottom  # a missing entry is bottom
        return ({xy: v for xy, v in self.entries.items() if v != bot}
                == {xy: v for xy, v in other.entries.items() if v != bot})

    def __hash__(self):
        return hash((self.src, self.dst))

    def restrict(self, src: tuple, dst: tuple) -> "VRel":
        return tabulate(self.quantale, src, dst, self)

    def rename(self, fsrc: Callable, fdst: Callable) -> "VRel":
        """Transport along carrier bijections."""
        src = tuple(fsrc(x) for x in self.src)
        dst = tuple(fdst(y) for y in self.dst)
        ent = {(fsrc(x), fdst(y)): v for (x, y), v in self.entries.items()}
        return VRel(self.quantale, src, dst, ent)


def tabulate(q: Quantale, src: tuple, dst: tuple, fn: Callable) -> VRel:
    """The relation src -|-> dst with entries fn(x, y), bottom dropped; fn
    is called in x-major order."""
    bot = q.bottom
    ent = {}
    for x in src:
        for y in dst:
            v = fn(x, y)
            if v != bot:
                ent[(x, y)] = v
    return VRel(q, src, dst, ent)


def push_forward(q: Quantale, items) -> dict:
    """Join ``((x', y'), v)`` items per target pair: the entries of a
    V-relation pushed forward along maps of its carriers.  Bottom values are
    dropped before the join; a join of non-bottom values is never bottom, so
    the result holds no bottom entries."""
    bot = q.bottom
    join = q.join
    out: dict = {}
    for key, v in items:
        if v != bot:
            prev = out.get(key)
            out[key] = v if prev is None else join[prev][v]
    return out


def value_levels(rows: dict, dst: tuple) -> dict:
    """The value levels of a relation from its rows: levels[x][v] is the
    bitset of the positions in dst of the y with r(x, y) = v."""
    pos, out = {y: i for i, y in enumerate(dst)}, {}
    for x, row in rows.items():
        level = out[x] = {}
        for y, v in row:
            level[v] = level.get(v, 0) | 1 << pos[y]
    return out


def compose_levels(q: Quantale, row, levels: dict) -> dict:
    """The levels of s . r at x from the (y, u) of the row of r at x and the
    levels of s: each (v, bits) of s at y ORs into u (x) v.  Bottom absorbs
    the tensor, so a bottom level is dropped and the join stays exact."""
    tensor, bot, out = q.tensor, q.bottom, {}
    for y, u in row:
        for v, bits in levels.get(y, {}).items():
            if (w := tensor[u][v]) != bot:
                out[w] = out.get(w, 0) | bits
    return out


def decode_levels(op, level: dict, dst: tuple) -> dict:
    """One row from its levels: z in dst to the op (join or meet table)
    of the values w whose bitset holds the position of z."""
    out = {}
    for w, bits in level.items():
        while bits:
            bits ^= (low := bits & -bits)
            z = dst[low.bit_length() - 1]
            out[z] = op[out[z]][w] if z in out else w
    return out


def id_rel(q: Quantale, xs: tuple) -> VRel:
    """Identity relation: unit on the diagonal, bottom elsewhere."""
    return VRel(q, xs, xs, {(x, x): q.unit for x in xs})


def constant_rel(q: Quantale, src: tuple, dst: tuple, u: int) -> VRel:
    return tabulate(q, src, dst, lambda x, y: u)


def all_relations(q: Quantale, src: tuple, dst: tuple):
    """Exhaustive generator of all V-relations src -|-> dst, in a fixed
    deterministic order."""
    cells = [(x, y) for x in src for y in dst]
    for values in product(range(q.n), repeat=len(cells)):
        ent = {c: v for c, v in zip(cells, values) if v != q.bottom}
        yield VRel(q, src, dst, ent)


def random_relation(q: Quantale, src: tuple, dst: tuple, rng) -> VRel:
    return tabulate(q, src, dst, lambda x, y: rng.randrange(q.n))
