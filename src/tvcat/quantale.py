"""Finite commutative unital quantales with Heyting meet structure.

All lattice and tensor data live in precomputed integer tables so the heavily
quantified checks in the rest of the package run on O(1) lookups.  Elements
are referred to by their index in the ``labels`` tuple; labels only matter at
the file-format boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .report import CheckReport, Reporter


class FormatError(ValueError):
    """Malformed input tables or files."""


def _closure(n: int, pairs: set[tuple[int, int]]) -> list[list[bool]]:
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in pairs:
        leq[lo][hi] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return leq


@dataclass(frozen=True)
class Quantale:
    """A finite commutative unital quantale (V, <=, tensor, k).

    ``leq``, ``tensor`` are the primal tables; joins, meets, bottom, top,
    residuation ``hom`` and the Heyting implication are derived at
    construction time.  The join of u and v is the element whose up-set is
    up(u) & up(v), their meet the one whose down-set is down(u) & down(v):
    lookups exact on a partial order, which is no lattice when one misses.
    hom and Heyting are ``sup`` folds over the join table.  Construction is
    lenient about algebraic laws, so that ``check_quantale`` can report
    violations with witnesses.  Other orders come only by direct
    construction; ``check_quantale`` fails them on an order law before it
    reads a derived table.
    """

    labels: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    tensor: tuple[tuple[int, ...], ...]
    unit: int
    name: str = field(default="quantale", compare=False)
    # derived tables
    join: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    meet: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    bottom: int = field(init=False, compare=False)
    top: int = field(init=False, compare=False)
    hom: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    heyting: tuple[tuple[int, ...], ...] = field(init=False, compare=False)

    def __post_init__(self):
        n = len(self.labels)
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise FormatError("leq table must be %dx%d" % (n, n))
        if len(self.tensor) != n or any(len(row) != n for row in self.tensor):
            raise FormatError("tensor table must be %dx%d" % (n, n))
        if any(not (0 <= v < n) for row in self.tensor for v in row):
            raise FormatError("tensor entry out of range")
        if not 0 <= self.unit < n:
            raise FormatError("unit index out of range")
        leq, rng = self.leq, range(n)
        # the up- and down-set of each element as a bitset
        up = [sum(1 << v for v in rng if leq[u][v]) for u in rng]
        down = [sum(1 << v for v in rng if leq[v][u]) for u in rng]
        by_up = {bits: u for u, bits in enumerate(up)}
        by_down = {bits: u for u, bits in enumerate(down)}
        try:
            join = [[by_up[up[u] & up[v]] for v in rng] for u in rng]
            meet = [[by_down[down[u] & down[v]] for v in rng] for u in rng]
            bot, top = by_up[(1 << n) - 1], by_down[(1 << n) - 1]
        except KeyError:
            raise FormatError("order is not a lattice") from None
        object.__setattr__(self, "join", tuple(map(tuple, join)))
        object.__setattr__(self, "meet", tuple(map(tuple, meet)))
        object.__setattr__(self, "bottom", bot)
        object.__setattr__(self, "top", top)
        hom = [[self.sup(v for v in rng if leq[self.tensor[u][v]][w])
                for w in rng] for u in rng]
        heyt = [[self.sup(v for v in rng if leq[meet[u][v]][w]) for w in rng]
                for u in rng]
        object.__setattr__(self, "hom", tuple(map(tuple, hom)))
        object.__setattr__(self, "heyting", tuple(map(tuple, heyt)))

    # ---- element-level operations ----

    @property
    def n(self) -> int:
        return len(self.labels)

    def le(self, u: int, v: int) -> bool:
        return self.leq[u][v]

    def sup(self, elems) -> int:
        out = self.bottom
        for u in elems:
            out = self.join[out][u]
        return out

    def inf(self, elems) -> int:
        out = self.top
        for u in elems:
            out = self.meet[out][u]
        return out

    def tens(self, u: int, v: int) -> int:
        return self.tensor[u][v]

    def tens_all(self, elems) -> int:
        out = self.unit
        for u in elems:
            out = self.tensor[out][u]
        return out

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise FormatError("unknown quantale element %r" % (label,))

    def is_frame(self) -> bool:
        return self.tensor == self.meet

    def __repr__(self):
        return "Quantale(%s, n=%d)" % (self.name, self.n)

    # ---- file format ----

    def to_dict(self) -> dict:
        covers = []
        for i, j in product(range(self.n), repeat=2):
            if i != j and self.leq[i][j] and not any(
                    k != i and k != j and self.leq[i][k] and self.leq[k][j]
                    for k in range(self.n)):
                covers.append([self.labels[i], self.labels[j]])
        tens = {}
        for i in range(self.n):
            for j in range(i, self.n):
                tens["%s,%s" % (self.labels[i], self.labels[j])] = \
                    self.labels[self.tensor[i][j]]
        return {"elements": list(self.labels), "order": covers,
                "tensor": tens, "unit": self.labels[self.unit]}

    @classmethod
    def from_dict(cls, d: dict, name: str = "quantale",
                  guard: int | None = None) -> "Quantale":
        from .limits import check_guard  # limits imports FormatError from here
        try:
            elements, order = d["elements"], d["order"]
            tens_in, unit_label = d["tensor"], d["unit"]
        except (KeyError, TypeError) as exc:
            raise FormatError("quantale file missing field: %s" % exc)
        if not isinstance(elements, list) or not isinstance(tens_in, dict):
            raise FormatError("quantale elements must be a list, its tensor an object")
        labels = tuple(str(x) for x in elements)
        if len(set(labels)) != len(labels):
            raise FormatError("duplicate element labels")
        idx = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        check_guard(n * n, "quantale %s (n x n table cells)" % name, guard)

        def index(label, what):
            if not isinstance(label, str) or label not in idx:
                raise FormatError("%s mentions unknown element %r" % (what, label))
            return idx[label]

        pairs = set()
        if not isinstance(order, (list, tuple)) or any(
                not isinstance(p, (list, tuple)) or len(p) != 2 for p in order):
            raise FormatError("quantale order must be a list of [lower, upper] pairs")
        for lo, hi in order:
            pairs.add((index(lo, "order pair"), index(hi, "order pair")))
        leq = _closure(n, pairs)
        for i, j in product(range(n), repeat=2):
            if i != j and leq[i][j] and leq[j][i]:
                raise FormatError(
                    "order is not antisymmetric: %s ~ %s" % (labels[i], labels[j]))
        tensor = [[None] * n for _ in range(n)]
        for key, val in tens_in.items():
            # labels may themselves contain commas; accept any comma split
            # whose two sides are both known labels
            splits = [(key[:p], key[p + 1:]) for p in range(len(key))
                      if key[p] == "," and key[:p] in idx and key[p + 1:] in idx]
            if not splits:
                raise FormatError("bad tensor key %r" % key)
            a, b = splits[0]
            i, j, v = idx[a], idx[b], index(val, "tensor entry")
            for p, q in ((i, j), (j, i)):
                if tensor[p][q] is not None and tensor[p][q] != v:
                    raise FormatError(
                        "conflicting tensor entries for %s,%s" % (a, b))
                tensor[p][q] = v
        if any(x is None for row in tensor for x in row):
            raise FormatError("tensor table is incomplete")
        return cls(labels, tuple(map(tuple, leq)), tuple(map(tuple, tensor)),
                   index(unit_label, "unit"), name=name)

    @classmethod
    def from_file(cls, path: str, guard: int | None = None) -> "Quantale":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError("%s: invalid JSON: %s" % (path, exc))
        return cls.from_dict(d, name=path, guard=guard)


# ---- law checking ----

def tensor_bottom(q: Quantale, u: int) -> bool:
    """Bottom absorbs the tensor on both sides at u."""
    bot = q.bottom
    return q.tensor[u][bot] == bot == q.tensor[bot][u]


# (law, arity, holds(q, *elements)), checked in this order over all tuples
QUANTALE_LAWS = (
    ("order-reflexive", 1, lambda q, u: q.leq[u][u]),
    ("order-antisymmetric", 2,
     lambda q, u, v: u == v or not (q.leq[u][v] and q.leq[v][u])),
    ("order-transitive", 3,
     lambda q, u, v, w: q.leq[u][w] or not (q.leq[u][v] and q.leq[v][w])),
    ("tensor-commutative", 2, lambda q, u, v: q.tensor[u][v] == q.tensor[v][u]),
    ("tensor-associative", 3, lambda q, u, v, w:
     q.tensor[q.tensor[u][v]][w] == q.tensor[u][q.tensor[v][w]]),
    ("tensor-unit", 1, lambda q, u: q.tensor[q.unit][u] == u),
    ("tensor-join-distributive", 3, lambda q, u, v, w:
     q.tensor[u][q.join[v][w]] == q.join[q.tensor[u][v]][q.tensor[u][w]]),
    ("tensor-bottom", 1, tensor_bottom),
    ("hom-adjunction", 3, lambda q, u, v, w:
     q.leq[q.tensor[u][v]][w] == q.leq[v][q.hom[u][w]]),
    ("heyting-adjunction", 3, lambda q, u, v, w:
     q.leq[q.meet[u][v]][w] == q.leq[v][q.heyting[u][w]]),
)


def check_quantale(q: Quantale) -> CheckReport:
    """Every law of QUANTALE_LAWS; the first violation wins, witnessed by labels."""
    rep = Reporter("quantale")
    for law, arity, holds in QUANTALE_LAWS:
        for args in product(range(q.n), repeat=arity):
            rep.tick()
            if not holds(q, *args):
                return rep.fail(law, [q.labels[u] for u in args])
    return rep.ok()


def check_condition_inj(q: Quantale) -> CheckReport:
    """Distribution of the meet over below-tensor decompositions:
    w /\\ (u(x)v) must equal sup of u'(x)v' over u'<=u, v'<=v, u'(x)v'<=w."""
    rep = Reporter("condition_inj")
    rng = range(q.n)
    for u, v, w in product(rng, rng, rng):
        rep.tick()
        lhs = q.meet[w][q.tensor[u][v]]
        rhs = q.sup(q.tensor[u1][v1]
                    for u1 in rng if q.leq[u1][u]
                    for v1 in rng if q.leq[v1][v]
                    and q.leq[q.tensor[u1][v1]][w])
        if lhs != rhs:
            return rep.fail("inj-decomposition",
                            [q.labels[u], q.labels[v], q.labels[w]],
                            lhs=q.labels[lhs], rhs=q.labels[rhs])
    return rep.ok()


def guard_condition_inj(q: Quantale, guard: int | None = None) -> None:
    """Count the (u, v, w, u', v') candidates of check_condition_inj, about
    n^5/4 on a chain, against the guard floored at the default."""
    from .limits import DEFAULT_GUARD_SIZE, check_guard, guard_limit
    below = sum(map(sum, q.leq))  # the pairs u' <= u
    check_guard(q.n * below * below, "condition_inj on %s (u, v, w, u', v')" % q.name,
                max(guard_limit(guard), DEFAULT_GUARD_SIZE))


@dataclass(frozen=True)
class QuantaleHom:
    """Map between quantales, given by an element table (index -> index)."""

    source: Quantale
    target: Quantale
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.source.n:
            raise FormatError("hom table size mismatch")
        if any(not 0 <= v < self.target.n for v in self.table):
            raise FormatError("hom table entry out of range")

    def __call__(self, u: int) -> int:
        return self.table[u]

    def is_surjective(self) -> bool:
        return set(self.table) == set(range(self.target.n))


def check_hom(h: QuantaleHom) -> CheckReport:
    """Quantale homomorphism laws: preserves tensor, unit and all joins."""
    rep = Reporter("quantale_hom")
    s, t, f = h.source, h.target, h.table
    rng = range(s.n)
    rep.tick()
    if f[s.unit] != t.unit:
        return rep.fail("preserves-unit", [s.labels[s.unit]])
    for u, v in product(rng, rng):
        rep.tick()
        if f[s.tensor[u][v]] != t.tensor[f[u]][f[v]]:
            return rep.fail("preserves-tensor", [s.labels[u], s.labels[v]])
    for u, v in product(rng, rng):
        rep.tick()
        if f[s.join[u][v]] != t.join[f[u]][f[v]]:
            return rep.fail("preserves-joins", [s.labels[u], s.labels[v]])
    rep.tick()
    if f[s.bottom] != t.bottom:
        return rep.fail("preserves-bottom", [s.labels[s.bottom]])
    return rep.ok()


def check_lemma_surjective_transfer(h: QuantaleHom) -> CheckReport:
    """Surjective homomorphic images inherit the inj-decomposition condition;
    a counterexample here would be a genuine anomaly."""
    rep = Reporter("lemma_surjective_transfer")
    hom_ok = check_hom(h).passed
    surj = h.is_surjective()
    src_ok = check_condition_inj(h.source).passed
    tgt_ok = check_condition_inj(h.target).passed
    rep.tick()
    if hom_ok and surj and src_ok and not tgt_ok:
        return rep.fail("surjective-transfer",
                        {"source_inj": src_ok, "target_inj": tgt_ok})
    return rep.ok(applicable=hom_ok and surj and src_ok,
                  homomorphism=hom_ok, surjective=surj,
                  source_inj=src_ok, target_inj=tgt_ok)


# ---- bundled quantales ----

def two() -> Quantale:
    """The two-element quantale ({0,1}, <=, &, 1)."""
    leq = ((True, True), (False, True))
    tensor = ((0, 0), (0, 1))
    return Quantale(("0", "1"), leq, tensor, 1, name="two")


def chain_trunc_add(n: int) -> Quantale:
    """Chain {0,..,n-1} with reversed order and truncated addition; a finite
    analogue of the extended non-negative reals under +.  Unit is 0 (the top
    of the quantale order); n-1 plays the role of infinity (the bottom)."""
    if n < 1:
        raise FormatError("chain needs at least one element")
    labels = tuple(str(i) for i in range(n))
    leq = tuple(tuple(i >= j for j in range(n)) for i in range(n))
    tensor = tuple(tuple(min(n - 1, i + j) for j in range(n)) for i in range(n))
    return Quantale(labels, leq, tensor, 0, name="trunc_add_%d" % n)


def lukasiewicz(n: int) -> Quantale:
    """Evenly spaced n-point subchain of [0,1] with u (x) v = max(0, u+v-1)."""
    if n < 2:
        raise FormatError("chain needs at least two elements")
    # index i stands for i/(n-1)
    labels = tuple(str(Fraction(i, n - 1)) for i in range(n))
    leq = tuple(tuple(i <= j for j in range(n)) for i in range(n))
    tensor = tuple(tuple(max(0, i + j - (n - 1)) for j in range(n))
                   for i in range(n))
    return Quantale(labels, leq, tensor, n - 1, name="lukasiewicz_%d" % n)


def godel_chain(n: int) -> Quantale:
    """Chain 0 < 1 < .. < n-1 with tensor = min (a frame); the n-point model
    of the ultrametric quantale."""
    if n < 1:
        raise FormatError("chain needs at least one element")
    labels = tuple(str(i) for i in range(n))
    leq = tuple(tuple(i <= j for j in range(n)) for i in range(n))
    tensor = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    return Quantale(labels, leq, tensor, n - 1, name="godel_%d" % n)


def powerset_frame(k: int) -> Quantale:
    """Powerset of a k-element set, ordered by inclusion, tensor = meet."""
    if k < 0:
        raise FormatError("k must be non-negative")
    subsets = list(range(1 << k))
    labels = tuple(
        "{" + ",".join(str(i) for i in range(k) if s >> i & 1) + "}"
        for s in subsets)
    leq = tuple(tuple(s & t == s for t in subsets) for s in subsets)
    tensor = tuple(tuple(s & t for t in subsets) for s in subsets)
    return Quantale(labels, leq, tensor, (1 << k) - 1, name="powerset_%d" % k)


BUILTIN_QUANTALES = {
    "two": two,
    "trunc_add": chain_trunc_add,
    "lukasiewicz": lukasiewicz,
    "godel": godel_chain,
    "powerset": powerset_frame,
}


def quantale_by_name(spec: str, guard: int | None = None) -> Quantale:
    """Resolve ``two``, ``lukasiewicz:3`` etc., or a path to a JSON file.
    The n x n cells of its tables, a file's too, are counted against the
    guard before any is built (a powerset past 2^64 elements from below)."""
    from .limits import check_guard  # limits imports FormatError from here
    base, sep, arg = spec.partition(":")
    if base not in BUILTIN_QUANTALES:
        return Quantale.from_file(spec, guard)
    if base == "two":
        if sep:
            raise FormatError("quantale two takes no parameter")
        return two()
    try:
        n = int(arg)
    except ValueError:
        raise FormatError("quantale %s needs a numeric size, e.g. %s:3" % (base, base))
    side = max(n, 0)
    if base == "powerset":
        side = 1 << min(side, 64)
    check_guard(side * side, "quantale %s (n x n table cells)" % spec, guard)
    return BUILTIN_QUANTALES[base](n)
