"""Graph exponentials and the exponentiability criterion.

The carrier of an exponential <X,Y> is the set of admissible maps X -> Y
(those underlying structure-compatible maps out of X x E, where E is the
one-point generator), stored as value tuples in carrier order so they can
serve as carrier elements themselves.  The structure b^a is the largest
structure making evaluation into (Y, b) compatible: ``largest_compatible``,
given the relation b, computes it as a meet of Heyting implications, read
off the fibers of Tpi_X above the rows of a, residual dual to
``VRel.compose`` and like it on value levels (bitsets of the maps by
value); binary meet distributes over joins, so the defining supremum is
attained and the meet formula is exact.  The admissible maps are found by
``categories.compatible_maps``, which tests each point test as soon as the
map is fixed on its letters.  The presheaf category (presheaf.py) is built
by the same two kernels: its carrier is the same search over the same
``point_tests``, and its structure is ``largest_compatible`` with
residuation in place of implication.  The splitting criterion decides each
distinct key of a cell (XX, x), its set of value pairs over the middle
points and a(m XX, x), once per call; the frame criterion reads the rows
of a . Ta.  Both read Ta per key of XX (``TVStructure.keys``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .categories import (TVFunctor, TVStructure, check_category, check_functor,
                         compatible_maps, product)
from .limits import check_guard
from .quantale import FormatError
from .report import CheckReport, Reporter
from .theory import LaxExtension
from .vrel import VRel, decode_levels, value_levels


class NotTransitive(RuntimeError):
    """The exponential graph failed the category axioms; carries the
    offending tuple.  Signals that the base is not exponentiable against
    the chosen target."""

    def __init__(self, witness, law="transitivity"):
        super().__init__("exponential graph is not a category (%s) at %r"
                         % (law, witness))
        self.witness = witness
        self.law = law


@dataclass
class ExponentialGraph:
    """The graph <X,Y> together with its evaluation data."""

    sx: TVStructure
    sy: TVStructure
    structure: TVStructure  # carrier: admissible maps as value tuples

    def apply(self, h: tuple, x):
        return h[self.sx.carrier.index(x)]

    def ev_functor(self) -> TVFunctor:
        """Evaluation as a map out of the product <X,Y> x X."""
        p, _, _ = product(self.structure, self.sx)
        ev = {(h, x): self.apply(h, x) for (h, x) in p.carrier}
        return TVFunctor(p, self.sy, ev)


def point_tests(ext: LaxExtension, xs: tuple) -> list:
    """The T-elements of X seen through the one-point generator: the
    X-parts of the elements of T(X x 1) that sit above the unit point of
    T1."""
    estar = ext.monad.unit("*")
    return [t for t, star in ext.can_map(xs, ("*",)).values() if star == estar]


def largest_compatible(sx: TVStructure, z: tuple, b: VRel,
                       imp, guard: int | None = None) -> VRel:
    """The largest structure on z, a set of maps X -> Y stored as value
    tuples in the carrier order of sx = (X, a), making evaluation Z x X -> Y
    structure-compatible for the structure b on Y: c(p, h) is the meet, over
    T-elements w of Z x X above p and points x, of imp[a(Tpi_X w, x)][b(Tev
    w, h x)], for the implication table imp (Heyting for exponentials,
    residuation for presheaves).  Only the fibers above the non-bottom rows
    t of a are walked: imp[bottom] is all top (for residuation because
    bottom absorbs the tensor, the law ``tensor_bottom`` LaxExtension
    requires), and a top term moves no meet.  Above t, Tev w is fixed by the
    values of w's maps at the letters of t, so one ``monad.fiber`` pass folds
    each term once per value tuple, and a second ORs it into the column of
    every p = Tpi_Z w with those values.  Terms are the residual dual to
    ``VRel.compose``, on value levels: the maps h with h x = y form a bitset,
    ORed into the value of the term; each column is decoded once by
    ``decode_levels``.  The guard counts T(Z x X), an upper bound on the w
    visited.  Entries come in the order p in T(z), then h in z."""
    ext, q, xs = sx.ext, sx.quantale, sx.carrier
    top, bot = q.top, q.bottom
    check_guard(ext.monad.carrier_size(len(z) * len(xs)), "T(carrier x X) enumeration",
                guard)
    map_rows = {x: {h: h[i] for h in z} for i, x in enumerate(xs)}
    levels = value_levels(map_rows, z)
    value_rows = {x: {y: y for y in level} for x, level in levels.items()}
    cols: dict = {}
    for t, arow in sx.a.rows.items():
        terms = {}
        for tev, values in ext.monad.fiber(t, value_rows):
            row = b.rows.get(tev, {})
            term = terms[values] = {}
            for x, u in arow.items():
                for y, bits in levels[x].items():
                    if (v := imp[u][row.get(y, bot)]) != top:
                        term[v] = term.get(v, 0) | bits
        for p, values in ext.monad.fiber(t, map_rows):
            col = cols.setdefault(p, {})
            for v, bits in terms[values].items():
                col[v] = col.get(v, 0) | bits
    tz = ext.carrier(z)
    cols = {p: decode_levels(q.meet, col, z) for p, col in cols.items()}
    return VRel(q, tz, z, {(p, h): v for p in tz for row in (cols.get(p, {}),)
                           for h in z if (v := row.get(h, top)) != bot})


def admissible_maps(sx: TVStructure, sy: TVStructure,
                    guard: int | None = None) -> tuple:
    """Maps h: X -> Y underlying structure-compatible maps X x E -> Y: over
    every T-element t of X from point_tests, a(t, x) /\\ k <= b(Th t, h x)."""
    q = sx.quantale
    check_guard(len(sy.carrier) ** len(sx.carrier), "exponential carrier", guard)
    return tuple(compatible_maps(
        q, sx.monad, {x: sy.carrier for x in sx.carrier},
        (((t, x), q.meet[sx.a(t, x)][q.unit])
         for t in point_tests(sx.ext, sx.carrier) for x in sx.carrier), sy.a))


def graph_exponential(sx: TVStructure, sy: TVStructure,
                      guard: int | None = None) -> ExponentialGraph:
    """The largest structure on the admissible maps making evaluation
    structure-compatible: b^a(p, h) is the meet, over T-elements q of Z x X
    above p and points x, of heyting(a(Tpi_X q, x), b(Tev q, h x))."""
    if sx.quantale != sy.quantale:
        raise FormatError("exponential across different quantales")
    z = admissible_maps(sx, sy, guard)
    rel = largest_compatible(sx, z, sy.a, sx.quantale.heyting, guard)
    return ExponentialGraph(sx, sy, TVStructure(sx.ext, z, rel))


def check_exponentiability(sx: TVStructure) -> CheckReport:
    """The splitting criterion: for all in-bound XX, x, u, v,
    \\/_t (Ta(XX,t) /\\ u) (x) (a(t,x) /\\ v) >= a(m XX, x) /\\ (u (x) v).
    A term is bottom unless Ta(XX, t) and a(t, x) both are not, so a cell
    (XX, x) reads only its key: the set of value pairs (Ta(XX, t), a(t, x))
    of such middle points t, filled for every x in one pass over the row
    of Ta at the key of XX (``TVStructure.keys``) once per call, and
    a(m XX, x).  Each key is folded over u, v once per call; a key that
    passed before ticks its n^2 pairs at once, and the first failing key
    ends the call, so counts and witnesses are those of the literal loop."""
    rep = Reporter("exponentiability", bound=sx.ext.bound_info())
    q = sx.quantale
    xs, rows = sx.carrier, sx.a.rows
    meet, tensor = q.meet, q.tensor
    elems = range(q.n)
    square = q.n * q.n
    passed, cells = set(), {}
    for xx, mx in sx.ext.walk(xs, rep):
        if (xkey := sx.keys[xx]) not in cells:
            pairs = {x: set() for x in xs}
            for t, v1 in sx.ta[xkey].items():
                for x, v2 in rows.get(t, {}).items():
                    pairs[x].add((v1, v2))
            cells[xkey] = {x: frozenset(ps) for x, ps in pairs.items()}
        for x, ps in cells[xkey].items():
            amx = sx.a(mx, x)
            key = (ps, amx)
            if key in passed:
                rep.tick(square)
                continue
            for u in elems:
                for v in elems:
                    rep.tick()
                    rhs = meet[amx][tensor[u][v]]
                    lhs = q.sup(tensor[meet[v1][u]][meet[v2][v]] for v1, v2 in ps)
                    if not q.le(rhs, lhs):
                        return rep.fail("splitting", [repr(xx), repr(x),
                                                      q.labels[u], q.labels[v]],
                                        lhs=q.labels[lhs], rhs=q.labels[rhs])
            passed.add(key)
    return rep.ok()


def check_frame_criterion(sx: TVStructure,
                          expo: CheckReport | None = None) -> CheckReport:
    """Over a frame: a . m = a . Ta as relations TTX -|-> X.  The details
    record the exponentiability verdict (of ``expo``, or run here when None)
    so the equivalence of the two tests can be asserted per instance."""
    q = sx.quantale
    if not q.is_frame():
        raise FormatError("the frame criterion needs a frame quantale")
    rep = Reporter("frame_criterion", bound=sx.ext.bound_info())
    expo = (check_exponentiability(sx) if expo is None else expo).passed
    for xx, mx in sx.ext.walk(sx.carrier, rep):
        via = sx.kleisli[sx.keys[xx]]
        for x in sx.carrier:
            rep.tick()
            via_m, via_ta = sx.a(mx, x), via.get(x, q.bottom)
            if via_m != via_ta:
                return rep.fail("composite-mismatch", [repr(xx), repr(x)],
                                via_m=q.labels[via_m], via_ta=q.labels[via_ta],
                                exponentiability=expo)
    return rep.ok(exponentiability=expo)


def exponential_in_cats(sx: TVStructure, sy: TVStructure,
                        guard: int | None = None) -> ExponentialGraph:
    """Builds the graph exponential and certifies it as a category; raises
    NotTransitive (with the witness) when the axioms fail."""
    exp = graph_exponential(sx, sy, guard)
    sub = check_category(exp.structure)
    if not sub.passed:
        raise NotTransitive(sub.witness, sub.law)
    return exp


def curry(fmap: dict, sz: TVStructure, exp: ExponentialGraph) -> TVFunctor:
    """Transpose a map f: Z x X -> Y (given as a dict on pairs) through the
    exponential; verifies membership in the carrier and functoriality."""
    xs = exp.sx.carrier
    maps = {}
    for z in sz.carrier:
        h = tuple(fmap[(z, x)] for x in xs)
        if h not in exp.structure.carrier:
            raise FormatError("curried map at %r is not admissible" % (z,))
        maps[z] = h
    return TVFunctor(sz, exp.structure, maps)


def check_universal_property(exp: ExponentialGraph, fmap: dict,
                             sz: TVStructure) -> CheckReport:
    """ev . (curry f x 1) = f exactly, curry f is structure-compatible, and
    no other map Z -> <X,Y> satisfies the same equation.  Uniqueness needs
    no search: an element h of <X,Y> is its value tuple, so ev(g z, x) =
    f(z, x) for all x pins g z down to (f(z, x))_x.  What it rests on is
    checked: the carrier holds distinct value tuples of length |X|."""
    rep = Reporter("universal_property", bound=exp.sx.ext.bound_info())
    fbar = curry(fmap, sz, exp)
    sub = check_category(sz)
    if not sub.passed:
        raise FormatError("universal property needs a category as domain")
    fsub = check_functor(fbar)
    rep.tick(fsub.samples)
    if not fsub.passed:
        return rep.fail("curry-not-functor", fsub.witness, **fsub.details)
    for z in sz.carrier:
        for x in exp.sx.carrier:
            rep.tick()
            if exp.apply(fbar.map[z], x) != fmap[(z, x)]:
                return rep.fail("triangle", [repr(z), repr(x)])
    rep.tick()
    seen = set()
    for h in exp.structure.carrier:
        if len(h) != len(exp.sx.carrier) or h in seen:
            return rep.fail("uniqueness", [repr(h)])
        seen.add(h)
    return rep.ok(alternatives=0)
