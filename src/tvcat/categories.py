"""(T,V)-categories: structures, functors, lifts, reflector, duals, M/K.

A structure is a carrier X together with a V-relation a: TX -|-> X.  For the
word monad only the in-bound fragment of a is stored and every derived report
carries the depth bound.  Reflexivity (R) and transitivity (T) are checked,
never assumed; constructors and the file loader return unchecked structures
whose category status is established by an explicit check_category call.

The final lift is the one push-forward of a structure along maps: coproduct,
quotient and the reflector build their structure with it, and check_final
compares against it.  The reflexive-transitive closures of from_order and
equiv_classes are the Warshall closure of quantale orders, ``_closure``.
The fibers of the multiplication m are joined over in one place, the functor
M X = (TX, Ta . m-degree, m); K reindexes a0 along the algebra map alpha.
The dual X^op is K((M X)-degree), read off M X in one pass, and the
canonical structure on TX that representability is tested against is
K M X.  The checks walk TTX through ext.walk, the closure and M read
ext.fragment, both keyed by the points X, and the closure's defect scan
reads T(R), R the longest member of each row class of supp a.

Each derived table has one owner: constructions take T(X) from ext.carrier
and sort_key walks read ext.sorted_carrier.  Per structure, once, for the
closure round that returns it, (T), the splitting and frame criteria and M
(so dual, representation, presheaves): ``TVStructure.rows``, the one
grouping of a, ``keys``, XX keyed by the rows at its letters, ``ta``, the
rows of Ta per key in one lift, and ``kleisli``, the rows of a . Ta per key;
on first read, ``m_algebra``, M X, ``op``, the dual ``dual`` returns, ``a0``,
and ``classes``, the one partition separation and the reflector read.

compatible_maps, one set membership per test, is the one search for maps h
with a(t, x) <= b(Th t, h x): the exponential and presheaf carriers, the
representation search and weak factorization all run it.  The algebra law
alpha-v-functor lifts a0 by rows on the domain of alpha, building no Ta0.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product as iter_product

from .limits import DEFAULT_GUARD_SIZE, check_guard, guard_limit
from .monads import TheoryMonad, monad_by_name, monad_from_dict
from .quantale import FormatError, Quantale, _closure, quantale_by_name
from .report import CheckReport, Reporter, sort_key
from .theory import LaxExtension
from .vrel import (VRel, compose_levels, constant_rel, decode_levels, pair_carrier,
                   push_forward, random_relation, tabulate, value_levels)


class TVStructure:
    """A pair (X, a) with a: TX -|-> X over a fixed lax extension."""

    def __init__(self, ext: LaxExtension, carrier: tuple, a: VRel,
                 name: str = "", flags: dict | None = None):
        if a.src != ext.carrier(carrier) or a.dst != carrier:
            raise FormatError("structure relation carriers do not match TX, X")
        if len(set(carrier)) != len(carrier):
            raise FormatError("carrier has duplicate elements")
        self.ext = ext
        self.carrier = carrier
        self.a = a
        self.name = name
        self.flags = dict(flags or {})

    @property
    def quantale(self) -> Quantale:
        return self.ext.quantale

    @property
    def monad(self) -> TheoryMonad:
        return self.ext.monad

    @property
    def tx(self) -> tuple:
        return self.a.src

    @cached_property
    def rows(self) -> dict:
        """a by rows, the one grouping of a for every table read off it."""
        return self.a.rows()

    @cached_property
    def keys(self) -> dict:
        """Each in-bound XX pushed along cls, t to the first t' of TX with its
        row of a: Ta reads a only at the letters (``TheoryMonad.lift_rows``),
        so Ta and a . Ta at XX are those at its key."""
        first, rows = {}, self.rows
        cls = {t: first.setdefault(frozenset(rows.get(t, ())), t) for t in self.tx}
        map_elem, key = self.monad.map_elem, cls.__getitem__
        return {xx: map_elem(key, xx) for xx in self.ext.fragment(self.carrier)[2]}

    @cached_property
    def ta(self) -> dict:
        """Ta by rows at the distinct keys, ta[key] = {t: Ta(key, t)}, lifted
        in one call per structure for the checks that read it."""
        return self.ext.lift_rows(self.rows, tuple(dict.fromkeys(self.keys.values())))

    @cached_property
    def kleisli(self) -> dict:
        """a . Ta by rows, kleisli[key] = {x: w} without bottom: each row of Ta
        composed on the value levels of a and decoded, once per structure."""
        q, xs = self.quantale, self.carrier
        levels = value_levels(self.rows, xs)
        return {key: decode_levels(q.join, compose_levels(q, row.items(), levels), xs)
                for key, row in self.ta.items()}

    @cached_property
    def m_algebra(self) -> "EMAlgebra":
        return functor_M(self)

    @cached_property
    def op(self) -> "TVStructure":
        """X^op off M X in one pass, a column per m XX (see ``dual``)."""
        q, alg = self.quantale, self.m_algebra
        ttx, rows, cols = self.ext.carrier(self.tx), alg.a0.rows(), {}
        for y in self.tx:
            for c, v in rows.get(y, ()):
                if (w := q.tensor[q.unit][v]) != q.bottom:
                    cols.setdefault(c, []).append((y, w))
        return TVStructure(self.ext, self.tx, VRel(q, ttx, self.tx, {
            (xx, y): w for xx, c in alg.alpha.items() for y, w in cols.get(c, ())}),
            self.name and self.name + "^op",
            {"bounded_dual": True} if len(alg.alpha) < len(ttx) else None)

    @cached_property
    def a0(self) -> VRel:
        """The underlying V-category structure a . e: X -|-> X."""
        e = self.monad.unit
        return tabulate(self.quantale, self.carrier, self.carrier,
                        lambda x, y: self.a(e(x), y))

    @cached_property
    def classes(self) -> list:
        return equiv_classes(self)

    def __repr__(self):
        return "TVStructure(%s, |X|=%d)" % (self.name or "?", len(self.carrier))

    def __eq__(self, other):
        if not isinstance(other, TVStructure):
            return NotImplemented
        return (self.quantale == other.quantale
                and self.carrier == other.carrier and self.a == other.a)

    def __hash__(self):
        return hash(self.carrier)


@dataclass
class TVFunctor:
    source: TVStructure
    target: TVStructure
    map: dict

    def __post_init__(self):
        missing = [x for x in self.source.carrier if x not in self.map]
        if missing:
            raise FormatError("functor map misses carrier elements: %r" % missing)
        tgt = set(self.target.carrier)
        if any(self.map[x] not in tgt for x in self.source.carrier):
            raise FormatError("functor map leaves the target carrier")

    def __call__(self, x):
        return self.map[x]

    def t_map(self, t):
        """Tf applied to a T-element of the source."""
        return self.source.monad.map_elem(lambda x: self.map[x], t)


def identity_functor(s: TVStructure) -> TVFunctor:
    return TVFunctor(s, s, {x: x for x in s.carrier})


def compose_functors(g: TVFunctor, f: TVFunctor) -> TVFunctor:
    if f.target is not g.source and f.target != g.source:
        raise FormatError("functor composition mismatch")
    return TVFunctor(f.source, g.target, {x: g.map[f.map[x]] for x in f.source.carrier})


# ---- axioms ----

def check_graph(s: TVStructure) -> CheckReport:
    """Reflexivity (R): k <= a(e x, x) for every point."""
    rep = Reporter("graph", bound=s.ext.bound_info())
    q = s.quantale
    e = s.monad.unit
    for x in sorted(s.carrier, key=sort_key):
        rep.tick()
        if not q.le(q.unit, s.a(e(x), x)):
            return rep.fail("reflexivity", [repr(x)],
                            value=q.labels[s.a(e(x), x)])
    return rep.ok()


def check_category(s: TVStructure) -> CheckReport:
    """(R), then (T): a . Ta <= a . m on in-bound TTX, the row of ``kleisli``
    at the key of XX against a(m XX, -) point by point, decided once per key
    and class of m XX (the key of its unit).  A join is below a value exactly
    when each term is, so a failing row is scanned, t before x, for the
    witness term."""
    rep = Reporter("category", bound=s.ext.bound_info())
    q = s.quantale
    sub = check_graph(s)
    rep.tick(sub.samples)
    if not sub.passed:
        return rep.fail(sub.law, sub.witness, **sub.details)
    a, leq, bot, keys, fails = s.a, q.leq, q.bottom, s.keys, {}
    nt, nx = len(s.tx), len(s.carrier)
    for k, (xx, mx) in enumerate(s.ext.walk(s.carrier, rep)):
        if (key := (keys[xx], keys[s.monad.unit(mx)])) not in fails:
            fails[key] = any(not leq[w][a(mx, x)] for x, w in s.kleisli[key[0]].items())
        if not fails[key]:
            continue
        for (j, t), (i, x) in iter_product(enumerate(s.tx), enumerate(s.carrier)):
            lhs, rhs = q.tens(s.ta[key[0]].get(t, bot), a(t, x)), a(mx, x)
            if not q.le(lhs, rhs):
                rep.tick((k * nt + j) * nx + i + 1)
                return rep.fail("transitivity", [repr(xx), repr(t), repr(x)],
                                lhs=q.labels[lhs], rhs=q.labels[rhs])
    rep.tick(len(s.ext.fragment(s.carrier)[2]) * nt * nx)
    return rep.ok()


def _compare_along(f: TVFunctor, check: str, law: str, holds) -> CheckReport:
    """holds(a(t, x), b(Tf t, f x)) for every T-element t and point x of
    the source, with the first failure as witness."""
    rep = Reporter(check, bound=f.source.ext.bound_info())
    q = f.source.quantale
    a, b = f.source.a, f.target.a
    for t in f.source.ext.sorted_carrier(f.source.carrier):
        ft = f.t_map(t)
        for x in f.source.carrier:
            rep.tick()
            lhs, rhs = a(t, x), b(ft, f.map[x])
            if not holds(lhs, rhs):
                return rep.fail(law, [repr(t), repr(x)],
                                lhs=q.labels[lhs], rhs=q.labels[rhs])
    return rep.ok()


def check_functor(f: TVFunctor) -> CheckReport:
    q = f.source.quantale
    if q != f.target.quantale:
        raise FormatError("functor across different quantales")
    return _compare_along(f, "functor", "functoriality", q.le)


def check_fully_faithful(f: TVFunctor) -> CheckReport:
    """Functoriality with equality: a(t, x) = b(Tf t, f x) throughout."""
    return _compare_along(f, "fully_faithful", "fully-faithful", operator.eq)


def functor_leq(f: TVFunctor, g: TVFunctor) -> bool:
    """The 2-cell order: f <= g iff k <= b(e(f x), g x) pointwise."""
    if f.source.carrier != g.source.carrier or (f.target is not g.target
                                                and f.target != g.target):
        raise FormatError("functor order needs a common (co)domain")
    q = f.target.quantale
    b = f.target.a
    e = f.target.monad.unit
    return all(q.le(q.unit, b(e(f.map[x]), g.map[x])) for x in f.source.carrier)


def functor_equiv(f: TVFunctor, g: TVFunctor) -> bool:
    return functor_leq(f, g) and functor_leq(g, f)


def compatible_maps(q: Quantale, monad: TheoryMonad, domains: dict, entries, b):
    """The maps h with h(k) in domains[k] and v <= b(Th t, h x) at every
    non-bottom entry ((t, x), v), as value tuples in itertools.product order.
    An entry is tested once h is fixed on x and on the letters of t, so a
    failing prefix is pruned; the search keeps a stack, not a recursion.  A
    test is membership of (Th t, h x) in the cells of b above v, one set per
    v and call; a v below bottom is no test, so no bottom cell is above."""
    keys, above = tuple(domains), {}
    pos = {k: i for i, k in enumerate(keys)}
    tests = [[] for _ in keys]
    for (t, x), v in entries:
        if not q.leq[v][q.bottom]:
            if v not in above:
                above[v] = {c for c, w in b.entries.items() if q.leq[v][w]}
            tests[max(pos[k] for k in (x, *monad.letters(t)))].append((t, x, above[v]))
    h = {}
    stack = [iter(domains[keys[0]])]
    while stack:
        i = len(stack) - 1
        for h[keys[i]] in stack[i]:
            if all((monad.map_elem(h.__getitem__, t), h[x]) in cells
                   for t, x, cells in tests[i]):
                if i + 1 == len(keys):
                    yield tuple(h[k] for k in keys)
                else:
                    stack.append(iter(domains[keys[i + 1]]))
                    break
        else:
            stack.pop()


# ---- initial and final lifts ----

def initial_lift(ext: LaxExtension, carrier: tuple, cone) -> TVStructure:
    """Initial structure for a family of maps into structured targets:
    a(t, x) = /\\_i b_i(Tf_i t, f_i x)."""
    q = ext.quantale
    monad = ext.monad
    return TVStructure(ext, carrier, tabulate(
        q, ext.carrier(carrier), carrier,
        lambda t, x: q.inf(tgt.a(monad.map_elem(lambda z: m[z], t), m[x])
                           for m, tgt in cone)))


def product(sx: TVStructure, sy: TVStructure):
    """Binary product via the initial lift of the two projections; returns
    (structure, p1, p2)."""
    carrier = pair_carrier(sx.carrier, sy.carrier)
    p1 = {p: p[0] for p in carrier}
    p2 = {p: p[1] for p in carrier}
    s = initial_lift(sx.ext, carrier, [(p1, sx), (p2, sy)])
    return s, TVFunctor(s, sx, p1), TVFunctor(s, sy, p2)


def subspace(s: TVStructure, subset: tuple) -> TVFunctor:
    """Initial lift along the inclusion; returns the (fully faithful)
    inclusion functor."""
    if any(x not in s.carrier for x in subset):
        raise FormatError("subspace elements must come from the carrier")
    inc = {x: x for x in subset}
    sub = initial_lift(s.ext, tuple(subset), [(inc, s)])
    return TVFunctor(sub, s, inc)


def final_lift(ext: LaxExtension, carrier: tuple, cocone) -> TVStructure:
    """Final structure for a sink of maps out of structured sources, the
    push-forward b(t, y) = \\/ {a_i(s, x) | Tf_i s = t, f_i x = y}; a graph
    in general, closed into a category by graph_to_category."""
    q = ext.quantale
    monad = ext.monad
    ent = push_forward(q, (((monad.map_elem(m.__getitem__, t), m[x]), v)
                           for src, m in cocone for (t, x), v in src.a.entries.items()))
    return TVStructure(ext, carrier, VRel(q, ext.carrier(carrier), carrier, ent))


def graph_to_category(s: TVStructure) -> TVStructure:
    """Least category structure above the given graph: joins in the
    reflexive floor, then iterates a |-> a v (push-forward along m of the
    rows of ``kleisli``, a . Ta per key, of each round's structure) to its
    fixed point on the in-bound fragment of TTX, returned with its tables built.
    Each round pushes forward once per distinct (m XX, key of XX).  Defects
    at out-of-bound words cannot be propagated; the bounded_closure flag
    records them.  Ta grows with a, so a defect of any iterate is one of the
    fixed point, and the fixed point alone is scanned for them, over T(R),
    R one word per row class of supp a (``_out_of_bound_defect``)."""
    q = s.quantale
    ent = push_forward(q, [*s.a.entries.items(),
                           *(((s.monad.unit(x), x), q.unit) for x in s.carrier)])
    mult = {xx: mx for _, xx, mx in s.ext.fragment(s.carrier)[0]}
    while True:
        out = TVStructure(s.ext, s.carrier, VRel(q, s.tx, s.carrier, ent), name=s.name)
        pairs = dict.fromkeys((mx, out.keys[xx]) for xx, mx in mult.items())
        ent = push_forward(q, [*ent.items(), *(
            ((mx, x), v) for mx, key in pairs for x, v in out.kleisli[key].items())])
        if ent == out.a.entries:
            break
    if _out_of_bound_defect(out):
        out.flags["bounded_closure"] = True
    return out


def _out_of_bound_defect(s: TVStructure) -> bool:
    """Whether Ta (x) a is non-bottom at some out-of-bound XX, lifting a at
    one XX at a time until the first.  Ta is bottom at an XX with a letter
    outside supp a, and reads a only at the letters, so swapping each letter
    for the member of its row class (the t of supp a with one row of a) with
    the most letters keeps the lifted row and only lengthens m's argument:
    only T(R) is scanned, R those members, one per class; the tensor
    distributes over joins, so one non-bottom term is enough."""
    q, rows, ext, letters = s.quantale, s.rows, s.ext, s.monad.letters
    longest = {frozenset(rows[t]): t for t in sorted(rows, key=lambda t: len(letters(t)))}
    return any(q.tens(u, v) != q.bottom
               for xx in ext.carrier(tuple(longest.values()))
               if s.monad.mult(xx) is None
               for xv, u in ext.lift_rows(rows, (xx,))[xx].items()
               for _, v in rows.get(xv, ()))


def coproduct(sx: TVStructure, sy: TVStructure):
    """Disjoint union with the final structure; returns (structure, i1, i2).
    Carrier elements are tagged ("0", x) / ("1", y)."""
    m1 = {x: ("0", x) for x in sx.carrier}
    m2 = {y: ("1", y) for y in sy.carrier}
    carrier = tuple(m1[x] for x in sx.carrier) + tuple(m2[y] for y in sy.carrier)
    s = final_lift(sx.ext, carrier, [(sx, m1), (sy, m2)])
    s = graph_to_category(s)
    return s, TVFunctor(sx, s, m1), TVFunctor(sy, s, m2)


def quotient(s: TVStructure, proj: dict):
    """Final structure along a surjection, closed back into a category;
    returns (structure, projection functor)."""
    image = tuple(dict.fromkeys(proj[x] for x in s.carrier))
    g = graph_to_category(final_lift(s.ext, image, [(s, proj)]))
    return g, TVFunctor(s, g, proj)


def tensor(sx: TVStructure, sy: TVStructure) -> TVStructure:
    """The tensor structure c(w, (x,y)) = a(Tpi_X w, x) (x) b(Tpi_Y w, y);
    a graph in general, category status by explicit check."""
    q = sx.quantale
    carrier = pair_carrier(sx.carrier, sy.carrier)
    can = sx.ext.can_map(sx.carrier, sy.carrier)
    return TVStructure(sx.ext, carrier, tabulate(
        q, sx.ext.carrier(carrier), carrier,
        lambda w, p: q.tens(sx.a(can[w][0], p[0]), sy.a(can[w][1], p[1]))))


# ---- separation and the reflector ----

def equiv_classes(s: TVStructure) -> list[tuple]:
    """Partition of the carrier by mutual k-closeness of points (the
    relation compared by the separation condition), closed transitively so
    that graphs are handled as well as categories.  Classes come in the
    carrier order of their first point, members in sort_key order."""
    q, a0, xs = s.quantale, s.a0, s.carrier
    close = [[q.le(q.unit, a0(x, y)) for y in xs] for x in xs]
    near = _closure(len(xs), {(i, j) for i, row in enumerate(close)
                              for j, c in enumerate(row) if c and close[j][i]})
    return list(dict.fromkeys(tuple(sorted(compress(xs, row), key=sort_key))
                              for row in near))


def separated(s: TVStructure) -> bool:
    return all(len(c) == 1 for c in s.classes)


def reflect_R(s: TVStructure):
    """Quotient by mutual k-closeness with the induced structure
    a~(t, [x]) = \\/ {a(w, x') | T eta w = t, x' ~ x}; returns (quotient,
    eta).  Class labels are the least original member of each class."""
    rep_of = {x: cls[0] for cls in s.classes for x in cls}
    image = tuple(dict.fromkeys(rep_of[x] for x in s.carrier))
    out = final_lift(s.ext, image, [(s, rep_of)])
    out.name = s.name
    return out, TVFunctor(s, out, rep_of)


def check_initial(f: TVFunctor) -> CheckReport:
    """f carries the initial structure: a(t, x) = b(Tf t, f x) exactly (the
    single-map case of the initial lift)."""
    return _compare_along(f, "initial", "fully-faithful", operator.eq)


def check_final(f: TVFunctor) -> CheckReport:
    """f carries the final structure: b(t, y) is exactly the join of a over
    the fiber of (Tf, f): b compared along the identity with the lift."""
    lift = final_lift(f.target.ext, f.target.carrier, [(f.source, f.map)])
    return _compare_along(TVFunctor(f.target, lift, {y: y for y in lift.carrier}),
                          "final", "final-structure", operator.eq)


def check_R_preserves_products(sx: TVStructure, sy: TVStructure) -> CheckReport:
    """The reflector applied to a product agrees with the product of the
    reflections, along the canonical comparison ([(x,y)] |-> ([x],[y]))."""
    rep = Reporter("R_preserves_products", bound=sx.ext.bound_info())
    p, _, _ = product(sx, sy)
    rp, eta_p = reflect_R(p)
    rx, eta_x = reflect_R(sx)
    ry, eta_y = reflect_R(sy)
    q_prod, _, _ = product(rx, ry)
    phi = {z: (eta_x.map[z[0]], eta_y.map[z[1]]) for z in rp.carrier}
    rep.tick()
    if len(set(phi.values())) != len(rp.carrier) or len(rp.carrier) != len(q_prod.carrier):
        return rep.fail("comparison-not-bijective",
                        {"left": len(rp.carrier), "right": len(q_prod.carrier)})
    comparison = TVFunctor(rp, q_prod, phi)
    sub = check_fully_faithful(comparison)
    rep.tick(sub.samples)
    if not sub.passed:
        return rep.fail("comparison-not-iso", sub.witness, **sub.details)
    return rep.ok()


# ---- duals, M and K ----

def dual(s: TVStructure, guard: int | None = None) -> TVStructure:
    """X^op = K((M X)-degree) read along m: the structure on TX whose value
    at (XX, t) is (M X)(t, m XX), the join of Ta(YY, m XX) over all YY with
    m YY = t.  Out-of-bound XX, where m is undefined, stay bottom and are
    recorded in the bounded_dual flag.  T(TX) is counted against the guard
    on every call, then the structure's one ``op`` is returned."""
    check_guard(s.monad.carrier_size(len(s.tx)), "T(TX) enumeration", guard)
    return s.op


@dataclass
class EMAlgebra:
    """A V-category (X, a0) with an algebra map alpha: TX -> X; for bounded
    monads alpha may be partial (missing keys are skipped in checks)."""

    ext: LaxExtension
    carrier: tuple
    a0: VRel
    alpha: dict

    @property
    def quantale(self):
        return self.ext.quantale


def check_algebra(alg: EMAlgebra) -> CheckReport:
    rep = Reporter("em_algebra", bound=alg.ext.bound_info())
    q = alg.quantale
    monad = alg.ext.monad
    a0 = alg.a0
    for x in alg.carrier:
        rep.tick()
        if not q.le(q.unit, a0(x, x)):
            return rep.fail("v-reflexivity", [repr(x)])
        for y in alg.carrier:
            for z in alg.carrier:
                rep.tick()
                if not q.le(q.tens(a0(x, y), a0(y, z)), a0(x, z)):
                    return rep.fail("v-transitivity", [repr(x), repr(y), repr(z)])
    tx = alg.ext.carrier(alg.carrier)
    for x in alg.carrier:
        rep.tick()
        if alg.alpha.get(monad.unit(x)) != x:
            return rep.fail("algebra-unit", [repr(x)])
    for xx, mx in alg.ext.walk(alg.carrier, rep):
        if any(t not in alg.alpha for t in monad.letters(xx)):
            rep.skip()
            continue
        rep.tick()
        if alg.alpha.get(monad.map_elem(lambda t: alg.alpha[t], xx)) != alg.alpha.get(mx):
            return rep.fail("algebra-mult", [repr(xx)])
    # alpha-v-functor, Ta0(t, u) <= a0(alpha t, alpha u) over tx x tx with
    # t and u in the domain of alpha: only a non-bottom cell can fail, so
    # the rows of Ta0 are read on that domain alone and the cells up to the
    # first failure counted in closed form: a t outside alpha is one skip,
    # a t inside it ticks each u inside and skips each u outside
    alpha = alg.alpha
    rank = {t: i for i, t in enumerate(tx)}
    ta0 = alg.ext.lift_rows(a0.rows(), tuple(t for t in tx if t in alpha))
    bad = min(((rank[t], rank[u]) for t, row in ta0.items() for u, v in row.items()
               if u in alpha and not q.le(v, a0(alpha[t], alpha[u]))), default=None)
    inside = [t in alpha for t in tx]
    i, j = bad or (len(tx), -1)
    rows_in, cols_in = sum(inside[:i]), sum(inside[:j + 1])
    rep.tick(rows_in * sum(inside) + cols_in)
    rep.skip(i - rows_in + rows_in * inside.count(False) + j + 1 - cols_in)
    if bad:
        return rep.fail("alpha-v-functor", [repr(tx[i]), repr(tx[j])])
    return rep.ok()


def functor_M(s: TVStructure) -> EMAlgebra:
    """M sends (X, a) to (TX, Ta . m-degree, m), joined per (m XX, key)."""
    q = s.quantale
    alpha = {xx: mx for _, xx, mx in s.ext.fragment(s.carrier)[0]}
    pairs = dict.fromkeys((mx, s.keys[xx]) for xx, mx in alpha.items())
    ent = push_forward(q, (((mx, t), v) for mx, key in pairs
                           for t, v in s.ta[key].items()))
    return EMAlgebra(s.ext, s.tx, VRel(q, s.tx, s.tx, ent), alpha)


def functor_K(alg: EMAlgebra) -> TVStructure:
    """K sends (X, a0, alpha) to (X, a0 . alpha), a0 reindexed along alpha:
    a(t, y) = k (x) a0(alpha t, y), bottom where alpha is undefined."""
    q, alpha, rows = alg.quantale, alg.alpha, alg.a0.rows()
    tx = alg.ext.carrier(alg.carrier)
    out = TVStructure(alg.ext, alg.carrier, VRel(q, tx, alg.carrier, {
        (t, y): w for t, x in alpha.items() for y, v in rows.get(x, ())
        if (w := q.tensor[q.unit][v]) != q.bottom}))
    if any(t not in alpha for t in tx):
        out.flags["bounded_algebra"] = True
    return out


def v_hom_xi(ext: LaxExtension) -> TVStructure:
    """The structure (V, hom_xi) on the quantale's own carrier, with element
    labels as points."""
    q = ext.quantale
    r = ext.hom_xi()
    lab = q.labels.__getitem__
    rel = r.rename(lambda t: ext.monad.map_elem(lab, t), lab)
    return TVStructure(ext, tuple(q.labels), rel, name="V_hom_xi")


# ---- representability ----

def find_representation(s: TVStructure, guard: int | None = None):
    """Search for alpha: TX -> X making a left adjoint to the unit: a
    structure-compatible map out of the canonical structure K M X on TX,
    hat(XX, t) = (M X)(m XX, t), with alpha . e ~ 1.  Returns None, or
    (alpha, report) for the least candidate in pointwise carrier order; the
    report records pseudo-algebra status alpha . T alpha ~ alpha . m on
    in-bound elements."""
    q = s.quantale
    monad = s.monad
    check_guard(len(s.carrier) ** len(s.tx), "representation search", guard)
    hat = functor_K(s.m_algebra).a
    a0 = s.a0
    order = sorted(s.carrier, key=sort_key)
    domains = {t: order for t in s.ext.sorted_carrier(s.carrier)}
    for x in s.carrier:
        domains[monad.unit(x)] = [y for y in order if q.le(q.unit, a0(y, x))
                                  and q.le(q.unit, a0(x, y))]
    for values in compatible_maps(q, monad, domains, hat.entries.items(), s.a):
        alpha = dict(zip(domains, values))
        rep = Reporter("representation", bound=s.ext.bound_info())
        pseudo = True
        for xx, mx in s.ext.walk(s.carrier, rep):
            rep.tick()
            lhs = alpha[monad.map_elem(lambda u: alpha[u], xx)]
            rhs = alpha[mx]
            if not (q.le(q.unit, a0(lhs, rhs)) and q.le(q.unit, a0(rhs, lhs))):
                pseudo = False
        return alpha, rep.ok(pseudo_algebra=pseudo)
    return None


# ---- constructors and serialization ----

def discrete(ext: LaxExtension, xs: tuple) -> TVStructure:
    """a(t, x) = k iff t = e(x), bottom elsewhere."""
    q = ext.quantale
    unit = ext.monad.unit
    return TVStructure(ext, tuple(xs), VRel(q, ext.carrier(tuple(xs)), tuple(xs),
                                            {(unit(x), x): q.unit for x in xs}))


def indiscrete(ext: LaxExtension, xs: tuple) -> TVStructure:
    q = ext.quantale
    return TVStructure(ext, tuple(xs), constant_rel(q, ext.carrier(tuple(xs)),
                                                    tuple(xs), q.top))


def one_point(ext: LaxExtension) -> TVStructure:
    return discrete(ext, ("*",))


def from_order(ext: LaxExtension, xs: tuple, pairs) -> TVStructure:
    """Identity-monad convenience: the structure of a preorder given by
    covering or order pairs over xs (reflexive-transitive closure taken)."""
    q = ext.quantale
    xs = tuple(xs)
    idx = {x: i for i, x in enumerate(xs)}
    try:
        leq = _closure(len(xs), {(idx[x], idx[y]) for x, y in pairs})
    except KeyError as exc:
        raise FormatError("order pair names %r, not a carrier point" % exc.args[0]) from None
    letters = ext.monad.letters
    return TVStructure(ext, xs, tabulate(
        q, ext.carrier(xs), xs,
        lambda t, x: q.unit if all(leq[idx[l]][idx[x]] for l in letters(t)) else q.bottom))


def random_category(ext: LaxExtension, xs: tuple, rng) -> TVStructure:
    """A random graph closed into a category; the workhorse for sampled
    soundness suites."""
    r = random_relation(ext.quantale, ext.carrier(tuple(xs)), tuple(xs), rng)
    return graph_to_category(TVStructure(ext, tuple(xs), r))


def structure_entries(s: TVStructure) -> dict:
    """The non-bottom entries of the structure as {'T-elem;x': label}, the
    form of structure files and reports."""
    q = s.quantale
    to_str = s.monad.elem_to_str
    return {"%s;%s" % (to_str(t), x): q.labels[v]
            for (t, x), v in s.a.entries.items() if v != q.bottom}


def key_table(ts, xs, to_str=str) -> dict:
    """{'t;x': (t, x)} over ts x xs, the keys of structure and map files.
    Keys are read back by lookup, so labels may contain ';'; two pairs that
    share a key raise FormatError."""
    table: dict = {}
    for t in ts:
        for x in xs:
            text = "%s;%s" % (to_str(t), x)
            if table.setdefault(text, (t, x)) != (t, x):
                raise FormatError("%r and %r share the key %r; relabel the "
                                  "carrier" % (table[text], (t, x), text))
    return table


def structure_to_dict(s: TVStructure) -> dict:
    return {"quantale": s.quantale.to_dict(), "monad": s.monad.describe(),
            "carrier": list(s.carrier), "structure": structure_entries(s)}


def structure_from_dict(d: dict, guard: int | None = None) -> TVStructure:
    """A structure file's object: its specs resolved, then ``structure_on``."""
    if not isinstance(d, dict):
        raise FormatError("a structure is described by a JSON object")
    qspec = d.get("quantale")
    if isinstance(qspec, str):
        q = quantale_by_name(qspec, guard)
    elif isinstance(qspec, dict):
        q = Quantale.from_dict(qspec, guard=guard)
    else:
        raise FormatError("structure file needs a quantale name or object")
    mspec = d.get("monad", "identity")
    monad = monad_by_name(mspec) if isinstance(mspec, str) else monad_from_dict(mspec)
    return structure_on(LaxExtension(monad, q), d.get("carrier", []),
                        d.get("structure", {}), str(d.get("name", "")), guard)


def structure_on(ext: LaxExtension, carrier, entries, name: str = "",
                 guard: int | None = None) -> TVStructure:
    """The structure over ext on carrier (a nonempty list, its points read
    as strings) with entries {'T-elem;x': label}.  T(carrier) is counted
    against the guard before it is built, then the in-bound fragment of
    T(T carrier) the checks walk, as ext builds and keeps it, up to one past
    the larger of the guard and the default (a lowered guard still admits
    it)."""
    if not isinstance(carrier, (list, tuple)) or not carrier:
        raise FormatError("structure file needs a nonempty list as its carrier")
    carrier = tuple(str(x) for x in carrier)
    monad = ext.monad
    check_guard(monad.carrier_size(len(carrier)), "T(carrier) enumeration", guard)
    ext.fragment(carrier, max(guard_limit(guard), DEFAULT_GUARD_SIZE))
    tx = ext.carrier(carrier)
    keys = key_table(tx, carrier, monad.elem_to_str)
    if not isinstance(entries, dict):
        raise FormatError("structure entries must be a JSON object")
    ent = {}
    for key, lab in entries.items():
        if key not in keys:
            raise FormatError("structure key %r is not 'T-elem;x' over the "
                              "carrier" % key)
        ent[keys[key]] = ext.quantale.index(lab)
    return TVStructure(ext, carrier, VRel(ext.quantale, tx, carrier, ent), name=name)


def structure_from_file(path: str, guard: int | None = None) -> TVStructure:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return structure_from_dict(json.load(fh), guard)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError("cannot load structure %s: %s" % (path, exc))
