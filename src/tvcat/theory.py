"""Lax extension of a Set-monad to V-relations, induced by the algebra map xi.

The extension of a relation r: X -|-> Y at (t, t') is the join, over the
elements w of T(X x Y) with T pi_X w = t and T pi_Y w = t', of xi applied to
the T-image of r.  Bottom absorbs the tensor (checked when an extension is
built), so a w with a letter outside the support of r adds bottom, and each
monad gives the join in closed form from the rows of r at the requested
T-elements (``TheoryMonad.lift_rows``): r itself for the identity, r
relabelled for X x H, the tensor of r letter by letter for words.  The
tests keep the literal join over T(X x Y) and the fold of xi over the
fibers of T(supp r) as the oracles the closed forms are checked against.

Checks that quantify over TTX read only its in-bound fragment (where m is
defined); ``fragment`` gives it keyed by the points X, the monad's
``fragment`` of ``sorted_carrier(X)``, without enumerating or
sorting TTX (the tests keep that sort as its oracle), with the count of
out-of-bound elements between its members, which ``walk`` counts as skips,
so Ta (TTr in the op-lax mult square) is computed on it alone.  The square
reads only the non-bottom row of TTr at each XX and counts the rest of TTY
in closed form.

The comparison square of the infi condition is decided by ``infi_sweep``
over all pairs of two lists of relations at once; ``check_infi`` is the
sweep of one pair.  The square can fail only where both lifted sides are
non-bottom, so only those cells are visited, and its left table is the
lift at w of the joint rows pushed along can_dst, so no pair builds the
joint relation or its extension.  The lift at w reads only the rows at the
letters of w, so per w the sweep lifts one square per class of pairs that
agree on those rows; nothing it builds outlives the call.  The extension
laws extend each distinct relation of their pairs once; ``scalar_tensor_sweep``
decides each row x once per class (x, u, rows at the letters of x).

``LaxExtension`` owns the tables derived per carrier, each built once:
T(X) (``carrier``, the one enumeration of T(X) outside monads.py), its
sort_key order (``sorted_carrier``, the one sort of a T-carrier), the
fragment and the comparison map (``can_map``, on the T(X x Y) of
``carrier``).  ``lift_rows`` is the monad's lift of rows its callers hold;
``extend``, its relation, is built by the extension laws alone.
"""

from __future__ import annotations

from itertools import islice, product

from .limits import check_guard
from .monads import TheoryMonad, can_map, walk_fragment
from .quantale import (FormatError, Quantale, check_condition_inj, guard_condition_inj,
                       tensor_bottom)
from .report import CheckReport, Reporter, sort_key
from .vrel import (VRel, all_relations, id_rel, pair_carrier, push_forward,
                   random_relation, tabulate)


class LaxExtension:
    """A monad together with a quantale; provides Tr on V-relations, and per
    carrier the tables its checks share."""

    def __init__(self, monad: TheoryMonad, quantale: Quantale):
        for u in range(quantale.n):
            if not tensor_bottom(quantale, u):
                raise FormatError("the lax extension needs bottom to absorb the "
                                  "tensor (law tensor-bottom), which fails at %r"
                                  % quantale.labels[u])
        self.monad = monad
        self.quantale = quantale
        self._carrier_cache: dict = {}
        self._sorted_cache: dict = {}
        self._mult_cache: dict = {}
        self._can_cache: dict = {}

    def __repr__(self):
        return "LaxExtension(%r, %s)" % (self.monad, self.quantale.name)

    def bound_info(self):
        return self.monad.bound_info()

    def extend(self, r: VRel) -> VRel:
        """Tr: TX -|-> TY, the relation of the rows of ``lift_rows``."""
        rows = self.lift_rows(r.rows(), self.carrier(r.src))
        return VRel(self.quantale, self.carrier(r.src), self.carrier(r.dst), {
            (t, ty): v for t, row in rows.items() for ty, v in row.items()})

    def lift_rows(self, rows: dict, tx: tuple) -> dict:
        """Tr by rows at the T-elements tx, from r by rows (``VRel.rows``):
        {t: {ty: v}} without bottom, the monad's closed form."""
        return self.monad.lift_rows(rows, tx, self.quantale)

    def carrier(self, xs: tuple) -> tuple:
        """T(xs), enumerated once per carrier."""
        tx = self._carrier_cache.get(xs)
        if tx is None:
            tx = self._carrier_cache[xs] = self.monad.carrier(xs)
        return tx

    def sorted_carrier(self, xs: tuple) -> tuple:
        """T(xs) in sort_key order, sorted once per carrier."""
        order = self._sorted_cache.get(xs)
        if order is None:
            order = self._sorted_cache[xs] = tuple(
                sorted(self.carrier(xs), key=sort_key))
        return order

    def fragment(self, xs: tuple, limit: int | None = None) -> tuple:
        """The in-bound fragment of TTX, where m is defined, once per point
        carrier xs: the (rows, tail) of ``TheoryMonad.fragment`` over
        ``sorted_carrier(xs)``, in sort_key order, and xxs, the XX of the
        rows alone.  Checks visit it through ``walk``.  Given a limit, a
        fragment with more rows raises GuardError, a kept one as well: it
        is walked again to be refused as a new one is."""
        frag = self._mult_cache.get(xs)
        if frag is None or limit is not None and len(frag[2]) > limit:
            rows, tail = self.monad.fragment(self.sorted_carrier(xs), limit,
                                             "in-bound T(T carrier) fragment")
            frag = self._mult_cache[xs] = (rows, tail, tuple(xx for _, xx, _ in rows))
        return frag

    def walk(self, xs: tuple, rep: Reporter):
        """monads.walk_fragment over fragment(xs)."""
        return walk_fragment(self.fragment(xs), rep)

    def can_map(self, xs: tuple, ys: tuple) -> dict:
        """monads.can_map on T(xs x ys), once per carrier pair."""
        key = (xs, ys)
        cm = self._can_cache.get(key)
        if cm is None:
            cm = self._can_cache[key] = can_map(self.monad, self.carrier(pair_carrier(xs, ys)))
        return cm

    def hom_xi(self) -> VRel:
        """The structure relation of the quantale itself: hom(xi(tv), v) on
        T(V) x V, with element indices as carrier labels."""
        q = self.quantale
        elems = tuple(range(q.n))
        tv = self.carrier(elems)
        xi = {t: self.monad.xi(t, q) for t in tv}
        return tabulate(q, tv, elems, lambda t, v: q.hom[xi[t]][v])


# ---- extension-level checks ----

def check_extension_laws(ext: LaxExtension, rels=None, pairs=None) -> CheckReport:
    """Lax functoriality, involution equality and the two op-lax squares."""
    rep = Reporter("extension_laws", bound=ext.bound_info())
    q = ext.quantale
    monad = ext.monad
    if rels is None:
        xs = ("x0", "x1")
        rels = list(all_relations(q, xs, xs))[:: max(1, q.n ** 4 // 16)]
    if pairs is None:
        pairs = [(r, s) for r in rels for s in rels]
    lifts: dict = {}

    def lift(r: VRel, rows: bool = False):
        # the pairs reuse few relations: extend each distinct one once, and
        # keep its rows beside it once a lax-composition term reads them
        key = (r.src, r.dst, frozenset(r.entries.items()))
        got = lifts.get(key)
        if got is None:
            got = lifts[key] = [ext.extend(r), None]
        if rows and got[1] is None:
            got[1] = got[0].rows()
        return got[1] if rows else got[0]

    for r in rels:
        # T(id) >= id
        tid = lift(id_rel(q, r.src))
        idt = id_rel(q, ext.carrier(r.src))
        gap = idt.first_gap(tid)
        rep.tick()
        if gap is not None:
            return rep.fail("lax-identity", [repr(gap[0])])
        # involution
        tr = lift(r)
        trt = lift(r.transpose())
        rep.tick()
        if trt != tr.transpose():
            gap = trt.first_gap(tr.transpose()) or tr.transpose().first_gap(trt)
            return rep.fail("involution", [repr(gap[0]), repr(gap[1])])
        # op-lax unit square: r(x,y) <= Tr(e x, e y)
        for x in r.src:
            for y in r.dst:
                rep.tick()
                if not q.le(r(x, y), tr(monad.unit(x), monad.unit(y))):
                    return rep.fail("oplax-unit", [repr(x), repr(y)])
        # op-lax mult square: TTr(XX, YY) <= Tr(m XX, m YY) on the in-bound
        # fragments of TTX and TTY.  Only a non-bottom cell of TTr can fail,
        # so each XX reads its row of TTr alone and counts the other in-bound
        # YY in bulk, with one skip per out-of-bound YY up to the witness
        xs, ys = r.src, r.dst
        yrows, ytail, _ = ext.fragment(ys)
        ypos, ygaps = {}, 0
        for j, (ygap, yy, my) in enumerate(yrows):
            ygaps += ygap
            ypos[yy] = (j, yy, my, ygaps)
        ttr = ext.lift_rows(lift(r, rows=True), ext.fragment(xs)[2])
        for xx, mx in ext.walk(xs, rep):
            bad = [ypos[yy] for yy, v in ttr.get(xx, {}).items()
                   if yy in ypos and not q.le(v, tr(mx, ypos[yy][2]))]
            if bad:
                j, yy, _, skipped = min(bad)
                rep.tick(j + 1)
                rep.skip(skipped)
                return rep.fail("oplax-mult", [repr(xx), repr(yy)])
            rep.tick(len(yrows))
            rep.skip(ygaps + ytail)
    # Ts . Tr <= T(s . r) term by term: a join is below a value exactly when
    # each Tr(t, t') (x) Ts(t', t'') is; the witness is the least failing cell
    leq, tensor, bot = q.leq, q.tensor, q.bottom
    for r, s in pairs:
        if r.dst != s.src:
            continue
        rep.tick()
        lhs, srows = lift(s.compose(r)).entries, lift(s, rows=True)
        gap = min(((t, t2) for (t, t1), u in lift(r).entries.items()
                   for t2, v in srows.get(t1, ())
                   if not leq[tensor[u][v]][lhs.get((t, t2), bot)]), key=sort_key,
                  default=None)
        if gap is not None:
            return rep.fail("lax-composition", [repr(gap[0]), repr(gap[1])])
    return rep.ok()


def infi_sweep(ext: LaxExtension, rs: list, ss: list):
    """The comparison-map square for the joint relation of each pair of
    rs x ss (rs on one pair of carriers, ss on another), in product order:
    (index, report) of the least failing pair, or (len(rs) len(ss), pass).
    Only >= can fail: over w in T(X x X') in sort_key order, then x', y' in
    dst order, the cell (w, x', y') fails when Tr(wx, x') /\\ Ts(wy, y') is
    not below the join of T(r owedge s)(w, w') over the w' above (x', y').
    Only where the rows of Tr at wx and of Ts at wy are non-empty is that
    left side lifted, from the joint rows at w (``TheoryMonad.lift_rows``).
    Samples count the cells up to the witness, or all on a pass.

    The square at w reads only the rows of r at the letters of wx and of s
    at those of wy (``TheoryMonad.lift_rows``): per w it is lifted once per
    pair of first members of the classes of rs and ss by those rows, below the
    least failure found so far.  The least failing pair is such a pair at
    its first failing w, so its report is that of its sweep alone."""
    rep = Reporter("infi", bound=ext.bound_info())
    q = ext.quantale
    monad = ext.monad
    bot, meet, le, letters = q.bottom, q.meet, q.le, monad.letters
    (xs, ys), (xs1, ys1) = (rs[0].src, rs[0].dst), (ss[0].src, ss[0].dst)
    can_src, can_dst = ext.can_map(xs, xs1), ext.can_map(ys, ys1)
    tys, tys1 = ext.carrier(ys), ext.carrier(ys1)
    lifts, rows, joint, classes = {}, {}, {}, {}

    def indexed(r):
        # the non-bottom entries of Tr by row as (position in T(dst), value)
        # in dst order, and the rows of r by point, equal rows one object
        key, base = (r.src, r.dst, frozenset(r.entries.items())), r.rows()
        if key not in lifts:
            pos = {y: j for j, y in enumerate(ext.carrier(r.dst))}
            lifts[key] = {t: sorted((pos[y], v) for y, v in row.items())
                          for t, row in ext.lift_rows(base, ext.carrier(r.src)).items()}
        return lifts[key], {x: rows.setdefault(row := frozenset(base.get(x, ())), row)
                            for x in r.src}

    sides = (ir := list(map(indexed, rs)), ir if ss is rs else list(map(indexed, ss)))

    def firsts(side, at):
        # the first member of each class of a side by its rows at the points at
        if (side, at) not in classes:
            first: dict = {}
            for k, (_, base) in enumerate(sides[side]):
                first.setdefault(tuple(base[x] for x in at), k)
            classes[side, at] = list(first.values())
        return classes[side, at]

    def joint_row(row, row1):
        # bottom absorbs the meet, so only pairs of non-bottom entries count
        if (row, row1) not in joint:
            joint[row, row1] = [((y, y1), m) for y, u in row for y1, v in row1
                                if (m := meet[u][v]) != bot]
        return joint[row, row1]

    ws = ext.sorted_carrier(pair_carrier(xs, xs1))
    nss, best, found = len(ss), len(rs) * len(ss), None
    for k, w in enumerate(ws):
        wx, wy = can_src[w]
        bs = firsts(1, frozenset(letters(wy)))
        for a in firsts(0, frozenset(letters(wx))):
            if a * nss >= best:
                break
            trows, base = sides[0][a]
            for b in bs if trows.get(wx) else ():
                srows, base1 = sides[1][b]
                if a * nss + b >= best:
                    break
                if not srows.get(wy):
                    continue
                wrows = {p: joint_row(base[p[0]], base1[p[1]]) for p in letters(w)}
                # left(w, (x', y')) = sup over w' in the can-fiber of T(r owedge s)(w, w')
                left = push_forward(q, ((can_dst[w1], v) for w1, v in
                                        monad.lift_rows(wrows, (w,), q)[w].items()))
                bad = next(((i, j, lhs, rhs) for i, u in trows[wx] for j, v in srows[wy]
                            if not le(rhs := meet[u][v],
                                      lhs := left.get((tys[i], tys1[j]), bot))), None)
                if bad:
                    best, found = a * nss + b, (k, w, *bad)
    if found is None:
        rep.tick(len(ws) * len(tys) * len(tys1))
        return best, rep.ok()
    k, w, i, j, lhs, rhs = found
    rep.tick((k * len(tys) + i) * len(tys1) + j + 1)
    return best, rep.fail("infi-ge", [repr(w), repr(tys[i]), repr(tys1[j])],
                          lhs=q.labels[lhs], rhs=q.labels[rhs])


def check_infi(ext: LaxExtension, r: VRel, s: VRel) -> CheckReport:
    """The comparison-map square for the joint relation of r and s: the
    sweep of the one pair."""
    return infi_sweep(ext, [r], [s])[1]


def check_xi_meet(ext: LaxExtension) -> CheckReport:
    """xi applied after T(meet) stays below the meet of the projections;
    whether equality holds is reported, since the stronger form feeds the
    frame-quantale corollaries."""
    rep = Reporter("xi_meet", bound=ext.bound_info())
    q = ext.quantale
    monad = ext.monad
    elems = tuple(range(q.n))
    equality = True
    for w, (wu, wv) in ext.can_map(elems, elems).items():
        rep.tick()
        lhs = monad.xi(monad.map_elem(lambda p: q.meet[p[0]][p[1]], w), q)
        rhs = q.meet[monad.xi(wu, q)][monad.xi(wv, q)]
        if not q.le(lhs, rhs):
            return rep.fail("xi-meet-le", [repr(w)],
                            lhs=q.labels[lhs], rhs=q.labels[rhs])
        if lhs != rhs:
            equality = False
    return rep.ok(equality=equality)


def check_xi_point(ext: LaxExtension, u: int) -> CheckReport:
    """Behaviour of xi on the constant map at u over T1: the inequality
    enables pairing with u, equality the scalar-tensor law."""
    rep = Reporter("xi_point", bound=ext.bound_info())
    q = ext.quantale
    monad = ext.monad
    t1 = ext.carrier(("*",))
    equality = True
    for t in t1:
        if not monad.letters(t):
            # elements with no base letters (the empty word) never see u;
            # they are a boundary artifact of the depth truncation
            rep.skip()
            continue
        rep.tick()
        val = monad.xi(monad.map_elem(lambda _: u, t), q)
        if not q.le(val, u):
            return rep.fail("xi-point-ge", [repr(t)],
                            value=q.labels[val], u=q.labels[u])
        if val != u:
            equality = False
    return rep.ok(equality=equality)


def scalar_tensor_sweep(ext: LaxExtension, rels: list, us) -> tuple:
    """T(r (x) u) against (Tr) (x) u entrywise for each (u, r) of us x rels
    (rels on one pair of carriers), u-major: (index, report) of the first
    failing pair, or (len(us) len(rels), pass), each report its pair's
    alone.  Both sides read r at x only at its letters, so row x is decided
    once per class (x, u, rows of r there), off lifts of distinct relations
    made once each, and a pair is a lookup per x; bottom absorbs the tensor."""
    q, src, letters = ext.quantale, rels[0].src, ext.monad.letters
    tensor, bot, lifts, ids, decided = q.tensor, q.bottom, {}, {}, {}
    tx, ty = ext.sorted_carrier(src), ext.sorted_carrier(rels[0].dst)

    def lift(rows):
        key = frozenset((x, y, v) for x, row in rows.items() for y, v in row)
        if key not in lifts:
            lifts[key] = ext.lift_rows(rows, ext.carrier(src))
        return lifts[key]

    def gap(x, u, rows):
        # the first y where T(r (x) u) and (Tr) (x) u differ at x, from r's rows
        rhs, lhs = lift(rows)[x], lift({p: [(y, w) for y, v in row if (w := tensor[v][u]) != bot]
                                        for p, row in rows.items()})[x]
        return next(((i, y, left, right) for i, y in enumerate(ty) if letters(x) or letters(y)
                     if (left := lhs.get(y, bot)) != (right := tensor[rhs.get(y, bot)][u])), None)

    def classes(rows):
        # the class of each x of tx, from the interned rows of r at its letters
        at = {p: ids.setdefault(frozenset(rows.get(p, ())), len(ids)) for p in src}
        return [ids.setdefault((x, *map(at.__getitem__, letters(x))), len(ids)) for x in tx]

    def report(cells):
        # a tick per cell, row-major; a skip per pair of letterless elements,
        # where the scalar is invisible (a truncation boundary artifact)
        rep = Reporter("assumption3", bound=ext.bound_info())
        for x, y in cells:
            (rep.tick if letters(x) or letters(y) else rep.skip)()
        return rep

    rowss = [r.rows() for r in rels]
    for k, (u, (rows, cls)) in enumerate(product(us, zip(rowss, map(classes, rowss)))):
        for j, c in enumerate(cls):
            if (c, u) not in decided:
                decided[c, u] = gap(tx[j], u, rows)
            if found := decided[c, u]:
                i, y, left, right = found
                return k, report(islice(product(tx, ty), j * len(ty) + i + 1)).fail(
                    "scalar-tensor", [repr(tx[j]), repr(y)], u=q.labels[u],
                    lhs=q.labels[left], rhs=q.labels[right])
    return len(us) * len(rels), report(product(tx, ty)).ok()


def check_assumption3(ext: LaxExtension, r: VRel, u: int) -> CheckReport:
    """T(r (x) u) against (Tr) (x) u: the sweep of the one pair."""
    return scalar_tensor_sweep(ext, [r], [u])[1]


def check_assumption4(ext: LaxExtension) -> CheckReport:
    """Tensor as a structure map on the quantale: the multiplication must be
    a structure-compatible map on (V, hom_xi) tensor (V, hom_xi), and every
    element must satisfy the xi-point inequality."""
    rep = Reporter("assumption4", bound=ext.bound_info())
    q = ext.quantale
    monad = ext.monad
    elems = tuple(range(q.n))
    for w, (wu, wv) in ext.can_map(elems, elems).items():
        xi1 = monad.xi(wu, q)
        xi2 = monad.xi(wv, q)
        xit = monad.xi(monad.map_elem(lambda p: q.tensor[p[0]][p[1]], w), q)
        for u, v in product(elems, elems):
            rep.tick()
            lhs = q.tensor[q.hom[xi1][u]][q.hom[xi2][v]]
            if not q.le(lhs, q.hom[xit][q.tensor[u][v]]):
                return rep.fail("tensor-functor", [repr(w), q.labels[u], q.labels[v]])
    for u in elems:
        sub = check_xi_point(ext, u)
        rep.tick()
        if not sub.passed:
            return rep.fail("point-functor", sub.witness, u=q.labels[u])
    return rep.ok()


def check_assumptions_bundle(ext: LaxExtension, seed: int = 0,
                             exhaustive: bool | None = None,
                             guard: int | None = None) -> CheckReport:
    """Aggregate verdicts for the four standing assumptions; per-condition
    results land in the details table.  The fibers of the joint relations
    X x X' -|-> Y x Y' of the infi pairs range over T((X x X') x (Y x Y')),
    guarded by its count, as is condition_inj by ``guard_condition_inj``."""
    import random

    rep = Reporter("assumptions_bundle", bound=ext.bound_info())
    q = ext.quantale
    rng = random.Random(seed)
    samples = 8  # relations or pairs a sampled condition draws
    xs = ("x0", "x1")
    ys = ("y0", "y1")
    check_guard(ext.monad.carrier_size(len(xs) ** 2 * len(ys) ** 2),
                "T((X x X') x (Y x Y')) enumeration", guard)
    guard_condition_inj(q, guard)
    if exhaustive is None:
        exhaustive = q.n <= 4
    # the sub-checks of each condition as (pairs or relations it ran,
    # report), drawn lazily in a fixed order (the sampled infi pairs before
    # the scalar-tensor relations) and run up to the first failure
    if exhaustive:
        rels = list(all_relations(q, xs, ys))

    def infi():
        if exhaustive:
            index, sub = infi_sweep(ext, rels, rels)
            return [(index + (not sub.passed), sub)]
        return ((1, check_infi(ext, random_relation(q, xs, ys, rng),
                               random_relation(q, xs, ys, rng)))
                for _ in range(samples))

    def scalar_tensor():
        drawn = (rels if exhaustive
                 else [random_relation(q, xs, ys, rng) for _ in range(samples)])
        index, sub = scalar_tensor_sweep(ext, drawn, range(q.n))
        return [(index + (not sub.passed), sub)]

    conditions = (
        ("infi", infi),
        ("condition_inj", lambda: [(1, check_condition_inj(q))]),
        ("scalar_tensor", scalar_tensor),
        ("functors", lambda: [(1, check_assumption4(ext))]),
    )
    verdicts = {}
    witnesses = {}
    for name, subs in conditions:
        verdicts[name] = True
        for ran, sub in subs():
            rep.tick(ran)
            if not sub.passed:
                verdicts[name] = False
                witnesses[name] = sub.witness
                break
    all_ok = all(verdicts.values())
    if all_ok:
        return rep.ok(verdicts=verdicts, exhaustive=exhaustive)
    failed = sorted(k for k, v in verdicts.items() if not v)
    return rep.fail("assumptions", {"failed": failed, "witnesses": witnesses},
                    verdicts=verdicts, exhaustive=exhaustive)
