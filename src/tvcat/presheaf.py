"""Presheaves, Yoneda, suprema, the V-action, and weak exponentials.

PX is the set of structure-compatible maps from the dual of X into the
quantale with its structure ``LaxExtension.hom_xi``; elements are stored as
tuples of value indices in the enumeration order of TX, so they double as
carrier elements.  PX is an exponential of (V, hom_xi): its carrier and its
structure come from the kernels of the graph exponential, the search
``categories.compatible_maps`` over ``point_tests`` and the fiber walk over
the rows of the dual, ``largest_compatible`` (exponential.py), both given
hom_xi, built once, as their target relation, with residuation in place of
Heyting implication.  Weak factorization is one ``compatible_maps`` search
for every monad: injectivity of PY names no particular extension.  The
structure is certified per instance by the full faithfulness of the Yoneda
map and the separation and injectivity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .categories import (TVFunctor, TVStructure, check_fully_faithful,
                         check_functor, compatible_maps, dual, product,
                         separated)
from .exponential import (admissible_maps, check_exponentiability,
                          largest_compatible, point_tests)
from .limits import check_guard
from .quantale import FormatError
from .report import CheckReport, Reporter, sort_key
from .theory import check_assumptions_bundle


class NotSeparated(RuntimeError):
    """The operation is only available for separated structures."""


class NoExtensionFound(RuntimeError):
    """No structure-compatible extension exists within the search space.
    For weak factorization this contradicts injectivity of the presheaf
    target, so it is surfaced loudly instead of being absorbed."""


@dataclass
class PresheafCategory:
    base: TVStructure
    opposite: TVStructure
    structure: TVStructure  # carrier: presheaves as value-index tuples


def build_presheaf_category(s: TVStructure, guard: int | None = None) -> PresheafCategory:
    """All structure-compatible maps from the dual of X into (V, hom_xi),
    carrying the largest structure that makes evaluation out of the tensor
    with the dual structure-compatible."""
    q = s.quantale
    tx = s.tx
    check_guard(q.n ** len(tx), "presheaf carrier", guard)
    op = dual(s, guard)
    hom_xi = s.ext.hom_xi()
    # the presheaf condition through the one-point generator, as for the
    # exponential carrier: aop(T, t) <= hom(xi(Tpsi T), psi t) at the point
    # tests T of TX (for the identity monad, compatibility out of the dual)
    carrier = tuple(sorted(compatible_maps(
        q, s.monad, {t: range(q.n) for t in tx},
        (((tt, t), op.a(tt, t)) for tt in point_tests(s.ext, tx) for t in tx),
        hom_xi), key=sort_key))
    rel = largest_compatible(op, carrier, hom_xi, q.hom, guard)
    px = TVStructure(s.ext, carrier, rel,
                     name=(s.name + "^" if s.name else "") + "P")
    return PresheafCategory(s, op, px)


def yoneda(s: TVStructure, px: PresheafCategory | None = None) -> TVFunctor:
    """x |-> a(-, x), landing in the presheaf carrier."""
    if px is None:
        px = build_presheaf_category(s)
    maps = {}
    for x in s.carrier:
        psi = tuple(s.a(t, x) for t in s.tx)
        if psi not in px.structure.carrier:
            raise FormatError("yoneda image at %r escapes the presheaf "
                              "carrier" % (x,))
        maps[x] = psi
    return TVFunctor(s, px.structure, maps)


def check_yoneda(s: TVStructure, px: PresheafCategory | None = None) -> CheckReport:
    return check_fully_faithful(yoneda(s, px))


def find_sup(s: TVStructure, px: PresheafCategory | None = None,
             guard: int | None = None):
    """A structure-compatible retraction of the Yoneda map, obtained from the
    adjunction identity a0(Sup psi, x) = p0(psi, y x) (which pins Sup down
    pointwise on separated input) and then verified: retract, compatibility,
    and both adjunction inequalities.  Returns the Sup functor, or None when
    a verification fails."""
    if not separated(s):
        raise NotSeparated("Sup search requires a separated structure")
    q = s.quantale
    monad = s.monad
    if px is None:
        px = build_presheaf_category(s, guard)
    y = yoneda(s, px)
    pxs = px.structure
    e = monad.unit
    a0 = s.a0
    least = {}  # each row of a0, to its least x0 by sort_key
    for x0 in sorted(s.carrier, key=sort_key):
        least.setdefault(tuple(a0(x0, x) for x in s.carrier), x0)
    sup_map = {}
    for psi in pxs.carrier:
        row = tuple(pxs.a(e(psi), y.map[x]) for x in s.carrier)
        if row not in least:
            return None
        sup_map[psi] = least[row]
    supf = TVFunctor(pxs, s, sup_map)
    if not check_functor(supf).passed:
        return None
    if any(sup_map[y.map[x]] != x for x in s.carrier):
        return None
    # adjunction inequalities: unit 1 <= y . Sup in PX, counit Sup . y <= 1
    if not all(q.le(q.unit, pxs.a(e(psi), y.map[sup_map[psi]]))
               for psi in pxs.carrier):
        return None
    if not all(q.le(q.unit, a0(sup_map[y.map[x]], x)) for x in s.carrier):
        return None
    return supf


def certify_injective(s: TVStructure, px: PresheafCategory | None = None,
                      guard: int | None = None) -> CheckReport:
    """Injectivity via a retraction of the Yoneda embedding."""
    return injective_report(s, find_sup(s, px, guard))


def injective_report(s: TVStructure, supf: TVFunctor | None) -> CheckReport:
    """The injectivity verdict of a Sup search result of find_sup."""
    rep = Reporter("injective", bound=s.ext.bound_info())
    rep.tick()
    if supf is None:
        return rep.fail("no-sup", None)
    return rep.ok()


def oplus(s: TVStructure, supf: TVFunctor, x, u: int):
    """The action x (+) u = Sup(a(-, x) (x) u)."""
    q = s.quantale
    psi = tuple(q.tens(s.a(t, x), u) for t in s.tx)
    if psi not in supf.source.carrier:
        raise FormatError("a(-, %r) (x) %s is not a presheaf here"
                          % (x, q.labels[u]))
    return supf.map[psi]


def check_calculus(s: TVStructure, px: PresheafCategory | None = None,
                   guard: int | None = None) -> CheckReport:
    """The five action laws: (1) as an equality, (2)-(5) as inequalities,
    over all points, in-bound T-elements and scalars."""
    q = s.quantale
    monad = s.monad
    if px is None:
        px = build_presheaf_category(s, guard)
    supf = find_sup(s, px, guard)
    if supf is None:
        raise FormatError("calculus laws need a certified-injective input")
    rep = Reporter("calculus", bound=s.ext.bound_info())
    a0 = s.a0
    plus = {(x, u): oplus(s, supf, x, u)
            for x in s.carrier for u in range(q.n)}
    for u in range(q.n):
        for x in s.carrier:
            for y in s.carrier:
                rep.tick()
                lhs = a0(plus[(x, u)], y)
                rhs = q.hom[u][a0(x, y)]
                if lhs != rhs:
                    return rep.fail("item-1", [repr(x), repr(y), q.labels[u]],
                                    lhs=q.labels[lhs], rhs=q.labels[rhs])
                rep.tick()
                if not q.le(q.tens(a0(x, y), u), a0(x, plus[(y, u)])):
                    return rep.fail("item-2", [repr(x), repr(y), q.labels[u]])
        for t in s.tx:
            tplus = monad.map_elem(lambda z: plus[(z, u)], t)
            for y in s.carrier:
                rep.tick()
                if not q.le(q.hom[u][s.a(t, y)], s.a(tplus, y)):
                    return rep.fail("item-3", [repr(t), repr(y), q.labels[u]])
                rep.tick()
                if not q.le(q.tens(s.a(t, y), u), s.a(t, plus[(y, u)])):
                    return rep.fail("item-4", [repr(t), repr(y), q.labels[u]])
    ta, bot = s.ext.lift_rows(s.a.rows, s.ext.carrier(s.tx)), q.bottom
    for u in range(q.n):
        for xx, row in ta.items():
            for t in s.tx:
                rep.tick()
                tplus = monad.map_elem(lambda z: plus[(z, u)], t)
                if not q.le(q.tens(row.get(t, bot), u), row.get(tplus, bot)):
                    return rep.fail("item-5", [repr(xx), repr(t), q.labels[u]])
    return rep.ok()


def check_thm_injective_exponentiable(s: TVStructure,
                                      guard: int | None = None) -> CheckReport:
    """Instance check of: under the standing assumptions, injective implies
    exponentiable.  Vacuous cases (assumptions or injectivity failing) pass
    with the reason recorded."""
    rep = Reporter("injective_exponentiable", bound=s.ext.bound_info())
    bundle = check_assumptions_bundle(s.ext, guard=guard)
    rep.tick()
    if not bundle.passed:
        return rep.ok(vacuous="assumptions", verdicts=bundle.details.get("verdicts"))
    if not separated(s):
        return rep.ok(vacuous="not-separated")
    inj = certify_injective(s, guard=guard)
    rep.tick()
    if not inj.passed:
        return rep.ok(vacuous="not-injective")
    expo = check_exponentiability(s)
    rep.tick(expo.samples)
    if not expo.passed:
        return rep.fail("injective-but-not-exponentiable", expo.witness)
    return rep.ok(injective=True, exponentiable=True)


# ---- weak exponentials ----

@dataclass
class WeakExponential:
    sx: TVStructure
    sy: TVStructure
    px: PresheafCategory
    py: PresheafCategory
    structure: TVStructure   # carrier: tuples of PY-elements indexed by PX order
    yx: TVFunctor
    yy: TVFunctor

    def apply(self, phi: tuple, psi: tuple) -> tuple:
        return phi[self.px.structure.carrier.index(psi)]

    def weak_ev(self, phi: tuple, x):
        image = self.apply(phi, self.yx.map[x])
        for y, val in self.yy.map.items():
            if val == image:
                return y
        raise NoExtensionFound("weak evaluation escaped the Yoneda image")


def weak_exponential(sx: TVStructure, sy: TVStructure,
                     guard: int | None = None) -> WeakExponential:
    """The separated weak exponential: maps PX -> PY (elements of the
    exponential of the presheaf structures) that send the Yoneda image of X
    into the Yoneda image of Y, with the initial structure induced by the
    inclusion.  The largest compatible structure at a kept map reads only
    T-elements whose letters are kept maps, so it is built on the kept
    maps alone and equals that initial structure."""
    if not separated(sx) or not separated(sy):
        raise NotSeparated("weak exponentials are built for separated input")
    px = build_presheaf_category(sx, guard)
    py = build_presheaf_category(sy, guard)
    yx = yoneda(sx, px)
    yy = yoneda(sy, py)
    yximg = [yx.map[x] for x in sx.carrier]
    yyimg = set(yy.map.values())
    pidx = {psi: i for i, psi in enumerate(px.structure.carrier)}
    keep = tuple(phi for phi in admissible_maps(px.structure, py.structure, guard)
                 if all(phi[pidx[psi]] in yyimg for psi in yximg))
    pa, pb = px.structure, py.structure
    rel = largest_compatible(pa, keep, pb.a, pa.quantale.heyting, guard)
    return WeakExponential(sx, sy, px, py, TVStructure(pa.ext, keep, rel), yx, yy)


def weak_factorize(wexp: WeakExponential, fmap: dict,
                   sz: TVStructure, guard: int | None = None) -> TVFunctor:
    """Factor f: Z x X -> Y through the weak evaluation, for every monad:
    the candidates at z are the maps of the weak exponential that evaluate
    to f(z, -), and a guarded ``compatible_maps`` search takes the first
    structure-compatible choice among them.  Raises NoExtensionFound when
    the search is exhausted (which would contradict injectivity of PY)."""
    sx = wexp.sx
    per_z = {}
    for z in sz.carrier:
        cands = [phi for phi in wexp.structure.carrier
                 if all(wexp.apply(phi, wexp.yx.map[x])
                        == wexp.yy.map[fmap[(z, x)]]
                        for x in sx.carrier)]
        if not cands:
            raise NoExtensionFound("no candidate at %r" % (z,))
        per_z[z] = cands
    check_guard(prod(map(len, per_z.values())), "weak factorization search",
                guard)
    values = next(compatible_maps(sx.quantale, sz.monad, per_z,
                                  sz.a.entries.items(), wexp.structure.a), None)
    if values is None:
        raise NoExtensionFound("search exhausted without a compatible "
                               "factorization")
    ft = TVFunctor(sz, wexp.structure, dict(zip(per_z, values)))
    sub = check_functor(ft)
    if not sub.passed:
        raise NoExtensionFound("constructed factorization is not "
                               "structure-compatible: %s" % sub.to_json())
    for z in sz.carrier:
        for x in sx.carrier:
            if wexp.weak_ev(ft.map[z], x) != fmap[(z, x)]:
                raise NoExtensionFound("factorization equation fails at %r"
                                       % ((z, x),))
    return ft


def weak_factorize_general(fmap: dict, sz: TVStructure, sx: TVStructure,
                           sy: TVStructure, guard: int | None = None) -> dict:
    """The single-f content of the general weak-exponential construction:
    reflect everything, factor the reflected map through the separated weak
    exponential, quotient Z by agreement of both components, and return the
    pieces (Z_f with its final structure, h_f, f-hat) with their functor
    checks."""
    from .categories import quotient, reflect_R

    rz, eta_z = reflect_R(sz)
    rx, eta_x = reflect_R(sx)
    ry, eta_y = reflect_R(sy)
    rf = {}
    for z in sz.carrier:
        for x in sx.carrier:
            key = (eta_z.map[z], eta_x.map[x])
            val = eta_y.map[fmap[(z, x)]]
            if key in rf and rf[key] != val:
                raise FormatError("f does not descend to the reflections")
            rf[key] = val
    wexp = weak_exponential(rx, ry, guard)
    rft = weak_factorize(wexp, rf, rz, guard)
    classes: dict = {}
    for z in sz.carrier:
        sig = (tuple(fmap[(z, x)] for x in sx.carrier), rft.map[eta_z.map[z]])
        classes.setdefault(sig, []).append(z)
    rep_of = {}
    for members in classes.values():
        lead = sorted(members, key=sort_key)[0]
        for z in members:
            rep_of[z] = lead
    zf, qf = quotient(sz, rep_of)
    hf = TVFunctor(zf, wexp.structure,
                   {c: rft.map[eta_z.map[c]] for c in zf.carrier})
    pzf, _, _ = product(zf, sx)
    fhat_map = {(c, x): fmap[(c, x)] for (c, x) in pzf.carrier}
    fhat = TVFunctor(pzf, sy, fhat_map)
    return {"zf": zf, "qf": qf, "hf": hf, "fhat": fhat,
            "hf_check": check_functor(hf), "fhat_check": check_functor(fhat)}
