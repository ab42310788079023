"""Presheaves against downset oracles, the action calculus, and weak
exponentials with exhaustive factorization on small inputs."""

from itertools import product as iter_product

import pytest

from tvcat.categories import (TVFunctor, check_category, check_functor,
                              discrete, from_order, separated, subspace,
                              v_hom_xi)
from tvcat.exponential import check_exponentiability, graph_exponential
from tvcat.limits import GuardError
from tvcat.monads import monad_by_name
from tvcat.presheaf import (NoExtensionFound, NotSeparated,
                            build_presheaf_category, certify_injective,
                            check_calculus, check_thm_injective_exponentiable,
                            check_yoneda, find_sup, oplus, weak_exponential,
                            weak_factorize, weak_factorize_general, yoneda)
from tvcat.quantale import quantale_by_name
from tvcat.theory import LaxExtension, check_assumptions_bundle


def downsets(xs, pairs):
    """All downsets of a poset, as 0/1 tuples in carrier order."""
    order = set(pairs) | {(x, x) for x in xs}
    out = []
    for bits in iter_product((0, 1), repeat=len(xs)):
        member = dict(zip(xs, bits))
        if all(member[x] >= member[y] for (x, y) in order):
            out.append(bits)
    return out


def test_presheaf_guard_precedes_the_dual(monkeypatch, ext_word2):
    # the dual reads T(TX), which the carrier guard must refuse first
    def no_dual(s):
        raise AssertionError("dual built before the presheaf carrier guard")

    monkeypatch.setattr("tvcat.presheaf.dual", no_dual)
    s = discrete(ext_word2, ("a", "b"))
    with pytest.raises(GuardError, match="presheaf carrier"):
        build_presheaf_category(s, guard=1)


def test_presheaf_guard_reaches_the_dual():
    # two x word:3 on one point: 2^4 presheaf candidates pass the guard,
    # the 85 words over TX that the dual enumerates do not
    ext = LaxExtension(monad_by_name("word:3"), quantale_by_name("two"))
    s = discrete(ext, ("a",))
    with pytest.raises(GuardError, match=r"T\(TX\) enumeration needs 85 "):
        build_presheaf_category(s, guard=84)
    # at 85 the dual is built, and the structure's own count trips next
    with pytest.raises(GuardError, match=r"T\(carrier x X\) enumeration"):
        build_presheaf_category(s, guard=85)


def test_presheaf_counts_are_downsets(ext_ord):
    cases = [((("a", "b")), {("a", "b")}, 3),   # 2-chain
             ((("a", "b")), set(), 4),          # antichain
             ((("a",)), set(), 2)]              # the point
    for xs, pairs, expect in cases:
        s = from_order(ext_ord, tuple(xs), pairs)
        px = build_presheaf_category(s)
        assert len(px.structure.carrier) == expect
        assert set(px.structure.carrier) == set(downsets(tuple(xs), pairs))
        assert check_category(px.structure).passed
        assert separated(px.structure)


def test_yoneda_fully_faithful_small(ext_ord, ext_labelled):
    for ext in (ext_ord, ext_labelled):
        for s in (discrete(ext, ("x", "y")), v_hom_xi(ext)):
            px = build_presheaf_category(s)
            y = yoneda(s, px)
            assert check_functor(y).passed
            assert check_yoneda(s, px).passed


def test_find_sup_is_downset_supremum(ext_ord):
    s = from_order(ext_ord, ("a", "b"), {("a", "b")})
    px = build_presheaf_category(s)
    supf = find_sup(s, px)
    assert supf is not None
    # downsets over the 2-chain a <= b: {} |-> a is impossible; here the
    # empty downset has supremum a (the bottom of the chain)
    assert supf.map[(0, 0)] == "a"
    assert supf.map[(1, 0)] == "a"
    assert supf.map[(1, 1)] == "b"


def test_antichain_has_no_sup(ext_ord):
    s = from_order(ext_ord, ("a", "b"), set())
    assert find_sup(s) is None
    assert certify_injective(s).status == "fail"


def test_sup_requires_separated(ext_ord):
    s = from_order(ext_ord, ("a", "b"), {("a", "b"), ("b", "a")})
    with pytest.raises(NotSeparated):
        find_sup(s)


def test_oplus_identity_scalars():
    q = quantale_by_name("lukasiewicz:3")
    ext = LaxExtension(monad_by_name("identity"), q)
    s = v_hom_xi(ext)
    supf = find_sup(s)
    # on the quantale-as-structure the action is the tensor itself
    for x in s.carrier:
        for u in range(q.n):
            assert oplus(s, supf, x, u) == q.labels[q.tens(q.index(x), u)]


@pytest.mark.parametrize("qname", ["two", "lukasiewicz:3", "godel:3"])
@pytest.mark.parametrize("mname", ["identity", "labelled:z2"])
def test_calculus_on_v_hom(qname, mname):
    ext = LaxExtension(monad_by_name(mname), quantale_by_name(qname))
    rep = check_calculus(v_hom_xi(ext))
    assert rep.passed, rep.to_json()


def test_injective_implies_exponentiable_instance(ext_ord):
    s = from_order(ext_ord, ("a", "b"), {("a", "b")})
    rep = check_thm_injective_exponentiable(s)
    assert rep.passed
    assert rep.details.get("injective") and rep.details.get("exponentiable")
    anti = from_order(ext_ord, ("a", "b"), set())
    rep = check_thm_injective_exponentiable(anti)
    assert rep.passed
    assert rep.details.get("vacuous") == "not-injective"


def test_injective_exponentiable_passes_its_guard_to_the_bundle():
    # the bundle's T((X x X') x (Y x Y')) has 273 elements over word:2; a
    # guard below that must stop the theorem check too, not pass it vacuously
    ext = LaxExtension(monad_by_name("word:2"), quantale_by_name("lukasiewicz:3"))
    s = discrete(ext, ("a",))
    with pytest.raises(GuardError, match="needs 273 candidates, above the guard 1"):
        check_assumptions_bundle(ext, guard=1)
    with pytest.raises(GuardError, match="needs 273 candidates, above the guard 1"):
        check_thm_injective_exponentiable(s, guard=1)


def all_posets2(ext):
    yield from_order(ext, ("a",), set())
    yield from_order(ext, ("a", "b"), set())
    yield from_order(ext, ("a", "b"), {("a", "b")})
    yield from_order(ext, ("a", "b"), {("b", "a")})


def functor_maps(sz, sx, sy):
    """All structure-compatible maps Z x X -> Y, as dicts on pairs."""
    from tvcat.categories import TVFunctor, product
    p, _, _ = product(sz, sx)
    out = []
    for values in iter_product(sy.carrier, repeat=len(p.carrier)):
        fmap = dict(zip(p.carrier, values))
        if check_functor(TVFunctor(p, sy, fmap)).passed:
            out.append(fmap)
    return out


def test_weak_exponential_chain_antichain(ext_ord):
    ch = from_order(ext_ord, ("a", "b"), {("a", "b")})
    wexp = weak_exponential(ch, ch)
    assert check_category(wexp.structure).passed
    # weak evaluation recovers values on the Yoneda image
    for phi in wexp.structure.carrier:
        for x in ch.carrier:
            assert wexp.weak_ev(phi, x) in ch.carrier


def subspace_oracle(wexp):
    """The weak exponential as built before the kept maps were chosen first:
    the graph exponential over every admissible map PX -> PY, then the
    initial structure along the inclusion of the maps that send the Yoneda
    image of X into that of Y; with the count of admissible maps."""
    big = graph_exponential(wexp.px.structure, wexp.py.structure).structure
    image = set(wexp.yy.map.values())
    keep = tuple(phi for phi in big.carrier
                 if all(wexp.apply(phi, wexp.yx.map[x]) in image
                        for x in wexp.sx.carrier))
    return subspace(big, keep).source, len(big.carrier)


@pytest.mark.parametrize("kind", ["posets", "labelled"])
def test_weak_exponential_is_the_subspace(kind, ext_ord, ext_labelled):
    if kind == "posets":
        spaces = list(all_posets2(ext_ord))
        pairs = [(sx, sy) for sx in spaces for sy in spaces]
    else:
        p = discrete(ext_labelled, ("x",))
        pairs = [(p, p)]
    for sx, sy in pairs:
        wexp = weak_exponential(sx, sy)
        got = wexp.structure
        expect, admissible = subspace_oracle(wexp)
        # some admissible maps are dropped, so the filter is exercised
        assert len(got.carrier) < admissible
        assert got.carrier == expect.carrier
        assert got.tx == expect.tx
        assert list(got.a.entries.items()) == list(expect.a.entries.items())


def test_weak_factorize_exhaustive_small(ext_ord):
    posets = list(all_posets2(ext_ord))
    for sx in posets:
        for sy in posets:
            wexp = weak_exponential(sx, sy)
            for sz in posets:
                for fmap in functor_maps(sz, sx, sy):
                    ft = weak_factorize(wexp, fmap, sz)
                    for z in sz.carrier:
                        for x in sx.carrier:
                            assert wexp.weak_ev(ft.map[z], x) == fmap[(z, x)]


def colimit_factorization(wexp, fmap, sz):
    """For TX = X, the Kan extension of f(z, -) along the Yoneda map of X:
    f'(z, psi)(y') = \\/_x psi(x) (x) b(y', f(z, x)), as a map of Z into
    the maps PX -> PY."""
    sx, sy = wexp.sx, wexp.sy
    q = sx.quantale
    return {z: tuple(tuple(q.sup(q.tens(psi[i], sy.a(y1, fmap[(z, x)]))
                                 for i, x in enumerate(sx.carrier))
                           for y1 in sy.tx)
                     for psi in wexp.px.structure.carrier)
            for z in sz.carrier}


def test_colimit_factorization_factors_through_the_weak_exponential(ext_ord):
    # the theorem instance behind the search for TX = X: the Kan extension
    # lies in the weak exponential, is a functor and factors f
    posets = list(all_posets2(ext_ord))
    checked = 0
    for sx in posets:
        assert sx.tx == sx.carrier
        for sy in posets:
            wexp = weak_exponential(sx, sy)
            for sz in posets:
                for fmap in functor_maps(sz, sx, sy):
                    maps = colimit_factorization(wexp, fmap, sz)
                    assert set(maps.values()) <= set(wexp.structure.carrier)
                    ft = TVFunctor(sz, wexp.structure, maps)
                    assert check_functor(ft).passed
                    for z in sz.carrier:
                        for x in sx.carrier:
                            assert wexp.weak_ev(maps[z], x) == fmap[(z, x)]
                    checked += 1
    assert checked == 270


def test_weak_factorize_search_branch(ext_labelled):
    # TX != X under the labelled monad; the one search factors every f
    p = discrete(ext_labelled, ("x",))
    wexp = weak_exponential(p, p)
    assert len(wexp.structure.carrier) == 9
    fmaps = functor_maps(p, p, p)
    assert fmaps
    for fmap in fmaps:
        ft = weak_factorize(wexp, fmap, p)
        assert check_functor(ft).passed
        for z in p.carrier:
            for x in p.carrier:
                assert wexp.weak_ev(ft.map[z], x) == fmap[(z, x)]


def test_weak_factorize_general_pieces(ext_ord):
    # Z with a collapsed pair exercises the quotient step: f is the
    # projection on z0 ~ z1 and the constant b on z2, so z0 and z1 agree
    # and z2 stays apart
    sz = from_order(ext_ord, ("z0", "z1", "z2"), {("z0", "z1"), ("z1", "z0")})
    sx = from_order(ext_ord, ("a", "b"), {("a", "b")})
    sy = sx
    fmap = {(z, x): "b" if z == "z2" else x for z in sz.carrier for x in sx.carrier}
    out = weak_factorize_general(fmap, sz, sx, sy)
    assert out["hf_check"].passed
    assert out["fhat_check"].passed
    zf, qf, fhat = out["zf"], out["qf"], out["fhat"]
    assert zf.carrier == ("z0", "z2")
    assert qf.map == {"z0": "z0", "z1": "z0", "z2": "z2"}
    # f factors as f-hat after q_f x X, on all of Z x X
    for z in sz.carrier:
        for x in sx.carrier:
            assert fhat.map[(qf.map[z], x)] == fmap[(z, x)]


def test_weak_exponential_requires_separated(ext_ord):
    bad = from_order(ext_ord, ("a", "b"), {("a", "b"), ("b", "a")})
    good = from_order(ext_ord, ("c",), set())
    with pytest.raises(NotSeparated):
        weak_exponential(bad, good)


def test_labelled_presheaf_yoneda_and_structure(ext_labelled):
    s = discrete(ext_labelled, ("x", "y"))
    px = build_presheaf_category(s)
    assert check_yoneda(s, px).passed
    assert separated(px.structure)
    assert check_category(px.structure).passed
