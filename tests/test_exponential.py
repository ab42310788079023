"""Exponentials against a brute-force monotone-map oracle, and the
exponentiability criteria."""

import random
from itertools import product as iter_product

import pytest

from tvcat.categories import (TVStructure, check_category, from_order,
                              random_category, structure_from_dict, v_hom_xi)
from tvcat.exponential import (ExponentialGraph, NotTransitive, admissible_maps,
                               check_exponentiability, check_frame_criterion,
                               check_universal_property, curry,
                               exponential_in_cats, graph_exponential)
from tvcat.monads import monad_by_name
from tvcat.quantale import FormatError, chain_trunc_add, lukasiewicz, quantale_by_name
from tvcat.theory import LaxExtension
from tvcat.vrel import VRel


def all_posets(ext, xs):
    """Every partial order on the labelled carrier xs, as a structure."""
    pairs = [(x, y) for x in xs for y in xs if x != y]
    for bits in iter_product((False, True), repeat=len(pairs)):
        rel = {(x, x) for x in xs}
        rel.update(p for p, b in zip(pairs, bits) if b)
        # transitive and antisymmetric?
        ok = True
        for (x, y) in rel:
            for (y2, z) in rel:
                if y == y2 and (x, z) not in rel:
                    ok = False
        if not ok:
            continue
        if any((x, y) in rel and (y, x) in rel and x != y for x in xs for y in xs):
            continue
        yield from_order(ext, xs, rel)


def monotone_maps(sx, sy):
    """Brute-force oracle: all monotone maps as value tuples in carrier
    order, together with the pointwise order on them."""
    ox = {(x, y) for x in sx.carrier for y in sx.carrier
          if sx.a0(x, y) == sx.quantale.unit}
    oy = {(x, y) for x in sy.carrier for y in sy.carrier
          if sy.a0(x, y) == sy.quantale.unit}
    maps = []
    for values in iter_product(sy.carrier, repeat=len(sx.carrier)):
        h = dict(zip(sx.carrier, values))
        if all((h[x], h[y]) in oy for (x, y) in ox):
            maps.append(tuple(values))
    leq = {(f, g) for f in maps for g in maps
           if all((fv, gv) in oy for fv, gv in zip(f, g))}
    return maps, leq


def test_two_chain_exponential_has_three_points(ext_ord):
    ch = from_order(ext_ord, ("a", "b"), {("a", "b")})
    exp = exponential_in_cats(ch, ch)
    assert len(exp.structure.carrier) == 3


def test_ord_exponentials_match_oracle_two_points(ext_ord):
    posets = list(all_posets(ext_ord, ("a", "b")))
    for sx in posets:
        for sy in posets:
            exp = exponential_in_cats(sx, sy)
            maps, leq = monotone_maps(sx, sy)
            assert set(exp.structure.carrier) == set(maps)
            e = ext_ord.monad.unit
            for f in maps:
                for g in maps:
                    got = exp.structure.a(e(f), g) == ext_ord.quantale.unit
                    assert got == ((f, g) in leq)


def test_admissible_maps_identity_are_all_functors(ext_ord):
    ch = from_order(ext_ord, ("a", "b"), {("a", "b")})
    anti = from_order(ext_ord, ("c", "d"), set())
    z = admissible_maps(ch, anti)
    assert set(z) == {("c", "c"), ("d", "d")}  # monotone maps chain -> antichain


def test_evaluation_is_a_functor(ext_ord):
    ch = from_order(ext_ord, ("a", "b"), {("a", "b")})
    exp = exponential_in_cats(ch, ch)
    from tvcat.categories import check_functor
    assert check_functor(exp.ev_functor()).passed


def test_exponentiability_criterion_frames(ext_ord):
    rng = random.Random(31)
    for _ in range(40):
        s = random_category(ext_ord, ("a", "b"), rng)
        expo = check_exponentiability(s).passed
        frame = check_frame_criterion(s)
        assert frame.passed == expo
        if not frame.passed:
            assert frame.details["exponentiability"] == expo


def test_frame_criterion_rejects_non_frame():
    q = lukasiewicz(3)
    ext = LaxExtension(monad_by_name("identity"), q)
    s = v_hom_xi(ext)
    with pytest.raises(FormatError):
        check_frame_criterion(s)


def test_metric_two_point_not_exponentiable():
    """The classical counterexample shape: an asymmetric two-point metric
    structure fails the splitting criterion."""
    s = structure_from_dict({
        "quantale": "trunc_add:4", "monad": "identity",
        "carrier": ["p", "q"],
        "structure": {"p;p": "0", "q;q": "0", "p;q": "1", "q;p": "2"}})
    assert check_category(s).passed
    assert check_exponentiability(s).status == "fail"


def test_v_hom_is_exponentiable():
    for qname in ("two", "lukasiewicz:3", "godel:3", "trunc_add:4"):
        ext = LaxExtension(monad_by_name("identity"), quantale_by_name(qname))
        assert check_exponentiability(v_hom_xi(ext)).passed


def test_not_transitive_exception_contract():
    exc = NotTransitive(["w", "t", "x"], "transitivity")
    assert exc.witness == ["w", "t", "x"]
    assert exc.law == "transitivity"
    assert "transitivity" in str(exc)


def test_exponential_in_cats_certifies(ext_ord):
    # when no exception is raised the returned structure is a category
    s = structure_from_dict({
        "quantale": "trunc_add:4", "monad": "identity",
        "carrier": ["p", "q"],
        "structure": {"p;p": "0", "q;q": "0", "p;q": "1", "q;p": "2"}})
    exp = exponential_in_cats(s, s)
    assert check_category(exp.structure).passed


def test_curry_and_universal_property(ext_ord):
    ch = from_order(ext_ord, ("a", "b"), {("a", "b")})
    exp = exponential_in_cats(ch, ch)
    sz = from_order(ext_ord, ("z0", "z1"), {("z0", "z1")})
    # f(z, x) = x, monotone in both arguments
    fmap = {(z, x): x for z in sz.carrier for x in ch.carrier}
    fbar = curry(fmap, sz, exp)
    assert all(fbar.map[z] == ("a", "b") for z in sz.carrier)
    rep = check_universal_property(exp, fmap, sz)
    assert rep.passed
    assert rep.details["alternatives"] == 0


def test_universal_property_planted_duplicate(ext_ord):
    # the constructor refuses duplicate carrier elements, so the defect is
    # planted after construction
    ch = from_order(ext_ord, ("a", "b"), {("a", "b")})
    good = exponential_in_cats(ch, ch).structure
    bad = TVStructure(good.ext, good.carrier, good.a)
    bad.carrier = good.carrier + good.carrier[:1]
    exp = ExponentialGraph(ch, ch, bad)
    sz = from_order(ext_ord, ("z0",), set())
    fmap = {("z0", x): x for x in ch.carrier}
    rep = check_universal_property(exp, fmap, sz)
    assert not rep.passed
    assert rep.law == "uniqueness"
    assert rep.witness == [repr(good.carrier[0])]


def test_universal_property_planted_antitone_curry(ext_ord):
    # f(z0, x) = y1 and f(z1, x) = y0 is antitone in z: each f(z, -) is
    # admissible, but curry f sends z0 <= z1 to (y1,) above (y0,)
    sx = from_order(ext_ord, ("x",), set())
    sy = from_order(ext_ord, ("y0", "y1"), {("y0", "y1")})
    sz = from_order(ext_ord, ("z0", "z1"), {("z0", "z1")})
    exp = exponential_in_cats(sx, sy)
    rep = check_universal_property(exp, {("z0", "x"): "y1", ("z1", "x"): "y0"}, sz)
    assert (rep.status, rep.law, rep.witness, rep.details, rep.samples) == (
        "fail", "curry-not-functor", ["'z0'", "'z1'"], {"lhs": "1", "rhs": "0"}, 2)


def test_curry_rejects_inadmissible(ext_ord):
    ch = from_order(ext_ord, ("a", "b"), {("a", "b")})
    anti = from_order(ext_ord, ("a", "b"), set())
    exp = exponential_in_cats(ch, ch)
    sz = from_order(ext_ord, ("z",), set())
    bad = {("z", "a"): "b", ("z", "b"): "a"}  # not monotone in x
    with pytest.raises(FormatError):
        curry(bad, sz, exp)


def test_word_exponential_smoke(ext_word2):
    from tvcat.categories import discrete
    s = discrete(ext_word2, ("a", "b"))
    exp = graph_exponential(s, s)
    assert len(exp.structure.carrier) >= 2
    rep = check_category(exp.structure)
    assert rep.status in ("pass", "bounded-pass", "fail")


def test_structure_enumeration_is_guarded(ext_ord):
    """The T(carrier x X) pass behind exponentials and presheaf categories
    is counted against the guard before it starts: here the carrier
    guards pass and the enumeration's is the one that trips."""
    from tvcat.categories import discrete
    from tvcat.limits import GuardError
    from tvcat.presheaf import build_presheaf_category
    s = discrete(ext_ord, ("a", "b"))
    with pytest.raises(GuardError) as err:
        graph_exponential(s, s, guard=5)  # 4 maps; T(4 maps x X) has 8
    assert err.value.what == "T(carrier x X) enumeration"
    assert err.value.size == 8
    with pytest.raises(GuardError) as err:
        build_presheaf_category(s, guard=4)  # 2^2 presheaves, 8 as above
    assert err.value.what == "T(carrier x X) enumeration"
    ext = LaxExtension(monad_by_name("word:2"), quantale_by_name("lukasiewicz:3"))
    with pytest.raises(GuardError):
        # once a MemoryError: 3^7 candidates pass their guard, and T over
        # the kept presheaves times TX has about 2.3e8 elements
        build_presheaf_category(discrete(ext, ("a", "b")))
    # the bound is inclusive: guard 8 admits the count of 8 that guard 5 refuses
    assert len(graph_exponential(s, s, guard=8).structure.carrier) == 4
    assert len(build_presheaf_category(s, guard=8).structure.carrier) == 4
