"""Relational calculus against brute-force recomputation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tvcat.categories import structure_on
from tvcat.monads import monad_by_name
from tvcat.quantale import (FormatError, Quantale, lukasiewicz,
                            quantale_by_name, two)
from tvcat.report import sort_key
from tvcat.theory import LaxExtension
from tvcat.vrel import (VRel, all_relations, constant_rel, id_rel, pair_carrier,
                        random_relation)

from conftest import within_carriers

XS = ("x0", "x1")
YS = ("y0", "y1")
ZS = ("z0", "z1")


def rel_strategy(q, src, dst):
    cells = [(x, y) for x in src for y in dst]
    return st.lists(st.integers(0, q.n - 1), min_size=len(cells),
                    max_size=len(cells)).map(
        lambda vs: VRel(q, src, dst, {c: v for c, v in zip(cells, vs)
                                      if v != q.bottom}))


def brute_compose(q, r, s):
    """s . r entry by entry, no sparsity tricks."""
    return {(x, z): q.sup(q.tens(r(x, y), s(y, z)) for y in r.dst)
            for x in r.src for z in s.dst}


def test_pair_carrier_row_major():
    assert pair_carrier(("a", "b"), ("c", "d")) == (
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))


def test_entries_validated():
    # every relation checks its values; keys are checked where data enters,
    # by structure_on, and the membership check is the tests' oracle
    q = two()
    with pytest.raises(FormatError):
        VRel(q, XS, YS, {("x0", "y0"): 7})
    assert not within_carriers(VRel(q, XS, YS, {("nope", "y0"): 1}))
    assert within_carriers(VRel(q, XS, YS, {("x0", "y0"): 1}))
    ext = LaxExtension(monad_by_name("word:2"), q)
    for key in ("nope;x0", "x2;x0", "x0;x2", "x0,x0,x0;x0"):
        with pytest.raises(FormatError, match="is not 'T-elem;x'"):
            structure_on(ext, ["x0", "x1"], {key: "1"})
    with pytest.raises(FormatError, match="unknown quantale element"):
        structure_on(ext, ["x0", "x1"], {"x0;x0": "nope"})
    s = structure_on(ext, ["x0", "x1"], {"x0,x1;x0": "1", ";x1": "1"})
    assert within_carriers(s.a) and len(s.a.entries) == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_matches_brute_force(data):
    q = lukasiewicz(3)
    r = data.draw(rel_strategy(q, XS, YS))
    s = data.draw(rel_strategy(q, YS, ZS))
    c = s.compose(r)
    expect = brute_compose(q, r, s)
    for x in XS:
        for z in ZS:
            assert c(x, z) == expect[(x, z)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_associative(data):
    q = lukasiewicz(3)
    r = data.draw(rel_strategy(q, XS, YS))
    s = data.draw(rel_strategy(q, YS, ZS))
    t = data.draw(rel_strategy(q, ZS, XS))
    assert t.compose(s.compose(r)) == t.compose(s).compose(r)


@pytest.mark.parametrize("qname", ["two", "godel:3", "lukasiewicz:3"])
def test_sparse_compose_and_first_gap_match_dense_exhaustive(qname):
    """Composition joins only non-bottom entries and first_gap scans only
    the entries of the left side; both against the dense formula and the
    sorted scan, over every pair of relations X -|-> Y -|-> X.  The gaps
    are also compared on carriers out of sort_key order, where the entries
    come in another order than the scan's."""
    q = quantale_by_name(qname)
    rels = list(all_relations(q, XS, YS))
    back = list(all_relations(q, YS, XS))
    for r in rels:
        for s in back:
            dense = {k: v for k, v in brute_compose(q, r, s).items()
                     if v != q.bottom}
            assert dict(s.compose(r).entries) == dense
    for xs, ys in ((XS, YS), (XS[::-1], YS[::-1])):
        rels = list(all_relations(q, xs, ys))
        for r in rels:
            for s in rels[::7]:
                scan = next(((x, y) for x in sorted(xs, key=sort_key)
                             for y in sorted(ys, key=sort_key)
                             if not q.le(r(x, y), s(x, y))), None)
                assert r.first_gap(s) == scan


def cut_compose(q, r, s):
    """The cut form of s . r: the join of u (x) v over non-bottom u, v such
    that some y has r(x, y) >= u and s(y, z) >= v.  It equals the composite
    only when the tensor is monotone."""
    up = [u for u in range(q.n) if u != q.bottom]
    return {(x, z): q.sup(q.tens(u, v) for u in up for v in up
                          if any(q.le(u, r(x, y)) and q.le(v, s(y, z))
                                 for y in r.dst))
            for x in r.src for z in s.dst}


def test_compose_needs_no_monotone_tensor():
    """On the chain 0 < 1 < 2 with unit 2, 1 (x) 1 = 2 lies above
    2 (x) 1 = 1: the tensor is not monotone, while bottom still absorbs it.
    Compose regroups the join by value pairs, so it matches the brute force
    on every pair of relations; the cut form does not."""
    q = Quantale.from_dict({
        "elements": ["0", "1", "2"], "order": [["0", "1"], ["1", "2"]],
        "unit": "2", "tensor": {"0,0": "0", "0,1": "0", "0,2": "0",
                                "1,1": "2", "1,2": "1", "2,2": "2"}})
    assert q.le(1, 2) and not q.le(q.tens(1, 1), q.tens(2, 1))
    back = list(all_relations(q, YS, ZS))
    cut_wrong = False
    for r in all_relations(q, XS, YS):
        for s in back:
            brute = brute_compose(q, r, s)
            assert dict(s.compose(r).entries) == {
                k: v for k, v in brute.items() if v != q.bottom}
            cut_wrong = cut_wrong or cut_compose(q, r, s) != brute
    assert cut_wrong


@pytest.mark.parametrize("qname", ["two", "godel:3", "lukasiewicz:3"])
def test_compose_on_carriers_wider_than_a_word(qname):
    """The left factor's level bitsets run over a 72-point target, past one
    64-bit word, and are read at 70 middle points; compose still matches
    the brute force entry by entry."""
    q = quantale_by_name(qname)
    rng = random.Random(19)
    mid = tuple("m%d" % i for i in range(70))
    far = tuple("f%d" % i for i in range(72))
    for _ in range(3):
        r = random_relation(q, XS, mid, rng)
        s = random_relation(q, mid, far, rng)
        assert s.compose(r).entries == {
            k: v for k, v in brute_compose(q, r, s).items() if v != q.bottom}


@pytest.mark.parametrize("qname", ["two", "lukasiewicz:3"])
def test_explicit_bottom_entries(qname):
    """Relations that store bottom cells compose like their sparse forms
    and compare equal to them; a missing entry is bottom."""
    q = quantale_by_name(qname)
    rng = random.Random(23)
    for _ in range(20):
        sparse_r = random_relation(q, XS, YS, rng)
        sparse_s = random_relation(q, YS, ZS, rng)
        r = VRel(q, XS, YS, {(x, y): sparse_r(x, y) for x in XS for y in YS})
        s = VRel(q, YS, ZS, {(y, z): sparse_s(y, z) for y in YS for z in ZS})
        dense = {k: v for k, v in brute_compose(q, r, s).items()
                 if v != q.bottom}
        assert dict(s.compose(r).entries) == dense
        assert dict(sparse_s.compose(r).entries) == dense
        assert dict(s.compose(sparse_r).entries) == dense
        assert r == sparse_r and sparse_r == r
    r = VRel(q, XS, YS, {("x0", "y0"): q.bottom, ("x1", "y1"): q.top})
    assert r == VRel(q, XS, YS, {("x1", "y1"): q.top})
    assert r != VRel(q, XS, YS, {("x0", "y0"): q.top, ("x1", "y1"): q.top})
    assert r != VRel(q, XS, YS, {("x1", "y1"): q.top, ("x1", "y0"): q.top})
    assert r != VRel(q, XS, YS, {("x1", "y1"): q.bottom})


def test_identity_neutral():
    q = lukasiewicz(4)
    rng = random.Random(7)
    for _ in range(20):
        r = random_relation(q, XS, YS, rng)
        assert r.compose(id_rel(q, XS)) == r
        assert id_rel(q, YS).compose(r) == r


def test_transpose_involution_and_contravariance():
    q = lukasiewicz(3)
    rng = random.Random(3)
    for _ in range(20):
        r = random_relation(q, XS, YS, rng)
        s = random_relation(q, YS, ZS, rng)
        assert r.transpose().transpose() == r
        assert s.compose(r).transpose() == r.transpose().compose(s.transpose())


def test_owedge_is_entrywise_meet_on_pairs():
    q = lukasiewicz(3)
    rng = random.Random(11)
    r = random_relation(q, XS, YS, rng)
    s = random_relation(q, ZS, XS, rng)
    j = r.owedge(s)
    assert j.src == pair_carrier(XS, ZS)
    assert j.dst == pair_carrier(YS, XS)
    for (x, z) in j.src:
        for (y, x1) in j.dst:
            assert j((x, z), (y, x1)) == q.meet[r(x, y)][s(z, x1)]


def test_tensor_scalar_and_lattice_ops():
    q = lukasiewicz(3)
    rng = random.Random(5)
    r = random_relation(q, XS, YS, rng)
    s = random_relation(q, XS, YS, rng)
    for u in range(q.n):
        ru = r.tensor_scalar(u)
        for x in XS:
            for y in YS:
                assert ru(x, y) == q.tens(r(x, y), u)
    m, j = r.meet(s), r.join(s)
    for x in XS:
        for y in YS:
            assert m(x, y) == q.meet[r(x, y)][s(x, y)]
            assert j(x, y) == q.join[r(x, y)][s(x, y)]
    assert m.leq(r) and m.leq(s)
    assert r.leq(j) and s.leq(j)


def test_first_gap_is_least_witness():
    q = two()
    r = VRel(q, XS, YS, {("x0", "y1"): 1, ("x1", "y0"): 1})
    s = VRel(q, XS, YS, {("x1", "y0"): 1})
    assert r.first_gap(s) == ("x0", "y1")
    assert s.first_gap(r) is None
    assert s.leq(r) and not r.leq(s)


def test_constant_rel():
    q = two()
    c = constant_rel(q, XS, YS, q.bottom)
    assert not c.entries


def test_all_relations_count_and_determinism():
    q = two()
    rs = list(all_relations(q, ("a",), ("b",)))
    assert len(rs) == 2
    q3 = lukasiewicz(3)
    rs = list(all_relations(q3, XS, ("y0",)))
    assert len(rs) == 9
    assert rs == list(all_relations(q3, XS, ("y0",)))


def test_rename_transports_entries():
    q = two()
    r = VRel(q, XS, YS, {("x0", "y0"): 1})
    r2 = r.rename(str.upper, str.upper)
    assert r2("X0", "Y0") == 1
    assert r2.src == ("X0", "X1")
