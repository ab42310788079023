"""Quantale tables against independently computed closed forms."""

import json

import pytest
from hypothesis import given, strategies as st

from tvcat.quantale import (QUANTALE_LAWS, FormatError, Quantale, QuantaleHom,
                            chain_trunc_add, check_condition_inj, check_hom,
                            check_lemma_surjective_transfer, check_quantale,
                            godel_chain, lukasiewicz, powerset_frame,
                            quantale_by_name, two)

from conftest import all_quantales


@pytest.mark.parametrize("q", all_quantales(), ids=lambda q: q.name)
def test_builtin_laws(q):
    assert check_quantale(q).status == "pass"


@pytest.mark.parametrize("q", all_quantales(), ids=lambda q: q.name)
def test_builtin_condition_inj(q):
    assert check_condition_inj(q).status == "pass"


def test_two_is_boolean(q2):
    assert q2.n == 2
    assert q2.tens(1, 1) == 1
    assert q2.tens(1, 0) == 0
    assert q2.unit == 1
    assert q2.is_frame()


def test_lukasiewicz_closed_form():
    # on labels 0 < 1/2 < 1 the tensor is max(a + b - 1, 0)
    q = lukasiewicz(3)
    vals = {0: 0.0, 1: 0.5, 2: 1.0}
    for i in range(3):
        for j in range(3):
            expect = max(vals[i] + vals[j] - 1.0, 0.0)
            assert vals[q.tens(i, j)] == expect
    assert q.labels == ("0", "1/2", "1")
    assert q.unit == 2
    assert not q.is_frame()


def test_godel_is_meet():
    q = godel_chain(4)
    for i in range(4):
        for j in range(4):
            assert q.tens(i, j) == min(i, j)
    assert q.is_frame()


def test_trunc_add_closed_form():
    # distances 0 < 1 < ... < n-1 with reversed order (0 is the unit/top)
    q = chain_trunc_add(4)
    for i in range(4):
        for j in range(4):
            assert q.index(q.labels[q.tens(i, j)]) == q.index(
                str(min(int(q.labels[i]) + int(q.labels[j]), 3)))
    assert q.labels[q.unit] == "0"
    assert q.le(q.index("3"), q.index("1"))  # larger distance is lower
    assert not q.le(q.index("1"), q.index("3"))


def test_powerset_frame_structure():
    q = powerset_frame(2)
    assert q.n == 4
    i = q.index
    assert q.tens(i("{0}"), i("{1}")) == i("{}")
    assert q.tens(i("{0}"), i("{0,1}")) == i("{0}")
    assert q.labels[q.unit] == "{0,1}"
    assert q.is_frame()


def test_residuation_adjunction_exhaustive(luk3):
    q = luk3
    for u in range(q.n):
        for v in range(q.n):
            for w in range(q.n):
                assert q.le(q.tens(u, v), w) == q.le(v, q.hom[u][w])


@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 4))
def test_residuate_is_largest(n, u, w):
    q = lukasiewicz(n)
    u, w = u % q.n, w % q.n
    h = q.hom[u][w]
    assert q.le(q.tens(u, h), w)
    for v in range(q.n):
        if q.le(q.tens(u, v), w):
            assert q.le(v, h)


def test_serialization_roundtrip():
    for q in (two(), lukasiewicz(3), powerset_frame(2)):
        q2 = Quantale.from_dict(q.to_dict())
        assert q2 == q


def test_from_dict_rejects_bad_input(q2):
    with pytest.raises(FormatError):
        Quantale.from_dict({"elements": ["a", "a"], "order": [],
                            "tensor": {}, "unit": "a"})
    d = q2.to_dict()
    del d["unit"]
    with pytest.raises(FormatError):
        Quantale.from_dict(d)
    d = q2.to_dict()
    d["tensor"] = {}
    with pytest.raises(FormatError):
        Quantale.from_dict(d)


def test_quantale_by_name():
    assert quantale_by_name("two").n == 2
    assert quantale_by_name("lukasiewicz:4").n == 4
    assert quantale_by_name("godel:5").n == 5
    assert quantale_by_name("trunc_add:3").n == 3
    assert quantale_by_name("powerset:2").n == 4


def test_from_file(tmp_path, luk3):
    p = tmp_path / "q.json"
    p.write_text(json.dumps(luk3.to_dict()))
    assert Quantale.from_file(str(p)) == luk3


def test_hom_frame_map():
    # collapsing Lukasiewicz-3 onto 2 by u |-> (u == top) is lax monoidal
    # but not a sup-preserving hom of quantales in the other direction;
    # the surjection 2 <- L3 sending 0,1/2 to 0 and 1 to 1 is checked
    src = lukasiewicz(3)
    dst = two()
    h = QuantaleHom(src, dst, (0, 0, 1))
    rep = check_hom(h)
    assert rep.status == "pass"
    assert h.is_surjective()
    assert check_lemma_surjective_transfer(h).passed


def test_check_quantale_finds_broken_table():
    q = two()
    broken = Quantale(q.labels, q.leq,
                      ((0, 1), (1, 0)), q.unit, name="broken")
    rep = check_quantale(broken)
    assert rep.status == "fail"
    assert rep.witness is not None


def m3() -> Quantale:
    """The diamond M3, 0 < a, b, c < 1, with the meet as tensor: a lattice
    whose meet does not distribute over joins."""
    r = range(5)
    leq = tuple(tuple(i == j or i == 0 or j == 4 for j in r) for i in r)
    meet = tuple(tuple(i if i == j or j == 4 else j if i == 4 else 0 for j in r)
                 for i in r)
    return Quantale(("0", "a", "b", "c", "1"), leq, meet, 4, name="m3")


def godel_skewed() -> Quantale:
    """The godel:3 order whose tensor rows are (0,0,0), (0,1,2), (0,1,2):
    1 (x) 2 = 2 but 2 (x) 1 = 1."""
    q = godel_chain(3)
    return Quantale(q.labels, q.leq, ((0, 0, 0), (0, 1, 2), (0, 1, 2)), 2)


def overridden(q: Quantale, table: str, value) -> Quantale:
    """q with one table replaced after construction, for a defect that the
    constructor or an earlier law rules out."""
    object.__setattr__(q, table, value)
    return q


def chain4() -> Quantale:
    """The first chain that ``quantale search-cond2 --max-size 4`` reports:
    lawful, but the meet does not distribute over decompositions."""
    leq = tuple(tuple(i <= j for j in range(4)) for i in range(4))
    tensor = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))
    return Quantale(("0", "1", "2", "3"), leq, tensor, 3, name="chain4")


CHAIN3 = tuple(tuple(i <= j for j in range(3)) for i in range(3))
TOP2 = ((1, 1), (1, 1))

# one planted defect per law site, with the first failing tuple in the
# check's order as its exact witness: each row of QUANTALE_LAWS fails first
# on its quantale, and inj-decomposition on a lawful one
PLANTED = [
    ("preserves-unit", lambda: check_hom(QuantaleHom(two(), two(), (0, 0))),
     ["1"]),
    ("preserves-tensor", lambda: check_hom(
        QuantaleHom(lukasiewicz(3), godel_chain(3), (0, 1, 2))), ["1/2", "1/2"]),
    # the top of powerset:2 goes to 1, every other subset to 0
    ("preserves-joins", lambda: check_hom(
        QuantaleHom(powerset_frame(2), two(), (0, 0, 0, 1))), ["{0}", "{1}"]),
    ("preserves-bottom", lambda: check_hom(QuantaleHom(two(), two(), (1, 1))),
     ["0"]),
    # 1 is not below itself; 2 stays above it, so the joins exist
    ("order-reflexive", lambda: check_quantale(Quantale(
        ("0", "1", "2"), ((True, True, True), (False, False, True),
                          (False, False, True)), godel_chain(3).tensor, 2)),
     ["1"]),
    ("order-antisymmetric", lambda: check_quantale(Quantale(
        ("0", "1"), ((True, True), (True, True)), two().tensor, 1)), ["0", "1"]),
    # a reflexive, antisymmetric order without 0 <= 2 has no join of 0 and
    # 2, so the constructor refuses it: the order is overridden on godel:3
    ("order-transitive", lambda: check_quantale(overridden(godel_chain(3), "leq", (
        (True, True, False), (False, True, True), (False, False, True)))),
     ["0", "1", "2"]),
    ("tensor-commutative", lambda: check_quantale(godel_skewed()), ["1", "2"]),
    ("tensor-associative", lambda: check_quantale(Quantale(
        ("0", "1", "2"), CHAIN3, ((0, 0, 0), (0, 0, 1), (0, 1, 0)), 0)),
     ["1", "2", "2"]),
    ("tensor-unit", lambda: check_quantale(
        Quantale(two().labels, two().leq, two().tensor, 0)), ["1"]),
    ("tensor-join-distributive", lambda: check_quantale(m3()), ["a", "b", "c"]),
    # max on 0 < 1 with unit 0: 1 (x) 0 = 1, above the bottom 0
    ("tensor-bottom", lambda: check_quantale(
        Quantale(two().labels, two().leq, ((0, 1), (1, 1)), 0)), ["1"]),
    # the constructor derives hom and heyting as the adjoints of the tensor
    # and the meet, so each is overridden on a lawful two()
    ("hom-adjunction", lambda: check_quantale(overridden(two(), "hom", TOP2)),
     ["1", "1", "0"]),
    ("heyting-adjunction", lambda: check_quantale(
        overridden(two(), "heyting", TOP2)), ["1", "1", "0"]),
    ("inj-decomposition", lambda: check_condition_inj(chain4()), ["2", "2", "1"]),
]


@pytest.mark.parametrize("law,run,witness", PLANTED, ids=[p[0] for p in PLANTED])
def test_planted_defects_fail_their_law(law, run, witness):
    rep = run()
    assert (rep.status, rep.law, rep.witness) == ("fail", law, witness)


def test_every_quantale_law_has_a_plant():
    # a law added to QUANTALE_LAWS fails here until PLANTED plants it
    laws = [law for law, _, _ in QUANTALE_LAWS] + ["inj-decomposition"]
    assert [p[0] for p in PLANTED if p[0] in laws] == laws
    assert check_quantale(chain4()).passed
