"""Quantale tables against independently computed closed forms."""

import json
import random
import statistics
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tvcat.quantale import (QUANTALE_LAWS, FormatError, Quantale, QuantaleHom,
                            chain_trunc_add, check_condition_inj, check_hom,
                            check_lemma_surjective_transfer, check_quantale,
                            _closure, godel_chain, lukasiewicz, powerset_frame,
                            quantale_by_name, two)
from tvcat.limits import GuardError

from conftest import all_quantales, reference_clock, unit_times


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
    # 1 is not below itself, but shares its up-set with 2 and its down-set
    # with 0, so every join and meet lookup finds an element
    ("order-reflexive", lambda: check_quantale(Quantale(
        ("0", "1", "2"), ((True, True, True), (False, False, True),
                          (False, False, True)), godel_chain(3).tensor, 2)),
     ["1"]),
    ("order-antisymmetric", lambda: check_quantale(Quantale(
        ("0", "1"), ((True, True), (True, True)), two().tensor, 1)), ["0", "1"]),
    # a reflexive, antisymmetric order without 0 <= 2: the up-sets of 0 and
    # 2 share no element, so no join of 0 and 2 is found and the constructor
    # refuses it; the order is overridden on godel:3
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


def scanned_sup(leq, elems) -> int:
    """The least upper bound of elems by a scan: the upper bounds, and the
    first of them below all the others."""
    cands = [w for w in range(len(leq)) if all(leq[u][w] for u in elems)]
    for w in cands:
        if all(leq[w][z] for z in cands):
            return w
    raise FormatError("order is not a lattice")


def scanned_tables(leq, tensor):
    """join, meet, bottom, top, hom and heyting of an order and a tensor,
    each a least upper bound found by ``scanned_sup``, or the message of
    its FormatError: the literal definitions the constructor's lookups and
    folds must agree with."""
    rng = range(len(leq))
    try:
        join = [[scanned_sup(leq, (u, v)) for v in rng] for u in rng]
        meet = [[scanned_sup(leq, [w for w in rng if leq[w][u] and leq[w][v]])
                 for v in rng] for u in rng]
        bot, top = scanned_sup(leq, ()), scanned_sup(leq, rng)
        hom = [[scanned_sup(leq, [v for v in rng if leq[tensor[u][v]][w]])
                for w in rng] for u in rng]
        heyt = [[scanned_sup(leq, [v for v in rng if leq[meet[u][v]][w]])
                 for w in rng] for u in rng]
    except FormatError as exc:
        return str(exc)

    def frozen(table):
        return tuple(map(tuple, table))

    return frozen(join), frozen(meet), bot, top, frozen(hom), frozen(heyt)


def derived_tables(q: Quantale):
    return (q.join, q.meet, q.bottom, q.top, q.hom, q.heyting)


@pytest.mark.parametrize("base,sizes", [
    ("two", [None]), ("godel", range(1, 41)), ("lukasiewicz", range(2, 41)),
    ("trunc_add", range(1, 31)), ("powerset", range(6))])
def test_bundled_tables_match_the_scan(base, sizes):
    for n in sizes:
        q = quantale_by_name(base if n is None else "%s:%d" % (base, n))
        assert derived_tables(q) == scanned_tables(q.leq, q.tensor), q.name


def test_random_orders_match_the_scan():
    # closures of random pairs on up to 6 points, kept when antisymmetric,
    # with a random tensor: the constructor and the scan give the same six
    # tables on a lattice and the same message on any other order
    rng = random.Random(26)
    verdicts = {"lattice": 0, "refused": 0}
    for _ in range(600):
        n = rng.randint(1, 6)
        pairs = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))}
        leq = tuple(map(tuple, _closure(n, pairs)))
        if any(i != j and leq[i][j] and leq[j][i] for i in range(n) for j in range(n)):
            continue
        tensor = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        want = scanned_tables(leq, tensor)
        try:
            got = derived_tables(Quantale(tuple(map(str, range(n))), leq, tensor, 0))
        except FormatError as exc:
            got = str(exc)
        assert got == want, (leq, tensor)
        verdicts["refused" if isinstance(want, str) else "lattice"] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_bundled_tensors_match_their_definitions():
    # the Lukasiewicz order and tensor max(0, u + v - 1) on the values
    # i/(n-1), and the powerset meet, located by search among the elements
    for n in range(2, 41):
        vals = [Fraction(i, n - 1) for i in range(n)]
        q = lukasiewicz(n)
        assert q.labels == tuple(map(str, vals))
        assert q.leq == tuple(tuple(u <= v for v in vals) for u in vals)
        assert q.tensor == tuple(tuple(vals.index(max(Fraction(0), u + v - 1))
                                       for v in vals) for u in vals)
    for k in range(6):
        subsets = list(range(1 << k))
        assert powerset_frame(k).tensor == tuple(
            tuple(subsets.index(s & t) for t in subsets) for s in subsets)


def test_guard_edge_quantale_builds_in_time(monkeypatch):
    # godel:316 has 99,856 table cells, just inside the default guard of
    # 100,000: what the guard admits is built, in about 2.5 s on two cores
    # with Python 3.11, and godel:317 is refused before it is built.  The
    # bound is 15 s on a machine where a reference unit takes
    # clock.REFERENCE_S, so it is 5,000 units, timed around the build here
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    clock = reference_clock()
    units = unit_times(clock)
    start = time.perf_counter()
    q = quantale_by_name("godel:316")
    took = time.perf_counter() - start
    units += unit_times(clock)
    assert took < 15 / clock.REFERENCE_S * statistics.median(units)
    assert (q.bottom, q.top, q.join[7][300], q.meet[7][300]) == (0, 315, 300, 7)
    assert q.heyting[300][7] == 7 and q.heyting[7][300] == 315
    with pytest.raises(GuardError):
        quantale_by_name("godel:317")
