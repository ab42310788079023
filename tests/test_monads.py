"""Monad data and laws; xi closed forms recomputed independently.  The
monad-level checks walk the in-bound fragments of T(TX), TV and TA; the
literal loops over T^3 X, T^2 V and T(TA) they replace are kept here as
their oracles."""

import random
import statistics
import time
from itertools import islice, product

import pytest

from tvcat.limits import GuardError
from tvcat.monads import (FormatError, LabelledMonad, Monoid, WordMonad,
                          _default_functions, _default_squares, can_map,
                          check_bc_samples, check_monad_laws, monad_by_name,
                          monad_from_dict, z2)
from tvcat.quantale import Quantale, lukasiewicz, quantale_by_name, two
from tvcat.report import Reporter, sort_key
from tvcat.theory import LaxExtension
from tvcat.vrel import VRel, pair_carrier, random_relation

from conftest import reference_clock, unit_times

XS = ("a", "b")


def test_identity_monad_is_trivial(q2):
    m = monad_by_name("identity")
    assert m.carrier(XS) == XS
    assert m.unit("a") == "a"
    assert m.mult("a") == "a"
    assert m.xi(1, q2) == 1
    assert check_monad_laws(m, XS, q2).status == "pass"


def test_finite_ultrafilter_reduces_to_identity(q2):
    m = monad_by_name("finite_ultrafilter")
    assert m.kind == "finite_ultrafilter"
    assert m.carrier(XS) == XS
    assert check_monad_laws(m, XS, q2).status == "pass"


def test_word_carrier_counts():
    # words of length <= L over an alphabet of size k: sum k^i
    for L in (1, 2, 3):
        m = WordMonad(L)
        assert len(m.carrier(XS)) == sum(2 ** i for i in range(L + 1))


def test_word_mult_truncation():
    m = WordMonad(2)
    assert m.mult((("a",), ("b",))) == ("a", "b")
    assert m.mult((("a", "b"), ("a",))) is None
    assert m.mult(((), ())) == ()
    assert m.unit("a") == ("a",)


def test_word_xi_is_tensor_fold():
    q = lukasiewicz(3)
    m = WordMonad(3)
    for w in m.carrier(tuple(range(q.n))):
        expect = q.unit
        for v in w:
            expect = q.tens(expect, v)
        assert m.xi(w, q) == expect
        assert m.xi_of_values(list(w), q) == expect
    assert m.xi((), q) == q.unit


def test_word_laws_bounded(q2):
    rep = check_monad_laws(WordMonad(2), XS, q2)
    assert rep.status == "bounded-pass"
    assert rep.skipped > 0


def test_labelled_monad_shape(q2):
    m = monad_by_name("labelled:z2")
    assert set(m.carrier(("x",))) == {("x", "e"), ("x", "g")}
    assert m.unit("x") == ("x", "e")
    assert m.mult((("x", "g"), "g")) == ("x", "e")
    assert m.xi((1, "g"), q2) == 1
    assert check_monad_laws(m, XS, q2).status == "pass"


def test_monoid_validation():
    with pytest.raises(FormatError):
        Monoid(("e", "g"), ((0, 1), (0, 0)), 0)  # unit law fails on the right
    with pytest.raises(FormatError, match="duplicate"):
        # both labels would map to the last index, failing the unit law
        Monoid.from_dict({"elements": ["e", "e"], "table": [["e", "e"], ["e", "e"]],
                          "unit": "e"})
    m = z2()
    assert m.mul("g", "g") == "e"


def test_can_map_components():
    m = WordMonad(2)
    cm = can_map(m, m.carrier(pair_carrier(("x",), ("y", "z"))))
    w = (("x", "y"), ("x", "z"))
    assert cm[w] == (("x", "x"), ("y", "z"))
    ident = monad_by_name("identity")
    assert can_map(ident, ident.carrier(pair_carrier(XS, XS)))[("a", "b")] == ("a", "b")


def test_can_map_word_surjective_on_equal_lengths():
    # every pair of equal-length words is hit by exactly one joint word
    m = WordMonad(2)
    cm = can_map(m, m.carrier(pair_carrier(XS, XS)))
    hits = {}
    for w, pair in cm.items():
        hits.setdefault(pair, []).append(w)
    for wx in m.carrier(XS):
        for wy in m.carrier(XS):
            if len(wx) == len(wy):
                assert len(hits[(wx, wy)]) == 1
            else:
                assert (wx, wy) not in hits


def test_serialization_roundtrip():
    for spec in ("identity", "finite_ultrafilter", "word:3", "labelled:z2"):
        m = monad_by_name(spec)
        m2 = monad_from_dict(m.describe())
        assert type(m2) is type(m)
        assert m2.carrier(XS) == m.carrier(XS)


def test_bad_specs():
    with pytest.raises(FormatError):
        monad_by_name("word:x")
    with pytest.raises(FormatError):
        monad_by_name("nosuch")
    with pytest.raises(FormatError):
        monad_from_dict({"kind": "word"})


@pytest.mark.parametrize("spec", ["identity", "word:2", "labelled:z2"])
def test_bc_squares(spec):
    rep = check_bc_samples(monad_by_name(spec))
    assert rep.passed


def test_labelled_monad_custom_monoid(q2):
    # three-element cyclic monoid
    z3 = Monoid(("0", "1", "2"),
                tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3)), 0)
    m = LabelledMonad(z3)
    assert check_monad_laws(m, XS, q2).status == "pass"
    assert len(m.carrier(XS)) == 6


# ---- planted defects: every law of check_monad_laws can fail ----

class DoubledUnit(WordMonad):
    """e(x) = xx, so m . eT sends the word a to aa."""

    def unit(self, x):
        return (x, x)


class OuterLabelDropped(LabelledMonad):
    """m((x, h1), h2) = (x, h1): the unit laws part, m . Te forgets h."""

    def mult(self, tt):
        (x, h1), _ = tt
        return (x, h1)


class NonAssociativeLabels(LabelledMonad):
    """Labels e, a, b multiplied by a unital but non-associative table:
    (a a) b = b, a (a b) = a."""

    TABLE = {"e": {"e": "e", "a": "a", "b": "b"},
             "a": {"e": "a", "a": "e", "b": "e"},
             "b": {"e": "b", "a": "e", "b": "a"}}

    def mult(self, tt):
        (x, h1), h2 = tt
        return (x, self.TABLE[h1][h2])


def _two_with_tensor(table):
    q = two()
    return Quantale(q.labels, q.leq, table, q.unit, name="planted")


Z3 = Monoid(("e", "a", "b"), ((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0)


@pytest.mark.parametrize("monad,q,law,witness", [
    (DoubledUnit(2), None, "mult-unit-left", ["('a',)"]),
    (OuterLabelDropped(z2()), None, "mult-unit-right", ["('a', 'g')"]),
    (NonAssociativeLabels(Z3), None, "mult-associative",
     ["((('a', 'a'), 'a'), 'b')"]),
    # 1 (x) 1 = 0: xi of the one-letter word 1 is 0
    (WordMonad(2), _two_with_tensor(((0, 0), (0, 0))), "xi-unit", ["1"]),
    # left unit only, 0 (x) 1 = 1: xi(0) = 0, but xi of the word (xi(0), xi()) is 1
    (WordMonad(2), _two_with_tensor(((0, 1), (0, 1))), "xi-mult", ["((0,), ())"]),
], ids=["mult-unit-left", "mult-unit-right", "mult-associative", "xi-unit",
        "xi-mult"])
def test_monad_laws_planted_defects(monad, q, law, witness):
    rep = check_monad_laws(monad, XS, q)
    assert rep.status == "fail"
    assert (rep.law, rep.witness) == (law, witness)


@pytest.mark.parametrize("spec", ["identity", "finite_ultrafilter",
                                  "labelled:z2", "word:1", "word:2", "word:3"])
@pytest.mark.parametrize("xs", [("b", "a"), ("c", "a", "b")], ids=len)
def test_fiber_reads_only_the_rows_at_the_letters(spec, xs):
    # the contract the infi sweep's row classes rest on: the rows outside
    # the letters of t never change the fibers or the lift at t.  Both take
    # VRel.rows as they are, a row missing where r is bottom (every other
    # relation at the first point)
    m = monad_by_name(spec)
    q = quantale_by_name("godel:3")
    rng = random.Random("fiber-letters:%s:%d" % (spec, len(xs)))
    ys = ("e", "d")
    for k in range(4):
        r = random_relation(q, xs, ys, rng)
        if k % 2:
            r = VRel(q, xs, ys, {c: v for c, v in r.entries.items() if c[0] != xs[0]})
        rows = r.rows
        for t in m.carrier(xs):
            read = {x: rows[x] for x in m.letters(t) if x in rows}
            assert list(m.fiber(t, rows)) == list(m.fiber(t, read))
            assert m.lift_rows(rows, (t,), q) == m.lift_rows(read, (t,), q)


def test_word_carrier_size_counts_the_words():
    for max_len in (1, 2, 3):
        m = WordMonad(max_len)
        for n in range(4):
            assert m.carrier_size(n) == len(m.carrier(tuple(range(n))))


def test_nested_guard_reports_an_inner_level_from_below():
    # over word:3, TX has 15 words, T(TX) 3,616 and the in-bound fragment
    # of T(T(TX)) the laws walk 52,969: each is counted once the one inside
    # it passes, and the fragment as it is built, up to one past the guard
    for guard, need in ((10, "T X enumeration needs 15"),
                        (100, "T\\(TX\\) enumeration needs 3616"),
                        (3616, "in-bound T\\(T\\(TX\\)\\) fragment needs at least 3617")):
        with pytest.raises(GuardError, match="^%s candidates, above the guard %d "
                                             % (need, guard)):
            check_monad_laws(WordMonad(3), XS, guard=guard)
    assert check_monad_laws(WordMonad(3), XS, guard=52969).status == "bounded-pass"
    # with a quantale, TV and then the in-bound fragment of T(TV) are
    # counted after them: over one point under word:2, TX has 3 words, T(TX)
    # 13 and its fragment 48; TV has 57 words over lukasiewicz:7, and the
    # fragment of T(TV) 118 over lukasiewicz:5, whose TV has 31
    for n, guard, need in ((7, 50, "T V enumeration needs 57"),
                           (5, 100, "in-bound T\\(TV\\) fragment needs at least 101")):
        with pytest.raises(GuardError, match="^%s candidates, above the guard %d "
                                             % (need, guard)):
            check_monad_laws(WordMonad(2), ("a",), lukasiewicz(n), guard=guard)
    assert check_monad_laws(WordMonad(2), ("a",), lukasiewicz(5), guard=118).passed



def test_a_kept_fragment_is_refused_under_a_lower_limit():
    # structure_on counts the in-bound fragment as the extension builds and
    # keeps it; a kept fragment past a later limit is refused as a new one
    ext = LaxExtension(WordMonad(2), two())
    rows, _, xxs = ext.fragment(("a",), 10)
    assert len(rows) == len(xxs) == 10
    with pytest.raises(GuardError, match=r"^in-bound T\(T carrier\) fragment needs "
                                         r"at least 10 candidates, above the guard 9 "):
        ext.fragment(("a",), 9)
    assert ext.fragment(("a",))[0] is rows

# ---- the walks against the literal loops they replace ----

def monad_laws_oracle(monad, xs, q=None):
    """check_monad_laws by enumeration of T^3 X and T^2 V, skipping each
    element where a multiplication is out of bound."""
    rep = Reporter("monad_laws", bound=monad.bound_info())
    tx = monad.carrier(xs)
    for t in tx:
        rep.tick()
        if monad.mult(monad.unit(t)) != t:
            return rep.fail("mult-unit-left", [repr(t)])
        m = monad.mult(monad.map_elem(monad.unit, t))
        if m is None:
            rep.skip()
        elif m != t:
            return rep.fail("mult-unit-right", [repr(t)])
    for ttt in monad.carrier(monad.carrier(tx)):
        lhs_inner = monad.mult(ttt)
        tm = monad.map_elem(monad.mult, ttt) if all(
            monad.mult(t2) is not None for t2 in monad.letters(ttt)) else None
        if lhs_inner is None or tm is None:
            rep.skip()
            continue
        lhs, rhs = monad.mult(lhs_inner), monad.mult(tm)
        if lhs is None or rhs is None:
            rep.skip()
            continue
        rep.tick()
        if lhs != rhs:
            return rep.fail("mult-associative", [repr(ttt)])
    if q is not None:
        elems = tuple(range(q.n))
        for v in elems:
            rep.tick()
            if monad.xi(monad.unit(v), q) != v:
                return rep.fail("xi-unit", [q.labels[v]])
        for tt in monad.carrier(monad.carrier(elems)):
            m = monad.mult(tt)
            if m is None:
                rep.skip()
                continue
            rep.tick()
            if monad.xi(m, q) != monad.xi(
                    monad.map_elem(lambda t: monad.xi(t, q), tt), q):
                return rep.fail("xi-mult", [repr(tt)])
    return rep.ok()


def bc_samples_oracle(monad):
    """check_bc_samples by enumeration of T(TA) and T(TB)."""
    rep = Reporter("bc_squares", bound=monad.bound_info())
    for a_car, b_car, c_car, f, g in _default_squares():
        p_car = tuple(p for p in pair_carrier(a_car, b_car) if f[p[0]] == g[p[1]])
        reachable = {(monad.map_elem(lambda p: p[0], w), monad.map_elem(lambda p: p[1], w))
                     for w in monad.carrier(p_car)}
        for fa in monad.carrier(a_car):
            for fb in monad.carrier(b_car):
                if monad.map_elem(lambda x: f[x], fa) != monad.map_elem(lambda y: g[y], fb):
                    continue
                rep.tick()
                if (fa, fb) not in reachable:
                    return rep.fail("weak-pullback", [repr(fa), repr(fb)])
    for a_car, b_car, f in _default_functions():
        ta = monad.carrier(a_car)
        images = {}
        for big in monad.carrier(ta):
            m = monad.mult(big)
            if m is None:
                rep.skip()
                continue
            key = monad.map_elem(lambda t: monad.map_elem(lambda x: f[x], t), big)
            images.setdefault(key, set()).add(m)
        for bigb in monad.carrier(monad.carrier(b_car)):
            mb = monad.mult(bigb)
            if mb is None:
                rep.skip()
                continue
            for fa in ta:
                if monad.map_elem(lambda x: f[x], fa) != mb:
                    continue
                rep.tick()
                if fa not in images.get(bigb, set()):
                    return rep.fail("m-naturality-weak-pullback",
                                    [repr(bigb), repr(fa)])
    return rep.ok()


def outcome(rep):
    return rep.status, rep.law, rep.witness, rep.samples, rep.skipped


class SortedImages(WordMonad):
    """Tf sorts the letters of the image word: no word of pairs projects
    onto b1 b0, though a0 a0 and b1 b0 lie over the same word c0 c0."""

    def map_elem(self, f, t):
        return tuple(sorted(f(x) for x in t))


class SortingMult(WordMonad):
    """m sorts the flattened word, which is not natural: the only words of
    words over A above the one-word word b0 b0 multiply to sorted words, so
    none gives a1 a0."""

    def mult(self, tt):
        flat = super().mult(tt)
        return None if flat is None else tuple(sorted(flat))


# the shipped monads, and Z3 with its labels e, a, b out of sort_key order
ORACLE_MONADS = {"identity": monad_by_name("identity"),
                 "finite_ultrafilter": monad_by_name("finite_ultrafilter"),
                 "labelled:z2": monad_by_name("labelled:z2"),
                 "labelled:Z3": LabelledMonad(Z3),
                 "word:1": WordMonad(1), "word:2": WordMonad(2)}


@pytest.mark.parametrize("mname", ORACLE_MONADS)
@pytest.mark.parametrize("xs", [("x0", "x1"), ("b", "a"), ("c", "a", "b")],
                         ids=",".join)
@pytest.mark.parametrize("qname", [None, "two", "godel:3", "lukasiewicz:3"])
def test_monad_laws_match_the_literal_loops(mname, xs, qname):
    monad = ORACLE_MONADS[mname]
    q = quantale_by_name(qname) if qname else None
    got = check_monad_laws(monad, xs, q)
    assert outcome(got) == outcome(monad_laws_oracle(monad, xs, q))
    assert got.samples > 0


def test_word3_monad_laws_match_the_literal_loops():
    # one point: T^3 X has 621,691 elements, above the default guard, which
    # the oracle enumerates in about 3.5 s and the walk skips in closed form
    monad, q = WordMonad(3), lukasiewicz(3)
    got = check_monad_laws(monad, ("a",), q, guard=10 ** 6)
    assert outcome(got) == outcome(monad_laws_oracle(monad, ("a",), q))
    assert (got.status, got.samples, got.skipped) == ("bounded-pass", 952, 686132)


@pytest.mark.parametrize("monad,q", [(DoubledUnit(2), None),
                                     (OuterLabelDropped(z2()), None),
                                     (NonAssociativeLabels(Z3), None),
                                     (WordMonad(2), _two_with_tensor(((0, 0), (0, 0)))),
                                     (WordMonad(2), _two_with_tensor(((0, 1), (0, 1))))],
                         ids=["mult-unit-left", "mult-unit-right", "mult-associative",
                              "xi-unit", "xi-mult"])
def test_planted_monad_laws_match_the_literal_loops(monad, q):
    got = check_monad_laws(monad, XS, q)
    assert got.status == "fail"
    assert outcome(got) == outcome(monad_laws_oracle(monad, XS, q))


@pytest.mark.parametrize("monad", list(ORACLE_MONADS.values())
                         + [WordMonad(3), SortedImages(2), SortingMult(2)],
                         ids=list(ORACLE_MONADS) + ["word:3", "sorted-images",
                                                   "sorting-mult"])
def test_bc_samples_match_the_literal_loops(monad):
    got = check_bc_samples(monad)
    assert outcome(got) == outcome(bc_samples_oracle(monad))
    assert got.samples > 0


@pytest.mark.parametrize("monad,law,witness,skipped", [
    (SortedImages(2), "weak-pullback", ["('a0', 'a0')", "('b1', 'b0')"], 0),
    (SortingMult(2), "m-naturality-weak-pullback",
     ["(('b0', 'b0'),)", "('a1', 'a0')"], 32),
], ids=["weak-pullback", "m-naturality-weak-pullback"])
def test_bc_samples_planted_defects(monad, law, witness, skipped):
    rep = check_bc_samples(monad)
    assert rep.status == "fail"
    assert (rep.law, rep.witness, rep.skipped) == (law, witness, skipped)


class Recording(WordMonad):
    """A word monad that lists the carriers it is asked to enumerate."""

    def __init__(self, max_len):
        super().__init__(max_len)
        self.asked, self.built = [], []

    def carrier(self, xs):
        self.asked.append(xs)
        self.built.append(super().carrier(xs))
        return self.built[-1]


def test_monad_checks_build_no_carrier_past_one_nesting():
    # T(TX) and TV are the largest carriers the laws ask for, never T^3 X
    # (3,307 words of words of words here) or T^2 V
    monad = Recording(2)
    xs, tx = ("x0", "x1"), WordMonad(2).carrier(("x0", "x1"))
    check_monad_laws(monad, xs, two())
    assert set(monad.asked) == {xs, tx, (0, 1)}
    # the squares ask for TA, TB and T of the pullbacks, never T(TA)
    monad = Recording(2)
    assert check_bc_samples(monad).status == "bounded-pass"
    assert not set(monad.asked) & set(monad.built)
    assert max(map(len, monad.built)) == WordMonad(2).carrier_size(4)


@pytest.mark.parametrize("spec", ["identity", "finite_ultrafilter",
                                  "labelled:z2", "word:1", "word:2", "word:3"])
@pytest.mark.parametrize("xs", [("b", "a"), ("c", "a", "b")], ids=len)
def test_inbound_ranks_are_positions_in_the_carrier(spec, xs):
    # from TX in carrier order or in sort_key order, the rank of an in-bound
    # XX is its position in carrier(order): the monad checks walk the
    # former, LaxExtension.fragment the latter
    monad = monad_by_name(spec)
    tx = monad.carrier(xs)
    for order in (tx, tuple(sorted(tx, key=sort_key))):
        ttx = monad.carrier(order)
        assert list(monad.inbound(order)) == [
            (i, xx) for i, xx in enumerate(ttx) if monad.mult(xx) is not None]


def test_labelled_inbound_ranks_with_labels_out_of_sort_order():
    # Z3 lists e, a, b: from carrier order the ranks are positions in
    # carrier(order), from sort_key order positions in sorted T(TX)
    monad = LabelledMonad(Z3)
    tx = monad.carrier(("b", "a"))
    assert list(monad.inbound(tx)) == list(enumerate(monad.carrier(tx)))
    order = tuple(sorted(tx, key=sort_key))
    ranked = list(monad.inbound(order))
    assert ranked == list(enumerate(sorted(monad.carrier(order), key=sort_key)))
    assert ranked != list(enumerate(monad.carrier(order)))


def recursive_inbound_oracle(monad, order):
    """WordMonad.inbound as a recursion: the XX of each length within a
    letter budget, first word first, ranked by the ranks of their words."""
    n = len(order)
    fits = [sum(len(w) <= b for w in order) for b in range(monad.max_len + 1)]

    def within(length, budget):
        if not length:
            yield 0, ()
            return
        place = n ** (length - 1)
        for i in range(fits[budget]):
            w = order[i]
            for j, rest in within(length - 1, budget - len(w)):
                yield i * place + j, (w,) + rest

    offset = 0
    for length in range(monad.max_len + 1):
        for j, xx in within(length, monad.max_len):
            yield offset + j, xx
        offset += n ** length


@pytest.mark.parametrize("max_len", (1, 2, 3, 4))
@pytest.mark.parametrize("xs", [("a",), ("b", "a"), ("c", "a", "b")], ids=len)
def test_level_wise_inbound_matches_the_recursion(max_len, xs):
    # the same (rank, XX) sequence from TX in carrier and in sort_key order
    monad = WordMonad(max_len)
    tx = monad.carrier(xs)
    for order in (tx, tuple(sorted(tx, key=sort_key))):
        assert list(monad.inbound(order)) == list(recursive_inbound_oracle(monad, order))


def test_inbound_yields_each_xx_as_it_is_built():
    # word:16 over two points: TX holds 131,071 words and the XX of length 2
    # number 16 * 2^17 + 1, over 2 million.  Taking levels 0 and 1 and the
    # first 1,000 XX of length 2 builds none of the rest of level 2 (nor
    # level 3): about 0.2 s on two cores with Python 3.11, some 120
    # reference units of bench/clock.py, so the bound is 600 units, timed
    # around the walk
    monad = WordMonad(16)
    order = monad.carrier(("a", "b"))
    n = len(order)
    assert sum((s + 1) * 2 ** s for s in range(17)) == 16 * 2 ** 17 + 1 > 10 ** 6
    clock = reference_clock()
    units = unit_times(clock)
    start = time.perf_counter()
    taken = list(islice(monad.inbound(order), 1 + n + 1000))
    took = time.perf_counter() - start
    units += unit_times(clock)
    assert took < 600 * statistics.median(units)
    assert taken[:1 + n] == [(0, ())] + [(1 + i, (w,)) for i, w in enumerate(order)]
    assert taken[1 + n:] == [(1 + n + i, ((), order[i])) for i in range(1000)]
