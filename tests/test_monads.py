"""Monad data and laws; xi closed forms recomputed independently."""

import random
from itertools import product

import pytest

from tvcat.limits import GuardError
from tvcat.monads import (FormatError, LabelledMonad, Monoid, WordMonad, can_map,
                          check_bc_samples, check_monad_laws, monad_by_name,
                          monad_from_dict, z2)
from tvcat.quantale import Quantale, lukasiewicz, two
from tvcat.vrel import pair_carrier

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
    # the letters of t never change the fibers above t
    m = monad_by_name(spec)
    rng = random.Random("fiber-letters:%s:%d" % (spec, len(xs)))
    ys = ("e", "d")
    for _ in range(4):
        rows = {x: [(y, rng.randrange(1, 3)) for y in ys if rng.random() < 0.7]
                for x in xs if rng.random() < 0.8}
        for t in m.carrier(xs):
            read = {x: rows[x] for x in m.letters(t) if x in rows}
            assert list(m.fiber(t, rows)) == list(m.fiber(t, read))


def test_word_carrier_size_counts_the_words():
    for max_len in (1, 2, 3):
        m = WordMonad(max_len)
        for n in range(4):
            assert m.carrier_size(n) == len(m.carrier(tuple(range(n))))


def test_nested_guard_reports_an_inner_level_from_below():
    # T X has 15 words and T^2 X 3,616 over word:3, so T^3 X is not counted
    # out once T^2 X passes the guard
    with pytest.raises(GuardError, match=r"^T\^3 X enumeration needs at least 3616 "
                                         r"candidates, above the guard 100 "):
        check_monad_laws(WordMonad(3), XS, guard=100)
    with pytest.raises(GuardError, match=r"^T\^3 X enumeration needs 47293927969 "
                                         r"candidates, above the guard 3616 "):
        check_monad_laws(WordMonad(3), XS, guard=3616)
