"""Lax extension against closed-form oracles, and the standing assumptions."""

import random

import pytest

from tvcat.limits import GuardError
from tvcat.monads import monad_by_name
from tvcat.quantale import Quantale, check_quantale, godel_chain, lukasiewicz, two
from tvcat.theory import (LaxExtension, check_assumption3, check_assumption4,
                          check_assumptions_bundle, check_extension_laws,
                          check_infi, check_xi_meet, check_xi_point)
from tvcat.vrel import VRel, all_relations, constant_rel, random_relation

XS = ("x0", "x1")
YS = ("y0", "y1")


def word_extension_oracle(q, max_len, r):
    """Closed form for the word monad: words are related iff they have equal
    length, with the tensor fold of the letterwise values."""
    def words(car):
        out = [()]
        from itertools import product
        for ln in range(1, max_len + 1):
            out += list(product(car, repeat=ln))
        return out
    ent = {}
    for wx in words(r.src):
        for wy in words(r.dst):
            if len(wx) != len(wy):
                continue
            v = q.tens_all(r(x, y) for x, y in zip(wx, wy))
            if v != q.bottom:
                ent[(wx, wy)] = v
    return ent


def labelled_extension_oracle(q, labels, r):
    """Closed form for X x H: related iff the labels agree, with r's value."""
    ent = {}
    for x in r.src:
        for y in r.dst:
            for h in labels:
                if r(x, y) != q.bottom:
                    ent[((x, h), (y, h))] = r(x, y)
    return ent


@pytest.mark.parametrize("qname", ["two", "lukasiewicz:3", "godel:3"])
def test_word_extension_matches_closed_form(qname):
    from tvcat.quantale import quantale_by_name
    q = quantale_by_name(qname)
    ext = LaxExtension(monad_by_name("word:2"), q)
    rng = random.Random(0)
    for _ in range(25):
        r = random_relation(q, XS, YS, rng)
        tr = ext.extend(r)
        assert dict(tr.entries) == word_extension_oracle(q, 2, r)


@pytest.mark.parametrize("qname", ["two", "lukasiewicz:3"])
def test_labelled_extension_matches_closed_form(qname):
    from tvcat.quantale import quantale_by_name
    q = quantale_by_name(qname)
    ext = LaxExtension(monad_by_name("labelled:z2"), q)
    rng = random.Random(1)
    for _ in range(25):
        r = random_relation(q, XS, YS, rng)
        tr = ext.extend(r)
        assert dict(tr.entries) == labelled_extension_oracle(q, ("e", "g"), r)


def test_identity_extension_is_identity(ext_ord):
    q = ext_ord.quantale
    rng = random.Random(2)
    for _ in range(10):
        r = random_relation(q, XS, YS, rng)
        assert ext_ord.extend(r) == r


def test_extension_laws_small_grid():
    for qname in ("two", "lukasiewicz:3"):
        from tvcat.quantale import quantale_by_name
        q = quantale_by_name(qname)
        for mname in ("identity", "labelled:z2", "word:2"):
            ext = LaxExtension(monad_by_name(mname), q)
            rep = check_extension_laws(ext)
            assert rep.passed, (qname, mname, rep.to_json())


def test_infi_passes_identity_exhaustive(ext_ord):
    q = ext_ord.quantale
    for r in all_relations(q, XS, YS):
        for s in all_relations(q, XS, YS):
            assert check_infi(ext_ord, r, s).status == "pass"


def test_infi_fails_word_over_lukasiewicz():
    """The comparison square genuinely fails for the word monad over a
    non-idempotent tensor; the minimal known witness is pinned down."""
    q = lukasiewicz(3)
    ext = LaxExtension(monad_by_name("word:2"), q)
    half, one = 1, 2
    r = VRel(q, XS, YS, {("x1", "y0"): one, ("x1", "y1"): half})
    s = VRel(q, XS, YS, {("x1", "y0"): one, ("x1", "y1"): half})
    rep = check_infi(ext, r, s)
    assert rep.status == "fail"
    assert rep.law == "infi-ge"
    # rhs = (1 (*) 1/2) /\ (1/2 (*) 1) = 1/2, lhs joins to bottom
    assert rep.details["rhs"] == "1/2"
    assert rep.details["lhs"] == "0"


def test_infi_passes_word_over_frames():
    for q in (two(), godel_chain(3)):
        ext = LaxExtension(monad_by_name("word:2"), q)
        rng = random.Random(3)
        for _ in range(30):
            r = random_relation(q, XS, YS, rng)
            s = random_relation(q, XS, YS, rng)
            assert check_infi(ext, r, s).passed


def test_xi_meet_equality_flag():
    # frames give equality; Lukasiewicz under the word monad does not
    assert check_xi_meet(LaxExtension(monad_by_name("word:2"), two())
                         ).details["equality"]
    rep = check_xi_meet(LaxExtension(monad_by_name("word:2"), lukasiewicz(3)))
    assert rep.passed
    assert not rep.details["equality"]


def test_xi_point_and_letterless_skip():
    ext = LaxExtension(monad_by_name("word:2"), lukasiewicz(3))
    rep = check_xi_point(ext, 1)
    assert rep.passed
    assert rep.skipped == 1  # the empty word has no letters to see u
    ident = LaxExtension(monad_by_name("identity"), lukasiewicz(3))
    assert check_xi_point(ident, 1).details["equality"]


def test_assumption3_negative_control():
    """Scalar tensor fails for the word monad over Lukasiewicz at u=1/2 with
    a length-2 constant word, and passes over the boolean frame."""
    q = lukasiewicz(3)
    ext = LaxExtension(monad_by_name("word:2"), q)
    r = constant_rel(q, ("x",), ("y",), q.unit)
    rep = check_assumption3(ext, r, 1)
    assert rep.status == "fail"
    assert rep.witness == ["('x', 'x')", "('y', 'y')"]
    assert rep.details["u"] == "1/2"
    q2 = two()
    ext2 = LaxExtension(monad_by_name("word:2"), q2)
    r2 = constant_rel(q2, ("x",), ("y",), q2.unit)
    for u in range(q2.n):
        assert check_assumption3(ext2, r2, u).passed


def test_assumption4_verdicts():
    assert check_assumption4(LaxExtension(monad_by_name("identity"),
                                          lukasiewicz(3))).passed
    assert check_assumption4(LaxExtension(monad_by_name("word:2"),
                                          two())).passed


def _chain(labels, tensor, unit):
    n = len(labels)
    leq = tuple(tuple(i <= j for j in range(n)) for i in range(n))
    return Quantale(labels, leq, tensor, unit, name="planted")


# 0 < h < 1 with h (x) h = 1 > h (x) 1: bottom absorbs the tensor, so
# LaxExtension accepts it, but the tensor is not monotone, which only
# check_quantale sees and the theory checks do not re-run
NOT_MONOTONE = _chain(("0", "h", "1"), ((0, 0, 0), (0, 2, 1), (0, 1, 2)), 2)
# 0 < k < h < 1, k the unit and h (x) h = 1: a quantale, so the tensor is a
# functor, but not integral: xi of the word (h, h) is 1, not below h
DOUBLING = _chain(("0", "k", "h", "1"),
                  ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3)), 1)


@pytest.mark.parametrize("q,check,law,witness,details", [
    (NOT_MONOTONE, check_xi_meet, "xi-meet-le", ["((1, 1), (1, 2))"],
     {"lhs": "1", "rhs": "h"}),
    (NOT_MONOTONE, lambda ext: check_xi_point(ext, 1), "xi-point-ge", ["('*', '*')"],
     {"value": "1", "u": "h"}),
    (NOT_MONOTONE, check_assumption4, "tensor-functor", ["((1, 1),)", "h", "1"], {}),
    (DOUBLING, check_assumption4, "point-functor", ["('*', '*')"], {"u": "h"}),
], ids=["xi-meet-le", "xi-point-ge", "tensor-functor", "point-functor"])
def test_theory_laws_planted_defects(q, check, law, witness, details):
    assert check_quantale(q).passed == (q is DOUBLING)
    rep = check(LaxExtension(monad_by_name("word:2"), q))
    assert rep.status == "fail"
    assert (rep.law, rep.witness, rep.details) == (law, witness, details)


def test_bundle_aggregates_and_witnesses():
    ext = LaxExtension(monad_by_name("word:2"), lukasiewicz(3))
    rep = check_assumptions_bundle(ext, seed=0)
    assert rep.status == "fail"
    v = rep.details["verdicts"]
    assert v["condition_inj"] and v["functors"]
    assert not v["infi"] and not v["scalar_tensor"]
    good = check_assumptions_bundle(LaxExtension(monad_by_name("identity"),
                                                 lukasiewicz(3)))
    assert good.passed
    assert all(good.details["verdicts"].values())


def test_bundle_guards_the_joint_carrier(monkeypatch):
    # |T((X x X') x (Y x Y'))| over 16 points, counted before any extension
    sizes = {"identity": 16, "word:2": 273, "word:3": 4369, "word:4": 69905,
             "word:5": 1118481}

    def no_extension(self, rows, tx):
        raise AssertionError("an extension ran before the guard")

    with monkeypatch.context() as patch:
        patch.setattr(LaxExtension, "lift_rows", no_extension)
        for name, size in sizes.items():
            ext = LaxExtension(monad_by_name(name), two())
            with pytest.raises(GuardError) as exc:
                check_assumptions_bundle(ext, guard=size - 1)
            assert exc.value.size == size
    assert check_assumptions_bundle(LaxExtension(monad_by_name("word:2"), two()),
                                    guard=273).passed


def test_bundle_seed_determinism():
    ext = LaxExtension(monad_by_name("word:2"), godel_chain(5))
    a = check_assumptions_bundle(ext, seed=5, exhaustive=False)
    b = check_assumptions_bundle(ext, seed=5, exhaustive=False)
    assert a.to_json() == b.to_json()


def test_hom_xi_relation():
    q = lukasiewicz(3)
    ext = LaxExtension(monad_by_name("identity"), q)
    h = ext.hom_xi()
    for u in range(q.n):
        for v in range(q.n):
            assert h(u, v) == q.hom[u][v]
