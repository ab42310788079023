"""The shared relational kernels against the per-construction loops they
replaced: push-forward of entries, and the largest structure making
evaluation compatible, for exponentials (Heyting implication) and presheaf
categories (residuation)."""

import random

import pytest

from tvcat.categories import dual, random_category
from tvcat.exponential import graph_exponential
from tvcat.monads import monad_by_name
from tvcat.presheaf import build_presheaf_category
from tvcat.quantale import quantale_by_name
from tvcat.theory import LaxExtension
from tvcat.vrel import pair_carrier, push_forward

# (quantale, monad, carrier of X, carrier of Y, least number of non-bottom
# structure entries of X).  A near-discrete X over word:2 has a presheaf
# carrier of up to 80 elements, whose T(carrier) pass is too slow for a
# unit test, so such draws are drawn again.
CELLS = [("two", "word:2", ("a", "b"), ("c", "d", "e"), 12),
         ("godel:3", "word:2", ("a", "b"), ("c", "d", "e"), 12),
         ("two", "labelled:z2", ("a", "b"), ("c", "d", "e"), 0),
         ("lukasiewicz:3", "labelled:z2", ("a", "b"), ("c", "d", "e"), 0),
         ("godel:3", "labelled:z2", ("a", "b"), ("c", "d", "e"), 0)]
DRAWS = 3


def exponential_oracle(sx, sy, z):
    """The graph-exponential structure loop as written before the shared
    kernel, on the admissible maps z."""
    q = sx.quantale
    monad = sx.monad
    cells = pair_carrier(z, sx.carrier)
    tz = monad.carrier(z)
    xidx = {x: i for i, x in enumerate(sx.carrier)}
    acc = {(p, h): q.top for p in tz for h in z}
    for w in monad.carrier(cells):
        p = monad.map_elem(lambda c: c[0], w)
        tx = monad.map_elem(lambda c: c[1], w)
        tev = monad.map_elem(lambda c: c[0][xidx[c[1]]], w)
        for h in z:
            cur = acc[(p, h)]
            for x in sx.carrier:
                cur = q.meet[cur][q.heyting[sx.a(tx, x)][sy.a(tev, h[xidx[x]])]]
            acc[(p, h)] = cur
    return {k: v for k, v in acc.items() if v != q.bottom}


def presheaf_oracle(s, carrier):
    """The presheaf-category structure loop as written before the shared
    kernel, on the presheaf carrier."""
    q = s.quantale
    monad = s.monad
    op = dual(s)
    tx = s.tx
    tidx = {t: i for i, t in enumerate(tx)}
    cells = pair_carrier(tx, carrier)
    tz = monad.carrier(carrier)
    acc = {(p, psi): q.top for p in tz for psi in carrier}
    for w in monad.carrier(cells):
        p = monad.map_elem(lambda c: c[1], w)
        t1 = monad.map_elem(lambda c: c[0], w)
        xi = monad.xi(monad.map_elem(lambda c: c[1][tidx[c[0]]], w), q)
        for psi in carrier:
            cur = acc[(p, psi)]
            for t in tx:
                cur = q.meet[cur][q.hom[op.a(t1, t)][q.hom[xi][psi[tidx[t]]]]]
            acc[(p, psi)] = cur
    return {k: v for k, v in acc.items() if v != q.bottom}


def draws(qname, mname, xs, ys, least):
    ext = LaxExtension(monad_by_name(mname), quantale_by_name(qname))
    rng = random.Random("kernels:%s:%s" % (qname, mname))
    for _ in range(DRAWS):
        sx = random_category(ext, xs, rng)
        while len(sx.a.entries) < least:
            sx = random_category(ext, xs, rng)
        yield sx, random_category(ext, ys, rng)


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "%s-%s" % c[:2])
def test_largest_compatible_matches_exponential_loop(cell):
    for sx, sy in draws(*cell):
        exp = graph_exponential(sx, sy)
        expect = exponential_oracle(sx, sy, exp.structure.carrier)
        assert dict(exp.structure.a.entries) == expect


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "%s-%s" % c[:2])
def test_largest_compatible_matches_presheaf_loop(cell):
    for sx, _ in draws(*cell):
        px = build_presheaf_category(sx)
        expect = presheaf_oracle(sx, px.structure.carrier)
        assert dict(px.structure.a.entries) == expect


def test_push_forward_joins_and_drops_bottom():
    q = quantale_by_name("godel:3")
    lo, mid, top = q.bottom, q.index("1"), q.top
    items = [(("a", "b"), mid), (("a", "b"), lo), (("c", "d"), lo),
             (("a", "b"), top), (("e", "f"), mid)]
    assert push_forward(q, items) == {("a", "b"): top, ("e", "f"): mid}
