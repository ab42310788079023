"""Structures, lifts, reflector, duals and serialization, with brute-force
order-theoretic oracles over the identity monad, and the fixed-point loops
equiv_classes and from_order ran before they read the Warshall closure."""

import random
from itertools import product as iter_product

import pytest

from tvcat.categories import (EMAlgebra, TVFunctor, TVStructure, check_algebra,
                              check_category, check_final, check_functor,
                              check_fully_faithful, check_graph, check_initial,
                              check_R_preserves_products, compose_functors,
                              coproduct, discrete, dual, equiv_classes,
                              find_representation, from_order, functor_K,
                              functor_M, functor_equiv, functor_leq,
                              final_lift, graph_to_category, identity_functor,
                              indiscrete, initial_lift, one_point, product,
                              quotient, random_category, reflect_R, separated,
                              structure_from_dict, structure_to_dict, subspace,
                              tensor, v_hom_xi)
from tvcat.monads import monad_by_name
from tvcat.quantale import (FormatError, Quantale, lukasiewicz, quantale_by_name,
                            two)
from tvcat.report import sort_key
from tvcat.theory import LaxExtension
from tvcat.vrel import VRel, random_relation, tabulate


def order_pairs(s):
    """The preorder carried by an identity-monad structure over two()."""
    a0 = s.a0
    return {(x, y) for x in s.carrier for y in s.carrier
            if a0(x, y) == s.quantale.unit}


def transitive_reflexive_closure(xs, pairs):
    rel = {(x, x) for x in xs} | set(pairs)
    changed = True
    while changed:
        changed = False
        for (x, y) in tuple(rel):
            for (y2, z) in tuple(rel):
                if y == y2 and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    return rel


def from_order_oracle(ext, xs, pairs):
    """from_order as written with its own fixed-point closure loop."""
    q = ext.quantale
    rel = transitive_reflexive_closure(xs, pairs)
    letters = ext.monad.letters
    return TVStructure(ext, tuple(xs), tabulate(
        q, ext.carrier(tuple(xs)), tuple(xs),
        lambda t, x: q.unit if all((l, x) in rel for l in letters(t)) else q.bottom))


def equiv_classes_oracle(s):
    """equiv_classes as written with its own fixed-point closure loop."""
    q = s.quantale
    a0 = s.a0
    near = {x: {x} for x in s.carrier}
    for x in s.carrier:
        for y in s.carrier:
            if q.le(q.unit, a0(x, y)) and q.le(q.unit, a0(y, x)):
                near[x].add(y)
    changed = True
    while changed:
        changed = False
        for x in s.carrier:
            for y in tuple(near[x]):
                if not near[y] <= near[x]:
                    near[x] |= near[y]
                    changed = True
    seen = set()
    classes = []
    for x in s.carrier:
        if x in seen:
            continue
        cls = tuple(sorted(near[x], key=sort_key))
        seen.update(cls)
        classes.append(cls)
    return classes


WORLDS = [("two", "identity"), ("godel:3", "identity"),
          ("lukasiewicz:3", "labelled:z2"), ("two", "word:2")]


def random_graphs(rng, count):
    """Graphs with random values in every cell, so in general neither
    reflexive nor transitive, on carriers listed out of sort_key order."""
    for qname, mname in WORLDS:
        ext = LaxExtension(monad_by_name(mname), quantale_by_name(qname))
        for _ in range(count):
            xs = ("d", "b", "c", "a")[:rng.randint(1, 2 if mname == "word:2" else 4)]
            yield TVStructure(ext, xs, random_relation(ext.quantale, ext.carrier(xs),
                                                       xs, rng))


def test_structure_validates_carriers(ext_ord):
    q = ext_ord.quantale
    with pytest.raises(FormatError):
        TVStructure(ext_ord, ("a", "b"), VRel(q, ("a",), ("a",), {}))
    with pytest.raises(FormatError):
        TVStructure(ext_ord, ("a", "a"),
                    VRel(q, ("a", "a"), ("a", "a"), {}))


def test_basic_constructors_are_categories(ext_ord, ext_word2, ext_labelled):
    for ext in (ext_ord, ext_word2, ext_labelled):
        for s in (discrete(ext, ("a", "b")), indiscrete(ext, ("a", "b")),
                  one_point(ext)):
            assert check_category(s).passed


def test_check_category_finds_transitivity_defect(ext_ord):
    q = ext_ord.quantale
    xs = ("a", "b", "c")
    ent = {("a", "a"): 1, ("b", "b"): 1, ("c", "c"): 1,
           ("a", "b"): 1, ("b", "c"): 1}
    s = TVStructure(ext_ord, xs, VRel(q, xs, xs, ent))
    rep = check_category(s)
    assert rep.status == "fail"
    assert rep.law == "transitivity"
    assert check_graph(s).passed


def test_graph_to_category_is_transitive_closure(ext_ord):
    xs = ("a", "b", "c")
    q = ext_ord.quantale
    rng = random.Random(9)
    for _ in range(30):
        pairs = {(x, y) for x in xs for y in xs if rng.random() < 0.4}
        ent = {p: 1 for p in pairs}
        g = TVStructure(ext_ord, xs, VRel(q, xs, xs, ent))
        c = graph_to_category(g)
        assert check_category(c).passed
        assert order_pairs(c) == transitive_reflexive_closure(xs, pairs)


def test_product_is_pointwise_order(ext_ord):
    sx = from_order(ext_ord, ("a", "b"), {("a", "b")})
    sy = from_order(ext_ord, ("c", "d"), {("d", "c")})
    p, p1, p2 = product(sx, sy)
    assert check_category(p).passed
    assert check_functor(p1).passed and check_functor(p2).passed
    ox, oy, op = order_pairs(sx), order_pairs(sy), order_pairs(p)
    for u in p.carrier:
        for v in p.carrier:
            assert (((u, v) in op)
                    == ((u[0], v[0]) in ox and (u[1], v[1]) in oy))


def test_product_mediates_cones(ext_ord):
    sx = from_order(ext_ord, ("a", "b"), {("a", "b")})
    p, p1, p2 = product(sx, sx)
    diag = TVFunctor(sx, p, {x: (x, x) for x in sx.carrier})
    assert check_functor(diag).passed
    assert functor_equiv(compose_functors(p1, diag), identity_functor(sx))


def test_subspace_is_initial(ext_ord, ext_labelled):
    for ext in (ext_ord, ext_labelled):
        s = indiscrete(ext, ("a", "b", "c"))
        inc = subspace(s, ("a", "c"))
        assert check_initial(inc).passed
        assert check_fully_faithful(inc).passed


def test_coproduct_is_disjoint_union(ext_ord):
    sx = from_order(ext_ord, ("a", "b"), {("a", "b")})
    sy = from_order(ext_ord, ("c",), set())
    s, i1, i2 = coproduct(sx, sy)
    assert check_category(s).passed
    assert check_functor(i1).passed and check_functor(i2).passed
    op = order_pairs(s)
    assert (("0", "a"), ("0", "b")) in op
    assert (("0", "a"), ("1", "c")) not in op
    assert (("1", "c"), ("0", "a")) not in op
    assert len(s.carrier) == 3


def test_quotient_projection_is_final(ext_ord):
    s = from_order(ext_ord, ("a", "b", "c"), {("a", "b"), ("b", "a")})
    g, pr = quotient(s, {"a": "a", "b": "a", "c": "c"})
    assert check_functor(pr).passed
    assert check_final(pr).passed
    assert len(g.carrier) == 2


def test_final_lift_joins_no_floor(ext_ord):
    # the final lift along the identity of a non-reflexive graph is that
    # graph, and check_final accepts the functor it was built along
    q = ext_ord.quantale
    xs = ("a", "b")
    g = TVStructure(ext_ord, xs, VRel(q, xs, xs, {("a", "b"): q.unit}))
    ident = {x: x for x in xs}
    lift = final_lift(ext_ord, xs, [(g, ident)])
    assert check_final(TVFunctor(g, lift, ident)).passed
    assert lift.a == g.a


def test_check_final_accepts_the_final_lift_of_random_graphs():
    rng = random.Random(23)
    for g in random_graphs(rng, 12):
        q = g.quantale
        proj = {x: rng.choice(g.carrier[:2]) for x in g.carrier}
        image = tuple(dict.fromkeys(proj[x] for x in g.carrier))
        f = TVFunctor(g, final_lift(g.ext, image, [(g, proj)]), proj)
        # the join over each fiber of (Tf, f), taken cell by cell
        assert f.target.a.entries == {
            (t, y): v for t in f.target.tx for y in image
            if (v := q.sup([g.a(s, x) for s in g.tx for x in g.carrier
                            if f.t_map(s) == t and proj[x] == y])) != q.bottom}
        assert check_final(f).passed
        # the closure adds to the lift exactly where check_final then fails
        closed = graph_to_category(f.target)
        assert check_final(TVFunctor(g, closed, proj)).passed == (closed.a == f.target.a)


def test_tensor_formula_and_category_flag():
    q = lukasiewicz(3)
    ext = LaxExtension(monad_by_name("identity"), q)
    ent = {("p", "p"): 2, ("r", "r"): 2, ("p", "r"): 1}
    s = TVStructure(ext, ("p", "r"), VRel(q, ("p", "r"), ("p", "r"), ent))
    assert check_category(s).passed
    t = tensor(s, s)
    for (w, (x, y)) in [(p, c) for p in t.tx for c in t.carrier]:
        assert t.a(w, (x, y)) == q.tens(s.a(w[0], x), s.a(w[1], y))
    # over a non-idempotent tensor this differs from the product (meet)
    p, _, _ = product(s, s)
    assert t.a(("p", "p"), ("r", "r")) == q.tens(1, 1)
    assert p.a(("p", "p"), ("r", "r")) == q.meet[1][1]


def test_separation_and_reflector(ext_ord):
    s = from_order(ext_ord, ("a", "b", "c"), {("a", "b"), ("b", "a")})
    assert not separated(s)
    assert equiv_classes(s) == [("a", "b"), ("c",)]
    r, eta = reflect_R(s)
    assert separated(r)
    assert set(r.carrier) == {"a", "c"}
    assert eta.map["b"] == "a"
    assert check_functor(eta).passed
    assert check_initial(eta).passed
    assert check_final(eta).passed
    # idempotent: reflecting again changes nothing
    r2, eta2 = reflect_R(r)
    assert r2 == r
    assert all(eta2.map[x] == x for x in r.carrier)


def test_equiv_classes_match_the_fixed_point_loop():
    rng = random.Random(29)
    for s in random_graphs(rng, 40):
        assert equiv_classes(s) == equiv_classes_oracle(s)
        c = graph_to_category(s)
        assert equiv_classes(c) == equiv_classes_oracle(c)


@pytest.mark.parametrize("mname", ("identity", "word:2"))
def test_from_order_matches_the_fixed_point_loop(mname):
    ext = LaxExtension(monad_by_name(mname), two())
    rng = random.Random("from_order:" + mname)
    for _ in range(40):
        xs = ("d", "b", "c", "a")[:rng.randint(1, 3 if mname == "word:2" else 4)]
        pairs = {(rng.choice(xs), rng.choice(xs)) for _ in range(rng.randint(0, 5))}
        # and a cycle through up to three points
        cycle = rng.sample(xs, min(len(xs), 3))
        pairs |= set(zip(cycle, cycle[1:] + cycle[:1]))
        assert from_order(ext, xs, pairs) == from_order_oracle(ext, xs, pairs)


def test_from_order_refuses_a_pair_off_the_carrier(ext_ord):
    with pytest.raises(FormatError, match="'z'"):
        from_order(ext_ord, ("a", "b"), {("a", "b"), ("b", "z")})


def test_reflector_preserves_products_sampled():
    for qname, mname in (("two", "identity"), ("lukasiewicz:3", "identity"),
                         ("two", "labelled:z2")):
        ext = LaxExtension(monad_by_name(mname), quantale_by_name(qname))
        rng = random.Random(17)
        for _ in range(15):
            sx = random_category(ext, ("a", "b"), rng)
            sy = random_category(ext, ("c", "d"), rng)
            assert check_R_preserves_products(sx, sy).passed


def test_dual_identity_is_transpose(ext_ord):
    s = from_order(ext_ord, ("a", "b"), {("a", "b")})
    op = dual(s)
    assert check_category(op).passed
    assert order_pairs(op) == {(y, x) for (x, y) in order_pairs(s)}
    assert order_pairs(dual(op)) == order_pairs(s)


def test_dual_word_is_category(ext_word2):
    s = discrete(ext_word2, ("a", "b"))
    op = dual(s)
    assert check_category(op).status in ("pass", "bounded-pass")
    assert op.carrier == s.tx


def test_M_K_roundtrip_identity(ext_ord):
    s = from_order(ext_ord, ("a", "b"), {("a", "b")})
    alg = functor_M(s)
    assert check_algebra(alg).passed
    back = functor_K(alg)
    assert back == s


def graph_composite_K(alg):
    """K as the composite a0 . alpha with the graph of alpha, unit on each
    (t, alpha t): the oracle of K's reindexing."""
    q = alg.quantale
    tx = alg.ext.carrier(alg.carrier)
    graph = VRel(q, tx, alg.carrier, {(t, x): q.unit for t, x in alg.alpha.items()})
    return alg.a0.compose(graph)


def unitless_chain():
    """The chain 0 < a < 1 with unit 1, where 1 (x) a = 0 but a (x) 1 = a:
    bottom absorbs the tensor, the unit law fails at a on the left."""
    leq = tuple(tuple(u <= v for v in range(3)) for u in range(3))
    tensor = ((0, 0, 0), (0, 1, 1), (0, 0, 2))
    return Quantale(("0", "a", "1"), leq, tensor, 2, name="unitless")


def test_K_reindexes_like_the_graph_composite():
    # M of a word:3 structure: alpha = m is partial on the fragment of T(TX)
    ext = LaxExtension(monad_by_name("word:3"), quantale_by_name("godel:3"))
    alg = functor_M(random_category(ext, ("b", "a"), random.Random(3)))
    k = functor_K(alg)
    assert k.flags.get("bounded_algebra")
    assert len(alg.alpha) < len(k.tx) and k.a.entries
    assert k.a == graph_composite_K(alg)
    # where the unit law fails, K keeps k (x) a0(alpha t, y), not a0(alpha t, y)
    q = unitless_chain()
    xs = ("b", "a")
    ext = LaxExtension(monad_by_name("identity"), q)
    a0 = VRel(q, xs, xs, {("a", "a"): 2, ("a", "b"): 1, ("b", "b"): 2, ("b", "a"): 1})
    alg = EMAlgebra(ext, xs, a0, {"a": "b", "b": "b"})
    k = functor_K(alg).a
    assert k == graph_composite_K(alg)
    assert k != VRel(q, xs, xs, {(t, y): a0("b", y) for t in xs for y in xs})
    assert k == VRel(q, xs, xs, {("a", "b"): 2, ("b", "b"): 2})


# ---- planted defects: every law of check_algebra can fail ----

CHAIN = ("e", "a", "b")
CHAIN_LE = {(x, y) for i, x in enumerate(CHAIN) for y in CHAIN[i:]}


def chain_algebra(order=CHAIN_LE, alpha=()):
    """The chain e <= a <= b as an algebra of the word monad over two(),
    alpha sending a word to its maximum (the empty word to e); order
    replaces the chain and alpha lists (word, value) overrides."""
    ext = LaxExtension(monad_by_name("word:2"), two())
    q = ext.quantale
    tx = ext.monad.carrier(CHAIN)
    amap = {t: max(t, key=CHAIN.index, default="e") for t in tx}
    amap.update(alpha)
    return EMAlgebra(ext, CHAIN, VRel(q, CHAIN, CHAIN, {p: q.top for p in order}),
                     amap)


def test_chain_algebra_is_an_algebra():
    assert check_algebra(chain_algebra()).passed


@pytest.mark.parametrize("alg,law,witness", [
    (chain_algebra(CHAIN_LE - {("b", "b")}), "v-reflexivity", ["'b'"]),
    (chain_algebra(CHAIN_LE - {("e", "b")}), "v-transitivity",
     ["'e'", "'a'", "'b'"]),
    (chain_algebra(alpha=[(("a",), "b")]), "algebra-unit", ["'a'"]),
    # alpha(e a) = e: the word of words ((), (a)) flattens to a, sent to a
    (chain_algebra(alpha=[(("e", "a"), "e")]), "algebra-mult", ["((), ('a',))"]),
    # a and b incomparable: (e, a) <= (b, a) letterwise, but a is not <= b
    (chain_algebra(CHAIN_LE - {("a", "b")}), "alpha-v-functor",
     ["('e', 'a')", "('b', 'a')"]),
], ids=["v-reflexivity", "v-transitivity", "algebra-unit", "algebra-mult",
        "alpha-v-functor"])
def test_algebra_laws_planted_defects(alg, law, witness):
    rep = check_algebra(alg)
    assert rep.status == "fail"
    assert (rep.law, rep.witness) == (law, witness)


# ---- planted defects: the checks that walk T(X) in sort_key order ----

# word:2 enumerates T(b, a) as (), (b), (a), (b, b), (b, a), (a, b), (a, a),
# out of sort_key order; each defect below fails at two elements that the
# two orders rank differently, so its witness names the order walked
SWAPPED = ("b", "a")


def swapped(ext, cells):
    """The discrete structure on SWAPPED with the given cells raised to k,
    or without its diagonal when cells is None."""
    q = ext.quantale
    s = discrete(ext, SWAPPED)
    ent = {} if cells is None else {**s.a.entries, **dict.fromkeys(cells, q.unit)}
    return TVStructure(ext, SWAPPED, VRel(q, s.tx, SWAPPED, ent))


RAISED = ((("b", "b"), "b"), (("a", "a"), "b"))


def along(ext, source_cells, target_cells):
    """The identity map between two swapped structures."""
    return TVFunctor(swapped(ext, source_cells), swapped(ext, target_cells),
                     {x: x for x in SWAPPED})


@pytest.mark.parametrize("check,build,law,witness,samples", [
    (check_functor, lambda ext: along(ext, RAISED, ()), "functoriality",
     ["('a', 'a')", "'b'"], 7),
    (check_fully_faithful, lambda ext: along(ext, (), RAISED), "fully-faithful",
     ["('a', 'a')", "'b'"], 7),
    (check_initial, lambda ext: along(ext, RAISED, ()), "fully-faithful",
     ["('a', 'a')", "'b'"], 7),
    (check_final, lambda ext: along(ext, (), RAISED), "final-structure",
     ["('a', 'a')", "'b'"], 7),
    (check_graph, lambda ext: swapped(ext, None), "reflexivity", ["'a'"], 1),
    (check_category, lambda ext: swapped(ext, None), "reflexivity", ["'a'"], 1),
], ids=["functoriality", "fully-faithful", "initial", "final-structure",
        "reflexivity", "category-reflexivity"])
def test_sort_key_walks_planted_defects(ext_word2, check, build, law, witness,
                                        samples):
    tx = ext_word2.monad.carrier(SWAPPED)
    assert tx.index(("b", "b")) < tx.index(("a", "a"))
    assert tx.index(("b",)) < tx.index(("a",))
    rep = check(build(ext_word2))
    assert rep.status == "fail"
    assert (rep.law, rep.witness, rep.samples) == (law, witness, samples)


def test_v_hom_xi_is_category():
    for qname, mname in (("two", "identity"), ("lukasiewicz:3", "identity"),
                         ("godel:3", "labelled:z2"), ("two", "word:2")):
        ext = LaxExtension(monad_by_name(mname), quantale_by_name(qname))
        s = v_hom_xi(ext)
        assert check_category(s).passed
        assert s.carrier == tuple(ext.quantale.labels)


def test_find_representation_v_hom(ext_ord):
    s = v_hom_xi(ext_ord)
    found = find_representation(s)
    assert found is not None
    alpha, rep = found
    assert rep.details["pseudo_algebra"]
    assert all(alpha[x] == x for x in s.carrier)  # identity monad: alpha = id


def test_find_representation_discrete(ext_ord):
    # every alpha is a retraction of the unit here, so representability
    # reduces to the hat-structure compatibility, which the discrete
    # structure satisfies trivially for alpha = id
    s = discrete(ext_ord, ("a", "b"))
    found = find_representation(s)
    assert found is not None


def test_functor_order(ext_ord):
    s = from_order(ext_ord, ("a", "b"), {("a", "b")})
    f = TVFunctor(s, s, {"a": "a", "b": "a"})
    g = identity_functor(s)
    assert functor_leq(f, g)
    assert not functor_leq(g, f)
    assert not functor_equiv(f, g)


def test_functor_order_needs_a_common_domain(ext_ord):
    s = from_order(ext_ord, ("a", "b"), {("a", "b")})
    sub = subspace(s, ("a",))
    f = identity_functor(s)
    # same target, different source carriers
    with pytest.raises(FormatError):
        functor_leq(sub, f)
    with pytest.raises(FormatError):
        functor_leq(f, sub)


def test_serialization_roundtrip(ext_word2, ext_labelled):
    for ext in (ext_word2, ext_labelled):
        s = graph_to_category(discrete(ext, ("a", "b")))
        d = structure_to_dict(s)
        s2 = structure_from_dict(d)
        assert s2 == s
        assert check_category(s2).passed


def test_semicolon_labels_roundtrip(ext_ord):
    s = discrete(ext_ord, ("x;y", "z"))
    d = structure_to_dict(s)
    assert "x;y;x;y" in d["structure"]
    assert structure_from_dict(d).a.entries == s.a.entries


def test_t_elem_string_roundtrip():
    # structure files name T-elements by this text and the loader inverts it
    # by lookup, so no two T-elements of a carrier may share it
    for name in ("identity", "word:2", "labelled:z2"):
        m = monad_by_name(name)
        for xs in (("a",), ("a", "b"), ("x0", "x1", "x2")):
            tx = m.carrier(xs)
            assert len({m.elem_to_str(t) for t in tx}) == len(tx)


def test_random_category_is_category():
    for qname, mname in (("lukasiewicz:3", "identity"), ("two", "word:2")):
        ext = LaxExtension(monad_by_name(mname), quantale_by_name(qname))
        rng = random.Random(23)
        for _ in range(10):
            s = random_category(ext, ("a", "b"), rng)
            assert check_category(s).passed
