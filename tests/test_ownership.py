"""One owner per derived table.

``LaxExtension`` owns T(X): the ``tx`` of every structure a construction
returns is, as an object, its extension's ``carrier`` of the points, so no
construction enumerates T(X) on its own.  ``TVStructure.ta`` owns Ta, as
rows from ``LaxExtension.lift_rows`` at the distinct keys of the in-bound
fragment (``TVStructure.keys``, each XX pushed along the classes of TX by
their rows of a): the checks and constructions that read it lift a
structure in one call between them, and none after the closure that built
it, whose last round lifted it.  A source guard keeps a monad's
``carrier`` from being called anywhere in ``src/tvcat`` but inside
``LaxExtension.carrier`` and the monad-level code of ``monads.py``;
another keeps the sort_key order of T-carriers with
``LaxExtension.sorted_carrier``: no sort in ``monads.py`` or ``vrel.py``,
and no ``fragment`` or ``walk`` handed a T-carrier for the points.  A
third keeps composition to the Kleisli composite, kept as rows and
decoded only where it is composed, and the base composite of the
lax-composition law, with no cache in ``vrel.py``.  A fourth keeps the
final lift the one push-forward of a structure along maps in
``categories.py`` and its closures to the Warshall closure of
``quantale.py``: no ``while`` loop but the category closure's and the map
search's.  A fifth keeps (V, hom_xi) with ``LaxExtension.hom_xi``: the
presheaf and exponential kernels compute no xi, and the gallery loads its
structures on its own extension, serializing nothing.  A sixth keeps
``Quantale.sup`` the one sup-finder of ``quantale.py``: joins and meets are
up- and down-set lookups, and hom and Heyting fold the join table through
it.  A seventh keeps the gap loop of the in-bound fragment with
``TheoryMonad.fragment`` and its skips with ``monads.walk_fragment``.  An
eighth keeps the lax extension with each monad's closed-form
``lift_rows``: xi is folded over values only by ``TheoryMonad.xi``, and
only ``largest_compatible`` walks the fibers.  ``TVStructure.m_algebra``
owns M X and ``TVStructure.op`` the dual: ``dual``, the presheaf category
and the representation search build each once per structure, ``dual``
checks its T(TX) guard on every call, and the keys of every construction
lie inside its carriers, which relations no longer check."""

import ast
import random
from functools import cached_property
from pathlib import Path

import pytest

import tvcat.categories
from tvcat.categories import (TVStructure, check_category, coproduct, discrete,
                              dual, find_representation, from_order,
                              graph_to_category, indiscrete, product, quotient,
                              random_category, reflect_R, structure_from_dict,
                              structure_to_dict, tensor)
from tvcat.exponential import (check_exponentiability, check_frame_criterion,
                               graph_exponential)
from tvcat.limits import GuardError
from tvcat.monads import monad_by_name
from tvcat.presheaf import build_presheaf_category
from tvcat.quantale import quantale_by_name
from tvcat.theory import LaxExtension
from tvcat.vrel import VRel, random_relation

from conftest import within_carriers

SRC = Path(__file__).resolve().parent.parent / "src" / "tvcat"


def word2(qname="two"):
    return LaxExtension(monad_by_name("word:2"), quantale_by_name(qname))


def built(ext):
    """One structure from each construction, by name."""
    xs = ("b", "a")
    sx = random_category(ext, xs, random.Random(5))
    sy = discrete(ext, ("d", "c"))
    one = random_category(ext, ("p",), random.Random(5))
    return {
        "product": product(sx, sy)[0],
        "coproduct": coproduct(sx, sy)[0],
        "quotient": quotient(sx, {"b": "b", "a": "b"})[0],
        "tensor": tensor(sx, sy),
        "reflect_R": reflect_R(indiscrete(ext, xs))[0],
        "dual": dual(sx),
        "discrete": sy,
        "indiscrete": indiscrete(ext, xs),
        "from_order": from_order(ext, xs, {("a", "b")}),
        "random_category": sx,
        "graph_to_category": graph_to_category(sy),
        "structure_from_dict": structure_from_dict(structure_to_dict(sx)),
        "graph_exponential": graph_exponential(sy, sx).structure,
        "build_presheaf_category": build_presheaf_category(one).structure,
    }


@pytest.fixture(scope="module")
def constructions():
    return built(word2())


@pytest.mark.parametrize("name", [
    "product", "coproduct", "quotient", "tensor", "reflect_R", "dual",
    "discrete", "indiscrete", "from_order", "random_category",
    "graph_to_category", "structure_from_dict", "graph_exponential",
    "build_presheaf_category"])
def test_constructions_share_the_extensions_carrier(constructions, name):
    s = constructions[name]
    assert s.tx is s.ext.carrier(s.carrier)


@pytest.mark.parametrize("name", [
    "product", "coproduct", "quotient", "tensor", "reflect_R", "dual",
    "discrete", "indiscrete", "from_order", "random_category",
    "graph_to_category", "structure_from_dict", "graph_exponential",
    "build_presheaf_category"])
def test_constructions_stay_inside_their_carriers(constructions, name):
    # relations check their values only, so the keys of every construction,
    # its M X and its dual are checked here
    s = constructions[name]
    assert within_carriers(s.a) and within_carriers(s.m_algebra.a0)
    if name in ("dual", "discrete", "build_presheaf_category"):
        assert within_carriers(s.op.a)


def test_m_and_the_dual_are_built_once_per_structure(monkeypatch):
    # dual, the presheaf category and the representation search share one
    # M X and one dual; the T(TX) guard is checked on every call of dual,
    # after the table exists too
    built = {"m": 0, "op": 0}
    functor_m, op = tvcat.categories.functor_M, TVStructure.op.func

    def counted_m(s):
        built["m"] += 1
        return functor_m(s)

    def counted_op(s):
        built["op"] += 1
        return op(s)

    prop = cached_property(counted_op)
    prop.__set_name__(TVStructure, "op")
    monkeypatch.setattr(tvcat.categories, "functor_M", counted_m)
    monkeypatch.setattr(TVStructure, "op", prop)
    s = random_category(word2(), ("p",), random.Random(5))
    first = dual(s)
    assert build_presheaf_category(s).opposite is first
    find_representation(s)  # reads K M X
    n = s.monad.carrier_size(len(s.tx))
    assert dual(s, guard=n) is first
    with pytest.raises(GuardError):
        dual(s, guard=n - 1)
    assert built == {"m": 1, "op": 1}


def lifts_of(calls, s):
    """The tx of each recorded lift_rows call that lifts the rows of s."""
    return [tx for rows, tx in calls if rows is s.rows]


def counted_lifts(monkeypatch):
    """Records (rows, tx) of every lift_rows call (extend is the relation of
    lift_rows, so every lift is counted)."""
    calls = []
    lift_rows = LaxExtension.lift_rows

    def counted(self, rows, tx):
        calls.append((rows, tx))
        return lift_rows(self, rows, tx)

    monkeypatch.setattr(LaxExtension, "lift_rows", counted)
    return calls


def run_readers(s):
    """The checks and constructions that read Ta and a . Ta off s."""
    check_category(s)
    check_exponentiability(s)
    check_frame_criterion(s)
    find_representation(s)
    dual(s)


def test_ta_is_extended_once_per_structure(monkeypatch):
    # the checks and constructions share one lift of a, at the distinct keys
    # of the fragment in one call, so the word monad's prefix memo is shared
    ext = word2("godel:3")
    calls = counted_lifts(monkeypatch)
    raw = random_category(ext, ("b", "a"), random.Random(7))
    s = TVStructure(ext, raw.carrier, raw.a)
    run_readers(s)
    keys = tuple(dict.fromkeys(s.keys.values()))
    assert lifts_of(calls, s) == [keys]
    assert len(keys) < len(ext.fragment(s.carrier)[2])


def test_closure_leaves_no_lift_to_the_checks(monkeypatch):
    # the closure's last round is the fixed point it returns, so the Ta that
    # round read is the one the checks and dual after it read: a lift on
    # first read would move it into them and split the prefix memo
    ext = word2("godel:3")
    calls = counted_lifts(monkeypatch)
    for seed in range(4):
        s = random_category(ext, ("b", "a"), random.Random(seed))
        built = lifts_of(calls, s)
        calls.clear()
        run_readers(s)
        assert lifts_of(calls, s) == []
        # besides its one lift at the keys, the closure lifts its fixed point
        # only in the defect scan, at one out-of-bound XX a call
        assert built[0] == tuple(dict.fromkeys(s.keys.values()))
        assert all(len(tx) == 1 and ext.monad.mult(tx[0]) is None for tx in built[1:])


def test_the_closure_never_asks_for_t_of_its_support(monkeypatch):
    # the defect scan enumerates T(R) through the extension, R the longest
    # member of each row class of supp a; every other carrier the closure
    # asks for is T of its points
    ext = LaxExtension(monad_by_name("word:3"), quantale_by_name("two"))
    asked, carrier = [], ext.carrier

    def recorded(xs):
        asked.append(xs)
        return carrier(xs)

    monkeypatch.setattr(ext, "carrier", recorded)
    xs, rng = ("b", "a"), random.Random(11)
    for _ in range(6):
        raw = TVStructure(ext, xs, random_relation(ext.quantale, ext.carrier(xs), xs, rng))
        asked.clear()
        closed = graph_to_category(raw)
        supp = tuple(t for t in closed.tx if t in closed.rows)
        row = {t: frozenset(closed.rows[t]) for t in supp}
        scans = [ys for ys in asked if ys != xs]
        assert len(set(row.values())) < len(supp) and supp not in asked
        assert len(scans) == 1 and len(scans[0]) == len(set(row.values()))
        assert {row[t] for t in scans[0]} == set(row.values())
        assert all(len(t) == max(len(u) for u in supp if row[u] == row[t])
                   for t in scans[0])


def test_a_is_grouped_once_per_structure(monkeypatch):
    # TVStructure.rows is the one grouping of a: Ta, the levels of a, the
    # closure's defect scan, the splitting check and the exponential's walk
    # over the rows of a read it.  The exponential's target b is read as a
    # relation, grouped once per call, so here it is another structure
    ext = word2("godel:3")
    grouped = []
    rows = VRel.rows

    def counted(self):
        grouped.append(self)
        return rows(self)

    monkeypatch.setattr(VRel, "rows", counted)
    s = random_category(ext, ("b", "a"), random.Random(7))
    check_category(s)
    check_exponentiability(s)
    check_frame_criterion(s)
    dual(s)
    find_representation(s)
    graph_exponential(s, discrete(ext, ("d", "c")))
    assert sum(r is s.a for r in grouped) == 1


def calls(tree, name):
    """(class, function, node) of each call of ``name``: a method
    ``<x>.name(...)`` or a bare ``name(...)``."""
    out = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if ((isinstance(func, ast.Attribute) and func.attr == name)
                    or (isinstance(func, ast.Name) and func.id == name)):
                out.append((cls, fn, node))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return out


def monad_calls(tree, name):
    """(class, function, line, source) of each call of ``name`` not made on
    an extension (``ext``, ``<x>.ext``, or ``self`` inside LaxExtension):
    a monad's method, or a function of monads.py, bare or through its
    module."""
    out = []
    for cls, fn, node in calls(tree, name):
        recv = getattr(node.func, "value", None)
        if not ((isinstance(recv, ast.Name) and recv.id == "ext")
                or (isinstance(recv, ast.Attribute) and recv.attr == "ext")
                or (isinstance(recv, ast.Name) and recv.id == "self"
                    and cls == "LaxExtension")):
            out.append((cls, fn, node.lineno, ast.unparse(node)))
    return out


def carrier_calls(tree):
    """(line, source) of each ``.carrier(...)`` call not made on an
    extension, and not inside the body of LaxExtension.carrier."""
    return [(line, source) for cls, fn, line, source in monad_calls(tree, "carrier")
            if (cls, fn) != ("LaxExtension", "carrier")]


def test_only_the_extension_enumerates_t_carriers():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "monads.py":
            continue
        calls = carrier_calls(ast.parse(path.read_text(encoding="utf-8")))
        if calls:
            found[path.name] = calls
    assert found == {}


def test_the_guard_sees_a_monad_carrier_call():
    tree = ast.parse("class LaxExtension:\n"
                     "    def carrier(self, xs):\n"
                     "        return self.monad.carrier(xs)\n"
                     "def f(s, xs):\n"
                     "    return s.monad.carrier(xs), s.ext.carrier(xs)\n")
    assert carrier_calls(tree) == [(5, "s.monad.carrier(xs)")]


def test_only_the_extension_calls_can_map():
    # monads.can_map maps the T(X x Y) it is given, and only
    # LaxExtension.can_map gives it one, from its own carrier table
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for cls, fn, _, _ in monad_calls(
                ast.parse(path.read_text(encoding="utf-8")), "can_map"):
            found.setdefault(path.name, []).append((cls, fn))
    assert found == {"theory.py": [("LaxExtension", "can_map")]}


def test_the_guard_sees_a_can_map_call():
    tree = ast.parse("def f(s, ws):\n"
                     "    return (monads.can_map(s.monad, ws), can_map(s.monad, ws),\n"
                     "            s.ext.can_map(s.xs, s.ys), ext.can_map(s.xs, s.ys))\n")
    assert [(line, source) for _, _, line, source in monad_calls(tree, "can_map")] == [
        (2, "monads.can_map(s.monad, ws)"), (2, "can_map(s.monad, ws)")]


def order_calls(tree, sorts):
    """(line, source) of each ``fragment`` or ``walk`` call whose argument
    is a ``.tx``, ``.src`` or ``.dst`` attribute (a T-carrier, where the
    points belong), and of each ``sorted`` call when sorts is set."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if ((sorts and isinstance(func, ast.Name) and func.id == "sorted")
                or (isinstance(func, ast.Attribute) and func.attr in ("fragment", "walk")
                    and args and isinstance(args[0], ast.Attribute)
                    and args[0].attr in ("tx", "src", "dst"))):
            out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


def test_only_the_extension_orders_t_carriers():
    # the sort_key order of a T-carrier is LaxExtension.sorted_carrier's:
    # the fragment is keyed by the points and handed that order, the monads
    # and relations sort nothing
    found = {}
    for path in sorted(SRC.glob("*.py")):
        calls = order_calls(ast.parse(path.read_text(encoding="utf-8")),
                            path.name in ("monads.py", "vrel.py"))
        if calls:
            found[path.name] = calls
    assert found == {}


def test_the_guard_sees_a_sort_and_a_t_carrier_fragment():
    tree = ast.parse("def f(ext, s, r, rep):\n"
                     "    return (sorted(s.carrier), ext.fragment(s.tx), ext.walk(r.src, rep),\n"
                     "            ext.fragment(r.dst)[2], ext.fragment(s.carrier),\n"
                     "            ext.walk(xs, rep), s.sort())\n")
    assert order_calls(tree, True) == [
        (2, "ext.fragment(s.tx)"), (2, "ext.walk(r.src, rep)"),
        (2, "sorted(s.carrier)"), (3, "ext.fragment(r.dst)")]
    assert order_calls(tree, False) == [
        (2, "ext.fragment(s.tx)"), (2, "ext.walk(r.src, rep)"),
        (3, "ext.fragment(r.dst)")]


CACHES = ("cached_property", "lru_cache", "cache")


def cache_uses(tree):
    """(line, source) of each import of functools and each name or
    attribute that names one of its caches."""
    out = []
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id in CACHES)
                or (isinstance(node, ast.Attribute) and node.attr in CACHES)
                or (isinstance(node, ast.ImportFrom) and node.module == "functools")
                or (isinstance(node, ast.Import)
                    and any(alias.name == "functools" for alias in node.names))):
            out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


def test_only_kleisli_and_the_base_composite_compose():
    # K reindexes a0 along alpha and the lax-composition law is checked
    # term by term, so a . Ta and the base composite s . r are the only
    # compositions: s . r is the one VRel compose, and a . Ta is composed
    # by the same compose_levels as VRel.compose, on value levels local to
    # the call; compose builds its table per call, and no relation keeps
    # one between calls
    found, decoded = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in ("compose", "compose_levels"):
            for cls, fn, node in calls(tree, name):
                found.setdefault(path.name, []).append((cls, fn, ast.unparse(node)))
        decoded += [(path.name, cls, fn) for cls, fn, _ in calls(tree, "decode_levels")]
    assert found == {
        "categories.py": [("TVStructure", "kleisli",
                           "compose_levels(q, row.items(), levels)")],
        "theory.py": [(None, "check_extension_laws", "s.compose(r)")],
        "vrel.py": [("VRel", "compose", "compose_levels(q, row, levels)")]}
    # a . Ta is kept as rows, decoded once where it is composed: (T), the
    # frame criterion and the closure read those rows and decode nothing
    assert sorted(decoded) == [("categories.py", "TVStructure", "kleisli"),
                               ("exponential.py", None, "largest_compatible"),
                               ("vrel.py", "VRel", "compose")]
    assert cache_uses(ast.parse((SRC / "vrel.py").read_text(encoding="utf-8"))) == []


def test_the_guard_sees_a_compose_call_and_a_cache():
    tree = ast.parse("import functools\n"
                     "from functools import cached_property\n"
                     "class VRel:\n"
                     "    @cached_property\n"
                     "    def levels(self):\n"
                     "        return graph.compose(self)\n"
                     "    @functools.lru_cache\n"
                     "    def rows(self):\n"
                     "        return compose(lift(s), lift(r)), self.compose_all()\n")
    assert [(cls, fn, node.lineno, ast.unparse(node))
            for cls, fn, node in calls(tree, "compose")] == [
        ("VRel", "levels", 6, "graph.compose(self)"),
        ("VRel", "rows", 9, "compose(lift(s), lift(r))")]
    assert cache_uses(tree) == [
        (1, "import functools"), (2, "from functools import cached_property"),
        (4, "cached_property"), (7, "functools.lru_cache")]


def while_loops(tree):
    """(function, line) of each ``while`` loop, by its innermost function."""
    out = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, ast.While):
            out.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return out


def test_one_push_forward_and_one_closure_in_categories():
    # coproduct, quotient and the reflector are final lifts and check_final
    # compares with one; besides it only the category closure joins its
    # rounds and M reads Ta along m.  from_order and equiv_classes read
    # quantale._closure, so the only loops to a fixed point are the
    # closure's and the stack of the map search
    tree = ast.parse((SRC / "categories.py").read_text(encoding="utf-8"))
    assert {fn for _, fn, _ in calls(tree, "push_forward")} == {
        "final_lift", "graph_to_category", "functor_M"}
    assert {fn for _, fn, _ in calls(tree, "final_lift")} == {
        "coproduct", "quotient", "reflect_R", "check_final"}
    assert {fn for fn, _ in while_loops(tree)} == {"graph_to_category",
                                                   "compatible_maps"}


def test_the_guard_sees_a_push_forward_and_a_while():
    tree = ast.parse("def reflect_R(s, q):\n"
                     "    while s:\n"
                     "        s = vrel.push_forward(q, s)\n"
                     "    return final_lift(s)\n"
                     "def f(q):\n"
                     "    def g():\n"
                     "        while True:\n"
                     "            break\n"
                     "    return push_forward(q, [])\n")
    assert [(fn, node.lineno) for _, fn, node in calls(tree, "push_forward")] == [
        ("reflect_R", 3), ("f", 9)]
    assert while_loops(tree) == [("reflect_R", 2), ("g", 7)]


def source_calls(name, *funcs):
    """The source of each call of one of funcs in src/tvcat/<name>."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    return [ast.unparse(node) for func in funcs for _, _, node in calls(tree, func)]


def test_the_kernels_read_v_hom_xi_as_a_relation():
    # largest_compatible and compatible_maps take their target as a
    # relation: sy.a, pb.a or the extension's hom_xi, built once per presheaf
    # category, never hom(xi(-), -) recomputed per T-element
    assert {name: source_calls(name, "xi") for name in (
        "presheaf.py", "exponential.py")} == {"presheaf.py": [], "exponential.py": []}


def test_the_gallery_loads_structures_on_its_extension():
    # an explicit structure is structure_on over the entry's extension, not
    # its quantale and monad serialized and parsed back into new ones
    assert source_calls("gallery.py", "to_dict", "structure_from_dict") == []


def sup_folds(tree):
    """The names of the functions defined in tree that hold ``sup``, and for
    each assignment in a ``__post_init__`` that calls a ``sup``, its target
    and the callees."""
    defs = sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and "sup" in node.name)
    folds = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign):
                    found = [ast.unparse(call.func)
                             for _, _, call in calls(stmt.value, "sup")]
                    if found:
                        folds[ast.unparse(stmt.targets[0])] = found
    return defs, folds


def test_quantale_sup_is_the_one_sup_finder():
    # join, meet, bottom and top are looked up by up- and down-sets, so the
    # constructor calls no sup but the fold of hom and Heyting over join
    tree = ast.parse((SRC / "quantale.py").read_text(encoding="utf-8"))
    assert sup_folds(tree) == (["sup"], {"hom": ["self.sup"], "heyt": ["self.sup"]})


def test_the_guard_sees_a_second_sup_finder():
    tree = ast.parse("class Quantale:\n"
                     "    def __post_init__(self):\n"
                     "        sup = self._sup_of\n"
                     "        join = [[sup((u, v)) for v in r] for u in r]\n"
                     "        hom = self.sup(v for v in r)\n"
                     "    def _sup_of(self, elems):\n"
                     "        return 0\n")
    assert sup_folds(tree) == (["_sup_of"], {"join": ["sup"], "hom": ["self.sup"]})


def gap_loops(tree):
    """(class, function) of each call of ``inbound`` and of each generator
    that counts skips: the function holds a ``yield`` and a ``skip`` call."""
    ranked = [(cls, fn) for cls, fn, _ in calls(tree, "inbound")]
    walks = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            inner = list(ast.walk(node))
            if (any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in inner)
                    and calls(node, "skip")):
                walks.append((cls, node.name))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return ranked, walks


def test_the_gap_loop_has_one_owner():
    # the extension caches TheoryMonad.fragment over the sort_key order and
    # the monad checks call it over carrier order, both walked by one
    # generator; structure_on and the monad laws count the in-bound XX
    # against their guards as the fragment is built, not in a walk of
    # their own
    found = {}
    for path in sorted(SRC.glob("*.py")):
        ranked, walks = gap_loops(ast.parse(path.read_text(encoding="utf-8")))
        if ranked or walks:
            found[path.name] = (ranked, walks)
    assert found == {"monads.py": ([("TheoryMonad", "fragment")],
                                   [(None, "walk_fragment")])}


def test_the_guard_sees_a_second_gap_loop():
    tree = ast.parse("class LaxExtension:\n"
                     "    def fragment(self, xs):\n"
                     "        return [r for r, _ in self.monad.inbound(xs)]\n"
                     "    def walk(self, xs, rep):\n"
                     "        for gap, xx in self.fragment(xs):\n"
                     "            rep.skip(gap)\n"
                     "            yield xx\n")
    assert gap_loops(tree) == ([("LaxExtension", "fragment")],
                               [("LaxExtension", "walk")])


def fiber_folds(tree):
    """(class, function) of each call of ``xi_of_values`` and of ``fiber``."""
    return {name: [(cls, fn) for cls, fn, _ in calls(tree, name)]
            for name in ("xi_of_values", "fiber")}


def test_the_lift_has_no_fiber_fold():
    # Tr is the monad's lift_rows in closed form: no xi over the values of
    # a fiber outside xi itself, and the fibers feed largest_compatible alone
    found = {"xi_of_values": {}, "fiber": {}}
    for path in sorted(SRC.glob("*.py")):
        for name, where in fiber_folds(ast.parse(path.read_text(encoding="utf-8"))).items():
            if where:
                found[name][path.name] = where
    assert found == {
        "xi_of_values": {"monads.py": [("TheoryMonad", "xi")]},
        "fiber": {"exponential.py": [(None, "largest_compatible")] * 2}}


def test_the_guard_sees_a_second_fiber_fold():
    tree = ast.parse("class LaxExtension:\n"
                     "    def lift_rows(self, rows, tx):\n"
                     "        return {t: [self.monad.xi_of_values(v, q)\n"
                     "                    for _, v in self.monad.fiber(t, rows)] for t in tx}\n"
                     "def xi(monad, tv, q):\n"
                     "    return monad.xi_of_values(monad.letters(tv), q)\n")
    assert fiber_folds(tree) == {
        "xi_of_values": [("LaxExtension", "lift_rows"), (None, "xi")],
        "fiber": [("LaxExtension", "lift_rows")]}
