"""The names the benchmark traces exist in tvcat.

``bench/tracing.py`` patches the methods in ``SPAN_METHODS`` by name, so a
deleted or renamed one makes a traced run fail; ``bench/run.py`` reads the
self time of each span in ``SELF_TIMES``, so a deleted or renamed function
reports 0 s without notice.  ``Tracer._install_counters`` patches
``VRel.__post_init__``, ``Reporter.ok``/``fail`` and the monads'
``carrier``/``mult`` by name, so a deleted hook breaks ``--trace 1`` runs.
The tables and names are read from the source text; nothing under bench/
is imported or run."""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def assigned(filename, name):
    """The literal value bound to ``name`` at the top level of a bench file."""
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/%s binds no %s" % (filename, name))


def span_methods():
    return {"%s.%s" % (short, meth): (short, cls_name, meth)
            for short, classes in assigned("tracing.py", "SPAN_METHODS").items()
            for cls_name, methods in classes.items() for meth in methods}


def test_span_methods_exist():
    for span, (short, cls_name, meth) in span_methods().items():
        cls = getattr(importlib.import_module("tvcat." + short), cls_name, None)
        assert inspect.isclass(cls), span
        assert inspect.isfunction(getattr(cls, meth, None)), span


def test_self_time_spans_name_traced_functions():
    methods = span_methods()
    leaves = assigned("tracing.py", "LEAF_FUNCTIONS")
    spans = assigned("run.py", "SELF_TIMES").values()
    assert spans
    for span in spans:
        if span in methods:
            continue
        short, name = span.split(".", 1)
        fn = getattr(importlib.import_module("tvcat." + short), name, None)
        # what Tracer.install wraps in a span
        assert (inspect.isfunction(fn) and fn.__module__ == "tvcat." + short
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(fn)
                and span not in leaves and span != "limits.check_guard"), span


def counter_names():
    """The string constants of ``Tracer._install_counters``."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    fn = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and node.name == "_install_counters")
    return {node.value for node in ast.walk(fn)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_counter_patch_points_exist():
    assert {"__post_init__", "ok", "fail", "carrier", "mult"} <= counter_names()
    vrel = importlib.import_module("tvcat.vrel").VRel
    # a dataclass's __init__ calls the hook only if the class defined it
    # when it was made, so it must stay in VRel's own namespace
    assert inspect.isfunction(vars(vrel).get("__post_init__"))
    assert "__post_init__" in vrel.__init__.__code__.co_names
    reporter = importlib.import_module("tvcat.report").Reporter
    assert all(inspect.isfunction(getattr(reporter, meth, None)) for meth in ("ok", "fail"))
    monads = importlib.import_module("tvcat.monads")
    classes = [cls for cls in vars(monads).values()
               if isinstance(cls, type) and issubclass(cls, monads.TheoryMonad)]
    for meth in ("carrier", "mult"):
        # patched where a class defines it, so some shipped monad must
        assert any(inspect.isfunction(vars(cls).get(meth)) for cls in classes), meth
