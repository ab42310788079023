"""Spans and counts around tvcat's public functions, installed from outside.

``Tracer.install`` replaces every public function of every loaded tvcat
module by a wrapper that records a span (name, start, end, parent, request),
and it replaces the same function object wherever another module imported
it, so a caller finds the wrapper whichever binding it looks up (for
example both ``tvcat.exponential.check_exponentiability`` and
``tvcat.gallery.check_exponentiability``).  A few methods get spans as well,
and a few hot ones (monad carriers and multiplication, ``VRel``
construction, report creation, the guard) only get counters, because a span
there would cost more than the work it measures.  ``uninstall`` restores
every binding.  Spans and counts stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Called in the innermost loops; a span per call would dwarf the work.
LEAF_FUNCTIONS = {"report.sort_key"}

# Methods that get spans, named "<module>.<method>" like the functions.
SPAN_METHODS = {
    "theory": {"LaxExtension": ("extend", "hom_xi")},
    "vrel": {"VRel": ("compose", "transpose", "owedge", "tensor_scalar", "meet",
                      "join", "leq", "first_gap", "restrict", "rename")},
}


def tvcat_modules() -> dict:
    """Loaded tvcat submodules by short name ("theory", "vrel", ...)."""
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("tvcat.") and mod is not None}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    # ---- recording ----

    def _open(self, name):
        stack = self._stack
        parent = stack[-1] if stack else -1
        request = self.spans[stack[0]][4] if stack else len(self.spans)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, request])
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A span the benchmark opens itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _span_wrapper(self, name, fn, post=None):
        open_, close = self._open, self._close
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if post is not None:
                post(counts, args, result)
            return result

        return wrapper

    # ---- installation ----

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, modules, original, new):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self):
        mods = tvcat_modules()
        post = _post_hooks()
        for short, mod in sorted(mods.items()):
            for attr, fn in list(vars(mod).items()):
                name = "%s.%s" % (short, attr)
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)
                        or name in LEAF_FUNCTIONS):
                    continue
                if name == "limits.check_guard":
                    new = self._guard_counter(fn)
                else:
                    new = self._span_wrapper(name, fn, post.get(name))
                self._patch_everywhere(mods, fn, new)
        for short, classes in SPAN_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[short], cls_name)
                for meth in methods:
                    name = "%s.%s" % (short, meth)
                    self._patch(cls, meth, self._span_wrapper(
                        name, getattr(cls, meth), post.get(name)))
        self._install_counters(mods)

    def _install_counters(self, mods):
        counts = self.counts
        vrel_cls = mods["vrel"].VRel
        post_init = vrel_cls.__post_init__

        def counted_post_init(rel):
            counts["vrel.built"] += 1
            counts["vrel.cells_validated"] += len(rel.entries)
            post_init(rel)

        self._patch(vrel_cls, "__post_init__", counted_post_init)
        base = mods["monads"].TheoryMonad
        for cls in vars(mods["monads"]).values():
            if not (isinstance(cls, type) and issubclass(cls, base)):
                continue
            if "carrier" in vars(cls):
                self._patch(cls, "carrier", _carrier_counter(counts, cls.carrier))
            if "mult" in vars(cls):
                self._patch(cls, "mult", _call_counter(counts, "monads.mult.calls",
                                                       cls.mult))
        reporter = mods["report"].Reporter
        for meth in ("ok", "fail"):
            self._patch(reporter, meth, _report_counter(counts, getattr(reporter, meth)))

    def _guard_counter(self, fn):
        counts = self.counts
        guard_error = sys.modules["tvcat.limits"].GuardError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["limits.guard.calls"] += 1
            try:
                return fn(*args, **kwargs)
            except guard_error:
                counts["limits.guard.trips"] += 1
                raise

        return wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- results ----

    def self_times(self):
        """Per span name: (calls, self seconds); plus the summed duration of
        root spans.  Self time is a span's duration minus its children's."""
        spans = self.spans
        child = [0.0] * len(spans)
        root_total = 0.0
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                root_total += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
        return calls, self_s, root_total

    def dump(self, path, extra: dict):
        calls, self_s, _ = self.self_times()
        doc = dict(extra)
        doc["counts"] = dict(self.counts)
        doc["calls"] = dict(calls)
        doc["self_s"] = dict(self_s)
        doc["module_self_s"] = module_self_times(self_s)
        doc["span_fields"] = ["name", "start", "end", "parent", "request"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def module_self_times(self_s: dict) -> dict:
    """Self time per module, from self time per span name."""
    out: dict = defaultdict(float)
    for name, sec in self_s.items():
        out[name.split(".", 1)[0]] += sec
    return dict(out)


def _call_counter(counts, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _carrier_counter(counts, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts["monads.carrier.calls"] += 1
        counts["monads.carrier.elems"] += len(result)
        return result

    return wrapper


def _report_counter(counts, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        report = fn(*args, **kwargs)
        counts["report.reports"] += 1
        counts["report.samples"] += report.samples
        counts["report.skipped"] += report.skipped
        return report

    return wrapper


def _post_hooks() -> dict:
    """Counts taken from a wrapped call's arguments and result."""

    def extend(counts, args, rel):
        counts["theory.extend.cells"] += len(rel.src) * len(rel.dst)

    def admissible(counts, args, maps):
        sx, sy = args[0], args[1]
        counts["exponential.admissible.kept"] += len(maps)
        counts["exponential.admissible.candidates"] += (
            len(sy.carrier) ** len(sx.carrier))

    def presheaves(counts, args, px):
        s = args[0]
        counts["presheaf.carrier.kept"] += len(px.structure.carrier)
        counts["presheaf.carrier.candidates"] += s.quantale.n ** len(s.tx)

    return {"theory.extend": extend,
            "exponential.admissible_maps": admissible,
            "presheaf.build_presheaf_category": presheaves}
