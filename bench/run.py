"""tvcat benchmark: one closed-loop client sends one request at a time.

    python3 bench/run.py --workload gallery --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; tvcat is imported from ``src/`` there.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced executions of pass 0
and reports the per-layer metrics; spans go to ``.bench_out/``.  Either way
every answer is checked against its known value, a sha256 of the answers
is printed, and the last line of stdout is the JSON result.  Exits 2
without a result when the tvcat sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from hashlib import sha256
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))
from clock import Clock  # noqa: E402
from tracing import Tracer, module_self_times  # noqa: E402
from workloads import WORKLOADS, tvcat  # noqa: E402


def set_up(workload: str, seed: int):
    """Median over SETUP_REPEATS of: import tvcat.cli afresh, build pass 0;
    calibrated time.  The garbage of the previous repetition is collected
    before timing."""
    clock = Clock()
    spans = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "tvcat" or n.startswith("tvcat.")]:
            del sys.modules[name]
        gc.collect()
        clock.tick(force=True)
        t0 = time.perf_counter()
        importlib.import_module("tvcat.cli")
        wl = WORKLOADS[workload](tvcat(), seed)
        spans.append((t0, time.perf_counter()))
    clock.tick(force=True)
    return statistics.median(clock.calibrated(*span) for span in spans), wl


class Tally:
    """Requests attempted, failed and judged, plus the pass-0 digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.spans: list = []  # (start, end) of each answered request
        self.verdicts = 0
        self.digest = sha256()

    def request(self, wl, req, tracer=None, digest=False):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(req)
            else:
                with tracer.root("bench.request"):
                    out = wl.run(req)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        t1 = time.perf_counter()
        vacuous = [r.check for r in out.reports if r.samples == 0]
        if vacuous:
            self.failed += 1
            print("vacuous report (0 samples): %s" % vacuous, file=sys.stderr)
            return
        self.spans.append((t0, t1))
        self.verdicts += out.verdicts
        self.wrong.extend(wl.judge(req, out))
        if digest:
            self.digest.update(json.dumps(out.record(), sort_keys=True,
                                          default=repr).encode())
            self.digest.update(b"\n")

    def finish(self, wl):
        if hasattr(wl, "finish"):
            data, wrong = wl.finish()
            self.digest.update(data)
            self.wrong.extend(wrong)


def timed_run(wl, seconds: float) -> tuple:
    """Passes until the deadline; pass 0 always completes.  A reference
    point of the clock precedes requests, and every time is calibrated.
    Throughput is the verdicts of the completed passes, each pass with its
    fixed verdict count, over their summed request time."""
    tally = Tally()
    clock = Clock()
    passes = []  # (verdicts, first span, end span) of each completed pass
    start = time.perf_counter()
    i = 0
    while True:
        verdicts, first = tally.verdicts, len(tally.spans)
        for req in wl.requests(i):
            clock.tick()
            tally.request(wl, req, digest=(i == 0))
            if i > 0 and time.perf_counter() - start >= seconds:
                break
        else:
            if tally.verdicts > verdicts:
                passes.append((tally.verdicts - verdicts, first, len(tally.spans)))
            i += 1
            if time.perf_counter() - start < seconds:
                continue
        break
    clock.tick(force=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.finish(wl)
    if not passes:
        raise SystemExit("bench: pass 0 delivered no answer")
    lat = [clock.calibrated(*span) for span in tally.spans]
    wall = [end - begin for begin, end in tally.spans]

    def rate(times):
        return (sum(n for n, _, _ in passes)
                / sum(sum(times[a:b]) for _, a, b in passes))

    metrics = {
        "verdicts_per_s": (rate(lat), "1/s"),
        "request_ms_p50": (1000 * statistics.median(lat), "ms"),
        "request_ms_p90": (1000 * statistics.quantiles(lat, n=10)[8], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {"requests": len(lat), "passes": i,
            "wall_verdicts_per_s": rate(wall),
            "wall_request_ms_p50": 1000 * statistics.median(wall),
            "wall_request_ms_p90": 1000 * statistics.quantiles(wall, n=10)[8],
            "reference_points": len(clock.took),
            "reference_ms_median": 1000 * statistics.median(clock.took)}
    return tally, metrics, info


def one_pass(wl, reqs, tally, tracer=None, digest=False) -> float:
    t0 = time.perf_counter()
    for req in reqs:
        tally.request(wl, req, tracer, digest)
    return time.perf_counter() - t0


def layer_metrics(tracer: Tracer, wall: float, plain: float) -> dict:
    calls, self_s, root_total = tracer.self_times()
    c = tracer.counts
    module_s = module_self_times(self_s)

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    count = "count"
    m = {
        "theory.extend.calls": (calls["theory.extend"], count),
        "theory.extend.cells": (c["theory.extend.cells"], count),
        "monads.carrier.calls": (c["monads.carrier.calls"], count),
        "monads.carrier.elems": (c["monads.carrier.elems"], count),
        "monads.mult.calls": (c["monads.mult.calls"], count),
        "monads.can_map.calls": (calls["monads.can_map"], count),
        "theory.check_infi.calls": (calls["theory.check_infi"], count),
        "vrel.built": (c["vrel.built"], count),
        "vrel.cells_validated": (c["vrel.cells_validated"], count),
        "exponential.admissible_ratio": (
            ratio("exponential.admissible.kept",
                  "exponential.admissible.candidates"), "ratio"),
        "presheaf.carrier_ratio": (
            ratio("presheaf.carrier.kept", "presheaf.carrier.candidates"), "ratio"),
        "report.samples": (c["report.samples"], count),
        "report.skipped": (c["report.skipped"], count),
        "limits.guard_trip_ratio": (
            ratio("limits.guard.trips", "limits.guard.calls"), "ratio"),
        "quantale.self_s": (module_s.get("quantale", 0.0), "s"),
        "trace.overhead_ratio": (wall / plain, "ratio"),
        "trace.root_coverage": (root_total / wall, "ratio"),
    }
    for metric, span in SELF_TIMES.items():
        m[metric] = (self_s.get(span, 0.0), "s")
    return m


# per-layer self-time metric -> span name
SELF_TIMES = {
    "theory.extend.self_s": "theory.extend",
    "monads.can_map.self_s": "monads.can_map",
    "theory.check_infi.self_s": "theory.check_infi",
    "theory.assumptions.self_s": "theory.check_assumptions_bundle",
    "vrel.compose.self_s": "vrel.compose",
    "vrel.owedge.self_s": "vrel.owedge",
    "vrel.first_gap.self_s": "vrel.first_gap",
    "categories.check_category.self_s": "categories.check_category",
    "categories.graph_to_category.self_s": "categories.graph_to_category",
    "categories.dual.self_s": "categories.dual",
    "categories.reflect_R.self_s": "categories.reflect_R",
    "categories.find_representation.self_s": "categories.find_representation",
    "exponential.check_exponentiability.self_s": "exponential.check_exponentiability",
    "exponential.check_frame_criterion.self_s": "exponential.check_frame_criterion",
    "exponential.admissible_maps.self_s": "exponential.admissible_maps",
    "exponential.graph_exponential.self_s": "exponential.graph_exponential",
    "presheaf.build.self_s": "presheaf.build_presheaf_category",
    "presheaf.find_sup.self_s": "presheaf.find_sup",
    "presheaf.check_yoneda.self_s": "presheaf.check_yoneda",
    "gallery.run_entry.self_s": "gallery.run_entry",
}


def traced_run(wl, seconds: float, seed: int) -> tuple:
    """Pass 0 untraced and traced, repeated while time remains; the order
    alternates, so that neither side always runs first.  Times are medians
    over the repetitions; counts must repeat exactly."""
    reqs = wl.requests(0)
    tally = Tally()
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain_tally, traced_tally = Tally(), Tally()
        tracer = Tracer()
        for traced in ((False, True) if len(reps) % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    wall = one_pass(wl, reqs, traced_tally, tracer, digest=True)
                finally:
                    tracer.uninstall()
            else:
                plain = one_pass(wl, reqs, plain_tally, digest=True)
        for part in (plain_tally, traced_tally):
            tally.attempted += part.attempted
            tally.failed += part.failed
            tally.wrong.extend(part.wrong)
        if plain_tally.digest.digest() != traced_tally.digest.digest():
            tally.wrong.append("traced answers differ from untraced answers")
        if not reps:
            tally.digest = plain_tally.digest
        reps.append(layer_metrics(tracer, wall, plain))
        pair = time.perf_counter() - t0
        if time.perf_counter() - start + pair > seconds:
            break
    counted = {k for k, (_, unit) in reps[0].items() if unit == "count"}
    for rep in reps[1:]:
        for k in counted:
            if rep[k] != reps[0][k]:
                tally.wrong.append("count %s differs between repetitions" % k)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / ("trace-%s.json" % wl.name),
                {"workload": wl.name, "seed": seed, "requests": len(reqs),
                 "traced_wall_s": wall})
    tally.finish(wl)
    metrics = {k: (v if k in counted else statistics.median(r[k][0] for r in reps),
                   unit) for k, (v, unit) in reps[0].items()}
    return tally, metrics, {"requests": len(reqs), "repetitions": len(reps)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tvcat" / "__init__.py").is_file():
        print("bench: no tvcat sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s, wl = set_up(args.workload, args.seed)
    if args.trace:
        tally, metrics, info = traced_run(wl, args.seconds, args.seed)
    else:
        tally, metrics, info = timed_run(wl, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    for line in tally.wrong[:20]:
        print("wrong verdict: %s" % line, file=sys.stderr)
    summary = dict(info, workload=wl.name, seed=args.seed,
                   digest=tally.digest.hexdigest(),
                   wrong_verdicts=len(tally.wrong),
                   error_ratio=tally.failed / max(1, tally.attempted),
                   python=platform.python_version(), nproc=os.cpu_count())
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not tally.wrong and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
