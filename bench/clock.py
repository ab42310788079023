"""Wall time rescaled to a fixed machine speed.

The shared hosts this benchmark runs on change speed by up to 2x within
seconds, far more than the changes the benchmark should resolve.  So the
benchmark runs a fixed pure-Python reference between requests and rescales
every interval it measures by ``REFERENCE_S`` over the median reference
time around that interval.  A calibrated time is the wall time the same
work would take on a machine where one reference unit takes
``REFERENCE_S``.  The reference imports nothing from tvcat, so a change to
tvcat moves calibrated times as it moves wall times.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# One reference unit on this benchmark's host at its usual speed (2 vCPU
# Xeon, Python 3.11); only the ratio between runs matters.
REFERENCE_S = 0.003
EVERY_S = 0.25   # least gap between two reference points
WINDOW_S = 0.5   # reference points this far around an interval set its speed
UNITS = 3        # units per reference point; the point is their median

_POINTS = tuple(range(8))


def reference_unit() -> int:
    """Work of the kind tvcat does: many small relations as tuple-keyed
    dicts over a 4-element chain, each composed with the next, and a
    membership check of every entry of the composites."""
    rels = [{(x, y): (x * y + k) % 4 for x in _POINTS for y in _POINTS
             if (x + y + k) % 3}
            for k in range(8)]
    total = 0
    points = frozenset(_POINTS)
    for r, s in zip(rels, rels[1:]):
        comp = {}
        for x in _POINTS:
            for z in _POINTS:
                v = max((min(r.get((x, y), 0), s.get((y, z), 0))
                         for y in _POINTS), default=0)
                if v:
                    comp[(x, z)] = v
        total += sum(v for (x, z), v in comp.items() if x in points and z in points)
    return total


class Clock:
    """Reference points taken between measured intervals, and the
    rescaling they give.  Call ``tick`` before each interval and once
    after the last; rescale only after that last tick."""

    def __init__(self):
        self.at: list = []    # midpoint of each reference point
        self.took: list = []  # its time, the median of UNITS units
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last < EVERY_S:
            return
        units = []
        collecting = gc.isenabled()
        gc.disable()  # a collection would time tvcat's heap, not the machine
        try:
            for _ in range(UNITS):
                t0 = time.perf_counter()
                reference_unit()
                units.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        self._last = time.perf_counter()
        self.at.append((now + self._last) / 2)
        self.took.append(statistics.median(units))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reference time within WINDOW_S of
        [start, end]; the nearest point when none is that close."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def calibrated(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
