import importlib.util
import time
from pathlib import Path

import pytest

from tvcat.monads import monad_by_name
from tvcat.quantale import (chain_trunc_add, godel_chain, lukasiewicz,
                            powerset_frame, two)
from tvcat.theory import LaxExtension


@pytest.fixture
def q2():
    return two()


@pytest.fixture
def luk3():
    return lukasiewicz(3)


@pytest.fixture
def godel3():
    return godel_chain(3)


@pytest.fixture
def ext_ord(q2):
    """Identity monad over the two-element quantale: preorders."""
    return LaxExtension(monad_by_name("identity"), q2)


@pytest.fixture
def ext_word2(q2):
    return LaxExtension(monad_by_name("word:2"), q2)


@pytest.fixture
def ext_labelled(q2):
    return LaxExtension(monad_by_name("labelled:z2"), q2)


def all_quantales():
    qs = [two(), powerset_frame(2)]
    for n in range(2, 6):
        qs += [godel_chain(n), lukasiewicz(n), chain_trunc_add(n)]
    return qs


def within_carriers(r):
    """Every key of r lies in src x dst: the membership check relations do
    not make, since tvcat builds their keys inside the carriers and checks
    keys only where data enters (``structure_on``)."""
    src, dst = set(r.src), set(r.dst)
    return all(x in src and y in dst for x, y in r.entries)


def reference_clock():
    """bench/clock.py, loaded by its path: its reference unit is the fixed
    pure-Python work the benchmark rescales wall times by."""
    path = Path(__file__).resolve().parents[1] / "bench" / "clock.py"
    spec = importlib.util.spec_from_file_location("bench_clock", path)
    clock = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(clock)
    return clock


def unit_times(clock, units=3):
    """The wall times of a few reference units on this machine now."""
    took = []
    for _ in range(units):
        start = time.perf_counter()
        clock.reference_unit()
        took.append(time.perf_counter() - start)
    return took
