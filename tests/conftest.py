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
