"""Search-space guards for the exhaustive constructions.

Several operations enumerate function spaces (|Y|^|X| maps, |V|^|TX|
presheaves, ...).  Rather than letting a casual invocation run forever, each
such operation computes its candidate count first and refuses to start when
it exceeds the guard.  The default can be overridden per call or globally
through the TVCAT_GUARD_SIZE environment variable.
"""

from __future__ import annotations

import os

from .quantale import FormatError

DEFAULT_GUARD_SIZE = 100_000


class GuardError(RuntimeError):
    """A search space exceeded the configured guard."""

    def __init__(self, what: str, size: int, limit: int, exact: bool = True):
        # past 64 bits a count is given by its power of two, which prints
        # where a long decimal cannot; a count known only from below says so
        bits = size.bit_length()
        count = "%d" % size if bits <= 64 else "2^%d" % (bits - 1)
        if bits > 64 or not exact:
            count = "at least " + count
        super().__init__("%s needs %s candidates, above the guard %d "
                         "(raise with --guard-size or TVCAT_GUARD_SIZE)"
                         % (what, count, limit))
        self.what = what
        self.size = size
        self.limit = limit


def guard_limit(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("TVCAT_GUARD_SIZE")
    if not env:
        return DEFAULT_GUARD_SIZE
    if not env.isdecimal():
        raise FormatError("TVCAT_GUARD_SIZE must be a non-negative integer, "
                          "got %r" % env)
    return int(env)


def check_guard(size: int, what: str, override: int | None = None) -> None:
    limit = guard_limit(override)
    if size > limit:
        raise GuardError(what, size, limit)
