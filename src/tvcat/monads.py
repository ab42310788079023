"""Finite-data Set-monads with enumerable action on small carriers.

Three genuinely distinct kinds are shipped: the identity monad, the free
monoid (word) monad truncated at a depth bound, and the "labelled" monad
X |-> X x H for a finite monoid H.  Ultrafilters on finite sets are
principal, so the ultrafilter monad is shipped as an alias of the identity
monad; gallery entries built on it document that reduction.

Each monad carries its algebra map ``xi`` on the quantale and, in closed
form from a relation r given by its rows, the lax extension (``lift_rows``,
see theory.py) and the fibers over TX of T(supp r) (``fiber``).  For the
word monad the multiplication is partial: flattening may exceed the depth
bound, in which case operations skip the element and report it as a
coverage statistic.  ``inbound`` yields the part of T(TX) where the
multiplication is defined, ranked, from TX in carrier or sort_key order:
T(TX) is neither built nor sorted.  ``fragment`` counts the out-of-bound
elements between, which ``walk_fragment`` skips; the law checks walk it
from T(TX), TV and TA, and never build T^3 X, T^2 V or T(TA).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .limits import GuardError, check_guard, guard_limit
from .quantale import FormatError, Quantale
from .report import CheckReport, Reporter
from .vrel import pair_carrier


@dataclass(frozen=True)
class Monoid:
    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    unit: int

    def __post_init__(self):
        n = len(self.labels)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise FormatError("monoid table must be %dx%d" % (n, n))
        if any(not 0 <= v < n for r in self.table for v in r):
            raise FormatError("monoid table entry out of range")
        if not 0 <= self.unit < n:
            raise FormatError("monoid unit out of range")
        for a, b, c in product(range(n), repeat=3):
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                raise FormatError("monoid table is not associative")
        for a in range(n):
            if self.table[self.unit][a] != a or self.table[a][self.unit] != a:
                raise FormatError("monoid unit law fails")

    def mul(self, a: str, b: str) -> str:
        return self.labels[self.table[self.labels.index(a)][self.labels.index(b)]]

    @classmethod
    def from_dict(cls, d: dict) -> "Monoid":
        try:
            labels = tuple(str(x) for x in d["elements"])
            idx = {lab: i for i, lab in enumerate(labels)}
            table = tuple(tuple(idx[v] for v in row) for row in d["table"])
            unit = idx[d["unit"]]
        except (KeyError, TypeError) as exc:
            raise FormatError("monoid needs elements, a table and a unit "
                              "over its elements; bad or missing: %s" % exc)
        return cls(labels, table, unit)

    def to_dict(self) -> dict:
        return {"elements": list(self.labels),
                "table": [[self.labels[v] for v in row] for row in self.table],
                "unit": self.labels[self.unit]}


def z2() -> Monoid:
    return Monoid(("e", "g"), ((0, 1), (1, 0)), 0)


class TheoryMonad:
    """Common interface: carrier enumeration, functorial action on elements,
    the fibers of the comparison map, unit, (possibly partial)
    multiplication, and the algebra map xi."""

    kind: str
    bounded = False

    def carrier(self, xs: tuple) -> tuple:
        raise NotImplementedError

    def carrier_size(self, n: int) -> int:
        """|TS| for a set S of n points, counted without enumerating."""
        raise NotImplementedError

    def map_elem(self, f: Callable, t):
        raise NotImplementedError

    def fiber(self, t, rows: dict):
        """(T pi_Y w, the values of r at the letters of w) for every w in
        T(supp r) with T pi_X w = t, where rows[x] lists the (y, r(x, y)) of
        the non-bottom entries of r at x.  It reads rows only at the letters
        of t, as ``lift_rows`` does."""
        raise NotImplementedError

    def lift_rows(self, rows: dict, tx: tuple, q: Quantale) -> dict:
        """Tr at the T-elements tx, {t: {ty: v}} without bottom, in closed
        form from r by rows as ``fiber`` takes them.  It reads rows only at
        the letters of t; the row classes of theory.infi_sweep rest on this."""
        raise NotImplementedError

    def unit(self, x):
        raise NotImplementedError

    def mult(self, tt):
        """Flatten one level; None when out of the depth bound."""
        raise NotImplementedError

    def inbound(self, order: tuple):
        """(rank, XX) for each in-bound XX of T(TX) (where mult is defined)
        by rank, given TX as ``order``: rank is the position of XX in
        carrier(order) when order is in carrier order, and in sorted T(TX)
        when order is in sort_key order (the same position unless a labelled
        monad lists its labels out of sort_key order), so skipped ranks
        count the out-of-bound XX.  Sorted ranks need sort_key injective on
        TX, as it is on the string and tuple carriers tvcat builds."""
        raise NotImplementedError

    def fragment(self, order: tuple, limit: int | None = None,
                 what: str = "in-bound T(TX) fragment") -> tuple:
        """The in-bound XX of T(TX) from ``inbound(order)``: (rows, tail),
        rows listing (gap, XX, m XX) by rank, gap counting the out-of-bound
        XX just before XX, and tail those after the last row.  Checks visit
        it through ``walk_fragment``.  Given a limit, a walk that reaches
        one row past it raises GuardError, a count from below."""
        mult, rows, nxt = self.mult, [], 0
        for rank, xx in self.inbound(order):
            if len(rows) == limit:
                raise GuardError(what, limit + 1, limit, exact=False)
            rows.append((rank - nxt, xx, mult(xx)))
            nxt = rank + 1
        return tuple(rows), self.carrier_size(len(order)) - nxt

    def letters(self, t) -> tuple:
        """Base positions of a T-element: the points map_elem acts on."""
        return (t,)

    def xi(self, tv, q: Quantale) -> int:
        return self.xi_of_values(self.letters(tv), q)

    def xi_of_values(self, values, q: Quantale) -> int:
        """xi evaluated from the sequence of base-letter values."""
        return values[0]

    def bound_info(self):
        return None

    def elem_to_str(self, t) -> str:
        """The text of a T-element in structure files and reports."""
        return str(t)

    def describe(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.kind)


class IdentityMonad(TheoryMonad):
    kind = "identity"

    def carrier(self, xs):
        return tuple(xs)

    def carrier_size(self, n):
        return n

    def map_elem(self, f, t):
        return f(t)

    def fiber(self, t, rows):
        for y, v in rows.get(t, ()):
            yield y, (v,)

    def lift_rows(self, rows, tx, q):
        return {t: dict(rows.get(t, ())) for t in tx}

    def unit(self, x):
        return x

    def mult(self, tt):
        return tt

    def inbound(self, order):
        # T(TX) = TX and mult is total
        return enumerate(order)


class FiniteUltrafilterMonad(IdentityMonad):
    """On finite carriers every ultrafilter is principal, so this is the
    identity monad under another name; kept distinct so reports can state
    which reduction was used."""

    kind = "finite_ultrafilter"


class WordMonad(TheoryMonad):
    """Free monoid monad, truncated: TX holds words of length <= max_len.

    Quantifications over TTX range over words-of-words whose flattening stays
    within the bound; everything derived from them carries a bounded-depth
    flag.  xi is the tensor product of the letters (unit for the empty word).
    """

    kind = "word"
    bounded = True

    def __init__(self, max_len: int):
        if max_len < 1:
            raise FormatError("word monad needs max_len >= 1")
        self.max_len = max_len

    def carrier(self, xs):
        out = [()]
        for ln in range(1, self.max_len + 1):
            out.extend(product(xs, repeat=ln))
        return tuple(out)

    def carrier_size(self, n):
        # the geometric sum 1 + n + ... + n^max_len in closed form
        return (n ** (self.max_len + 1) - 1) // (n - 1) if n > 1 else n * self.max_len + 1

    def map_elem(self, f, t):
        return tuple(map(f, t))

    def fiber(self, t, rows):
        # one row entry per letter of t; the empty word's one pick unzips to ()
        for picks in product(*(rows.get(x, ()) for x in t)):
            yield tuple(zip(*picks)) or ((), ())

    def lift_rows(self, rows, tx, q):
        # r(x1, y1) (x) ... (x) r(xn, yn) from the lifts of the prefixes of t,
        # left to right (the tensor need not commute), a bottom prefix dropped
        tensor, bot = q.tensor, q.bottom
        memo = {(): {(): q.unit} if q.unit != bot else {}}

        def lift(t):
            if t not in memo:
                memo[t] = {ty + (y,): w for ty, u in lift(t[:-1]).items()
                           for y, v in rows.get(t[-1], ()) if (w := tensor[u][v]) != bot}
            return memo[t]
        return {t: lift(t) for t in tx}

    def inbound(self, order):
        # order runs by word length, so the words within a remaining length
        # budget are a prefix of it; words of words of one length L sort
        # lexicographically by the ranks of their letters, so XX has rank
        # sum_{l<L} N^l + sum_k idx(XX_k) N^(L-1-k).  Level L keeps (rank
        # within the level, XX, letters used) for each XX of length L, built
        # in that order by extending each level L-1 entry with one word within
        # its budget, and each XX is yielded as it is built
        n, top = len(order), self.max_len
        fits = [sum(len(w) <= b for w in order) for b in range(top + 1)]
        level, offset = [(0, (), 0)], 1
        yield 0, ()
        for _ in range(top):
            nxt = []
            for j, xx, used in level:
                for i in range(fits[top - used]):
                    w = order[i]
                    nxt.append(entry := (j * n + i, xx + (w,), used + len(w)))
                    yield offset + entry[0], entry[1]
            level, offset = nxt, offset * n + 1

    def unit(self, x):
        return (x,)

    def mult(self, tt):
        flat = tuple(x for w in tt for x in w)
        return flat if len(flat) <= self.max_len else None

    def letters(self, t):
        return t

    def xi_of_values(self, values, q):
        return q.tens_all(values)

    def bound_info(self):
        return {"max_word_len": self.max_len}

    def elem_to_str(self, t):
        return ",".join(map(str, t))

    def describe(self):
        return {"kind": "word", "max_len": self.max_len}


class LabelledMonad(TheoryMonad):
    """X |-> X x H for a finite monoid H; xi projects out the label."""

    kind = "labelled"

    def __init__(self, monoid: Monoid):
        self.monoid = monoid

    def carrier(self, xs):
        return tuple((x, h) for x in xs for h in self.monoid.labels)

    def carrier_size(self, n):
        return n * len(self.monoid.labels)

    def map_elem(self, f, t):
        return (f(t[0]), t[1])

    def fiber(self, t, rows):
        x, h = t
        for y, v in rows.get(x, ()):
            yield (y, h), (v,)

    def lift_rows(self, rows, tx, q):
        return {(x, h): {(y, h): v for y, v in rows.get(x, ())} for x, h in tx}

    def unit(self, x):
        return (x, self.monoid.labels[self.monoid.unit])

    def mult(self, tt):
        (x, h1), h2 = tt
        return (x, self.monoid.mul(h1, h2))

    def inbound(self, order):
        # T(TX) = TX x H sorts pairwise (sort_key), and mult is total; the
        # first |H| elements of order share their point, so list H in order
        labels = [h for _, h in order[:len(self.monoid.labels)]]
        return enumerate(product(order, labels))

    def letters(self, t):
        return (t[0],)

    def elem_to_str(self, t):
        return "%s,%s" % t

    def describe(self):
        return {"kind": "labelled", "monoid": self.monoid.to_dict()}


def monad_from_dict(d: dict) -> TheoryMonad:
    if not isinstance(d, dict):
        raise FormatError("a monad is described by a JSON object")
    kind = d.get("kind")
    if kind == "identity":
        return IdentityMonad()
    if kind == "finite_ultrafilter":
        return FiniteUltrafilterMonad()
    if kind == "word":
        # a bool is an int to Python, and int() would round 2.7 down
        max_len = d.get("max_len")
        if not isinstance(max_len, int) or isinstance(max_len, bool):
            raise FormatError("word monad needs an integer depth (max_len), e.g. word:2")
        return WordMonad(max_len)
    if kind == "labelled":
        if "monoid" not in d:
            raise FormatError("labelled monad needs a monoid table")
        return LabelledMonad(Monoid.from_dict(d["monoid"]))
    raise FormatError("unknown monad kind %r" % kind)


def monad_by_name(spec: str) -> TheoryMonad:
    """Resolve compact CLI syntax: identity, word:2, labelled:z2, ..."""
    base, sep, arg = spec.partition(":")
    if base == "labelled":
        if arg != "z2":
            raise FormatError("unknown builtin monoid %r (only z2)" % arg)
        return LabelledMonad(z2())
    if sep and base in ("identity", "finite_ultrafilter"):
        raise FormatError("monad %s takes no parameter" % base)
    return monad_from_dict({"kind": base,
                            "max_len": int(arg) if arg.isdecimal() else arg})


def can_map(monad: TheoryMonad, ws) -> dict:
    """The comparison map T(X x Y) -> TX x TY as an explicit dict, on the
    elements ws of T(X x Y)."""
    return {w: (monad.map_elem(lambda p: p[0], w),
                monad.map_elem(lambda p: p[1], w))
            for w in ws}


def walk_fragment(fragment: tuple, rep: Reporter):
    """The rows (XX, m XX) of a fragment, skipping each gap on rep before
    its row, and the tail only if the walk runs to its end."""
    rows, tail = fragment[:2]
    for gap, xx, mx in rows:
        rep.skip(gap)
        yield xx, mx
    rep.skip(tail)


# ---- law checks ----

def check_monad_laws(monad: TheoryMonad, xs: tuple, q: Quantale | None = None,
                     guard: int | None = None) -> CheckReport:
    """Monad unit/associativity laws on the in-bound fragment over carrier xs,
    plus the algebra laws for xi on the quantale when one is given, walked
    from T(TX) and TV in carrier order.  What is built and walked is counted
    against the guard before the walks, each size once the one inside it
    has passed: TX, T(TX) and its in-bound fragment, as the fragment is
    built, then TV and the fragment of T(TV)."""
    limit = guard_limit(guard)
    check_guard(monad.carrier_size(len(xs)), "T X enumeration", limit)
    tx = monad.carrier(xs)
    check_guard(monad.carrier_size(len(tx)), "T(TX) enumeration", limit)
    frag_x = monad.fragment(monad.carrier(tx), limit, "in-bound T(T(TX)) fragment")
    if q is not None:
        check_guard(monad.carrier_size(q.n), "T V enumeration", limit)
        elems = tuple(range(q.n))
        frag_v = monad.fragment(monad.carrier(elems), limit, "in-bound T(TV) fragment")
    rep = Reporter("monad_laws", bound=monad.bound_info())
    # m . eT = id and m . Te = id
    for t in tx:
        rep.tick()
        if monad.mult(monad.unit(t)) != t:
            return rep.fail("mult-unit-left", [repr(t)])
        m = monad.mult(monad.map_elem(monad.unit, t))
        if m is None:
            rep.skip()
        elif m != t:
            return rep.fail("mult-unit-right", [repr(t)])
    # m . mT = m . Tm on in-bound three-level elements
    for ttt, inner in walk_fragment(frag_x, rep):
        rhs = monad.mult(monad.map_elem(monad.mult, ttt)) if all(
            monad.mult(t2) is not None for t2 in monad.letters(ttt)) else None
        lhs = monad.mult(inner)
        if lhs is None or rhs is None:
            rep.skip()
            continue
        rep.tick()
        if lhs != rhs:
            return rep.fail("mult-associative", [repr(ttt)])
    if q is not None:
        for v in elems:
            rep.tick()
            if monad.xi(monad.unit(v), q) != v:
                return rep.fail("xi-unit", [q.labels[v]])
        for tt, m in walk_fragment(frag_v, rep):
            rep.tick()
            lhs = monad.xi(m, q)
            rhs = monad.xi(monad.map_elem(lambda t: monad.xi(t, q), tt), q)
            if lhs != rhs:
                return rep.fail("xi-mult", [repr(tt)])
    return rep.ok()


def check_bc_samples(monad: TheoryMonad, squares=None) -> CheckReport:
    """Weak-pullback preservation on sampled pullback squares of finite
    functions, and the weak-pullback property of the m-naturality squares,
    walked over the in-bound fragments of T(TA) and T(TB)."""
    rep = Reporter("bc_squares", bound=monad.bound_info())
    if squares is None:
        squares = _default_squares()
    for a_car, b_car, c_car, f, g in squares:
        p_car = tuple(p for p in pair_carrier(a_car, b_car) if f[p[0]] == g[p[1]])
        reachable = {(monad.map_elem(lambda p: p[0], w), monad.map_elem(lambda p: p[1], w))
                     for w in monad.carrier(p_car)}
        tb = monad.carrier(b_car)
        for fa in monad.carrier(a_car):
            for fb in tb:
                if monad.map_elem(lambda x: f[x], fa) != monad.map_elem(lambda y: g[y], fb):
                    continue
                rep.tick()
                if (fa, fb) not in reachable:
                    return rep.fail("weak-pullback", [repr(fa), repr(fb)])
    # m-naturality squares as weak pullbacks, over small function samples
    for a_car, b_car, f in _default_functions():
        ta = monad.carrier(a_car)
        images = {}
        for big, m in walk_fragment(monad.fragment(ta), rep):
            key = monad.map_elem(lambda t: monad.map_elem(lambda x: f[x], t), big)
            images.setdefault(key, set()).add(m)
        for bigb, mb in walk_fragment(monad.fragment(monad.carrier(b_car)), rep):
            for fa in ta:
                if monad.map_elem(lambda x: f[x], fa) != mb:
                    continue
                rep.tick()
                if fa not in images.get(bigb, set()):
                    return rep.fail("m-naturality-weak-pullback",
                                    [repr(bigb), repr(fa)])
    return rep.ok()


def _default_squares():
    a = ("a0", "a1")
    b = ("b0", "b1")
    c = ("c0",)
    f1 = {"a0": "c0", "a1": "c0"}
    g1 = {"b0": "c0", "b1": "c0"}
    c2 = ("c0", "c1")
    f2 = {"a0": "c0", "a1": "c1"}
    g2 = {"b0": "c0", "b1": "c1"}
    return [(a, b, c, f1, g1), (a, b, c2, f2, g2)]


def _default_functions():
    a = ("a0", "a1")
    b = ("b0",)
    return [(a, b, {"a0": "b0", "a1": "b0"}),
            (a, a, {"a0": "a1", "a1": "a0"})]
