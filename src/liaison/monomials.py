"""Exact arithmetic on monomials and monomial ideals.

Monomials are exponent vectors; ideals are stored by their minimal
generating set, kept in descending degree-lexicographic order so that
serialized output is byte-stable.  A monomial's degree and support are
computed once, on first use.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from operator import le
from typing import Iterable, Iterator, Sequence


class IdealError(ValueError):
    """Raised for operations undefined on the zero or unit ideal."""


class NotBorelFixedError(ValueError):
    """Raised when an operation requires a Borel-fixed input."""


@dataclass(frozen=True, order=True)
class Monomial:
    """A monomial given by its exponent vector."""

    exps: tuple[int, ...]

    def __post_init__(self):
        if min(self.exps, default=0) < 0:
            raise ValueError(f"negative exponent in {self.exps}")

    @property
    def n(self) -> int:
        return len(self.exps)

    # Cached in the instance __dict__, outside the dataclass fields, so
    # equality, hashing, ordering and JSON see only ``exps``.
    @cached_property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    def deglex_key(self) -> tuple:
        # Larger key = larger monomial in degree-lex order.
        return (self.degree, self.exps)

    def divides(self, other: "Monomial") -> bool:
        return all(map(le, self.exps, other.exps))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exps) if e > 0)

    @property
    def is_pure_power(self) -> bool:
        return len(self.support) <= 1 and self.degree > 0

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


def variable(n: int, i: int, power: int = 1) -> Monomial:
    """The monomial x_{i+1}^power in n variables (0-based index i)."""
    exps = [0] * n
    exps[i] = power
    return Monomial(tuple(exps))


def unit_monomial(n: int) -> Monomial:
    return Monomial((0,) * n)


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in n variables, descending degree-lex."""
    if n == 0:
        return (Monomial(()),) if d == 0 else ()
    exps = []
    for bars in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        vec = []
        for b in bars:
            vec.append(b - prev - 1)
            prev = b
        vec.append(d + n - 1 - prev - 1)
        exps.append(tuple(vec))
    exps.sort(reverse=True)
    return tuple(Monomial(e) for e in exps)


def _minimal_gens(gens: Iterable[Monomial]) -> list[Monomial]:
    """The divisibility-minimal members of ``gens``, ascending by (degree,
    exponents).  Distinct monomials of one degree never divide each other,
    so each is tested only against those kept in lower degrees."""
    out: list[Monomial] = []
    lower: list[tuple[int, ...]] = []  # exponent tuples kept below degree
    fresh: list[tuple[int, ...]] = []  # ... and in degree
    degree = -1
    for g in sorted(set(gens), key=lambda m: (m.degree, m.exps)):
        e = g.exps
        if g.degree != degree:
            lower += fresh
            fresh, degree = [], g.degree
        if not any(all(map(le, h, e)) for h in lower):
            out.append(g)
            fresh.append(e)
    return out


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal by its minimal generating set.

    The zero ideal has an empty generator tuple; the unit ideal is
    generated by the unit monomial.  Construct via ``from_gens`` so the
    stored generators are always divisibility-minimal and sorted.
    """

    n: int
    gens: tuple[Monomial, ...]

    @classmethod
    def from_gens(cls, n: int, gens: Iterable[Monomial]) -> "MonomialIdeal":
        gens = list(gens)
        for g in gens:
            if g.n != n:
                raise ValueError(f"generator {g} not in {n} variables")
        minimal = _minimal_gens(gens)
        minimal.sort(key=Monomial.deglex_key, reverse=True)
        return cls(n, tuple(minimal))

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, (unit_monomial(n),))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return any(not any(g.exps) for g in self.gens)

    @property
    def max_gen_degree(self) -> int:
        return max((g.degree for g in self.gens), default=0)

    def initial_degree(self) -> int:
        """Least degree of a nonzero element (= least generator degree)."""
        if self.is_zero:
            raise IdealError("zero ideal has no initial degree")
        return min(g.degree for g in self.gens)

    def contains(self, m: Monomial) -> bool:
        if m.n != self.n:
            raise ValueError("ambient mismatch")
        e = m.exps
        return any(all(map(le, g.exps, e)) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def colon(self, m: Monomial) -> "MonomialIdeal":
        if m.n != self.n:
            raise ValueError("ambient mismatch")
        return MonomialIdeal.from_gens(self.n, (g / g.gcd(m) for g in self.gens))

    def plus(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if other.n != self.n:
            raise ValueError("ambient mismatch")
        return MonomialIdeal.from_gens(self.n, self.gens + other.gens)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if other.n != self.n:
            raise ValueError("ambient mismatch")
        return MonomialIdeal.from_gens(
            self.n, (g.lcm(h) for g in self.gens for h in other.gens)
        )

    def times_monomial(self, m: Monomial) -> "MonomialIdeal":
        return MonomialIdeal.from_gens(self.n, (g * m for g in self.gens))

    def restrict(self, variables: Sequence[int]) -> "MonomialIdeal":
        """Intersection with the coordinate subring on the given variables.

        Keeps exactly the minimal generators supported inside ``variables``
        and re-indexes them into a len(variables)-dimensional ambient.
        """
        variables = tuple(sorted(variables))
        inside = set(variables)
        keep = [g for g in self.gens if inside.issuperset(g.support)]
        reindexed = [Monomial(tuple(g.exps[v] for v in variables)) for g in keep]
        return MonomialIdeal.from_gens(len(variables), reindexed)

    def extend_front(self, extra: int) -> "MonomialIdeal":
        """View this ideal inside extra + n variables, as x_{extra+1},...."""
        return MonomialIdeal.from_gens(
            self.n + extra, (Monomial((0,) * extra + g.exps) for g in self.gens)
        )

    def to_json(self) -> dict:
        return {
            "schema": "ideal/1",
            "n": self.n,
            "gens": [list(g.exps) for g in self.gens],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MonomialIdeal":
        return cls.from_gens(data["n"], (Monomial(tuple(e)) for e in data["gens"]))

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def standard_monomials(J: MonomialIdeal, d: int) -> tuple[Monomial, ...]:
    """Degree-d monomials outside J, descending degree-lex."""
    return tuple(m for m in monomials_of_degree(J.n, d) if not J.contains(m))


def is_artinian(J: MonomialIdeal) -> bool:
    """True iff J contains a pure power of every ambient variable."""
    if J.is_unit:
        return True
    return len({g.support[0] for g in J.gens if len(g.support) == 1}) == J.n


def borel_moves(m: Monomial) -> Iterator[Monomial]:
    """All monomials (x_j / x_i) * m with j < i and x_i dividing m."""
    for i in m.support:
        for j in range(i):
            exps = list(m.exps)
            exps[i] -= 1
            exps[j] += 1
            yield Monomial(tuple(exps))


def is_borel_fixed(J: MonomialIdeal) -> bool:
    """Exchange test x_{i-1}/x_i on the minimal generators.

    A move x_j/x_i with j < i is a chain of adjacent moves, and a move on
    u * w either moves w or moves the generator u, so adjacent moves on
    the generators imply every move on every monomial of J.
    """
    gens = [g.exps for g in reversed(J.gens)]  # ascending degree
    present = set(gens)
    moved = (g[: i - 1] + (g[i - 1] + 1, g[i] - 1) + g[i + 1:]
             for g in gens for i in range(1, len(g)) if g[i])
    return all(m in present or any(all(map(le, h, m)) for h in gens)
               for m in moved)


def _lex_position(e: tuple[int, ...]) -> int:
    """Position from 0 of an exponent tuple among those of its degree in
    descending lex order: the number of larger ones, which agree with it
    before some variable i and exceed it there.  That is the sum over
    i < n - 1 of C(m_i + n - 2 - i, n - 1 - i), m_i being the degree left
    after variable i (the sum ``oracle._lex_rank_table`` tabulates)."""
    n = len(e)
    left = sum(e)
    position = 0
    for i in range(n - 1):
        left -= e[i]
        position += comb(left + n - 2 - i, n - 1 - i)
    return position


def lex_segment_violation(J: MonomialIdeal) -> Monomial | None:
    """First degree-lex gap witness, or None if J is a lex-segment ideal.

    Only degrees up to the maximal generator degree need checking:
    shadows of lex segments are again lex segments.  J_d is a lex segment
    iff its lex-smallest monomial, the least g * x_n^(d - deg g) over the
    generators g of degree at most d, stands at position dim J_d - 1 in
    descending lex order; dim J_d = C(n - 1 + d, n - 1) - h(d), with h
    from the Hilbert-series numerator.  Only the first degree that fails
    is scanned, and its first monomial outside J is the witness.
    """
    from .hilbert import hilbert_numerator, hilbert_value  # hilbert imports this module

    n = J.n
    numerator = None
    for d in range(1, J.max_gen_degree + 1):
        tails = [g.exps[:-1] + (g.exps[-1] + d - g.degree,) for g in J.gens if g.degree <= d]
        if not tails:
            continue
        if numerator is None:
            numerator = hilbert_numerator(J)
        dim = comb(n - 1 + d, n - 1) - hilbert_value(numerator, n, d)
        if _lex_position(min(tails)) != dim - 1:
            return next(m for m in monomials_of_degree(n, d) if not J.contains(m))
    return None


def is_lex_segment(J: MonomialIdeal) -> bool:
    return lex_segment_violation(J) is None


def minimal_primes(J: MonomialIdeal) -> tuple[frozenset[int], ...]:
    """Minimal primes as variable sets: minimal hitting sets of the
    generator supports."""
    if J.is_zero or J.is_unit:
        raise IdealError("minimal primes require a proper nonzero ideal")
    supports = sorted({frozenset(g.support) for g in J.gens}, key=len)
    found: set[frozenset[int]] = set()

    def rec(idx: int, chosen: frozenset[int]) -> None:
        while idx < len(supports) and supports[idx] & chosen:
            idx += 1
        if idx == len(supports):
            found.add(chosen)
            return
        for v in sorted(supports[idx]):
            rec(idx + 1, chosen | {v})

    rec(0, frozenset())
    minimal = tuple(
        sorted(
            (h for h in found if not any(o < h for o in found)),
            key=lambda h: (len(h), sorted(h)),
        )
    )
    return minimal


def height(J: MonomialIdeal) -> int:
    return min(len(p) for p in minimal_primes(J))


def saturate(J: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """J : m^infinity (stabilizes once the colon power dominates every
    generator exponent)."""
    big = J.max_gen_degree + 1
    power = Monomial(tuple(e * big for e in m.exps))
    return J.colon(power)


def is_equidimensional(J: MonomialIdeal) -> bool:
    """True iff every component of the irredundant primary decomposition
    has the same height: the minimal primes share one height and there is
    no embedded component (J equals the intersection of its minimal
    primary components)."""
    primes = minimal_primes(J)
    if len({len(p) for p in primes}) != 1:
        return False
    n = J.n
    intersection = None
    for prime in primes:
        outside = Monomial(
            tuple(1 if i not in prime else 0 for i in range(n))
        )
        component = saturate(J, outside) if not outside.is_unit else J
        intersection = (
            component if intersection is None else intersection.intersect(component)
        )
    return intersection == J


@dataclass(frozen=True)
class ConePresentation:
    """Witness that J is a cone over an Artinian Borel-fixed ideal."""

    c: int
    artinian_part: MonomialIdeal  # Borel-fixed Artinian ideal in c variables


def is_cm_borel(J: MonomialIdeal) -> tuple[bool, ConePresentation | None]:
    """Cohen-Macaulay test for Borel-fixed ideals.

    The height of J is the largest c with a pure power x_c^k in J: moves
    put x_1^k..x_c^k in J, and a generator outside x_1..x_c would move to a
    pure power of a later variable.  J is CM iff no minimal generator
    involves x_{c+1},...,x_n.  On success returns the cone presentation
    over the Artinian part in c variables.
    """
    if not is_borel_fixed(J):
        raise NotBorelFixedError(f"{J} is not Borel-fixed")
    if J.is_zero or J.is_unit:
        raise IdealError("the CM test requires a proper nonzero ideal")
    c = 1 + max(g.support[0] for g in J.gens if g.is_pure_power)
    if any(g.support[-1] >= c for g in J.gens):
        return False, None
    artinian_part = J.restrict(range(c))
    return True, ConePresentation(c, artinian_part)


@lru_cache(maxsize=None)
def _borel_parents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """For each degree-d monomial, in the order of ``monomials_of_degree``,
    the positions of its Borel moves (x_j / x_i) * m with j < i."""
    monos = monomials_of_degree(n, d)
    index = {m: k for k, m in enumerate(monos)}
    return tuple(tuple(index[p] for p in set(borel_moves(m))) for m in monos)


def _borel_closed_supersets(
    n: int, d: int, forced: frozenset[Monomial]
) -> Iterator[frozenset[Monomial]]:
    """All Borel-closed sets of degree-d monomials that contain ``forced``,
    in a fixed order: each monomial, in descending degree-lex, is first
    taken and then left out."""
    monos = monomials_of_degree(n, d)
    parents = _borel_parents(n, d)
    must = [m in forced for m in monos]
    choice = [False] * len(monos)

    def rec(k: int) -> Iterator[frozenset[Monomial]]:
        if k == len(monos):
            yield frozenset(m for m, c in zip(monos, choice) if c)
            return
        if all(choice[p] for p in parents[k]):
            choice[k] = True
            yield from rec(k + 1)
        if not must[k]:
            choice[k] = False
            yield from rec(k + 1)
        choice[k] = False

    if sum(must) == len(forced):  # else some forced monomial is not of degree d
        yield from rec(0)


def enumerate_borel_ideals(n: int, maxdeg: int) -> Iterator[MonomialIdeal]:
    """All nonzero Borel-fixed ideals in n variables whose minimal
    generators have degree at most maxdeg."""

    def shadow(monos: frozenset[Monomial]) -> frozenset[Monomial]:
        return frozenset(m * variable(n, i) for m in monos for i in range(n))

    def rec(d: int, prev: frozenset[Monomial], gens: list[Monomial]) -> Iterator[MonomialIdeal]:
        if d > maxdeg:
            if gens:
                # Minimal already: no generator is in the shadow of a lower degree.
                yield MonomialIdeal(n, tuple(sorted(gens, key=Monomial.deglex_key, reverse=True)))
            return
        forced = shadow(prev)
        for chosen in _borel_closed_supersets(n, d, forced):
            yield from rec(d + 1, chosen, gens + list(chosen - forced))

    yield from rec(1, frozenset(), [])
