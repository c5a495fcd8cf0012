"""Exact arithmetic on monomials and monomial ideals.

Monomials are exponent vectors; ideals are stored by their minimal
generating set, kept in descending degree-lexicographic order so that
serialized output is byte-stable.  A monomial's degree and support are
computed once, on first use.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import comb
from operator import le, or_
from typing import Iterable, Iterator, Sequence


class IdealError(ValueError):
    """Raised for operations undefined on the zero or unit ideal."""


class NotBorelFixedError(ValueError):
    """Raised when an operation requires a Borel-fixed input."""


def json_int(value, what: str, least: int | None = 0) -> int:
    """``value`` if it is a JSON integer, not a float or a boolean, and at
    least ``least`` unless that is None; raise ValueError naming ``what``
    otherwise."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
    return value


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

    def _pair(self, other: "Monomial") -> zip:
        """The exponent pairs of two monomials in one ambient; a ValueError
        naming both lengths otherwise, where ``zip`` would truncate."""
        if len(self.exps) != len(other.exps):
            raise ValueError(f"ambient mismatch: {len(self.exps)} and "
                             f"{len(other.exps)} variables")
        return zip(self.exps, other.exps)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in self._pair(other))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in self._pair(other)))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        exps = tuple(a - b for a, b in self._pair(other))
        if min(exps, default=0) < 0:
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(exps)

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(min(a, b) for a, b in self._pair(other)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(max(a, b) for a, b in self._pair(other)))

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
    generated by the unit monomial.  The stored generators are always
    divisibility-minimal and in descending degree-lex order: ``from_gens``
    minimalizes and sorts any generators.  The constructors below skip it,
    each because a theorem already gives minimal, sorted generators:

    - ``restrict``: a subset of minimal generators stays minimal, and
      dropping coordinates that are 0 on all of them keeps the order;
    - ``pad`` and ``extend_front``: zero coordinates added before or after
      keep divisibility and the lex order;
    - ``times_monomial``: g -> g*m keeps both;
    - ``enumerate_borel_ideals``: no generator it picks lies in the shadow
      of a lower degree, and it lists degrees from high to low.
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
        """m * J, with no minimalization: g | h iff g*m | h*m, and g -> g*m
        keeps the degree-lex order."""
        if m.n != self.n:
            raise ValueError("ambient mismatch")
        return MonomialIdeal(self.n, tuple(g * m for g in self.gens))

    def restrict(self, variables: Sequence[int]) -> "MonomialIdeal":
        """Intersection with the coordinate subring on the given variables.

        Keeps exactly the minimal generators supported inside ``variables``
        and re-indexes them into a len(variables)-dimensional ambient, with
        no minimalization: a subset of minimal generators stays minimal, and
        dropping coordinates that are 0 on all of them keeps the order.  A
        repeated index, or one outside 0..n-1, is a ValueError.
        """
        inside: set[int] = set()
        for v in variables:
            if not 0 <= v < self.n:
                raise ValueError(f"variable index {v} outside 0..{self.n - 1}")
            if v in inside:
                raise ValueError(f"variable index {v} repeated")
            inside.add(v)
        variables = sorted(inside)
        keep = [g for g in self.gens if inside.issuperset(g.support)]
        return MonomialIdeal(len(variables), tuple(
            Monomial(tuple(g.exps[v] for v in variables)) for g in keep))

    def pad(self, before: int, after: int = 0) -> "MonomialIdeal":
        """This ideal inside before + n + after variables, as
        x_{before+1}, ..., x_{before+n}, with no minimalization: zero
        coordinates added before or after keep divisibility and the lex
        order.  A negative count is a ValueError."""
        if before < 0 or after < 0:
            raise ValueError(f"cannot pad by {before} and {after} variables")
        head, tail = (0,) * before, (0,) * after
        return MonomialIdeal(before + self.n + after,
                             tuple(Monomial(head + g.exps + tail) for g in self.gens))

    def extend_front(self, extra: int) -> "MonomialIdeal":
        """View this ideal inside extra + n variables, as x_{extra+1},...."""
        return self.pad(extra)

    def to_json(self) -> dict:
        return {
            "gens": [list(g.exps) for g in self.gens],
            "n": self.n,
            "schema": "ideal/1",
        }

    @classmethod
    def from_json(cls, data: dict) -> "MonomialIdeal":
        """The ideal an ``ideal/1`` document stores: ``n`` and every
        exponent must be integers >= 0 (``json_int``)."""
        n = json_int(data["n"], "n")
        return cls.from_gens(n, (Monomial(tuple(json_int(e, "exponent") for e in exps))
                                 for exps in data["gens"]))

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
    after variable i."""
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
    """J : m^infinity, generated by J's generators with their exponents on
    supp(m) set to 0 (a large enough power of m divides them away there).
    With m the product of the variables outside J's only minimal prime P,
    this is J's P-primary component: J is equidimensional iff
    saturate(J, m) == J, that is iff every minimal generator lies in
    k[x_P] (``is_equidimensional``)."""
    if m.n != J.n:
        raise ValueError("ambient mismatch")
    support = m.support
    return MonomialIdeal.from_gens(J.n, (
        Monomial(tuple(0 if i in support else e for i, e in enumerate(g.exps)))
        for g in J.gens))


def is_equidimensional(J: MonomialIdeal) -> bool:
    """True iff every component of the irredundant primary decomposition
    has the same height: the minimal primes share one height and there is
    no embedded component (J equals the intersection of its minimal
    primary components).

    With one minimal prime P, as every Borel-fixed ideal has, J is
    equidimensional iff every minimal generator lies in k[x_P]: a generator
    g outside it has its restriction g|_P (exponents off P set to 0) in the
    P-primary component, and not in J, for a generator dividing g|_P would
    divide g.  With several, the components are intersected."""
    primes = minimal_primes(J)
    if len(primes) == 1:
        return all(primes[0].issuperset(g.support) for g in J.gens)
    if len({len(p) for p in primes}) != 1:
        return False
    components = (saturate(J, Monomial(tuple(int(i not in prime) for i in range(J.n))))
                  for prime in primes)
    return reduce(MonomialIdeal.intersect, components) == J


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
def _borel_masks(n: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bitmasks of positions in ``monomials_of_degree``: for each degree-d
    monomial m, in that order, those of its Borel moves (x_j / x_i) * m
    with j < i, and those of its shadow m * x_i among degree d + 1."""
    here = {m.exps: 1 << k for k, m in enumerate(monomials_of_degree(n, d))}
    above = {m.exps: 1 << k for k, m in enumerate(monomials_of_degree(n, d + 1))}
    moves, shadows = [], []
    for e in here:
        up = [e[:j] + (e[j] + 1,) + e[j + 1:] for j in range(n)]
        shadows.append(sum(above[u] for u in up))
        moves.append(sum(here[u[:i] + (u[i] - 1,) + u[i + 1:]]
                         for j, u in enumerate(up) for i in range(j + 1, n) if e[i]))
    return tuple(moves), tuple(shadows)


def _borel_closed_supersets(n: int, d: int, forced: int) -> Iterator[tuple[int, tuple]]:
    """Each Borel-closed mask of degree-d positions that contains the
    Borel-closed mask ``forced``, with its monomials outside ``forced``, in
    a fixed order: a free position whose moves are all chosen is first
    taken and then left out."""
    monos, moves = monomials_of_degree(n, d), _borel_masks(n, d)[0]
    stack = [(0, forced, ())]
    while stack:
        k, chosen, fresh = stack.pop()
        while k < len(monos) and (chosen >> k & 1 or moves[k] & ~chosen):
            k += 1
        if k == len(monos):
            yield chosen, fresh
        else:
            stack.append((k + 1, chosen, fresh))
            stack.append((k + 1, chosen | 1 << k, fresh + (monos[k],)))


def enumerate_borel_ideals(n: int, maxdeg: int) -> Iterator[MonomialIdeal]:
    """All nonzero Borel-fixed ideals in n variables whose minimal
    generators have degree at most maxdeg: degree by degree, and in each
    degree the positions of ``monomials_of_degree`` in order, each taken
    before it is left out."""

    def rec(d: int, forced: int, gens: tuple) -> Iterator[MonomialIdeal]:
        if d > maxdeg:
            if gens:
                # Minimal already: no generator is in the shadow of a lower degree.
                yield MonomialIdeal(n, gens)
            return
        shadows = _borel_masks(n, d)[1] if d < maxdeg else ()
        for chosen, fresh in _borel_closed_supersets(n, d, forced):
            shadow = reduce(or_, (s for k, s in enumerate(shadows) if chosen >> k & 1), 0)
            # Degrees from high to low give descending degree-lex.
            yield from rec(d + 1, shadow, fresh + gens)

    yield from rec(1, 0, ())
