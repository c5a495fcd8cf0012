"""Hilbert functions, Macaulay growth bounds and the lex-segment builder.

A Hilbert function is read off the numerator N(t) of the Hilbert series
N(t) / (1 - t)^n: its values through a degree come from n running sums
of N's coefficients, each one a division by 1 - t (``hilbert_values``),
and a single degree from a sum of binomials (``hilbert_value``)."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb

from .monomials import (
    Monomial,
    MonomialIdeal,
    is_artinian,
    is_borel_fixed,
    monomials_of_degree,
    variable,
)


NUMERATOR_LIMIT = 10**6
"""Ceiling on the length of a Hilbert-series numerator, checked before
any coefficient list is allocated: a generator of huge degree is refused
with ValueError, not a list the host cannot hold."""


def _check_numerator_length(length: int) -> None:
    if length > NUMERATOR_LIMIT:
        raise ValueError(f"{length} Hilbert-series numerator coefficients, "
                         f"more than NUMERATOR_LIMIT = {NUMERATOR_LIMIT}")


class HorizonError(ValueError):
    """Comparison or evaluation past a truncated h-vector's horizon."""


class NotDifferentiableError(ValueError):
    """A difference sequence went negative."""


class NotOSequenceError(ValueError):
    def __init__(self, message: str, degree: int, bound: int, value: int):
        super().__init__(message)
        self.degree = degree
        self.bound = bound
        self.value = value


@dataclass(frozen=True)
class HVector:
    """A finite integer sequence h(0), h(1), ...

    ``horizon`` is None for a complete (Artinian-style) sequence that is
    zero beyond its stored values; otherwise the values are only known up
    to ``horizon`` and evaluation past it is an error, never a silent
    truncation.
    """

    values: tuple[int, ...]
    horizon: int | None = None

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError(f"negative entry in {self.values}")
        if self.horizon is not None and len(self.values) != self.horizon + 1:
            raise ValueError("truncated h-vector must store horizon+1 values")

    @classmethod
    def artinian(cls, values) -> "HVector":
        values = tuple(values)
        while values and values[-1] == 0:
            values = values[:-1]
        return cls(values, None)

    @classmethod
    def truncated(cls, values, horizon: int) -> "HVector":
        values = tuple(values)
        if len(values) < horizon + 1:
            values = values + (0,) * (horizon + 1 - len(values))
        return cls(values[: horizon + 1], horizon)

    def at(self, d: int) -> int:
        if d < 0:
            return 0
        if d < len(self.values):
            return self.values[d]
        if self.horizon is None:
            return 0
        raise HorizonError(f"degree {d} beyond horizon {self.horizon}")

    @property
    def top(self) -> int:
        return len(self.values) - 1

    def to_json(self) -> dict:
        kind = "artinian" if self.horizon is None else {"truncated": self.horizon}
        return {"h": list(self.values), "kind": kind}

    def __str__(self) -> str:
        body = ",".join(str(v) for v in self.values)
        return f"({body})" if self.horizon is None else f"({body} | d<={self.horizon})"


MAX_WIDTH = 10**5
"""Sanity ceiling on a horizon: the width C(N - 1 + dmax, N - 1) of its
top-degree Macaulay matrix.  ``horizon`` derives the horizon from the
ideal, so only an ideal of high degree in many variables reaches it; it
stops such an input before any matrix or monomial table is built, but
does not guarantee memory to those below."""


def horizon(J: MonomialIdeal, k: int, N: int) -> int:
    """The degree horizon of a check on J: max generator degree + ``k``,
    raised to s + 2 when J is Artinian and proper of socle degree s, so
    that a Hilbert function read through it has stabilized over its last
    two degrees.  A certificate passes k = J.n, a lift the number of its
    variables.  Raises ValueError when the horizon's top-degree Macaulay
    matrix in ``N`` variables is wider than MAX_WIDTH, naming a width that
    ``_width_past`` computes only until it passes MAX_WIDTH."""
    dmax = J.max_gen_degree + k
    if is_artinian(J) and not J.is_unit:
        dmax = max(dmax, len(hilbert_function_artinian(J).values) + 1)
    width = _width_past(N, dmax, MAX_WIDTH)
    if width > MAX_WIDTH:
        raise ValueError(f"horizon dmax {dmax} needs Macaulay matrices at least {width} "
                         f"columns wide in {N} variables, more than {MAX_WIDTH}")
    return dmax


def _width_past(N: int, d: int, cap: int) -> int:
    """The count C(N - 1 + d, d) of degree-d monomials in N variables if
    at most ``cap``, else a lower bound on it past ``cap``.  It is C(a + b,
    b) for a = max(d, N - 1) and b = min(d, N - 1), and C(a + j, j) grows
    with j, at least as 2^j, so the product stops within about log2(cap)
    steps: no width of thousands of digits is computed or printed."""
    a, b = max(d, N - 1), min(d, N - 1)
    width = 1 if N else int(d == 0)
    for j in range(1, b + 1):
        width = width * (a + j) // j
        if width > cap:
            break
    return width


def _add_shifted(p: list[int], q: list[int], shift: int) -> list[int]:
    """p + t^shift * q."""
    out = p + [0] * max(0, shift + len(q) - len(p))
    for k, b in enumerate(q, shift):
        out[k] += b
    return out


def numerator_difference(num, d: int) -> list[int]:
    """N(t)·(1 - t^d): over the same (1 - t)^n, h(t) - h(t - d)."""
    return _add_shifted(list(num), [-c for c in num], d)


def numerator_sum(terms) -> list[int]:
    """sum_k t^(s_k)·N_k(t) over the pairs (s_k, N_k): sum_k h_k(t - s_k)."""
    out: list[int] = []
    for shift, num in terms:
        out = _add_shifted(out, num, shift)
    return out


def first_mismatch(p, q) -> int | None:
    """The least k with p_k != q_k, or None: over one (1 - t)^n, the least
    degree where the Hilbert functions differ, as 1/(1 - t)^n starts with 1."""
    diff = _add_shifted(list(p), [-c for c in q], 0)
    return next((k for k, c in enumerate(diff) if c), None)


def numerator_degree(num) -> int:
    """The degree Q(1) of S/J, for N(t) = (1 - t)^c·Q(t) with Q(1) nonzero:
    each division by 1 - t is a running sum whose last entry, N(1) = 0, drops."""
    num = list(num)
    while num and not sum(num):
        num = list(accumulate(num))[:-1]
    return sum(num)


def _pivot_numerator(gens: list[tuple[int, ...]]) -> list[int]:
    """Bigatti's recursion N(I) = N(I + x_i^e) + t^e * N(I : x_i^e) on the
    minimal generators (exponent tuples) of a proper nonzero ideal: x_i is
    in the most generators, e is the median of its exponents in those
    that are not pure powers, and pairwise coprime generators g end it
    with prod_g (1 - t^deg g).  Both branches lower the generator degrees."""
    counts = [len(col) - col.count(0) for col in zip(*gens)]
    top = max(counts)
    if top <= 1:
        num = [1]
        for g in gens:
            num = numerator_difference(num, sum(g))
        return num
    i = counts.index(top)
    exps = sorted(g[i] for g in gens if 0 < g[i] < sum(g))
    e = exps[len(exps) // 2]
    # x_i^e is not in I, so the generators it does not divide stay minimal.
    plus = [g for g in gens if g[i] < e] + [(0,) * i + (e,) + (0,) * (len(counts) - i - 1)]
    # In I : x_i^e only an image that lost x_i can be redundant, and only
    # by another such image.
    colon: list[tuple[int, ...]] = []
    for g in sorted({g[:i] + (0,) + g[i + 1:] for g in gens if g[i] <= e}, key=sum):
        if not any(all(a <= b for a, b in zip(h, g)) for h in colon):
            colon.append(g)
    colon += [g[:i] + (g[i] - e,) + g[i + 1:] for g in gens if g[i] > e]
    return _add_shifted(_pivot_numerator(plus), _pivot_numerator(colon), e)


@lru_cache(maxsize=None)
def _ek_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row m - 1 holds the coefficients of -(1 - t)^(m - 1), m = 1..n: the
    Eliahou-Kervaire term of a generator whose last variable is x_m."""
    return tuple(tuple((-1) ** (k + 1) * comb(m, k) for k in range(m + 1)) for m in range(n))


def _ek_numerator(J: MonomialIdeal) -> tuple[int, ...]:
    """Eliahou-Kervaire numerator of a Borel-fixed J, which the caller has
    proven Borel-fixed; without trailing zeros."""
    n = J.n
    length = J.max_gen_degree + n
    _check_numerator_length(length)
    rows = _ek_rows(n)
    num = [1] + [0] * (length - 1)
    for u in J.gens:
        if not u.degree:  # the unit ideal
            return ()
        e = u.exps
        last = n - 1
        while not e[last]:
            last -= 1
        for k, c in enumerate(rows[last], u.degree):
            num[k] += c
    while num[-1] == 0:
        num.pop()
    return tuple(num)


def hilbert_numerator(J: MonomialIdeal) -> tuple[int, ...]:
    """Coefficients N_0, N_1, ... of the numerator of the Hilbert series
    of S/J, sum_d h(d) t^d = N(t) / (1 - t)^n, without trailing zeros.

    A Borel-fixed J has N(t) = 1 - sum_u t^deg(u) * (1 - t)^(m(u) - 1) over
    its minimal generators u, m(u) being the largest index of a variable
    of u, from 1: each monomial of J is uniquely u * v with v in x_m(u)..x_n
    (Eliahou and Kervaire, J. Algebra 129, 1990).  Any other J goes through
    Bigatti's pivot recursion (J. Pure Appl. Algebra 119, 1997), whose
    numerators have degree at most that of the lcm of the generators.
    A numerator longer than NUMERATOR_LIMIT is a ValueError.
    """
    if J.is_unit:
        return ()
    if is_borel_fixed(J):
        return _ek_numerator(J)
    gens = [g.exps for g in J.gens]
    _check_numerator_length(sum(map(max, zip(*gens))) + 1)
    num = _pivot_numerator(gens)
    while num[-1] == 0:
        num.pop()
    return tuple(num)


def hilbert_value(numerator: tuple[int, ...], n: int, d: int) -> int:
    """h(d) = sum_k N_k * C(d - k + n - 1, n - 1), the degree-d coefficient
    of N(t) / (1 - t)^n; for n = 0 it is N_d."""
    if n == 0 or d < 0:
        return numerator[d] if 0 <= d < len(numerator) else 0
    return sum(c * comb(d - k + n - 1, n - 1) for k, c in enumerate(numerator[: d + 1]))


def hilbert_values(numerator: tuple[int, ...], n: int, length: int) -> list[int]:
    """h(0), ..., h(length - 1) of N(t) / (1 - t)^n: N's first ``length``
    coefficients under n running sums, each one a division by 1 - t."""
    values = list(numerator[:length]) + [0] * (length - len(numerator))
    for _ in range(n):
        values = list(accumulate(values))
    return values


def hilbert_function(J: MonomialIdeal, dmax: int) -> HVector:
    """h(d) = dim (S/J)_d for 0 <= d <= dmax, exact in every degree: the
    numerator N(t) of ``hilbert_numerator`` (Eliahou-Kervaire 1990 for
    Borel-fixed J, Bigatti 1997 otherwise) divided by (1 - t)^n through n
    running sums (``hilbert_values``)."""
    num = hilbert_numerator(J)
    return HVector.truncated(hilbert_values(num, J.n, dmax + 1), dmax)


def hilbert_function_artinian(J: MonomialIdeal) -> HVector:
    """Full h-vector of an Artinian ideal, exact in every degree, as
    ``hilbert_function`` computes it: N(t) / (1 - t)^n is then a
    polynomial of degree below len(N), so len(N) running-sum values
    hold all of it."""
    if not is_artinian(J):
        raise ValueError(f"{J} is not Artinian: h-vector does not terminate")
    num = hilbert_numerator(J)
    return HVector.artinian(hilbert_values(num, J.n, len(num)))


def macaulay_representation(v: int, d: int) -> list[tuple[int, int]]:
    """Greedy d-th Macaulay binomial representation of v as
    [(k_d, d), (k_{d-1}, d-1), ...]."""
    rep = []
    j = d
    while v > 0 and j >= 1:
        k = j
        while comb(k + 1, j) <= v:
            k += 1
        rep.append((k, j))
        v -= comb(k, j)
        j -= 1
    return rep


def macaulay_bound(v: int, d: int) -> int:
    """Maximum admissible value in degree d+1 after v in degree d."""
    if v < 0:
        raise ValueError("negative value")
    return sum(comb(k + 1, j + 1) for k, j in macaulay_representation(v, d))


def o_sequence_violation(h: HVector) -> tuple[int, int, int] | None:
    """Returns (degree, bound, value) for the first Macaulay-growth
    violation, or None if h is an O-sequence."""
    values = h.values
    if not values:
        return None
    if values[0] != 1:
        return (0, 1, values[0])
    for d in range(1, len(values) - 1):
        # h(1) itself is unconstrained (any number of variables).
        bound = macaulay_bound(values[d], d)
        if values[d + 1] > bound:
            return (d + 1, bound, values[d + 1])
    return None


def difference(h: HVector, k: int = 1) -> HVector:
    """k-th difference; errors if any entry of an intermediate difference
    goes negative (the sequence is not k-times differentiable)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cur = h
    for _ in range(k):
        if cur.horizon is None:
            span = cur.top + 1  # value at top+1 is 0, difference may be negative
        else:
            span = cur.horizon
        vals = []
        for d in range(span + 1):
            v = cur.at(d) - cur.at(d - 1)
            if v < 0:
                raise NotDifferentiableError(
                    f"difference negative at degree {d}: {cur.at(d)} - {cur.at(d-1)}"
                )
            vals.append(v)
        if cur.horizon is None:
            cur = HVector.artinian(vals)
        else:
            cur = HVector.truncated(vals, span)
    return cur


def partial_sum(h: HVector, k: int, dmax: int) -> HVector:
    """k-fold running sums through degree dmax (inverse of difference)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if h.horizon is not None and h.horizon < dmax:
        raise HorizonError(f"input horizon {h.horizon} below dmax {dmax}")
    vals = [h.at(d) for d in range(dmax + 1)]
    for _ in range(k):
        acc = 0
        for d in range(dmax + 1):
            acc += vals[d]
            vals[d] = acc
    if k == 0 and h.horizon is None:
        return HVector.artinian(vals)
    return HVector.truncated(vals, dmax)


def _shadow(n: int, monos) -> set[Monomial]:
    return {m * variable(n, i) for m in monos for i in range(n)}


def lex_ideal_from_hvector(h: HVector, n: int) -> MonomialIdeal:
    """The unique Artinian lex-segment ideal in n variables with the given
    Hilbert function.

    Per degree d the ideal takes the lex-largest dim S_d - h(d) monomials;
    minimal generators are the chosen monomials not already forced by the
    previous degree's shadow.
    """
    if h.horizon is not None:
        raise ValueError("builder expects a complete Artinian h-vector")
    violation = o_sequence_violation(h)
    if violation is not None:
        d, bound, value = violation
        raise NotOSequenceError(
            f"not an O-sequence: bound {bound} < {value} at degree {d}",
            d, bound, value,
        )
    if not h.values:
        raise ValueError("empty h-vector")
    if h.at(1) > n:
        raise ValueError(f"h(1) = {h.at(1)} exceeds variable count {n}")

    gens: list[Monomial] = []
    prev_segment: set[Monomial] = set()
    for d in range(1, h.top + 2):
        monos = monomials_of_degree(n, d)
        size = len(monos) - h.at(d)
        assert 0 <= size <= len(monos), "h-vector exceeds ring dimension"
        segment = set(monos[:size])
        forced = _shadow(n, prev_segment)
        assert forced <= segment, "shadow violation: impossible for an O-sequence"
        gens.extend(m for m in monos[:size] if m not in forced)
        prev_segment = segment
    return MonomialIdeal.from_gens(n, gens)
