"""Hilbert functions, Macaulay growth bounds and the lex-segment builder."""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .monomials import (
    Monomial,
    MonomialIdeal,
    monomials_of_degree,
    standard_monomials,
    variable,
)


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


def hilbert_function(J: MonomialIdeal, dmax: int) -> HVector:
    """h(d) = number of degree-d standard monomials, 0 <= d <= dmax."""
    values = [len(standard_monomials(J, d)) for d in range(dmax + 1)]
    return HVector.truncated(values, dmax)


def hilbert_function_artinian(J: MonomialIdeal) -> HVector:
    """Full h-vector of an Artinian ideal (finite by assumption)."""
    values = []
    d = 0
    while True:
        c = len(standard_monomials(J, d))
        if c == 0:
            break
        values.append(c)
        d += 1
        if d > J.max_gen_degree + J.n + 1:
            raise ValueError(f"{J} is not Artinian: h-vector does not terminate")
    return HVector.artinian(values)


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


def is_o_sequence(h: HVector) -> bool:
    return o_sequence_violation(h) is None


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


def is_k_differentiable(h: HVector, k: int) -> bool:
    """h and its first k differences are all (non-negative) O-sequences."""
    cur = h
    for step in range(k + 1):
        if not is_o_sequence(cur):
            return False
        if step == k:
            break
        try:
            cur = difference(cur, 1)
        except NotDifferentiableError:
            return False
    return True


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
