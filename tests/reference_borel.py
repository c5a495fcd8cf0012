"""The enumeration of Borel-fixed ideals on frozensets of ``Monomial``
objects, as ``monomials.enumerate_borel_ideals`` did it before it moved to
bitmasks of positions: kept as the independent reference of that
function's sequence, order included (``test_monomials.py``)."""
from functools import lru_cache
from typing import Iterator

from liaison.monomials import (
    Monomial,
    MonomialIdeal,
    monomials_of_degree,
    variable,
)


def borel_moves(m: Monomial) -> Iterator[Monomial]:
    """All monomials (x_j / x_i) * m with j < i and x_i dividing m."""
    for i in m.support:
        for j in range(i):
            exps = list(m.exps)
            exps[i] -= 1
            exps[j] += 1
            yield Monomial(tuple(exps))


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


def reference_borel_ideals(n: int, maxdeg: int) -> Iterator[MonomialIdeal]:
    """All nonzero Borel-fixed ideals in n variables whose minimal
    generators have degree at most maxdeg, in the enumeration's order."""

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
