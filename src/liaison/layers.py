"""The x1-layer decomposition J = sum_j x1^j * (I_j * S) and the Hilbert
function recursion it induces."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .hilbert import hilbert_function_artinian, hilbert_numerator, hilbert_value
from .monomials import (
    Monomial,
    MonomialIdeal,
    is_artinian,
    is_borel_fixed,
    variable,
)


class DecompositionError(ValueError):
    """A structural guarantee of the layer decomposition failed."""


@dataclass(frozen=True)
class LayerDecomposition:
    """Layers I_0 <= I_1 <= ... <= I_alpha of a monomial ideal.

    ``source`` is the decomposed ideal in n variables; layers live in the
    n-1 variable subring on x_2..x_n (index shifted down by one).
    """

    source: MonomialIdeal
    alpha: int
    layers: tuple[MonomialIdeal, ...]

    @property
    def n(self) -> int:
        return self.source.n

    @cached_property
    def numerators(self) -> tuple[tuple[int, ...], ...]:
        """Hilbert-series numerators of the layers, one per I_j."""
        return tuple(hilbert_numerator(I) for I in self.layers)

    def chain_holds(self) -> bool:
        return all(
            self.layers[j + 1].contains_ideal(self.layers[j])
            for j in range(self.alpha)
        )

    def to_json(self) -> dict:
        return {
            "schema": "layers/1",
            "alpha": self.alpha,
            "source": self.source.to_json(),
            "layers": [I.to_json() for I in self.layers],
        }


def decompose(J: MonomialIdeal) -> LayerDecomposition:
    """Layer decomposition along x_1: I_j = (J : x_1^j) restricted to the
    subring on x_2..x_n."""
    n = J.n
    alpha = max((g.exps[0] for g in J.gens), default=0)
    rest = tuple(range(1, n))
    layers = tuple(
        J.colon(variable(n, 0, j)).restrict(rest) for j in range(alpha + 1)
    )
    D = LayerDecomposition(J, alpha, layers)
    if not D.chain_holds():
        raise DecompositionError("layer chain I_0 <= ... <= I_alpha violated")
    if _layer_sum(D) != J:
        raise DecompositionError("recomposition does not reproduce the ideal")
    if is_artinian(J) and not J.is_unit:
        if not all(is_artinian(I) for I in layers) or not layers[alpha].is_unit:
            raise DecompositionError("Artinian source must give Artinian layers")
    if is_borel_fixed(J) and not J.is_zero and not J.is_unit:
        if alpha != J.initial_degree():
            raise DecompositionError("Borel-fixed source: alpha != initial degree")
        if not layers[alpha].is_unit:
            raise DecompositionError("Borel-fixed source: I_alpha != (1)")
        if not all(is_borel_fixed(I) for I in layers):
            raise DecompositionError("Borel-fixed source: layers not Borel-fixed")
    return D


def recompose(D: LayerDecomposition) -> MonomialIdeal:
    """Sum of x_1^j * (I_j extended to the full ring), minimalized; the
    layers must form a chain."""
    if not D.chain_holds():
        raise DecompositionError("layer chain violated")
    return _layer_sum(D)


def _layer_sum(D: LayerDecomposition) -> MonomialIdeal:
    n = D.n
    gens: list[Monomial] = []
    for j, I in enumerate(D.layers):
        xj = variable(n, 0, j) if j else None
        for g in I.extend_front(1).gens:
            gens.append(g * xj if xj else g)
    return MonomialIdeal.from_gens(n, gens)


def hf_via_layers(D: LayerDecomposition, s: int) -> int:
    """Hilbert function of S/J at degree s via the layer recursion:
    sum_j h_{T/I_j}(s - j) for j < alpha, plus h_{S/(I_alpha S)}(s - alpha).

    Each term is exact, sum_k N_k * C(d - k + m - 1, m - 1) with N from
    ``D.numerators`` (Eliahou-Kervaire 1990 on Borel-fixed layers, Bigatti
    1997 on the others), m = n - 1 in T and m = n for I_alpha * S."""
    n = D.n
    return sum(hilbert_value(num, n - 1 if j < D.alpha else n, s - j)
               for j, num in enumerate(D.numerators))


def layer_hvectors(D: LayerDecomposition) -> list:
    """Full h-vectors of the Artinian layers I_0..I_{alpha-1} (the rows of
    the shifted layer table)."""
    return [hilbert_function_artinian(I) for I in D.layers[: D.alpha]]
