"""The x1-layer decomposition J = sum_j x1^j * (I_j * S) and the Hilbert
function recursion it induces."""
from __future__ import annotations

from dataclasses import dataclass

from .monomials import (
    Monomial,
    MonomialIdeal,
    is_artinian,
    is_borel_fixed,
    standard_monomials,
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
    if recompose(D) != J:
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
    """Sum of x_1^j * (I_j extended to the full ring), minimalized."""
    if not D.chain_holds():
        raise DecompositionError("layer chain violated")
    n = D.n
    gens: list[Monomial] = []
    for j, I in enumerate(D.layers):
        xj = variable(n, 0, j) if j else None
        for g in I.extend_front(1).gens:
            gens.append(g * xj if xj else g)
    return MonomialIdeal.from_gens(n, gens)


def decompose_along(J: MonomialIdeal, k: int) -> LayerDecomposition:
    """Decompose along variable k (0-based) by re-indexing it to the front."""
    order = (k,) + tuple(i for i in range(J.n) if i != k)
    swapped = MonomialIdeal.from_gens(
        J.n, (Monomial(tuple(g.exps[i] for i in order)) for g in J.gens)
    )
    return decompose(swapped)


def hf_via_layers(D: LayerDecomposition, s: int) -> int:
    """Hilbert function of S/J at degree s via the layer recursion:
    sum_j h_{T/I_j}(s - j) for j < alpha, plus h_{S/(I_alpha S)}(s - alpha)."""
    total = 0
    for j in range(D.alpha):
        if s - j >= 0:
            total += len(standard_monomials(D.layers[j], s - j))
    if s - D.alpha >= 0:
        extended = D.layers[D.alpha].extend_front(1)
        total += len(standard_monomials(extended, s - D.alpha))
    return total


def layer_hvectors(D: LayerDecomposition) -> list:
    """Full h-vectors of the Artinian layers I_0..I_{alpha-1} (the rows of
    the shifted layer table)."""
    from .hilbert import hilbert_function_artinian

    return [hilbert_function_artinian(I) for I in D.layers[: D.alpha]]
