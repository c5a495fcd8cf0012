"""The x1-layer decomposition J = sum_j x1^j * (I_j * S) and the Hilbert
function recursion it induces.

The layers are read off J's minimal generators g: I_j, the restriction of
J : x1^j to k[x2..xn], is generated by the g with g_1 <= j, x1 dropped.
J : x1^j is generated by the g / gcd(g, x1^j); those with g_1 <= j are
free of x1, the others keep a power of it, and a monomial ideal meets
k[x2..xn] in the ideal of its x1-free generators."""
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

# Most layers ``decompose`` builds: one per power of x1 up to the largest
# in a generator, so (x1^a, ...) has a + 1 of them.
LAYER_LIMIT = 10**5


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
    subring on x_2..x_n, read off the minimal generators g of J.

    I_j is generated by the g / x_1^(g_1) with g_1 <= j: J : x_1^j is
    generated by the g / gcd(g, x_1^j), which are free of x_1 exactly when
    g_1 <= j, and a monomial ideal meets k[x_2..x_n] in the ideal of its
    x_1-free generators.  One sweep by x_1-exponent builds the chain: I_j
    is I_{j-1} plus the images of the g with g_1 = j, minimalized.  More
    than LAYER_LIMIT layers is a ValueError, raised before any is built.
    """
    n = J.n
    if n < 1:
        raise ValueError("a layer decomposition needs at least one variable")
    alpha = max((g.exps[0] for g in J.gens), default=0)
    if alpha + 1 > LAYER_LIMIT:
        raise ValueError(f"{alpha + 1} layers along x1, more than LAYER_LIMIT = {LAYER_LIMIT}")
    images: dict[int, list[Monomial]] = {}
    for g in J.gens:
        images.setdefault(g.exps[0], []).append(Monomial(g.exps[1:]))
    layer = MonomialIdeal.zero(n - 1)
    layers = []
    for j in range(alpha + 1):
        if j in images:
            layer = MonomialIdeal.from_gens(n - 1, layer.gens + tuple(images[j]))
        layers.append(layer)
    D = LayerDecomposition(J, alpha, tuple(layers))
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
