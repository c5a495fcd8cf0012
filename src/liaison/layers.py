"""The x1-layer decomposition J = sum_j x1^j * (I_j * S) and the Hilbert
function recursion it induces, which is one identity of Hilbert-series
numerators: N_J = sum_{j<alpha} t^j (1 - t) N_{I_j} + t^alpha N_{I_alpha}.

The layers are read off J's minimal generators g: I_j, the restriction of
J : x1^j to k[x2..xn], is generated by the g with g_1 <= j, x1 dropped.
J : x1^j is generated by the g / gcd(g, x1^j); those with g_1 <= j are
free of x1, the others keep a power of it, and a monomial ideal meets
k[x2..xn] in the ideal of its x1-free generators."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .hilbert import (
    _ek_numerator,
    hilbert_function_artinian,
    hilbert_numerator,
    hilbert_value,
    hilbert_values,
)
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
    n-1 variable subring on x_2..x_n (index shifted down by one).  Equal
    consecutive layers are usually one object, and the checks below visit
    each run of them once.
    """

    source: MonomialIdeal
    alpha: int
    layers: tuple[MonomialIdeal, ...]

    @property
    def n(self) -> int:
        return self.source.n

    def runs(self) -> list[tuple[int, MonomialIdeal]]:
        """(j, I_j) at the first j of each run of one layer object."""
        layers = self.layers
        return [(j, I) for j, I in enumerate(layers) if not j or I is not layers[j - 1]]

    def map_runs(self, f, stop: int | None = None) -> list:
        """[f(I_j) for j < stop], f called once per run of one layer object."""
        out: list = []
        layers = self.layers[:stop]
        for j, I in enumerate(layers):
            out.append(out[-1] if j and I is layers[j - 1] else f(I))
        return out

    @cached_property
    def numerators(self) -> tuple[tuple[int, ...], ...]:
        """Hilbert-series numerators of the layers, one per I_j, computed
        once per run.  Layers that ``decompose`` proved Borel-fixed take
        the Eliahou-Kervaire formula directly; any others go through
        ``hilbert_numerator``, which tests them first."""
        proven = self.__dict__.get("_borel_layers")
        return tuple(self.map_runs(_ek_numerator if proven else hilbert_numerator))

    @cached_property
    def numerator(self) -> tuple[int, ...]:
        """Numerator of the Hilbert series of S/J over (1 - t)^n, from the
        layers: sum_{j<alpha} t^j (1 - t) N_{I_j}(t) + t^alpha N_{I_alpha}(t),
        without trailing zeros.  Over a run of one layer I_j = ... = I_{k-1}
        below the last run the sum telescopes to (t^j - t^k) N_{I_j}, and the
        last run, from j to alpha, gives t^j N_{I_j}.  It equals
        ``hilbert_numerator(source)``: the layer recursion is this one
        identity of numerators."""
        nums = self.numerators
        starts = [j for j, _ in self.runs()]
        out = [0] * (self.alpha + 1 + max(map(len, nums)))
        for j, k in zip(starts, starts[1:] + [None]):
            for i, c in enumerate(nums[j], j):
                out[i] += c
            if k is not None:
                for i, c in enumerate(nums[j], k):
                    out[i] -= c
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    @cached_property
    def _values(self) -> list[int]:
        """h(0), ..., h(len(N) + n - 1) of S/J from ``numerator`` N by
        running sums."""
        return hilbert_values(self.numerator, self.n, len(self.numerator) + self.n)

    def chain_holds(self) -> bool:
        return all(I is prev or I.contains_ideal(prev)
                   for prev, I in zip(self.layers, self.layers[1:]))

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
    is I_{j-1} plus the images of the g with g_1 = j, minimalized, and the
    same object as I_{j-1} when there are none.  More than LAYER_LIMIT
    layers is a ValueError, raised before any is built.

    The checks below run once per distinct layer.  A Borel-fixed source
    has its layers proven Borel-fixed here, and the decomposition keeps
    that proof outside its fields, so ``numerators`` need not test again.
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
    distinct = [I for _, I in D.runs()]
    if is_artinian(J) and not J.is_unit:
        if not all(is_artinian(I) for I in distinct) or not layers[alpha].is_unit:
            raise DecompositionError("Artinian source must give Artinian layers")
    if is_borel_fixed(J) and not J.is_zero and not J.is_unit:
        if alpha != J.initial_degree():
            raise DecompositionError("Borel-fixed source: alpha != initial degree")
        if not layers[alpha].is_unit:
            raise DecompositionError("Borel-fixed source: I_alpha != (1)")
        if not all(is_borel_fixed(I) for I in distinct):
            raise DecompositionError("Borel-fixed source: layers not Borel-fixed")
        D.__dict__["_borel_layers"] = True
    return D


def _layer_sum(D: LayerDecomposition) -> MonomialIdeal:
    """Sum of the x_1^j * I_j at the first j of each run of a chain: a
    later j of the run gives multiples of these."""
    n = D.n
    gens: list[Monomial] = []
    for j, I in D.runs():
        xj = variable(n, 0, j) if j else None
        for g in I.pad(1).gens:
            gens.append(g * xj if xj else g)
    return MonomialIdeal.from_gens(n, gens)


def hf_via_layers(D: LayerDecomposition, s: int) -> int:
    """Hilbert function of S/J at degree s via the layer recursion:
    sum_j h_{T/I_j}(s - j) for j < alpha, plus h_{S/(I_alpha S)}(s - alpha).

    The recursion is one identity of Hilbert-series numerators: shifted by
    j, T/I_j's series N_{I_j} / (1 - t)^(n-1) is t^j (1 - t) N_{I_j} / (1 - t)^n,
    so h(s) is read off ``D.numerator`` over (1 - t)^n.  Each layer's
    numerator is exact (Eliahou-Kervaire 1990 on Borel-fixed layers,
    Bigatti 1997 on the others).  The first len(N) + n values come from
    running sums, once per decomposition; a degree past them is one
    ``hilbert_value``."""
    values = D._values
    if 0 <= s < len(values):
        return values[s]
    return hilbert_value(D.numerator, D.n, s)


def layer_hvectors(D: LayerDecomposition) -> list:
    """Full h-vectors of the Artinian layers I_0..I_{alpha-1} (the rows of
    the shifted layer table), computed once per run."""
    return D.map_runs(hilbert_function_artinian, D.alpha)
