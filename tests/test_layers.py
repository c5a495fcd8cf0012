import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from liaison.hilbert import HVector, hilbert_function, lex_ideal_from_hvector
from liaison.layers import (
    DecompositionError,
    LayerDecomposition,
    decompose,
    hf_via_layers,
    layer_hvectors,
    recompose,
)
from liaison.monomials import Monomial, MonomialIdeal, is_borel_fixed, variable
from timing import budget


def ideal(n, *gens):
    return MonomialIdeal.from_gens(n, [Monomial(tuple(g)) for g in gens])


def random_ideal(rng, n, max_gens=6, max_deg=5):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exps = [0] * n
        for _ in range(rng.randint(1, max_deg)):
            exps[rng.randrange(n)] += 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal.from_gens(n, gens)


class TestDecompose:
    def test_worked_example_table(self):
        J = lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3)
        D = decompose(J)
        assert D.alpha == 4
        rows = [tuple(h.values) for h in layer_hvectors(D)]
        assert rows == [(1, 2, 3, 4, 4, 2), (1, 2, 3), (1, 2), (1,)]
        assert D.layers[4].is_unit

    def test_layers_are_colon_restrictions(self):
        J = ideal(3, (2, 0, 0), (1, 1, 0), (0, 0, 2))
        D = decompose(J)
        assert D.alpha == 2
        assert D.layers[0] == ideal(2, (0, 2))
        assert D.layers[1] == ideal(2, (1, 0), (0, 2))
        assert D.layers[2].is_unit

    def test_chain_and_roundtrip(self):
        rng = random.Random(5)
        for _ in range(25):
            J = random_ideal(rng, 3)
            D = decompose(J)
            assert D.chain_holds()
            assert recompose(D) == J

    def test_chain_checked_once(self, monkeypatch):
        calls = []
        real = LayerDecomposition.chain_holds
        monkeypatch.setattr(LayerDecomposition, "chain_holds",
                            lambda D: calls.append(D) or real(D))
        J = lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3)
        decompose(J)
        assert len(calls) == 1

    def test_recompose_rejects_broken_chain(self):
        bad = LayerDecomposition(
            ideal(2, (1, 0)),
            1,
            (ideal(1, (1,)), MonomialIdeal.zero(1)),
        )
        with pytest.raises(DecompositionError):
            recompose(bad)


def colon_restrict_layers(J):
    """The layers by their definition, (J : x1^j) restricted to x2..xn."""
    n = J.n
    alpha = max((g.exps[0] for g in J.gens), default=0)
    return tuple(J.colon(variable(n, 0, j)).restrict(range(1, n)) for j in range(alpha + 1))


class TestLayersOffGenerators:
    """``decompose`` reads the layers off J's minimal generators; the
    reference computes each by a colon and a restriction."""

    def test_criterion_5_ideals(self, borel_ideals):
        t0 = time.time()
        for J in borel_ideals:
            assert decompose(J).layers == colon_restrict_layers(J), J
        budget(f"layers of {len(borel_ideals)} Borel ideals against colon + restrict",
               time.time() - t0, 30)

    def test_random_non_borel_ideals(self):
        rng = random.Random(24)
        checked = 0
        t0 = time.time()
        while checked < 300:
            J = random_ideal(rng, rng.randint(2, 5))
            if is_borel_fixed(J):
                continue
            assert decompose(J).layers == colon_restrict_layers(J), J
            checked += 1
        budget("layers of 300 non-Borel ideals against colon + restrict", time.time() - t0, 5)

    @pytest.mark.parametrize("J", [
        MonomialIdeal.zero(3), MonomialIdeal.unit(3), MonomialIdeal.zero(1),
        MonomialIdeal.unit(1), ideal(1, (4,)), ideal(2, (0, 3)), ideal(3, (0, 1, 0)),
    ], ids=str)
    def test_degenerate_and_one_variable_ideals(self, J):
        assert decompose(J).layers == colon_restrict_layers(J)

    def test_no_variable_is_refused(self):
        with pytest.raises(ValueError, match="at least one variable"):
            decompose(MonomialIdeal.zero(0))


class TestHilbertRecursion:
    def test_matches_direct_count_fixture(self):
        J = lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3)
        D = decompose(J)
        direct = hilbert_function(J, 8)
        for s in range(9):
            assert hf_via_layers(D, s) == direct.at(s)

    @given(st.integers(0, 2 ** 30), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_count_random(self, seed, n):
        rng = random.Random(seed)
        J = random_ideal(rng, n)
        D = decompose(J)
        dmax = J.max_gen_degree + 2
        direct = hilbert_function(J, dmax)
        for s in range(dmax + 1):
            assert hf_via_layers(D, s) == direct.at(s)
