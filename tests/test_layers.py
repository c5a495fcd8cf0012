import random

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
from liaison.monomials import Monomial, MonomialIdeal, variable


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
