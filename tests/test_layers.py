import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from liaison import cli, hilbert, layers, monomials
from liaison.hilbert import HVector, hilbert_function, hilbert_numerator, lex_ideal_from_hvector
from liaison.layers import (
    DecompositionError,
    LayerDecomposition,
    decompose,
    hf_via_layers,
    layer_hvectors,
)
from liaison.monomials import Monomial, MonomialIdeal, is_borel_fixed, variable
from timing import budget


def recompose(D: LayerDecomposition) -> MonomialIdeal:
    """Sum of x_1^j * (I_j extended to the full ring), minimalized; the
    layers must form a chain."""
    if not D.chain_holds():
        raise DecompositionError("layer chain violated")
    return layers._layer_sum(D)


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

    def test_work_is_once_per_distinct_layer(self, tmp_path, capsys, monkeypatch):
        # (x1^2000, x2^3) has 2001 layers but only two distinct ones: the
        # checks of ``decompose`` and the h-vectors of ``analyze`` visit
        # each once, and the output still has one line per layer.
        calls = {}

        def counting(name, real):
            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)
            return wrapper

        for name in ("is_artinian", "is_borel_fixed", "hilbert_function_artinian"):
            for module in (monomials, hilbert, layers, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        path = tmp_path / "long.json"
        path.write_text('{"schema": "ideal/1", "n": 2, "gens": [[2000, 0], [0, 3]]}')
        assert cli.main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4 + 2001
        assert out[4] == out[2003].replace("I_1999", "I_0") == "  I_0: (x1^3)  h = (1,1,1)"
        assert out[-1] == "  I_2000: (1)  h = (unit)"
        distinct = 2
        assert set(calls) == {"is_artinian", "is_borel_fixed", "hilbert_function_artinian"}
        assert all(count <= distinct + 4 for count in calls.values()), calls

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


class TestNumeratorIdentity:
    """The layer recursion is one identity of Hilbert-series numerators:
    ``D.numerator`` equals the numerator of S/J itself."""

    def test_criterion_5_ideals(self, borel_ideals):
        t0 = time.time()
        for J in borel_ideals:
            assert decompose(J).numerator == hilbert_numerator(J), J
        budget(f"layer numerators of {len(borel_ideals)} Borel ideals", time.time() - t0, 20)

    def test_non_borel_ideals(self, non_borel_ideals):
        for J in non_borel_ideals:
            assert decompose(J).numerator == hilbert_numerator(J), J

    def test_non_artinian_ideals(self):
        rng = random.Random(27)
        checked = 0
        while checked < 200:
            J = random_ideal(rng, rng.randint(2, 5))
            if monomials.is_artinian(J):
                continue
            assert decompose(J).numerator == hilbert_numerator(J), J
            checked += 1

    @pytest.mark.parametrize("J", [
        MonomialIdeal.zero(1), MonomialIdeal.unit(1), ideal(1, (1,)), ideal(1, (7,)),
        MonomialIdeal.zero(3), MonomialIdeal.unit(3),
    ], ids=str)
    def test_one_variable_and_degenerate(self, J):
        assert decompose(J).numerator == hilbert_numerator(J)

    def test_decompose_proves_borel_layers_once(self, monkeypatch):
        # The layers' numerators reuse the proof ``decompose`` made, and a
        # decomposition built by hand, with no proof, tests its layers and
        # gets the same numerators.
        J = lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3)
        D = decompose(J)
        tested = []
        monkeypatch.setattr(hilbert, "is_borel_fixed", lambda I: tested.append(I) or True)
        proven = D.numerators
        assert tested == []
        bare = LayerDecomposition(J, D.alpha, D.layers)
        assert bare == D
        assert bare.numerators == proven
        assert len(tested) == len({id(I) for I in D.layers if not I.is_unit})
        assert bare.numerator == D.numerator == hilbert_numerator(J)

    def test_equal_layers_that_are_not_one_object(self):
        # Runs are read by identity; equal copies are separate runs and
        # give the same numerator.
        J = ideal(3, (4, 0, 0), (2, 1, 0), (0, 2, 0), (0, 1, 3), (1, 0, 2))
        D = decompose(J)
        copies = tuple(MonomialIdeal(I.n, I.gens) for I in D.layers)
        bare = LayerDecomposition(J, D.alpha, copies)
        assert len(bare.runs()) == D.alpha + 1 > len(D.runs())
        assert bare.numerators == D.numerators
        assert bare.numerator == D.numerator == hilbert_numerator(J)
        assert recompose(bare) == J

    def test_hf_via_layers_outside_the_value_table(self):
        for J in (ideal(3, (2, 0, 0), (1, 1, 0), (0, 0, 2)),
                  lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3),
                  ideal(2, (3, 1)), ideal(1, (4,))):
            D = decompose(J)
            far = len(D.numerator) + J.n + 5
            direct = hilbert_function(J, far)
            assert [hf_via_layers(D, s) for s in range(-3, 0)] == [0, 0, 0]
            assert [hf_via_layers(D, s) for s in range(far + 1)] == list(direct.values)
