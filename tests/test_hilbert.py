import pytest
from hypothesis import given, settings, strategies as st

from liaison.hilbert import (
    HorizonError,
    HVector,
    NotDifferentiableError,
    NotOSequenceError,
    difference,
    hilbert_function,
    hilbert_function_artinian,
    is_k_differentiable,
    is_o_sequence,
    lex_ideal_from_hvector,
    macaulay_bound,
    macaulay_representation,
    o_sequence_violation,
    partial_sum,
)
from liaison.monomials import MonomialIdeal, Monomial, monomials_of_degree


def ideal(n, *gens):
    return MonomialIdeal.from_gens(n, [Monomial(tuple(g)) for g in gens])


class TestHVector:
    def test_artinian_at(self):
        h = HVector.artinian((1, 3, 2))
        assert h.at(-1) == 0
        assert h.at(1) == 3
        assert h.at(10) == 0  # complete: zero past the top

    def test_truncated_horizon_guard(self):
        h = HVector.truncated((1, 3, 6), 2)
        assert h.at(2) == 6
        with pytest.raises(HorizonError):
            h.at(3)

class TestMacaulay:
    def test_representation_reconstructs(self):
        from math import comb

        for d in (1, 2, 3, 4):
            for v in range(1, 40):
                rep = macaulay_representation(v, d)
                assert sum(comb(a, i) for a, i in rep) == v
                # strictly decreasing tops
                tops = [a for a, _ in rep]
                assert tops == sorted(tops, reverse=True)

    def test_bound_examples(self):
        assert macaulay_bound(3, 1) == 6  # 3 points in degree 1
        assert macaulay_bound(1, 1) == 1
        assert macaulay_bound(0, 3) == 0

    def test_o_sequence_fixture(self):
        assert is_o_sequence(HVector.artinian((1, 3, 6, 10, 4, 2)))
        violation = o_sequence_violation(HVector.artinian((1, 2, 5)))
        assert violation == (2, 3, 5)

    def test_first_entry_must_be_one(self):
        assert not is_o_sequence(HVector.artinian((2, 1)))


class TestDifference:
    def test_difference_partial_sum_inverse(self):
        h = HVector.artinian((1, 3, 6, 10, 4, 2))
        H = partial_sum(h, 2, 9)
        back = difference(H, 2)
        want = h.values + (0,) * (len(back.values) - len(h.values))
        assert back.values == want[: len(back.values)]

    def test_difference_rejects_negative(self):
        with pytest.raises(NotDifferentiableError):
            difference(HVector.artinian((1, 3, 1, 3)), 1)

    def test_k_differentiable(self):
        h = HVector.artinian((1, 2, 3, 2))
        assert is_k_differentiable(partial_sum(h, 1, 8), 1)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_sum_then_difference_identity(self, tail):
        h = HVector.artinian(tuple([1] + tail))
        H = partial_sum(h, 1, len(h.values) + 3)
        back = difference(H, 1)
        want = h.values + (0,) * (len(back.values) - len(h.values))
        assert back.values == want[: len(back.values)]


class TestHilbertFunctions:
    def test_artinian_hf(self):
        J = ideal(2, (2, 0), (1, 1), (0, 3))
        assert hilbert_function_artinian(J).values == (1, 2, 1)

    def test_truncated_hf(self):
        J = ideal(2, (3, 0),)
        h = hilbert_function(J, 5)
        assert h.values == (1, 2, 3, 3, 3, 3)
        assert h.horizon == 5

    def test_artinian_hf_requires_artinian(self):
        with pytest.raises(ValueError):
            hilbert_function_artinian(ideal(2, (2, 0)))


class TestLexBuilder:
    def test_worked_h_vector(self):
        h = HVector.artinian((1, 3, 6, 10, 4, 2))
        J = lex_ideal_from_hvector(h, 3)
        assert hilbert_function_artinian(J) == h
        from liaison.monomials import is_borel_fixed, is_lex_segment

        assert is_lex_segment(J)
        assert is_borel_fixed(J)

    def test_h_one_gives_maximal_ideal(self):
        J = lex_ideal_from_hvector(HVector.artinian((1,)), 2)
        assert J == ideal(2, (1, 0), (0, 1))

    def test_rejects_non_o_sequence(self):
        with pytest.raises(NotOSequenceError) as exc:
            lex_ideal_from_hvector(HVector.artinian((1, 2, 5)), 3)
        assert exc.value.degree == 2
        assert exc.value.bound == 3
        assert exc.value.value == 5

    def test_rejects_too_few_variables(self):
        with pytest.raises(ValueError):
            lex_ideal_from_hvector(HVector.artinian((1, 4, 2)), 3)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_bounded_sequences_build(self, data):
        n = data.draw(st.integers(2, 3))
        values = [1, n]
        for d in range(1, 4):
            bound = macaulay_bound(values[d], d)
            nxt = data.draw(st.integers(0, min(bound, 8)))
            values.append(nxt)
            if nxt == 0:
                break
        while values and values[-1] == 0:
            values.pop()
        h = HVector.artinian(tuple(values))
        J = lex_ideal_from_hvector(h, n)
        assert hilbert_function_artinian(J) == h
