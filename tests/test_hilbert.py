import random
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from timing import budget

from liaison.hilbert import (
    _ek_numerator,
    _pivot_numerator,
    HorizonError,
    HVector,
    NotDifferentiableError,
    NotOSequenceError,
    difference,
    hilbert_function,
    hilbert_function_artinian,
    hilbert_numerator,
    hilbert_value,
    hilbert_values,
    lex_ideal_from_hvector,
    macaulay_bound,
    macaulay_representation,
    o_sequence_violation,
    partial_sum,
)
from liaison.layers import decompose, hf_via_layers
from liaison.monomials import Monomial, MonomialIdeal


def ideal(n, *gens):
    return MonomialIdeal.from_gens(n, [Monomial(tuple(g)) for g in gens])


def is_o_sequence(h: HVector) -> bool:
    return o_sequence_violation(h) is None


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


def enumerated_hilbert_function(J, dmax):
    """Reference count of the degree-d monomials outside J, d <= dmax.

    Grows the standard monomials of degree d + 1 as the multiples x_i * m
    of those of degree d that stay outside J: a divisor of a monomial
    outside J is outside J.
    """
    gens = [g.exps for g in J.gens]
    layer = set() if J.is_unit else {(0,) * J.n}
    values = []
    for _ in range(dmax + 1):
        values.append(len(layer))
        layer = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in layer for i in range(J.n)}
        layer = {m for m in layer
                 if not any(all(a <= b for a, b in zip(g, m)) for g in gens)}
    return tuple(values)


def pivot_values(J, dmax):
    """h(0..dmax) from Bigatti's pivot recursion, whatever the ideal."""
    num = _pivot_numerator([g.exps for g in J.gens])
    return tuple(hilbert_value(num, J.n, d) for d in range(dmax + 1))


class TestClosedForms:
    def test_eliahou_kervaire_matches_pivot_recursion(self, borel_ideals):
        # Equal numerators give equal Hilbert functions in every degree,
        # past max degree + 10 and any other horizon.
        t0 = time.time()
        assert len(borel_ideals) == 9686
        for J in borel_ideals:
            pivot = _pivot_numerator([g.exps for g in J.gens])
            while pivot[-1] == 0:
                pivot.pop()
            assert hilbert_numerator(J) == tuple(pivot), J
        budget("Eliahou-Kervaire against the pivot recursion", time.time() - t0, 15)

    def test_borel_sample_matches_enumeration(self, borel_ideals):
        t0 = time.time()
        for J in random.Random(11).sample(borel_ideals, 300):
            dmax = J.max_gen_degree + 4
            want = enumerated_hilbert_function(J, dmax)
            assert hilbert_function(J, dmax).values == want, J
            assert pivot_values(J, dmax) == want, J
        budget("300 Borel ideals against enumeration", time.time() - t0, 4)

    def test_non_borel_sample_matches_enumeration(self, non_borel_ideals):
        t0 = time.time()
        for J in non_borel_ideals:
            dmax = J.max_gen_degree + 4
            want = enumerated_hilbert_function(J, dmax)
            assert hilbert_function(J, dmax).values == want, J
            D = decompose(J)
            assert tuple(hf_via_layers(D, s) for s in range(dmax + 1)) == want, J
        budget("300 non-Borel ideals against enumeration", time.time() - t0, 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_unit_and_zero_ideals(self, n):
        assert hilbert_numerator(MonomialIdeal.unit(n)) == ()
        assert hilbert_function(MonomialIdeal.unit(n), 4).values == (0,) * 5
        assert hilbert_function_artinian(MonomialIdeal.unit(n)).values == ()
        assert hilbert_numerator(MonomialIdeal.zero(n)) == (1,)
        assert (hilbert_function(MonomialIdeal.zero(n), 6).values
                == enumerated_hilbert_function(MonomialIdeal.zero(n), 6))

    def test_no_variables(self):
        assert hilbert_function(MonomialIdeal.zero(0), 3).values == (1, 0, 0, 0)
        assert hilbert_function_artinian(MonomialIdeal.zero(0)).values == (1,)

    @pytest.mark.parametrize("a", [1, 2, 5])
    def test_one_variable(self, a):
        J = ideal(1, (a,))
        assert hilbert_numerator(J) == (1,) + (0,) * (a - 1) + (-1,)
        assert hilbert_function(J, a + 3).values == (1,) * a + (0,) * 4
        assert hilbert_function_artinian(J).values == (1,) * a

    def test_artinian_past_generator_degree_plus_n(self):
        # The socle of (x1^5, x2^5) sits in degree 8 > 5 + 2.
        J = ideal(2, (5, 0), (0, 5))
        assert hilbert_function_artinian(J).values == (1, 2, 3, 4, 5, 4, 3, 2, 1)
        assert hilbert_function_artinian(J).values == enumerated_hilbert_function(J, 8)


def binomial_sum(numerator, n, d):
    """h(d) = sum_k N_k * C(d - k + n - 1, n - 1) written out; N_d for n = 0."""
    if n == 0:
        return numerator[d] if d < len(numerator) else 0
    return sum(c * comb(d - k + n - 1, n - 1) for k, c in enumerate(numerator) if k <= d)


class TestRunningSums:
    @pytest.mark.parametrize("n", range(6))
    def test_values_are_the_binomial_sums(self, n):
        rng = random.Random(100 + n)
        for _ in range(200):
            num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 8)))
            length = rng.randint(0, 14)
            want = [binomial_sum(num, n, d) for d in range(length)]
            assert hilbert_values(num, n, length) == want, (num, n)
            assert [hilbert_value(num, n, d) for d in range(length)] == want, (num, n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_hilbert_function_is_the_binomial_sum(self, n):
        rng = random.Random(200 + n)
        for _ in range(40):
            gens = []
            for _ in range(rng.randint(1, 5)):
                exps = [0] * n
                for _ in range(rng.randint(1, 5)):
                    exps[rng.randrange(n)] += 1
                gens.append(Monomial(tuple(exps)))
            J = MonomialIdeal.from_gens(n, gens)
            num = hilbert_numerator(J)
            dmax = J.max_gen_degree + n + 2
            assert hilbert_function(J, dmax).values == tuple(
                binomial_sum(num, n, d) for d in range(dmax + 1)), J

    def test_eliahou_kervaire_needs_no_test_of_its_own(self, borel_ideals):
        # ``decompose`` proves layers Borel-fixed and calls the formula
        # directly; on a Borel-fixed ideal it is ``hilbert_numerator``.
        for J in borel_ideals[::7]:
            assert _ek_numerator(J) == hilbert_numerator(J), J
        assert _ek_numerator(MonomialIdeal.unit(3)) == ()
        assert _ek_numerator(MonomialIdeal.zero(0)) == (1,)
