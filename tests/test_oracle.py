import random

import numpy as np
import pytest

from liaison.hilbert import difference, hilbert_function
from liaison.monomials import Monomial, MonomialIdeal, monomials_of_degree
from liaison.oracle import (
    DEFAULT_PRIME,
    colon_stability_failure,
    containment_failure,
    graded_dim,
    hilbert_oracle,
    ideals_equal_up_to,
    linear_form_poly,
    poly_degree,
    poly_from_json,
    poly_mul,
    poly_to_json,
    rank_mod_p,
    ring_dim,
    stable_value,
)

P = DEFAULT_PRIME


def ideal(n, *gens):
    return MonomialIdeal.from_gens(n, [Monomial(tuple(g)) for g in gens])


def monomial_polys(J):
    return [{g.exps: 1} for g in J.gens]


class TestPolyArithmetic:
    def test_degree_homogeneous_only(self):
        with pytest.raises(ValueError):
            poly_degree({(1, 0): 1, (2, 0): 1})

    def test_mul_and_add(self):
        x = {(1, 0): 1}
        y = {(0, 1): 1}
        assert poly_mul(x, y, None) == {(1, 1): 1}
        # (x + y)(x - y): the two xy terms add up to zero and are dropped
        x_plus_y = {(1, 0): 1, (0, 1): 1}
        x_minus_y = {(1, 0): 1, (0, 1): -1}
        assert poly_mul(x_plus_y, x_minus_y, None) == {(2, 0): 1, (0, 2): -1}

    def test_linear_form(self):
        f = linear_form_poly((2, 0, 5))
        assert f == {(1, 0, 0): 2, (0, 0, 1): 5}
        assert poly_degree(f) == 1

    def test_json_roundtrip(self):
        f = {(2, 1): 3, (0, 3): 1}
        assert poly_from_json(poly_to_json(f)) == f


class TestRank:
    def test_rank_identity(self):
        assert rank_mod_p(np.eye(4, dtype=np.int64), P) == 4

    def test_rank_dependent_rows(self):
        M = np.array([[1, 2], [2, 4], [0, 1]], dtype=np.int64)
        assert rank_mod_p(M, P) == 2

    def test_rank_mod_p_differs_from_rational(self):
        # 5 is 0 mod 5, so the matrix [[5]] has rank 0 over F_5.
        assert rank_mod_p(np.array([[5]], dtype=np.int64), 5) == 0

    def test_random_matches_numpy_rational_rank(self):
        rng = random.Random(3)
        for _ in range(20):
            M = np.array(
                [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)],
                dtype=np.int64,
            )
            assert rank_mod_p(M, P) == np.linalg.matrix_rank(M)


class TestGradedDims:
    def test_ring_dim(self):
        assert ring_dim(3, 2) == 6
        assert ring_dim(3, -1) == 0

    def test_monomial_ideal_matches_combinatorics(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(2, 3)
            gens = []
            for _ in range(rng.randint(1, 4)):
                exps = [0] * n
                for _ in range(rng.randint(1, 4)):
                    exps[rng.randrange(n)] += 1
                gens.append(Monomial(tuple(exps)))
            J = MonomialIdeal.from_gens(n, gens)
            polys = monomial_polys(J)
            direct = hilbert_function(J, 6)
            oracle = hilbert_oracle(polys, 6, n, P)
            assert oracle.values == direct.values

    def test_hilbert_oracle_is_truncated(self):
        h = hilbert_oracle(monomial_polys(ideal(2, (2, 0))), 4, 2, P)
        assert h.horizon == 4


class TestContainmentAndColon:
    def test_containment_direction(self):
        A = monomial_polys(ideal(2, (2, 0)))
        B = monomial_polys(ideal(2, (1, 0)))
        assert containment_failure(A, B, 5, 2, P) is None
        assert containment_failure(B, A, 5, 2, P) == 1

    def test_equality_with_different_generators(self):
        A = monomial_polys(ideal(2, (1, 0)))
        B = [{(1, 0): 1}, {(2, 0): 1}, {(1, 1): 4}]
        assert ideals_equal_up_to(A, B, 5, 2, P)

    def test_colon_stability(self):
        # x2 is a nonzerodivisor on k[x1,x2]/(x1^2)
        I = monomial_polys(ideal(2, (2, 0)))
        assert colon_stability_failure(I, {(0, 1): 1}, 5, 2, P) is None
        # x1 is not: (x1^2) : x1 = (x1)
        assert colon_stability_failure(I, {(1, 0): 1}, 5, 2, P) == 1


class TestStableValues:
    def test_stable_value_requires_plateau(self):
        from liaison.hilbert import HVector

        assert stable_value(HVector.truncated((1, 3, 4, 4), 3)) == 4
        with pytest.raises(ValueError, match="increase dmax"):
            stable_value(HVector.truncated((1, 3, 4, 5), 3))

    def test_scheme_degree_of_points(self):
        # three points on a line: (x1 * (x1 - x2) * (x1 - 2 x2)) in P^1
        f = {(3, 0): 1, (2, 1): -3, (1, 2): 2}
        # the scheme degree is the stable value of the dim-th difference
        assert stable_value(difference(hilbert_oracle([f], 6, 2, P), 0)) == 3

    def test_scheme_degree_of_hypersurface(self):
        # conic in P^2: dimension 1, degree 2
        f = {(2, 0, 0): 1, (0, 1, 1): -1}
        assert stable_value(difference(hilbert_oracle([f], 6, 3, P), 1)) == 2
