import contextlib
import random

import numpy as np
import pytest

from liaison import oracle
from liaison.hilbert import difference, hilbert_function
from liaison.linkage import glicci_certificate_borel, verify_certificate
from liaison.monomials import Monomial, MonomialIdeal, monomials_of_degree
from liaison.oracle import (
    DEFAULT_PRIME,
    MAX_PRIME,
    MAX_WIDTH,
    _degree_rows,
    check_prime,
    check_dmax,
    colon_stability_failure,
    containment_failure,
    graded_dim,
    hilbert_oracle,
    ideals_equal_up_to,
    linear_form_poly,
    poly_degree,
    poly_mul,
    rank_mod_p,
    ring_dim,
    scope,
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


# --- agreement with ranks of stacked Macaulay matrices ----------------------

# The largest prime check_prime accepts: (p - 1)^2 is so close to 2^63 that
# the oracle's residual product is summed one term at a time.
BIG_P = 3_037_000_493


def ref_dim(gens, d, N, p):
    return rank_mod_p(_degree_rows(gens, d, N, p), p)


def ref_containment_failure(gensA, gensB, dmax, N, p):
    for d in range(dmax + 1):
        B = _degree_rows(gensB, d, N, p)
        A = _degree_rows(gensA, d, N, p)
        if A.shape[0] and rank_mod_p(np.vstack([B, A]), p) != rank_mod_p(B, p):
            return d
    return None


def ref_colon_failure(gens, f, dmax, N, p):
    df = poly_degree(f)
    for d in range(dmax + 1):
        big = _degree_rows(gens, d + df, N, p)
        multiples = _degree_rows([f], d + df, N, p)
        image = rank_mod_p(np.vstack([big, multiples]), p) - rank_mod_p(big, p)
        if ring_dim(N, d) - image != ref_dim(gens, d, N, p):
            return d
    return None


def random_form(rng, N, d, p):
    """At least two terms, so residual sums add several products."""
    monos = monomials_of_degree(N, d)
    terms = rng.sample(monos, rng.randint(2, len(monos)))
    return {m.exps: rng.randrange(1, p) for m in terms}


def random_pair(rng, p):
    """Generators of I and of an ideal inside I, equal to I, or unrelated."""
    N = rng.choice([3, 4])
    gens = [random_form(rng, N, rng.randint(1, 3), p) for _ in range(rng.randint(1, 3))]
    multiples = [poly_mul(g, random_form(rng, N, 1, p), p) for g in gens]
    other = rng.choice([
        multiples,
        gens[::-1] + multiples,
        [random_form(rng, N, rng.randint(1, 3), p) for _ in range(rng.randint(1, 3))],
    ])
    return N, gens, other


def test_largest_accepted_prime():
    assert check_prime(BIG_P) == BIG_P
    for q in range(BIG_P + 1, MAX_PRIME + 1):
        with pytest.raises(ValueError):
            check_prime(q)


def test_widest_accepted_horizon():
    # In two variables the degree-d Macaulay matrix has d + 1 columns.
    assert check_dmax(MAX_WIDTH - 1, 0, 2) == MAX_WIDTH - 1
    with pytest.raises(ValueError, match=f"{MAX_WIDTH + 1} columns"):
        check_dmax(MAX_WIDTH, 0, 2)


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("p,cases", [(DEFAULT_PRIME, 25), (BIG_P, 12)])
def test_oracle_agrees_with_stacked_ranks(p, cases, scoped):
    rng = random.Random(p)
    dmax = 4
    outcomes, equalities = set(), set()
    for _ in range(cases):
        N, gens, other = random_pair(rng, p)
        f = random_form(rng, N, rng.randint(1, 2), p)
        with scope() if scoped else contextlib.nullcontext():
            for _ in range(2):  # in a scope, the second round reads the cache
                for d in range(dmax + 1):
                    assert graded_dim(gens, d, N, p) == ref_dim(gens, d, N, p)
                for A, B in ((gens, other), (other, gens)):
                    got = containment_failure(A, B, dmax, N, p)
                    assert got == ref_containment_failure(A, B, dmax, N, p)
                    outcomes.add(got is None)
                equal = ideals_equal_up_to(gens, other, dmax, N, p)
                assert equal == (
                    ref_containment_failure(gens, other, dmax, N, p) is None
                    and ref_containment_failure(other, gens, dmax, N, p) is None)
                equalities.add(equal)
                assert (colon_stability_failure(gens, f, dmax, N, p)
                        == ref_colon_failure(gens, f, dmax, N, p))
    assert outcomes == equalities == {True, False}  # both answers occur


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("p", [DEFAULT_PRIME, BIG_P])
def test_failing_degrees_match_reference(p, scoped):
    x, y, z = {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}
    I = [poly_mul(x, x, p), poly_mul(x, y, p)]  # (x^2, xy)
    with scope() if scoped else contextlib.nullcontext():
        # (x^2, xy) : x = (x, y), bigger than I in degree 1
        assert colon_stability_failure(I, x, 4, 3, p) == 1
        assert ref_colon_failure(I, x, 4, 3, p) == 1
        assert colon_stability_failure(I, z, 4, 3, p) is None
        # (x) is not inside (x^2, xy) from degree 1; the other way holds
        assert containment_failure([x], I, 4, 3, p) == 1
        assert containment_failure(I, [x], 4, 3, p) is None
        # (x^2, xy, y^3) differs from I first in degree 3
        bigger = I + [poly_mul(y, poly_mul(y, y, p), p)]
        assert containment_failure(bigger, I, 4, 3, p) == 3
        assert ref_containment_failure(bigger, I, 4, 3, p) == 3
        assert not ideals_equal_up_to(bigger, I, 4, 3, p)
        assert ideals_equal_up_to(bigger, I, 2, 3, p)


# --- Macaulay matrix assembly and the monomial basis ----------------------

SQUARE = ideal(3, (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


@pytest.fixture
def degree_row_calls(monkeypatch):
    """Count the Macaulay matrices the oracle builds."""
    calls = []
    real = oracle._degree_rows

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(oracle, "_degree_rows", counting)
    return calls


def dict_degree_rows(gens, d, N, p):
    """Reference assembly, one row at a time: each term of each multiple
    is looked up in a dict from exponent vector to column."""
    index = {m.exps: k for k, m in enumerate(monomials_of_degree(N, d))}
    rows = []
    for g in gens:
        dg = poly_degree(g)
        if dg < 0 or dg > d:
            continue
        for mu in monomials_of_degree(N, d - dg):
            row = np.zeros(len(index), dtype=np.int64)
            for e, c in g.items():
                row[index[tuple(a + b for a, b in zip(e, mu.exps))]] = c % p
            rows.append(row)
    if not rows:
        return np.zeros((0, len(index)), dtype=np.int64)
    return np.vstack(rows)


def assert_same_rows(gens, d, N, p):
    got, want = _degree_rows(gens, d, N, p), dict_degree_rows(gens, d, N, p)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want), (gens, d, N, p)


def awkward_coefficient(rng, p):
    return rng.choice([rng.randrange(1, p), -rng.randrange(1, 2**70), 2**63 + rng.randrange(p),
                       2**64 * p, -p, 0])


@pytest.mark.parametrize("p", [DEFAULT_PRIME, BIG_P])
def test_assembly_matches_dict_reference(p):
    rng = random.Random(p + 1)
    for _ in range(40):
        N = rng.randint(3, 5)
        gens = []
        for _ in range(rng.randint(1, 4)):
            monos = monomials_of_degree(N, rng.randint(0, 3))
            terms = rng.sample(monos, rng.randint(1, len(monos)))
            gens.append({m.exps: awkward_coefficient(rng, p) for m in terms})
        for d in range(5):
            assert_same_rows(gens, d, N, p)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, BIG_P])
def test_assembly_in_seventy_variables(p):
    # Read as digits in base d + 1, a degree-1 exponent vector needs 70
    # bits, past int64; the column is its rank in lex order instead.
    rng = random.Random(70)
    forms = [{m.exps: awkward_coefficient(rng, p) for m in rng.sample(
        monomials_of_degree(70, 1), 5)} for _ in range(3)]
    assert_same_rows(forms + [{(0,) * 70: 3}], 1, 70, p)
    assert_same_rows(forms, 2, 70, p)


def monomial_basis_cases():
    yield [], 3, 3                                         # zero ideal
    yield [{(0, 0, 0): 5}], 2, 3                           # unit ideal
    yield monomial_polys(SQUARE), 3, 3
    yield [{(3, 0, 0): 2}, {(1, 2, 0): -1}, {(0, 1, 2): 7}], 4, 3
    yield [{(2, 0, 1, 0): 1}, {(0, 0, 0, 3): 1}, {(0, 2, 2, 0): 4}], 5, 4


@pytest.mark.parametrize("p", [DEFAULT_PRIME, BIG_P])
def test_monomial_basis_equals_elimination(p):
    rng = random.Random(5)
    for gens, dmax, N in monomial_basis_cases():
        for d in range(dmax + 1):
            fast = oracle._new_basis(gens, d, N, p)
            slow = oracle._Basis.of_matrix(_degree_rows(gens, d, N, p), p)
            assert fast.monomial and not slow.monomial
            assert np.array_equal(fast.pivots, slow.pivots)
            assert np.array_equal(fast.reduced(), slow.reduced())
            A = np.array([[rng.randrange(-p, p) for _ in range(ring_dim(N, d))]
                          for _ in range(3)], dtype=np.int64).reshape(3, ring_dim(N, d))
            assert np.array_equal(fast.residual(A), slow.residual(A))


def test_term_with_coefficient_p_is_eliminated(degree_row_calls):
    # p * x1^2 is zero mod p: the ideal is (x2^2) there, not (x1^2, x2^2).
    gens = [{(2, 0): P}, {(0, 2): 1}]
    basis = oracle._new_basis(gens, 2, 2, P)
    assert not basis.monomial and len(basis.pivots) == 1
    assert len(degree_row_calls) == 1


# --- the leading-term kernel -----------------------------------------------

# Products over k terms run in float64 for k <= 16 and in int64 for k >= 17
# at this prime, the largest below sqrt(2^53 / 16): one elimination takes
# both branches.
MIXED_P = 23_726_561
KERNEL_PRIMES = [2, 3, DEFAULT_PRIME, MIXED_P, BIG_P]


def reference_rref(M, p):
    """Forward elimination, then back-substitution in the free columns: the
    kernel that the leading-term elimination replaced, kept as reference."""
    M = np.array(M, dtype=np.int64) % p
    rows, cols = M.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r, c:] = (M[r, c:] * pow(int(M[r, c]), p - 2, p)) % p
        below = M[r + 1 :, c:]
        mask = below[:, 0] != 0
        if mask.any():
            below[mask] = (below[mask] - np.outer(below[mask, 0], M[r, c:])) % p
        pivots.append(c)
    R = M[: len(pivots)]
    for i in range(len(pivots) - 1, 0, -1):
        above = R[:i, pivots[i]:]
        mask = above[:, 0] != 0
        if mask.any():
            above[mask] = (above[mask] - np.outer(above[mask, 0], R[i, pivots[i]:])) % p
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    return np.array(pivots, dtype=np.intp), R[:, free]


def assert_kernel_matches(M, p):
    want_pivots, want = reference_rref(M, p)
    basis = oracle._Basis.of_matrix(M, p)
    assert np.array_equal(basis.pivots, want_pivots), (M, p)
    got = basis.reduced()
    assert got.shape == want.shape and np.array_equal(got, want), (M, p)
    return basis


def leading_columns(M, p):
    M = np.asarray(M) % p
    return {int(np.flatnonzero(row)[0]) for row in M if row.any()}


def kernel_cases(p):
    """(label, matrix) pairs."""
    rng = np.random.default_rng(p % 1000)
    for N, d in ((3, 4), (4, 4), (3, 6)):
        gens = [random_form(random.Random(p + N + d + i), N, g, p)
                for i, g in enumerate((1, 2, 2, 3))]
        yield "degree rows", _degree_rows(gens, d, N, p)
    for shape in ((6, 9), (30, 20), (45, 45)):
        yield "dense", rng.integers(0, p, size=shape)
    yield "no rows", np.zeros((0, 7), dtype=np.int64)
    yield "no columns", np.zeros((5, 0), dtype=np.int64)
    sparse = rng.integers(0, p, size=(12, 10)) * (rng.random((12, 10)) < 0.3)
    yield "zero rows", np.vstack([np.zeros((2, 10), dtype=np.int64), sparse,
                                  np.zeros((3, 10), dtype=np.int64)])
    yield "repeated rows", np.vstack([sparse, sparse[::-1], 2 * sparse[:4]])
    same = rng.integers(0, p, size=(15, 12))
    same[:, 0] = rng.integers(1, p, size=15)
    yield "one leading column", same
    # Rows 0 and 1 both lead in column 0; the complement of row 1 is
    # (0, p - 1, 1, 0), a new pivot in column 1 at every p, which must
    # then be cleared from pivot row 0.
    yield "complement of positive rank", np.array(
        [[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1], [2, 2, 0, 0]], dtype=np.int64)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_matches_reference(p):
    for label, M in kernel_cases(p):
        basis = assert_kernel_matches(M, p)
        if label == "complement of positive rank":
            assert len(basis.pivots) > len(leading_columns(M, p))


@pytest.mark.parametrize("p", [DEFAULT_PRIME, MIXED_P])
def test_row_blocks_match_reference(p, monkeypatch):
    monkeypatch.setattr(oracle, "_ROW_BLOCK", 3)
    for _, M in kernel_cases(p):
        assert_kernel_matches(M, p)


def test_one_elimination_takes_both_product_branches(monkeypatch):
    terms = []
    real = oracle._sub_mul

    def recording(C, A, B, p):
        terms.append(A.shape[1])
        return real(C, A, B, p)

    monkeypatch.setattr(oracle, "_sub_mul", recording)
    gens = [random_form(random.Random(i), 4, 2, MIXED_P) for i in range(3)]
    assert_kernel_matches(_degree_rows(gens, 5, 4, MIXED_P), MIXED_P)
    assert any(0 < k <= 16 for k in terms) and any(k >= 17 for k in terms), terms
    assert 16 * (MIXED_P - 1) ** 2 < 2**53 <= 17 * (MIXED_P - 1) ** 2


# --- scopes -----------------------------------------------------------------

# (x1^2 - x2 x3, x2^2 + 2 x1 x3): not monomial, so each basis is eliminated
# from a Macaulay matrix.
BINOMIALS = [{(2, 0, 0): 1, (0, 1, 1): -1}, {(0, 2, 0): 1, (1, 0, 1): 2}]


class TestScope:
    def test_nothing_cached_outside_a_scope(self, degree_row_calls):
        gens = BINOMIALS
        graded_dim(gens, 3, 3, P)
        graded_dim(gens, 3, 3, P)
        assert len(degree_row_calls) == 2

    def test_nested_scopes_share_one_cache(self, degree_row_calls):
        gens = BINOMIALS
        with scope():
            with scope():
                graded_dim(gens, 3, 3, P)
            assert oracle._SCOPE.get() is not None
            with scope():
                graded_dim(gens, 3, 3, P)
                hilbert_oracle(gens, 3, 3, P)
        assert len(degree_row_calls) == 4  # degrees 0..3, each built once
        assert oracle._SCOPE.get() is None

    def test_monomial_ideal_builds_no_matrix(self, degree_row_calls):
        gens = monomial_polys(SQUARE)
        assert graded_dim(gens, 3, 3, P) == ring_dim(3, 3)
        with scope():
            assert hilbert_oracle(gens, 4, 3, P).values == hilbert_function(SQUARE, 4).values
        assert degree_row_calls == []

    def test_replay_recomputes_what_the_build_computed(self, degree_row_calls):
        cert = glicci_certificate_borel(SQUARE)
        assert oracle._SCOPE.get() is None
        built = len(degree_row_calls)
        report = verify_certificate(cert)
        assert oracle._SCOPE.get() is None
        assert report.ok
        assert built > 0 and len(degree_row_calls) == 2 * built

    def test_scope_closes_on_error(self):
        with pytest.raises(ValueError):
            with scope():
                colon_stability_failure(monomial_polys(SQUARE), {}, 2, 3, P)
        assert oracle._SCOPE.get() is None
