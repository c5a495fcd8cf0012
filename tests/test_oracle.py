import itertools
import random

import numpy as np
import pytest

from buchberger_fp import GroebnerBasis
from liaison import oracle
from liaison.hilbert import (
    MAX_WIDTH,
    HVector,
    _width_past,
    difference,
    hilbert_function,
    hilbert_function_artinian,
    hilbert_numerator,
    horizon,
    lex_ideal_from_hvector,
    macaulay_bound,
    numerator_degree,
)
from liaison.lifting import (
    DEFAULT_PRIME,
    MAX_PRIME,
    InvalidMatrix,
    check_prime,
    default_matrix,
    lift_ideal,
    linear_form_poly,
    poly_degree,
    poly_mul,
)
from liaison.linkage import glicci_certificate_borel, verify_certificate
from liaison.links import PolyIdeal, _colon_failure
from liaison.monomials import (
    Monomial,
    MonomialIdeal,
    enumerate_borel_ideals,
    is_artinian,
    is_cm_borel,
    monomials_of_degree,
)
from liaison.oracle import (
    _degree_rows,
    colon_stability_failure,
    containment_failure,
    graded_dim,
    hilbert_oracle,
    ideals_equal_up_to,
    rank_mod_p,
    ring_dim,
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
        # No variables: the field itself, one monomial in degree 0.
        assert [ring_dim(0, d) for d in (-1, 0, 1, 2)] == [0, 1, 0, 0]

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
    """The degree read off a Hilbert-series numerator is the plateau of
    the oracle's dim-th difference of the Hilbert function."""

    def test_scheme_degree_of_points(self):
        # three points on a line: (x1 * (x1 - x2) * (x1 - 2 x2)) in P^1,
        # with initial ideal (x1^3)
        f = {(3, 0): 1, (2, 1): -3, (1, 2): 2}
        h = difference(hilbert_oracle([f], 6, 2, P), 0).values
        assert numerator_degree(hilbert_numerator(ideal(2, (3, 0)))) == (1, 3)
        assert h[-1] == h[-2] == 3

    def test_scheme_degree_of_hypersurface(self):
        # conic in P^2: dimension 1, degree 2, initial ideal (x1^2)
        f = {(2, 0, 0): 1, (0, 1, 1): -1}
        h = difference(hilbert_oracle([f], 6, 3, P), 1).values
        assert numerator_degree(hilbert_numerator(ideal(3, (2, 0, 0)))) == (1, 2)
        assert h[-1] == h[-2] == 2


# --- agreement with ranks of stacked Macaulay matrices ----------------------

# The largest prime check_prime accepts: elimination multiplies two
# residues, and (p - 1)^2 is within 2^36 of 2^63.
BIG_P = 3_037_000_493


def ref_containment_failure(gensA, gensB, dmax, N, p):
    for d in range(dmax + 1):
        B = _degree_rows(gensB, d, N, p)
        A = _degree_rows(gensA, d, N, p)
        if A.shape[0] and rank_mod_p(np.vstack([B, A]), p) != rank_mod_p(B, p):
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
    # In two variables the degree-d Macaulay matrix has d + 1 columns;
    # (x1) is not Artinian, so its horizon is 1 + k.
    J = ideal(2, (1, 0))
    assert horizon(J, MAX_WIDTH - 2, 2) == MAX_WIDTH - 1
    with pytest.raises(ValueError, match=f"{MAX_WIDTH + 1} columns"):
        horizon(J, MAX_WIDTH - 1, 2)


def test_width_is_computed_only_past_its_cap():
    # Exact up to the cap, else a lower bound past it.  The width of degree
    # 10^4 in 10^4 variables has about 6000 digits, more than Python
    # prints by default: two factors of it pass MAX_WIDTH.
    for N, d, cap in itertools.product(range(8), range(8), (0, 1, 5, 50, 10**9)):
        width, exact = _width_past(N, d, cap), ring_dim(N, d)
        assert width == exact if exact <= cap else cap < width <= exact
    assert _width_past(10**4, 10**4, MAX_WIDTH) == 10001 * 10002 // 2


def _old_floor(J, k):
    """The horizon before it was derived from the socle degree."""
    return J.max_gen_degree + k


class TestHorizon:
    """The derived horizon is the old floor, max generator degree + k,
    on every input the golden pins, the sweep and the benchmark use, and
    larger only where the floor fell short of the socle degree + 2."""

    def test_worked_root(self):
        J = lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3)
        assert horizon(J, 3, 4) == _old_floor(J, 3) == 9
        assert horizon(J, 4, 4) == _old_floor(J, 4) == 10

    def test_sweep_roots(self):
        roots = [J for n in range(1, 5) for J in enumerate_borel_ideals(n, 3)
                 if not (J.is_zero or J.is_unit) and is_cm_borel(J)[0]]
        assert len(roots) == 94
        for J in roots:
            assert horizon(J, J.n, J.n) == _old_floor(J, J.n), J

    def test_artinian_borel_ideals(self, borel_ideals):
        # Borel-fixed and Artinian: the socle degree is the max generator
        # degree - 1.
        checked = 0
        for J in borel_ideals:
            if is_artinian(J) and not J.is_unit:
                s = len(hilbert_function_artinian(J).values) - 1
                assert s == J.max_gen_degree - 1, J
                assert horizon(J, J.n, J.n) == _old_floor(J, J.n), J
                checked += 1
        assert checked > 0

    def test_lift_roundtrip_sequences(self):
        # The worked h-vector and the twenty differentiable O-sequences of
        # acceptance criterion 8, lifted with t = 1..3.
        seqs = [(3, (1, 3, 6, 10, 4, 2), 1)]
        for k in range(20):
            rng = random.Random(1000 + k)
            t = k % 3 + 1
            n = 2 if t == 3 else rng.choice([2, 3])
            values = [1, n]
            for deg in range(1, 4 if t < 3 else 3):
                values.append(rng.randint(0, min(macaulay_bound(values[deg], deg), 5)))
                if values[-1] == 0:
                    break
            while values[-1] == 0:
                values.pop()
            seqs.append((n, tuple(values), t))
        for n, h, t in seqs:
            J = lex_ideal_from_hvector(HVector.artinian(h), n)
            assert horizon(J, n + t, n + t) == J.max_gen_degree + n + t, (h, t)

    @pytest.mark.parametrize("gens,want", [
        (((5, 0, 0), (0, 5, 0), (0, 0, 5)), 14),
        (((4, 0, 0), (0, 4, 0), (0, 0, 2)), 9),
    ], ids=["x1^5,x2^5,x3^5", "x1^4,x2^4,x3^2"])
    def test_past_the_socle_degree(self, gens, want):
        J = ideal(3, *gens)
        assert horizon(J, 3, 4) == want > _old_floor(J, 3)


@pytest.mark.parametrize("p,cases", [(DEFAULT_PRIME, 25), (BIG_P, 12)])
def test_oracle_agrees_with_stacked_ranks(p, cases):
    rng = random.Random(p)
    dmax = 4
    outcomes, equalities = set(), set()
    for _ in range(cases):
        N, gens, other = random_pair(rng, p)
        for A, B in ((gens, other), (other, gens)):
            got = containment_failure(A, B, dmax, N, p)
            assert got == ref_containment_failure(A, B, dmax, N, p)
            outcomes.add(got is None)
        equal = ideals_equal_up_to(gens, other, dmax, N, p)
        assert equal == (
            ref_containment_failure(gens, other, dmax, N, p) is None
            and ref_containment_failure(other, gens, dmax, N, p) is None)
        equalities.add(equal)
    assert outcomes == equalities == {True, False}  # both answers occur


def form_in(rng, variables, N, d, p):
    """A form of degree d whose terms involve only ``variables``."""
    monos = [m for m in monomials_of_degree(N, d)
             if all(a == 0 or v in variables for v, a in enumerate(m.exps))]
    terms = rng.sample(monos, rng.randint(1, min(3, len(monos))))
    return {m.exps: rng.randrange(1, p) for m in terms}


# The reference Buchberger run over F_p (``buchberger_fp``) that the
# certificates' closed forms are cross-checked with is itself checked
# against the oracle here.


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 3])
def test_groebner_answers_are_the_oracles(p):
    # Random forms are rarely a Gröbner basis, so completion runs; the
    # Hilbert function and the containments read off the completed basis
    # are the oracle's through a horizon above every generator degree.
    rng = random.Random(p + 41)
    completed, outcomes = 0, set()
    for _ in range(40):
        N, gens, other = random_pair(rng, p)
        bases = {id(g): GroebnerBasis(g, N, (), p) for g in (gens, other)}
        initial = bases[id(gens)].initial_ideal()
        assert hilbert_function(initial, 5) == hilbert_oracle(gens, 5, N, p), gens
        for A, B in ((gens, other), (other, gens)):
            fail = bases[id(B)].first_outside(A)
            assert fail == containment_failure(A, B, 5, N, p), (A, B)
            outcomes.add(fail is None)
        completed += bases[id(gens)].failure is not None
    assert completed and outcomes == {True, False}


def test_generators_all_zero_mod_p_leave_the_polynomial_ring():
    # p * x1 is zero mod p: no form is left, and R/I is R.
    gens = [{(1, 0, 0): P}]
    basis = GroebnerBasis(gens, 3, (), P)
    assert basis.basis == []
    assert hilbert_function(basis.initial_ideal(), 4) == hilbert_oracle(gens, 4, 3, P)


def test_a_pruned_generator_that_leaves_a_remainder_is_completed():
    # x1 x2 + x3^2 leads with x1 x2, which x1 divides, and reduces to x3^2:
    # the forms are no basis, and the completed one is (x1, x3^2).
    gens = [{(1, 0, 0): 1}, {(1, 1, 0): 1, (0, 0, 2): 1}]
    basis = GroebnerBasis(gens, 3, (), P)
    assert basis.failure == "generator 2 does not reduce to 0 by those with minimal leading monomials"
    assert basis.initial_ideal() == MonomialIdeal.from_gens(
        3, [Monomial((1, 0, 0)), Monomial((0, 0, 2))])
    assert hilbert_function(basis.initial_ideal(), 4) == hilbert_oracle(gens, 4, 3, P)


def test_pruned_generators_that_reduce_to_zero_keep_the_basis():
    # x1 (x1 + x2) leads with x1^2, a multiple of x1's lead, and is a
    # multiple of it: dropped, the forms left are a basis.
    gens = [{(1, 0, 0): 1, (0, 1, 0): 1}, {(2, 0, 0): 1, (1, 1, 0): 1}, {(0, 0, 2): 1}]
    basis = GroebnerBasis(gens, 3, (), P)
    assert basis.failure is None and len(basis.basis) == 2
    assert basis.contains({(2, 0, 0): 1, (1, 1, 0): 1})


def proven_ideal(rng, p):
    """An ideal a theorem gives an initial ideal: a monomial ideal in some
    of n variables, or its t = 1 lift; None when the matrix drawn fails
    validation at p."""
    n = rng.choice([2, 3])
    used = rng.sample(range(n), rng.randint(1, n))
    gens = []
    for _ in range(rng.randint(1, 2)):
        exps = [0] * n
        for _ in range(rng.randint(1, 2)):
            exps[rng.choice(used)] += 1
        gens.append(Monomial(tuple(exps)))
    J = MonomialIdeal.from_gens(n, gens)
    if rng.random() < 0.5:
        return PolyIdeal.from_monomial(J)
    A = default_matrix(n, "t-lift", seed=rng.randrange(100), ncols=2, t=1)
    try:
        return PolyIdeal.from_lifted(lift_ideal(J, A, p), 0)
    except InvalidMatrix:
        return None


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 3])
def test_colon_proof_is_sound(p):
    # Ideals a theorem gives an initial ideal; f a linear form or a power
    # of one variable x_v.  Wherever the exact proof passes, the reference
    # finds no failing degree.
    rng = random.Random(p + 29)
    outcomes = set()
    for _ in range(80):
        ideal = proven_ideal(rng, p)
        if ideal is None:
            continue
        N, gens = ideal.N, list(ideal.gens)
        v = None
        if rng.random() < 0.5:
            f = form_in(rng, range(N), N, 1, p)
        else:
            v = rng.randrange(N)
            f = {tuple(rng.randint(1, 2) * (k == v) for k in range(N)): rng.randrange(1, p)}
        proven = _colon_failure(ideal, f) is None
        if proven:
            assert colon_stability_failure(gens, f, 4, N, p) is None, (gens, f)
        outcomes.add((proven, v is not None and any(e[v] for g in gens for e in g)))
    # Both answers occur, and some proof is case (B)'s: a power of a
    # variable that the generators involve.
    assert {(True, False), (False, False), (True, True)} <= outcomes


@pytest.mark.parametrize("p", [DEFAULT_PRIME, BIG_P])
def test_failing_degrees_match_reference(p):
    x, y, z = {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}
    I = [poly_mul(x, x, p), poly_mul(x, y, p)]  # (x^2, xy)
    # (x^2, xy) : x = (x, y), bigger than I in degree 1
    assert colon_stability_failure(I, x, 4, 3, p) == 1
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


# --- Macaulay matrix assembly ---------------------------------------------

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
        residues = [{e: c % p for e, c in g.items() if c % p} for g in gens]
        for d in range(5):
            assert_same_rows(gens, d, N, p)
            assert graded_dim(gens, d, N, p) == graded_dim(residues, d, N, p)


def test_term_with_coefficient_p_is_eliminated():
    # p * x1^2 is zero mod p: the ideal is (x2^2) there, not (x1^2, x2^2).
    assert graded_dim([{(2, 0): P}, {(0, 2): 1}], 2, 2, P) == 1


# --- the primes of the reference checks ------------------------------------

# The two smallest primes, the default, one of eight digits and the largest
# check_prime accepts.
MIXED_P = 23_726_561
KERNEL_PRIMES = [2, 3, DEFAULT_PRIME, MIXED_P, BIG_P]


# --- colon stability ------------------------------------------------------

def colon_edge_cases(p):
    """(label, generators of I, f, expected first failing degree) in three
    variables, the answers holding at every prime."""
    x, y, z = {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}
    square = [poly_mul(a, b, p) for a, b in ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z))]
    xx_xy = [poly_mul(x, x, p), poly_mul(x, y, p)]  # (x) meet (x^2, y)
    return [
        # I_d = R_d from degree 2: those degrees are skipped
        ("unit f, I_d = R_d from degree 2", square, {(0, 0, 0): p + 1}, None),
        ("unit ideal", [{(0, 0, 0): 1}], x, None),
        # (x, y, z)^2 : x = (x, y, z), with h(1) = 3
        ("fails where h(d) > 0", square, x, 1),
        ("degree-2 f, regular", xx_xy, {(0, 2, 0): 1, (0, 0, 2): 1}, None),
        # x (x^2 + yz) lies in I, and x does not
        ("degree-2 f, fails", xx_xy, {(2, 0, 0): 1, (0, 1, 1): 1}, 1),
        ("degree-2 f, binomial I", BINOMIALS, {(0, 0, 2): 1, (1, 1, 0): 3}, None),
    ]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_colon_edge_cases_match_reference(p):
    dmax = 4
    for label, gens, f, want in colon_edge_cases(p):
        got = colon_stability_failure(gens, f, dmax, 3, p)
        assert got == want, (label, got)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_colon_by_zero_mod_p_raises(p):
    gens = [{(2, 0, 0): 1}]
    for f in ({(1, 0, 0): p}, {(0, 2, 0): 2 * p, (1, 0, 1): -p}):
        with pytest.raises(ValueError, match="zero multiplier"):
            colon_stability_failure(gens, f, 4, 3, p)


# --- containment and equality in the generators' degrees -------------------

def awkward_pair(rng, p):
    """A ``random_pair`` with awkward generators mixed in: the zero
    polynomial, a form whose coefficients are all 0 mod p, a nonzero
    constant, a constant that is 0 mod p, and forms of degree 5, above
    every horizon used, one inside the first ideal and one at random.
    Sometimes one side is empty."""
    N, gens, other = random_pair(rng, p)
    if rng.random() < 0.15:
        return (N, [], gens) if rng.random() < 0.5 else (N, gens, [])
    zero_mod_p = {e: p * rng.randint(1, 3) for e in random_form(rng, N, 2, p)}
    extras = [{}, zero_mod_p, {(0,) * N: rng.randrange(1, p)}, {(0,) * N: p},
              poly_mul(gens[0], random_form(rng, N, 5 - poly_degree(gens[0]), p), p),
              random_form(rng, N, 5, p)]
    weights = [3, 3, 1, 3, 3, 3]  # a unit ideal decides little: keep it rare
    for side in (gens, other):
        if rng.random() < 0.6:
            side += rng.choices(extras, weights, k=rng.randint(1, 2))
    return N, gens, other


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_generator_degree_checks_match_reference(p):
    rng = random.Random(p + 13)
    outcomes, equalities = set(), set()
    for _ in range(24):
        N, gens, other = awkward_pair(rng, p)
        dmax = rng.randint(0, 4)
        for A, B in ((gens, other), (other, gens)):
            got = containment_failure(A, B, dmax, N, p)
            assert got == ref_containment_failure(A, B, dmax, N, p), (A, B, dmax)
            outcomes.add(got is None)
        equal = ideals_equal_up_to(gens, other, dmax, N, p)
        assert equal == (
            ref_containment_failure(gens, other, dmax, N, p) is None
            and ref_containment_failure(other, gens, dmax, N, p) is None)
        equalities.add(equal)
    assert outcomes == equalities == {True, False}  # both answers occur


def test_checks_reject_non_homogeneous_generators():
    x, y = {(1, 0): 1}, {(0, 1): 1}
    mixed = {(1, 0): 1, (0, 2): 1}
    # Above the horizon, or inside a unit ideal, a generator still counts.
    for A, B in (([mixed], [x]), ([x], [mixed]), ([], [mixed]), ([mixed], [y, {(0, 0): 1}])):
        with pytest.raises(ValueError, match="homogeneous"):
            containment_failure(A, B, 3, 2, P)
        with pytest.raises(ValueError, match="homogeneous"):
            ideals_equal_up_to(A, B, 3, 2, P)


# --- no cache -------------------------------------------------------------

# (x1^2 - x2 x3, x2^2 + 2 x1 x3): an ideal that is not monomial.
BINOMIALS = [{(2, 0, 0): 1, (0, 1, 1): -1}, {(0, 2, 0): 1, (1, 0, 1): 2}]


class TestScope:
    def test_nothing_cached_outside_a_scope(self, degree_row_calls):
        gens = BINOMIALS
        graded_dim(gens, 3, 3, P)
        graded_dim(gens, 3, 3, P)
        assert len(degree_row_calls) == 2

    def test_replay_recomputes_what_the_build_computed(self, degree_row_calls, monkeypatch):
        # Certificates build no Macaulay matrix; the replay proves as many
        # initial ideals as the build, of ideals of its own.
        made = []
        real = PolyIdeal._prove

        def counting(ideal, *args):
            made.append(ideal)
            return real(ideal, *args)

        monkeypatch.setattr(PolyIdeal, "_prove", counting)
        cert = glicci_certificate_borel(SQUARE)
        built = len(made)
        report = verify_certificate(cert)
        assert report.ok
        assert built > 0 and len(made) == 2 * built
        assert not {id(i) for i in made[:built]} & {id(i) for i in made[built:]}
        assert degree_row_calls == []

    # (x^2, xy) from generators that are not all single terms, and the same
    # ideal from its monomials.
    MIXED = [{(2, 0, 0): 1, (1, 1, 0): 1}, {(1, 1, 0): 1}]
    MONOMIAL = [{(2, 0, 0): 1}, {(1, 1, 0): 1}]

    def test_equality_outside_a_scope_caches_nothing(self, degree_row_calls):
        assert ideals_equal_up_to(self.MIXED, self.MONOMIAL, 4, 3, P)
        del degree_row_calls[:]
        assert graded_dim(self.MIXED, 2, 3, P) == 2
        assert degree_row_calls == [(2, 3, P)]
