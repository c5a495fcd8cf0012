import ast
import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from buchberger_z import buchberger_failure

from liaison import lifting
from liaison.hilbert import (
    HVector,
    difference,
    hilbert_function_artinian,
    horizon,
    lex_ideal_from_hvector,
    macaulay_bound,
)
from liaison.layers import decompose
from liaison.lifting import (
    DEFAULT_PRIME,
    LiftError,
    LiftingMatrix,
    LinearForm,
    MatrixError,
    bar,
    default_matrix,
    expand,
    lift_ideal,
    lift_record,
    linear_form_poly,
    point_model,
    poly_mul,
    validate_matrix,
    verify_lift,
)
from liaison.monomials import (
    Monomial,
    MonomialIdeal,
    enumerate_borel_ideals,
    height,
    is_artinian,
    is_borel_fixed,
    is_cm_borel,
    monomials_of_degree,
)
from liaison.oracle import hilbert_oracle, ideals_equal_up_to, rank_mod_p

P = DEFAULT_PRIME


def ideal(n, *gens):
    return MonomialIdeal.from_gens(n, [Monomial(tuple(g)) for g in gens])


WORKED_J = lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3)


class TestMatrices:
    def test_bf_matrix_entries(self):
        A = default_matrix(3, "bf", ncols=4)
        # row 1 column i holds i * x1
        assert A.rows[0][0].coeffs == (1, 0, 0)
        assert A.rows[0][2].coeffs == (3, 0, 0)
        # row j >= 2 column i holds x_j + (i-1) * x1
        assert A.rows[1][0].coeffs == (0, 1, 0)
        assert A.rows[2][3].coeffs == (3, 0, 1)
        assert A.t == 0 and A.N == 3

    def test_bf_matrix_wider_than_its_limit(self):
        with pytest.raises(LiftError, match="more than BF_COLUMN_LIMIT"):
            default_matrix(2, "bf", ncols=lifting.BF_COLUMN_LIMIT + 1)

    def test_t_lift_matrix_shape(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=5, t=2)
        assert A.N == 5
        assert A.n_source == 3
        for j, row in enumerate(A.rows):
            for form in row:
                # entries are x_j plus a combination of the new variables
                assert form.coeffs[j] == 1
                assert all(c == 0 for k, c in enumerate(form.coeffs[:3]) if k != j)
                assert any(form.coeffs[3:])

    def test_seed_determinism(self):
        a = default_matrix(2, "t-lift", seed=9, ncols=4, t=1)
        b = default_matrix(2, "t-lift", seed=9, ncols=4, t=1)
        c = default_matrix(2, "t-lift", seed=10, ncols=4, t=1)
        assert a.to_json() == b.to_json()
        assert a.to_json() != c.to_json()

    def test_drop_first_row(self):
        A = default_matrix(3, "t-lift", seed=1, ncols=4, t=1)
        B = A.drop_first_row()
        assert B.n_source == 2
        assert B.N == A.N
        assert B.rows == A.rows[1:]

    def test_json_roundtrip_and_hash(self):
        A = default_matrix(3, "t-lift", seed=3, ncols=4, t=1)
        B = LiftingMatrix.from_json(A.to_json())
        assert B == A
        assert B.content_hash() == A.content_hash()

    def test_json_form_length_must_match_the_ring(self):
        data = default_matrix(3, "t-lift", seed=3, ncols=4, t=1).to_json()
        data["t"] = 2
        with pytest.raises(MatrixError, match="ambient_n \\+ t = 5"):
            LiftingMatrix.from_json(data)

    def test_json_unknown_kind_is_matrix_error(self):
        data = default_matrix(3, "bf", ncols=4).to_json()
        data["kind"] = "bfx"
        with pytest.raises(MatrixError, match="unknown matrix kind"):
            LiftingMatrix.from_json(data)

    @pytest.mark.parametrize("A", [
        default_matrix(4, "t-lift", seed=3, ncols=4, t=2),
        default_matrix(4, "bf", ncols=4),
    ], ids=["t-lift", "bf"])
    def test_json_keeps_the_rows_of_a_default_matrix(self, A):
        # Chain steps store the matrix with its first rows dropped.
        for B in (A, A.drop_first_row(), A.drop_first_row().drop_first_row()):
            assert LiftingMatrix.from_json(B.to_json()) == B

    def test_json_seed_is_tied_to_the_rows(self):
        data = default_matrix(3, "t-lift", seed=3, ncols=4, t=1).to_json()
        data["kind"]["seed"] = 4
        with pytest.raises(MatrixError, match="row 1, column 1 differs from "
                                              "the default t-lift matrix of seed 4"):
            LiftingMatrix.from_json(data)

    def test_json_rows_are_tied_to_their_variables(self):
        # The rows of x2 and x3, moved to x1 and x2 of a smaller ring.
        data = default_matrix(3, "t-lift", seed=3, ncols=4, t=1).to_json()
        data["ambient_n"] = 2
        data["rows"] = [[form[1:] for form in row] for row in data["rows"][1:]]
        with pytest.raises(MatrixError, match="row 1, column 1 differs"):
            LiftingMatrix.from_json(data)

    def test_json_kind_must_name_t(self):
        data = default_matrix(3, "t-lift", seed=3, ncols=4, t=1).to_json()
        data["kind"]["t"] = 2
        with pytest.raises(MatrixError, match="kind names t = 2"):
            LiftingMatrix.from_json(data)

    def test_json_bf_rows_are_the_formula(self):
        data = default_matrix(3, "bf", ncols=4).to_json()
        data["rows"][2][1] = [2, 0, 1]
        with pytest.raises(MatrixError, match="row 3, column 2 differs from "
                                              "the default bf matrix"):
            LiftingMatrix.from_json(data)

    def test_json_check_stays_linear_in_the_document(self):
        # One stored row of one column in 1500 + 1500 variables: the 1499
        # rows before it would draw 1499 * 1500 coefficients.
        a = t = 1500
        form = [0] * (a - 1) + [1] + [1] * t
        data = {"schema": "matrix/1", "kind": {"t": t, "seed": 0},
                "ambient_n": a, "t": t, "rows": [[form]]}
        with pytest.raises(MatrixError, match="1499 dropped rows with t = 1500"):
            LiftingMatrix.from_json(data)

    def test_json_unseeded_t_lift_is_taken_as_stored(self):
        A = LiftingMatrix(((LinearForm((1, 5)), LinearForm((1, 6))),), 1, 1,
                          "t-lift", None)
        assert LiftingMatrix.from_json(A.to_json()) == A


class TestValidation:
    def test_valid_t_lift(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        report = validate_matrix(A, WORKED_J)
        assert report.ok
        assert report.selections_checked == 96

    def test_bf_matrix_validates(self):
        J = MonomialIdeal.from_gens(3, monomials_of_degree(3, 2))
        A = default_matrix(3, "bf", ncols=2)
        assert validate_matrix(A, J).ok

    def test_proportional_rows_rejected(self):
        rows = (
            (LinearForm((1, 0, 0)), LinearForm((2, 0, 0))),
            (LinearForm((0, 1, 0)), LinearForm((0, 1, 1))),
        )
        A = LiftingMatrix(rows, 2, 1, "t-lift", None)
        report = validate_matrix(A, ideal(2, (2, 0), (0, 2)))
        assert not report.ok
        assert report.proportional_pairs

    def test_dependent_selection_rejected(self):
        # both rows can select the same form: selections are dependent
        rows = (
            (LinearForm((1, 1, 0)),),
            (LinearForm((2, 2, 0)),),
        )
        A = LiftingMatrix(rows, 2, 1, "t-lift", None)
        report = validate_matrix(A, ideal(2, (1, 0), (0, 1)))
        assert not report.ok

    def test_failure_at_the_working_prime_is_reported_there(self):
        # The bf row-1 entry 3*x1 vanishes mod 3, so x1^3 lifts to zero.
        J = MonomialIdeal.from_gens(3, monomials_of_degree(3, 3))
        A = default_matrix(3, "bf", ncols=3)
        report = validate_matrix(A, J, prime=3)
        assert not report.ok and report.prime == 3
        assert report.singular_entries == [(0, 2)]
        assert validate_matrix(A, J).ok

    def test_proportional_entries_are_found_at_the_working_prime(self):
        # x1 + u and x1 + (1 + p)*u differ over Z but coincide mod p.
        p = 3
        row = (LinearForm((1, 1)), LinearForm((1, 1 + p)))
        A = LiftingMatrix((row,), 1, 1, "t-lift", None)
        J = ideal(1, (2,))
        report = validate_matrix(A, J, prime=p)
        assert not report.ok
        assert report.proportional_pairs == [(0, 0, 1)]
        assert validate_matrix(A, J, prime=5).ok
        assert validate_matrix(A, J, prime=None).ok

    def test_proportional_entries_over_z_are_cross_multiplied(self):
        # 2*x1 + 4*u and 3*x1 + 6*u: no entry divides the other over Z.
        row = (LinearForm((2, 4)), LinearForm((3, 6)))
        A = LiftingMatrix((row,), 1, 1, "t-lift", None)
        report = validate_matrix(A, ideal(1, (2,)), prime=None)
        assert (report.ok, report.proportional_pairs, report.prime) == (False, [(0, 0, 1)], None)
        assert report.singular_entries == []

    def test_too_many_selections_is_an_error(self, monkeypatch):
        # 32^4 points: the point bound is checked before any point is built.
        J = ideal(4, (32, 0, 0, 0), (0, 32, 0, 0), (0, 0, 32, 0), (0, 0, 0, 32))
        A = default_matrix(4, "t-lift", seed=0, ncols=32, t=1)

        def no_points(*args):
            raise AssertionError("point built")

        monkeypatch.setattr("liaison.lifting.standard_monomials", no_points)
        message = "^1048576 points in the point model, more than POINT_LIMIT = 80000$"
        with pytest.raises(LiftError, match=message):
            point_model(J, A)
        with pytest.raises(LiftError, match=message):
            lift_record(J, A)

    def test_more_rows_than_variables_is_an_error(self):
        # Row 2 would have no variable of its own.
        row = (LinearForm((1, 1)), LinearForm((1, 2)))
        A = LiftingMatrix((row, row), 1, 1, "t-lift", None)
        with pytest.raises(MatrixError, match="2 rows for 1 x-variables"):
            validate_matrix(A, ideal(2, (1, 0), (0, 1)))

    def test_lift_requires_valid_matrix(self):
        rows = (
            (LinearForm((1, 1, 0)),),
            (LinearForm((2, 2, 0)),),
        )
        A = LiftingMatrix(rows, 2, 1, "t-lift", None)
        with pytest.raises(MatrixError):
            lift_ideal(ideal(2, (1, 0), (0, 1)), A)


def ref_selections_independent(A, J, prime):
    """The enumeration ``validate_matrix`` once made: every selection of
    one used entry per row is linearly independent mod ``prime``, one
    rank per selection."""
    used = [max((g.exps[j] for g in J.gens), default=0) for j in range(A.n_source)]
    active = [j for j, u in enumerate(used) if u]
    choices = [range(used[j]) for j in active]
    for combo in (itertools.product(*choices) if choices else ()):
        M = np.array([A.rows[j][c].coeffs for j, c in zip(active, combo)],
                     dtype=np.int64)
        if rank_mod_p(M, prime) < len(active):
            return False
    return True


def criterion_8_ideals():
    """(J, seed, t) for the 20 seeded differentiable O-sequences of
    acceptance criterion 8."""
    for seed in range(20):
        rng = random.Random(1000 + seed)
        t = seed % 3 + 1
        n = 2 if t == 3 else rng.choice([2, 3])
        values = [1, n]
        for deg in range(1, 4 if t < 3 else 3):
            values.append(rng.randint(0, min(macaulay_bound(values[deg], deg), 5)))
            if values[-1] == 0:
                break
        while values[-1] == 0:
            values.pop()
        yield lex_ideal_from_hvector(HVector.artinian(values), n), seed, t


def sweep_ideals():
    """The 94 proper nonzero CM Borel-fixed ideals with n <= 4 and
    generator degree <= 3."""
    return [J for n in range(1, 5) for J in enumerate_borel_ideals(n, 3)
            if not (J.is_zero or J.is_unit) and is_cm_borel(J)[0]]


def _random_case(rng, p):
    """A random matrix and a monomial ideal using its columns.  Half the
    entries have a lifting's shape, with an own coefficient that is 0 mod
    p one time in three."""
    ambient_n = rng.randint(1, 3)
    n = rng.randint(1, ambient_n)
    t = rng.randint(0, 2)
    kind = rng.choice(["bf", "t-lift"])
    ncols = rng.randint(1, 3)
    rows = []
    for j in range(n):
        v = ambient_n - n + j
        row = []
        while len(row) < ncols:
            coeffs = [rng.randint(-p, p) for _ in range(ambient_n + t)]
            if rng.random() < 0.5:
                own = {v, 0} if kind == "bf" else {v}
                coeffs[:ambient_n] = [c if k in own else 0
                                      for k, c in enumerate(coeffs[:ambient_n])]
                coeffs[v] = rng.choice([0, p, 1, p - 1, 2 * p + 1])
            if any(coeffs):
                row.append(LinearForm(tuple(coeffs)))
        rows.append(tuple(row))
    A = LiftingMatrix(tuple(rows), ambient_n, t, kind, None)
    gens = [Monomial(tuple(rng.randint(0, ncols) for _ in range(n)))
            for _ in range(rng.randint(1, 3))]
    return A, MonomialIdeal.from_gens(n, gens)


class TestShapeRule:
    """``validate_matrix`` decides independence of selections by the shape
    of each used entry; the enumeration is kept here as the reference."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_shape_implies_the_reference(self, p):
        rng = random.Random(p)
        shaped = 0
        for _ in range(600):
            A, J = _random_case(rng, p)
            report = validate_matrix(A, J, prime=p)
            if not report.singular_entries:
                shaped += 1
                assert ref_selections_independent(A, J, p), (A, J)
        assert shaped >= 100

    @pytest.mark.parametrize("p", [3, 5, 32003])
    def test_default_matrices_agree_with_the_reference(self, p):
        cases = [(J, "t-lift", seed, t) for J, seed, t in criterion_8_ideals()]
        cases += [(J, "t-lift", 0, 1) for J in sweep_ideals()]
        cases += [(J, "bf", 0, 0) for J, *_ in cases]
        assert len(cases) == 2 * (20 + 94)
        for J, style, seed, t in cases:
            A = default_matrix(J.n, style, seed=seed,
                               ncols=max(J.max_gen_degree, 1), t=t)
            report = validate_matrix(A, J, prime=p)
            assert (not report.singular_entries) == ref_selections_independent(A, J, p)
            assert report.selections_checked == math.prod(
                u for u in report.used_cols if u)

    def test_an_entry_without_its_own_variable_is_singular(self):
        # Row (x1 + u, u): each selection is one nonzero form, so the
        # reference passes; u alone is not a lifting's entry.
        A = LiftingMatrix(((LinearForm((1, 1)), LinearForm((0, 1))),), 1, 1,
                          "t-lift", None)
        J = ideal(1, (2,))
        assert ref_selections_independent(A, J, P)
        report = validate_matrix(A, J)
        assert not report.ok and report.singular_entries == [(0, 1)]
        assert not report.proportional_pairs

    def test_lift_takes_no_rank(self, monkeypatch):
        def no_rank(*args):
            raise AssertionError("rank taken")

        monkeypatch.setattr("liaison.oracle.rank_mod_p", no_rank)
        J = MonomialIdeal.from_gens(3, monomials_of_degree(3, 3))
        A = default_matrix(3, "bf", ncols=3)
        assert validate_matrix(A, J, prime=3).singular_entries == [(0, 2)]
        with pytest.raises(MatrixError, match="failed validation"):
            lift_ideal(J, A, prime=3)
        assert len(lift_ideal(J, A).generators) == 10


class TestBar:
    def test_factor_columns_are_prefixes(self):
        A = default_matrix(2, "t-lift", seed=0, ncols=5, t=1)
        g = bar(Monomial((2, 1)), A)
        assert g.factors == ((0, 0), (0, 1), (1, 0))
        assert g.degree == 3

    def test_divisibility_preserved(self):
        A = default_matrix(2, "t-lift", seed=0, ncols=5, t=1)
        m, d = Monomial((2, 1)), Monomial((1, 1))
        fm = set(bar(m, A).factors)
        fd = set(bar(d, A).factors)
        assert fd <= fm  # bar(d) divides bar(m) factorwise

    def test_needs_enough_columns(self):
        A = default_matrix(2, "t-lift", seed=0, ncols=2, t=1)
        with pytest.raises(MatrixError):
            bar(Monomial((3, 0)), A)

    def test_bf_expansion_example(self):
        # x2^2 lifts to x2 * (x2 + x1) under the integer-shift matrix
        A = default_matrix(2, "bf", ncols=3)
        f = expand(bar(Monomial((0, 2)), A), A, p=None)
        assert f == {(0, 2): 1, (1, 1): 1}


def expand_product(forms, N, p):
    """The product of ``forms`` one at a time, in the order given, with
    nothing kept: the reference for a shared expansion."""
    acc = {(0,) * N: 1}
    for form in forms:
        acc = poly_mul(acc, linear_form_poly(form.coeffs, p), p)
    return acc


def step_lifts(J, A):
    """The lifts a chain step expands with one memo: J's layers by A with
    its first row dropped, then J by A."""
    D = decompose(J)
    return [lift_ideal(D.layers[j], A.drop_first_row()) for j in range(D.alpha)] + [
        lift_ideal(J, A)]


def random_lifts(rng):
    """A random ideal J in 2..4 variables lifted by a seeded t-lift matrix,
    after J with x1 set to 1 lifted by that matrix minus its first row:
    every bar(x1^k·m) of the second lift continues a bar'(m) of the
    first."""
    n = rng.randint(2, 4)
    gens = []
    for _ in range(rng.randint(1, 6)):
        exps = [0] * n
        for _ in range(rng.randint(1, 5)):
            exps[rng.randrange(n)] += 1
        gens.append(Monomial(tuple(exps)))
    J = MonomialIdeal.from_gens(n, gens)
    A = default_matrix(n, "t-lift", seed=rng.randrange(10**6),
                       ncols=J.max_gen_degree, t=rng.randint(1, 3))
    stripped = MonomialIdeal.from_gens(n - 1, [Monomial(g.exps[1:]) for g in J.gens])
    return [lift_ideal(stripped, A.drop_first_row()), lift_ideal(J, A)]


def expansion_cases():
    """pytest params (groups, p, step): each group a list of lifts expanded
    with one memo at p; ``step`` when they are a chain step's."""
    cube8 = MonomialIdeal.from_gens(3, monomials_of_degree(3, 8))
    for t in (1, 2):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=t)
        yield pytest.param([step_lifts(WORKED_J, A)], P, True, id=f"worked-t{t}")
    A = default_matrix(3, "bf", ncols=6)
    yield pytest.param([step_lifts(WORKED_J, A)], None, True, id="worked-bf-over-z")
    A = default_matrix(3, "t-lift", seed=7, ncols=8, t=1)
    yield pytest.param([step_lifts(cube8, A)], P, True, id="cube8")
    rng = random.Random(31)
    for p in (32003, 65537, None):
        groups = [random_lifts(rng) for _ in range(10)]
        yield pytest.param(groups, p, False, id=f"random-{p or 'over-z'}")


def trie_size(memo) -> int:
    return sum(1 + trie_size(children) for _, children in memo.values())


class TestSharedExpansion:
    @pytest.mark.parametrize("groups,p,step", expansion_cases())
    def test_equals_the_per_generator_product(self, groups, p, step):
        for lifts in groups:
            memo, factors = {}, 0
            for L in lifts:
                A = L.matrix
                want = [expand_product([A.rows[r][c] for r, c in g.factors], A.N, p)
                        for g in L.generators]
                assert L.polynomials(p, memo) == want
                factors += sum(g.degree for g in L.generators)
            # One product per distinct run of forms, never more than one
            # per factor; a chain step's lifts share runs, so fewer.
            assert trie_size(memo) <= factors
            assert not step or trie_size(memo) < factors

    def test_a_memo_holds_nothing_across_calls_without_one(self):
        L = lift_ideal(WORKED_J, default_matrix(3, "t-lift", seed=7, ncols=6, t=1))
        first, again = L.polynomials(P), L.polynomials(P)
        assert first == again
        assert not {id(f) for f in first} & {id(f) for f in again}


class TestLiftedIdeal:
    def test_tampered_matrix_hash_rejected(self):
        # A record decodes only its source and matrix; the stored hash is
        # compared with the replay's, so an edited matrix that still
        # decodes is refused as well as one that does not.
        seeded = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        unseeded = LiftingMatrix(seeded.rows, seeded.ambient_n, seeded.t, seeded.kind)
        for A, message in [(seeded, "differs from the default"),
                           (unseeded, "in: matrix_hash, points$")]:
            data = json.loads(json.dumps(lift_record(WORKED_J, A)))
            data["matrix"]["rows"][0][0][3] += 1
            with pytest.raises(LiftError, match=message):
                verify_lift(data)


class TestPointModel:
    def test_worked_example_26_points(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        pts = point_model(WORKED_J, A)
        assert len(pts.points) == 26
        assert len(set(pts.points)) == 26

    def test_point_count_equals_length(self):
        rng = random.Random(2)
        for _ in range(5):
            n = rng.randint(2, 3)
            # random Artinian ideal: pure powers plus noise
            gens = [Monomial(tuple(3 if i == j else 0 for i in range(n)))
                    for j in range(n)]
            extra = [0] * n
            extra[rng.randrange(n)] = 1
            extra[(rng.randrange(n))] += 1
            gens.append(Monomial(tuple(extra)))
            J = MonomialIdeal.from_gens(n, gens)
            A = default_matrix(n, "t-lift", seed=rng.randint(0, 99), ncols=4, t=1)
            pts = point_model(J, A)
            assert len(pts.points) == sum(hilbert_function_artinian(J).values)

    def test_point_off_its_slice_is_an_error(self, monkeypatch):
        # Negative control: the point of 1 is moved to the slice of x1^4,
        # which lies in J, so the lifted x1^4 has no factor vanishing there.
        real = lifting.standard_monomials
        monkeypatch.setattr(lifting, "standard_monomials",
                            lambda J, d: real(J, d) if d else (Monomial((4, 0, 0)),))
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        with pytest.raises(MatrixError, match=r"^lifted generator of x1\^4 does not vanish at \("):
            point_model(WORKED_J, A)

    def test_requires_artinian(self):
        A = default_matrix(2, "t-lift", seed=0, ncols=4, t=1)
        with pytest.raises((MatrixError, ValueError)):
            point_model(ideal(2, (1, 0)), A)


class TestLayerFormula:
    def test_bf_bar_fixes_borel_square(self):
        J = MonomialIdeal.from_gens(3, monomials_of_degree(3, 2))
        A = default_matrix(3, "bf", ncols=2)
        lifted = lift_ideal(J, A).polynomials(P)
        original = [{g.exps: 1} for g in J.gens]
        assert ideals_equal_up_to(lifted, original, 6, 3, P)


class TestLiftHilbert:
    def test_first_difference_recovers_h(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        L = lift_ideal(WORKED_J, A)
        h = hilbert_oracle(L.polynomials(P), 8, A.N, P)
        assert difference(h, 1).values == (1, 3, 6, 10, 4, 2, 0, 0, 0)


class TestVerifyLift:
    def test_worked_lift_rows(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        data = json.loads(json.dumps(lift_record(WORKED_J, A)))
        assert data["points"]["prime"] == P
        report = verify_lift(data)
        assert {k: v for k, v in report.items() if k != "checks"} == {
            "schema": "lift-report/2", "ok": True}
        assert [(c["name"], c["passed"], c["detail"]) for c in report["checks"]] == [
            ("matrix-validation", True, "over Z"),
            ("hilbert-difference-t1", True, "difference (1, 3, 6, 10, 4, 2)"),
            ("non-degeneracy-dim-I1", True, ""),
            ("dimension-degree", True, "dimension 1, degree 26"),
        ]

    def test_t2_lift_has_no_point_rows(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=2)
        data = json.loads(json.dumps(lift_record(WORKED_J, A)))
        assert "points" not in data
        report = verify_lift(data)
        assert report["ok"]
        assert [c["name"] for c in report["checks"]] == [
            "matrix-validation", "hilbert-difference-t2",
            "non-degeneracy-dim-I1", "dimension-degree"]

    @pytest.mark.parametrize("kind,t", [("t-lift", 1), ("t-lift", 2), ("bf", 0)],
                             ids=["t:1", "t:2", "bf"])
    def test_lift_with_its_first_row_dropped(self, kind, t):
        # The lifts a chain step makes for its layers: rows 2..3 of a
        # 3-row matrix, so x1 is a new variable besides the t u's.  Four
        # columns, since the source has x2^4.
        h = (1, 2, 3, 1)
        J = lex_ideal_from_hvector(HVector.artinian(h), 2)
        A = default_matrix(3, kind, seed=7, ncols=4, t=t).drop_first_row()
        data = json.loads(json.dumps(lift_record(J, A)))
        assert ("points" in data) == (t == 1)
        report = verify_lift(data)
        assert report["ok"], report
        diff = difference(hilbert_oracle(lift_ideal(J, A).polynomials(P), 6, A.N, P),
                          A.N - 2)
        assert diff.values == h + (0, 0, 0)
        assert report["checks"][1] == {"name": f"hilbert-difference-t{t}", "passed": True,
                                       "detail": f"difference {h}"}

    def test_record_differing_from_its_replay_is_refused(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        data = json.loads(json.dumps(lift_record(WORKED_J, A)))
        data["generators"] = data["generators"][1:]
        data["extra"] = 1
        with pytest.raises(LiftError, match="in: extra, generators$"):
            verify_lift(data)

    def test_unit_ideal_is_not_lifted(self):
        A = default_matrix(2, "t-lift", seed=0, ncols=1, t=1)
        with pytest.raises(LiftError, match="zero or unit"):
            lift_record(ideal(2, (0, 0)), A)

    def test_replay_encodes_only_the_matrix_hash(self, monkeypatch):
        # Every key of a record decoded from canonical text marshals like
        # its replay's, so the one canonical text made is the hash's.
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        data = json.loads(lifting.canonical_json(lift_record(WORKED_J, A)))
        calls = count_json_texts(monkeypatch)
        assert verify_lift(data)["ok"]
        assert calls == [data["matrix"]]

    def test_record_with_every_key_reversed_verifies(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        data = json.loads(json.dumps(lift_record(WORKED_J, A)))
        assert verify_lift(reverse_keys(data)) == verify_lift(data)


def count_json_texts(monkeypatch) -> list:
    """The documents ``json.dumps`` encodes from now on, each canonical
    text among them."""
    calls, real = [], json.dumps

    def counting(value, **kwargs):
        calls.append(value)
        return real(value, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    return calls


def reverse_keys(doc):
    """``doc`` with the keys of every object in reverse order."""
    if isinstance(doc, dict):
        return {k: reverse_keys(doc[k]) for k in reversed(doc)}
    if isinstance(doc, list):
        return [reverse_keys(v) for v in doc]
    return doc


def unsorted_objects(doc, path="$") -> list:
    """The paths of the objects in ``doc`` whose keys are not sorted."""
    if isinstance(doc, dict):
        bad = [] if list(doc) == sorted(doc) else [path]
        return bad + [p for k, v in doc.items() for p in unsorted_objects(v, f"{path}.{k}")]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in unsorted_objects(v, f"{path}[{i}]")]
    return []


class Count(int):
    """An int marshal refuses, as it is not exactly an int."""


class TestSameDocument:
    @pytest.mark.parametrize("a,b,same,texts", [
        ({"a": [1, True, None, "x"], "b": 2**70}, {"a": [1, True, None, "x"], "b": 2**70},
         True, 0),
        ({"a": 1, "b": {"c": 2, "d": 3}}, {"b": {"d": 3, "c": 2}, "a": 1}, True, 2),
        ({"passed": True}, {"passed": 1}, False, 2),
        ({"N": 1}, {"N": 1.0}, False, 2),
        ([(1, 2), [3]], [[1, 2], [3]], True, 2),
        ([Count(3)], [3], True, 2),
        ([Count(3)], [4], False, 2),
    ], ids=["equal", "keys-reversed", "true-is-not-1", "1-is-not-1.0",
            "tuple-is-a-list", "refused-equal", "refused-unequal"])
    def test_table(self, monkeypatch, a, b, same, texts):
        # ``texts`` canonical texts are made: none when the marshal bytes
        # agree, both sides' when they do not or marshal refuses.
        calls = count_json_texts(monkeypatch)
        assert lifting.same_document(a, b) is same
        assert lifting.same_document(b, a) is same
        assert len(calls) == 2 * texts
        assert same == (json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True))

    @pytest.mark.parametrize("kind,t", [("t-lift", 1), ("t-lift", 2), ("bf", 0)],
                             ids=["t:1", "t:2", "bf"])
    def test_lift_documents_have_sorted_keys(self, kind, t):
        # The lifted ideal's document holds its source's and its matrix's,
        # a t-lift's ``kind`` object and one object per generator.
        A = default_matrix(3, kind, seed=7, ncols=6, t=t)
        lifted = lift_ideal(WORKED_J, A).to_json()
        assert unsorted_objects(lifted) == []
        assert isinstance(lifted["matrix"]["kind"], dict) == (kind == "t-lift")
        assert unsorted_objects(WORKED_J.to_json()) == []
        if t == 1:
            assert unsorted_objects(point_model(WORKED_J, A).to_json()) == []


def hand_built_lift(J, t=1):
    """An unseeded t-lift of J whose entries have x_v coefficient 2 or 3,
    alternating along a row, so no leading coefficient is 1."""
    n, ncols = J.n, max(J.max_gen_degree, 1)
    rows = tuple(
        tuple(LinearForm(tuple(2 + i % 2 if k == j else 0 for k in range(n))
                         + tuple(7 * i + 3 * q + j + 1 for q in range(t)))
              for i in range(ncols))
        for j in range(n))
    return LiftingMatrix(rows, n, t, "t-lift", None)


NON_BOREL = [ideal(2, (2, 0), (0, 2)),
             ideal(3, (1, 1, 0), (0, 0, 2), (3, 0, 0)),
             ideal(3, (0, 2, 0), (1, 0, 1), (2, 1, 0)),
             ideal(3, (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1))]


def exact_row_cases():
    yield "worked-t1", WORKED_J, default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
    yield "worked-t2", WORKED_J, default_matrix(3, "t-lift", seed=7, ncols=6, t=2)
    for J, seed, t in criterion_8_ideals():
        yield f"criterion8-{seed}", J, default_matrix(
            J.n, "t-lift", seed=seed, ncols=max(J.max_gen_degree, 1), t=t)
    for k, J in enumerate(NON_BOREL + [WORKED_J]):
        yield f"bf-{k}", J, default_matrix(J.n, "bf", ncols=J.max_gen_degree)
    # Own coefficients 2 and 3: the theorem asks only that they be nonzero.
    yield "hand-built-t1", WORKED_J, hand_built_lift(WORKED_J)
    yield "hand-built-t2", NON_BOREL[3], hand_built_lift(NON_BOREL[3], t=2)


class TestExactHilbertRows:
    """``verify_lift`` proves its Hilbert rows by the lifting theorem; the
    mod-p Macaulay oracle stays an independent cross-check of them."""

    @pytest.mark.parametrize("p", [P, 65537])
    def test_rows_agree_with_the_oracle(self, p):
        for name, J, A in exact_row_cases():
            report = verify_lift(json.loads(json.dumps(lift_record(J, A, prime=p))))
            assert report["ok"], name
            # The oracle's horizon: max generator degree + N, raised to the
            # socle degree + 2 for an Artinian J.
            dmax = horizon(J, A.N, A.N)
            polys = [expand(bar(g, A), A, p) for g in J.gens]
            hf = hilbert_oracle(polys, dmax, A.N, p)
            rows = {c["name"]: c["detail"] for c in report["checks"]}
            new = A.N - J.n
            diff = difference(hf, new).values
            got = ast.literal_eval(rows[f"hilbert-difference-t{A.t}"]
                                   .removeprefix("difference ").split(" through ")[0])
            if is_artinian(J):
                assert diff == got + (0,) * (len(diff) - len(got)), name
            else:
                assert got[:len(diff)] == diff[:len(got)], name
            dimension, degree = map(int, re.fullmatch(r"dimension (\d+), degree (\d+)",
                                                      rows["dimension-degree"]).groups())
            assert dimension == A.N - height(J), name
            if is_artinian(J):  # the Hilbert function settles at the degree
                settled = difference(hf, new - 1).values[-3:] if new else (sum(hf.values),)
                assert set(settled) == {degree}, name
            if A.kind == "t-lift":
                assert hf.at(1) == A.N and rows["non-degeneracy-dim-I1"] == "", name

    @pytest.mark.parametrize("t", [1, 2])
    def test_every_perturbed_generator_names_an_s_pair(self, t):
        # One added to the revlex-smallest term (the largest exponents read
        # from the last variable) keeps each leading term.
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=t)
        polys = [expand(bar(g, A), A, None) for g in WORKED_J.gens]
        leads = [g.exps + (0,) * t for g in WORKED_J.gens]
        last = tuple(range(3, 3 + t))
        assert buchberger_failure(polys, leads, last) is None
        for k, f in enumerate(polys):
            f = dict(f)
            f[max(f, key=lambda e: e[::-1])] += 1
            failure = buchberger_failure(polys[:k] + [f] + polys[k + 1:], leads, last)
            assert failure is not None and failure.startswith("S-pair of generators "), k

    def test_off_variable_multiple_of_the_prime_is_not_proven(self):
        # 32003*x1 in an x2 entry vanishes mod p, so the matrix validates,
        # but over Q that entry has no lifting's shape (and the generator
        # x1*x2 leads with x1^2): the exact rows fail.
        A = off_variable_multiple_of_the_prime()
        J = ideal(2, (2, 0), (1, 1), (0, 2))
        report = verify_lift(json.loads(json.dumps(lift_record(J, A))))
        assert [(c["name"], c["passed"], c["detail"]) for c in report["checks"]] == [
            (name, False, "row 2, column 1 has no lifting's shape over Z")
            for name in ("matrix-validation", "hilbert-difference-t1",
                         "non-degeneracy-dim-I1", "dimension-degree")]
        assert validate_matrix(A, J).ok
        assert validate_matrix(A, J, prime=None).singular_entries == [(1, 0)]
        leads = [g.exps + (0,) for g in J.gens]
        polys = [expand(bar(g, A), A, None) for g in J.gens]
        assert (buchberger_failure(polys, leads, A.lifted_variables)
                == "generator 2 does not lead with its source monomial")


def off_variable_multiple_of_the_prime():
    """A 1-lift in two variables whose entry (2, 1) is 32003*x1 + x2 + 3u:
    a lifting mod 32003, not over Z."""
    rows = ((LinearForm((1, 0, 1)), LinearForm((1, 0, 2))),
            (LinearForm((P, 1, 3)), LinearForm((0, 1, 5))))
    return LiftingMatrix(rows, 2, 1, "t-lift", None)


def _shape_valid_case(rng):
    """A random matrix with a lifting's shape over Z and a random monomial
    ideal of generator degree <= 4 that uses it: a t-lift (t = 1..3) or a
    ``bf`` matrix, n = 2..4 x-variables, some first rows dropped for
    ``bf``.  Own coefficients are nonzero, u-parts are zero one time in
    four, and an entry repeats a multiple of the one before it one time
    in four.  Also returns which of these it has."""
    kind = rng.choice(["t-lift", "t-lift", "bf"])
    ambient_n = rng.randint(2, 4)
    t = rng.randint(1, 3) if kind == "t-lift" else 0
    n = rng.randint(1, ambient_n) if kind == "bf" else ambient_n
    offset = ambient_n - n
    features = {"dropped": offset > 0, "zero-u": False, "proportional": False}
    rows = []
    for j in range(n):
        v = offset + j
        row = []
        for _ in range(4):
            coeffs = [0] * (ambient_n + t)
            if row and rng.random() < 0.25:
                k = rng.choice([-2, -1, 2, 3])
                coeffs = [k * c for c in row[-1].coeffs]
                features["proportional"] = True
            else:
                coeffs[v] = rng.choice([-3, -2, -1, 1, 2, 3, 5])
                if kind == "bf" and v:
                    coeffs[0] = rng.randint(-3, 3)
                if t and rng.random() < 0.25:
                    features["zero-u"] = True
                else:
                    coeffs[ambient_n:] = [rng.randint(-4, 4) for _ in range(t)]
            row.append(LinearForm(tuple(coeffs)))
        rows.append(tuple(row))
    A = LiftingMatrix(tuple(rows), ambient_n, t, kind, None)
    gens = []
    for _ in range(rng.randint(1, 6)):
        exps = [0] * n
        for _ in range(rng.randint(1, 4)):
            exps[rng.randrange(n)] += 1
        gens.append(Monomial(tuple(exps)))
    return A, MonomialIdeal.from_gens(n, gens), features


class TestLiftingTheorem:
    """The lifting theorem (``lifting`` module docstring) replaces
    Buchberger's criterion over Z; the criterion, kept in
    ``buchberger_z``, agrees with it on random shape-valid matrices."""

    def test_buchberger_over_z_agrees_on_random_shape_valid_matrices(self):
        rng = random.Random(22)
        seen = {"dropped": 0, "zero-u": 0, "proportional": 0, "non-borel": 0}
        for _ in range(600):
            A, J, features = _shape_valid_case(rng)
            assert validate_matrix(A, J, prime=None).singular_entries == []
            offset = A.ambient_n - A.n_source
            leads = [(0,) * offset + g.exps + (0,) * A.t for g in J.gens]
            polys = [expand(bar(g, A), A, None) for g in J.gens]
            assert buchberger_failure(polys, leads, A.lifted_variables) is None, (A, J)
            for name, present in features.items():
                seen[name] += present
            seen["non-borel"] += not is_borel_fixed(J)
        assert min(seen.values()) >= 100, seen
