"""Lifting matrices, the bar operator m -> prod L_{j,i}, lifted ideals as
factor lists, and the explicit point model for one-new-variable liftings
of Artinian ideals."""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass

from .hilbert import difference, hilbert_function
from .monomials import Monomial, MonomialIdeal, is_artinian, standard_monomials
from .oracle import (DEFAULT_PRIME, check_dmax, check_prime, expand,
                     graded_dim, hilbert_oracle, rank_mod_p, scope)

import numpy as np


class MatrixError(ValueError):
    """Malformed or insufficient lifting matrix."""


class LiftError(ValueError):
    """A lift that is refused: a zero or unit source, a lifted-ideal record
    that is malformed or not what ``lift_record`` makes from its own source
    and matrix, or a horizon ``check_dmax`` refuses."""


@dataclass(frozen=True)
class LinearForm:
    """A linear form as an integer coefficient vector over the ambient
    variables (the x's followed by the u's)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if all(c == 0 for c in self.coeffs):
            raise ValueError("zero linear form")


@dataclass(frozen=True)
class LiftingMatrix:
    """Rows of linear forms; row j supplies the factors replacing powers
    of the j-th source variable.

    ambient_n x-variables plus t u-variables; kind is "bf" for the
    integer-shift pseudo-lifting matrix, "t-lift" for a proper t-lifting
    (entries confined to K[x_j, u_1..u_t]).
    """

    rows: tuple[tuple[LinearForm, ...], ...]
    ambient_n: int
    t: int
    kind: str
    seed: int | None = None

    @property
    def N(self) -> int:
        return self.ambient_n + self.t

    @property
    def n_source(self) -> int:
        return len(self.rows)

    def drop_first_row(self) -> "LiftingMatrix":
        return LiftingMatrix(self.rows[1:], self.ambient_n, self.t, self.kind, self.seed)

    def to_json(self) -> dict:
        if self.kind == "bf":
            kind = "bf"
        else:
            kind = {"t": self.t, "seed": self.seed}
        return {
            "schema": "matrix/1",
            "kind": kind,
            "ambient_n": self.ambient_n,
            "t": self.t,
            "rows": [[list(f.coeffs) for f in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LiftingMatrix":
        spec = data["kind"]
        if spec == "bf":
            kind, seed = "bf", None
        elif isinstance(spec, dict):
            kind, seed = "t-lift", spec.get("seed")
        else:
            raise MatrixError(f"unknown matrix kind {spec!r}")
        matrix = cls(
            tuple(
                tuple(LinearForm(tuple(c)) for c in row) for row in data["rows"]
            ),
            data["ambient_n"],
            data["t"],
            kind,
            seed,
        )
        if any(len(f.coeffs) != matrix.N for row in matrix.rows for f in row):
            raise MatrixError(
                f"every linear form needs ambient_n + t = {matrix.N} coefficients"
            )
        return matrix

    def content_hash(self) -> str:
        blob = canonical_json(self.to_json()).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def default_matrix(n: int, style: str, seed: int = 0, ncols: int = 8,
                   t: int = 1) -> LiftingMatrix:
    """Standard matrices.

    style "bf": ambient n, no new variables; row for x_j (j >= 2) has
    entries x_j + (i-1)*x_1, and row 1 carries the x_1-multiples i*x_1
    whose columns are consumed only by x_1-powers.

    style "t-lift": ambient n plus t new variables u; row j has entries
    x_j + sum_k c_{j,i,k} u_k with coefficient vectors drawn
    deterministically from the seed in [1, 2999]^t, distinct within each
    row; more than 2999^t columns is a LiftError.
    """
    if style == "bf":
        rows = []
        for j in range(n):
            row = []
            for i in range(ncols):
                coeffs = [0] * n
                if j == 0:
                    coeffs[0] = i + 1
                else:
                    coeffs[j] = 1
                    coeffs[0] = i
                row.append(LinearForm(tuple(coeffs)))
            rows.append(tuple(row))
        return LiftingMatrix(tuple(rows), n, 0, "bf")
    if style == "t-lift":
        if ncols > 2999 ** t:
            raise LiftError(f"{ncols} columns of distinct coefficient vectors "
                            f"in [1, 2999]^{t}: at most {2999 ** t} exist")
        rng = random.Random(seed)
        N = n + t
        rows = []
        for j in range(n):
            seen = set()
            row = []
            for _ in range(ncols):
                while True:
                    cs = tuple(rng.randrange(1, 3000) for _ in range(t))
                    if cs not in seen:
                        seen.add(cs)
                        break
                coeffs = [0] * N
                coeffs[j] = 1
                for k, c in enumerate(cs):
                    coeffs[n + k] = c
                row.append(LinearForm(tuple(coeffs)))
            rows.append(tuple(row))
        return LiftingMatrix(tuple(rows), n, t, "t-lift", seed)
    raise ValueError(f"unknown style {style!r}")


@dataclass
class ValidationReport:
    ok: bool
    used_cols: tuple[int, ...]
    proportional_pairs: list  # (row, col, col) entries proportional in a row
    dependent_selections: list  # tuples of (row, col) choices with a rank drop
    selections_checked: int
    prime: int

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "used_cols": list(self.used_cols),
            "proportional_pairs": self.proportional_pairs,
            "dependent_selections": [list(map(list, s)) for s in self.dependent_selections],
            "selections_checked": self.selections_checked,
            "prime": self.prime,
        }


def _proportional(a: LinearForm, b: LinearForm, prime: int) -> bool:
    n = len(a.coeffs)
    for i in range(n):
        for j in range(i + 1, n):
            if (a.coeffs[i] * b.coeffs[j] - a.coeffs[j] * b.coeffs[i]) % prime:
                return False
    return True


SELECTION_LIMIT = 10**6


def validate_matrix(A: LiftingMatrix, J: MonomialIdeal,
                    prime: int = DEFAULT_PRIME) -> ValidationReport:
    """Check, modulo ``prime``, the genericity conditions a "sufficiently
    general" matrix of linear forms is assumed to satisfy over the field
    the lift is computed in.

    (a) for t-lifting matrices, no two used entries of a row are
        proportional mod ``prime`` (some 2x2 minor of their coefficient
        vectors is nonzero mod ``prime``), so their point slices are
        distinct;
    (b) every selection of one used entry per row is linearly independent
        mod ``prime``, which makes the row products cut out a
        codimension-n complete intersection.

    Every pair and every selection is checked.  More than SELECTION_LIMIT
    selections is a MatrixError, raised before any rank is taken.
    """
    if J.n != A.n_source:
        raise MatrixError(
            f"ideal in {J.n} variables vs matrix with {A.n_source} rows"
        )
    used = tuple(
        max((g.exps[j] for g in J.gens), default=0) for j in range(A.n_source)
    )
    for j, u in enumerate(used):
        if u > len(A.rows[j]):
            raise MatrixError(f"row {j + 1} has {len(A.rows[j])} columns, needs {u}")
    active = [j for j, u in enumerate(used) if u > 0]
    total = math.prod(used[j] for j in active)
    if total > SELECTION_LIMIT:
        raise MatrixError(f"{total} selections to check, more than {SELECTION_LIMIT}")

    proportional_pairs = []
    if A.kind == "t-lift":
        for j, u in enumerate(used):
            for c1, c2 in itertools.combinations(range(u), 2):
                if _proportional(A.rows[j][c1], A.rows[j][c2], prime):
                    proportional_pairs.append((j, c1, c2))

    dependent = []
    checked = 0
    choices = [range(used[j]) for j in active]
    for combo in (itertools.product(*choices) if choices else ()):
        checked += 1
        sel = tuple(zip(active, combo))
        M = np.array([A.rows[j][c].coeffs for j, c in sel], dtype=np.int64)
        if rank_mod_p(M, prime) < len(sel):
            dependent.append(sel)
            if len(dependent) >= 20:
                break

    ok = not proportional_pairs and not dependent
    return ValidationReport(ok, used, proportional_pairs, dependent, checked, prime)


@dataclass(frozen=True)
class LiftedGenerator:
    """bar(m): factor references (row, column) into a lifting matrix, with
    exactly a_j factors from row j taken from columns 1..a_j."""

    source: Monomial
    factors: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return len(self.factors)


def bar(m: Monomial, A: LiftingMatrix) -> LiftedGenerator:
    """Lift a monomial to its factor list (the empty product for 1)."""
    if m.n != A.n_source:
        raise MatrixError("ambient mismatch")
    factors = []
    for j, a in enumerate(m.exps):
        if a > len(A.rows[j]):
            raise MatrixError(
                f"row {j + 1} has {len(A.rows[j])} columns, needs {a}"
            )
        factors.extend((j, i) for i in range(a))
    return LiftedGenerator(m, tuple(factors))


@dataclass(frozen=True)
class LiftedIdeal:
    source: MonomialIdeal
    matrix: LiftingMatrix
    generators: tuple[LiftedGenerator, ...]

    @property
    def N(self) -> int:
        return self.matrix.N

    def polynomials(self, p: int | None = DEFAULT_PRIME) -> list:
        return [expand(g, self.matrix, p) for g in self.generators]

    def to_json(self) -> dict:
        return {
            "schema": "lifted/1",
            "source": self.source.to_json(),
            "matrix": self.matrix.to_json(),
            "matrix_hash": self.matrix.content_hash(),
            "generators": [
                {"source": list(g.source.exps), "factors": [list(f) for f in g.factors]}
                for g in self.generators
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LiftedIdeal":
        matrix = LiftingMatrix.from_json(data["matrix"])
        if matrix.content_hash() != data["matrix_hash"]:
            raise MatrixError("matrix hash mismatch: tampered lifted ideal")
        return cls(
            MonomialIdeal.from_json(data["source"]),
            matrix,
            tuple(
                LiftedGenerator(
                    Monomial(tuple(g["source"])),
                    tuple(tuple(f) for f in g["factors"]),
                )
                for g in data["generators"]
            ),
        )


def lift_ideal(J: MonomialIdeal, A: LiftingMatrix,
               prime: int = DEFAULT_PRIME) -> LiftedIdeal:
    """One lifted generator per minimal generator of J; the matrix must
    pass validation first."""
    report = validate_matrix(A, J, prime=prime)
    if not report.ok:
        raise MatrixError(f"matrix failed validation: {report.to_json()}")
    return LiftedIdeal(J, A, tuple(bar(g, A) for g in J.gens))


@dataclass(frozen=True)
class PointConfiguration:
    """Distinct points (affine u=1 chart coordinates mod p), one per
    standard monomial of the source ideal."""

    prime: int
    points: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, ...], ...]  # standard monomial exponents

    def to_json(self) -> dict:
        return {
            "schema": "points/1",
            "prime": self.prime,
            "points": [list(pt) for pt in self.points],
            "labels": [list(lb) for lb in self.labels],
        }


def point_model(J: MonomialIdeal, A: LiftingMatrix,
                prime: int = DEFAULT_PRIME) -> PointConfiguration:
    """Explicit zero-scheme of a 1-lifting of an Artinian ideal.

    The point for a standard monomial x^c solves L_{j, c_j + 1} = 0 for
    every j on the chart u = 1.  Verifies that the points are pairwise
    distinct and that every lifted generator vanishes on every point.
    """
    if not is_artinian(J):
        raise ValueError("point model requires an Artinian source ideal")
    if A.kind != "t-lift" or A.t != 1:
        raise MatrixError("point model requires a t-lifting matrix with t = 1")
    n = J.n
    std = []
    d = 0
    while True:
        layer = standard_monomials(J, d)
        if not layer:
            break
        std.extend(layer)
        d += 1

    generators = [bar(m, A) for m in J.gens]
    points = []
    for m in std:
        coords = []
        for j in range(n):
            form = A.rows[j][m.exps[j]]
            xc = form.coeffs[j] % prime
            uc = form.coeffs[n] % prime
            if xc == 0:
                raise MatrixError(f"singular slice for {m} in row {j + 1}")
            coords.append((-uc * pow(xc, prime - 2, prime)) % prime)
        coords.append(1)
        points.append(tuple(coords))

    if len(set(points)) != len(points):
        raise MatrixError("point model produced coincident points")

    for g in generators:
        for pt in points:
            value = 1
            for r, c in g.factors:
                form = A.rows[r][c]
                value = (value * sum(
                    fc * pc for fc, pc in zip(form.coeffs, pt)
                )) % prime
            if value != 0:
                raise MatrixError(
                    f"lifted generator of {g.source} does not vanish at {pt}"
                )
    return PointConfiguration(prime, tuple(points), tuple(m.exps for m in std))


def lift_record(J: MonomialIdeal, A: LiftingMatrix,
                prime: int = DEFAULT_PRIME) -> dict:
    """The record ``liaison lift`` writes: the lifted ideal's JSON, plus
    its point model under ``"points"`` for a 1-lifting of an Artinian
    source."""
    if J.is_zero or J.is_unit:
        raise LiftError("cannot lift a zero or unit ideal")
    record = lift_ideal(J, A, prime=prime).to_json()
    if A.kind == "t-lift" and A.t == 1 and is_artinian(J):
        record["points"] = point_model(J, A, prime=prime).to_json()
    return record


def canonical_json(value) -> str:
    """JSON text with sorted keys: equal exactly for equal documents."""
    return json.dumps(value, sort_keys=True)


@scope()
def verify_lift(data: dict, prime: int = DEFAULT_PRIME,
                dmax: int | None = None) -> dict:
    """The ``lift-report/1`` of a stored lift record: its checks, made
    modulo ``prime`` through ``dmax`` (by default the floor, max generator
    degree + number of lifted variables).

    The record must be exactly what ``lift_record`` makes from its own
    source and matrix, with the points rebuilt at the prime they record;
    otherwise LiftError names the keys that differ.
    """
    try:
        L = LiftedIdeal.from_json(data)
        J, A = L.source, L.matrix
        at = check_prime(data["points"]["prime"]) if "points" in data else prime
        replay = lift_record(J, A, prime=at)
    except (KeyError, TypeError, ValueError) as exc:
        raise LiftError(f"malformed lifted ideal: {exc}")
    differ = sorted(k for k in data.keys() | replay.keys()
                    if canonical_json(data.get(k)) != canonical_json(replay.get(k)))
    if differ:
        raise LiftError("lifted ideal differs from the lift of its own source "
                        f"and matrix in: {', '.join(differ)}")
    try:
        dmax = check_dmax(dmax, J.max_gen_degree + A.N, A.N)
    except ValueError as exc:
        raise LiftError(str(exc))

    report = validate_matrix(A, J, prime=prime)
    checks = [("matrix-validation", report.ok, f"prime {report.prime}")]
    polys = L.polynomials(prime)
    hf = hilbert_oracle(polys, dmax, A.N, prime)
    source_h = hilbert_function(J, dmax)
    try:
        diff = difference(hf, A.t)
        checks.append((f"hilbert-difference-t{A.t}", diff.values == source_h.values,
                       f"difference {diff.values}"))
    except ValueError as exc:
        checks.append((f"hilbert-difference-t{A.t}", False, str(exc)))
    stable = (not (is_artinian(J) and A.t == 1)
              or hf.at(dmax) == hf.at(dmax - 1) == hf.at(dmax - 2))
    checks.append(("saturation-spot-check", stable,
                   f"tail values {hf.values[-3:]}"))
    if A.kind == "t-lift":
        # A proper lifting of a nonzero ideal spans no linear forms: the
        # lifted scheme is nondegenerate in its ambient space.
        checks.append(("non-degeneracy-dim-I1",
                       graded_dim(polys, 1, A.N, prime) == 0, ""))
    if "points" in replay:
        got, want = len(replay["points"]["points"]), sum(source_h.values)
        checks.append(("point-model", got == want, f"{got} points, expected {want}"))
    return {"schema": "lift-report/1", "prime": prime, "dmax": dmax,
            "ok": all(passed for _, passed, _ in checks),
            "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in checks]}
