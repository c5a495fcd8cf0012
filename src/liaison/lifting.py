"""Lifting matrices, the bar operator m -> prod L_{j,i}, lifted ideals as
factor lists, and the explicit point model for one-new-variable liftings
of Artinian ideals.

The lifting theorem proves a lift's Gröbner basis, so no S-pair of one is
reduced.  Distractions (Bigatti, Conca and Robbiano, Comm. Algebra 33,
2005, §2; Hartshorne, Publ. IHES 29, 1966): let L have one row of linear
forms of R = K[y_1..y_N] per variable, each row ending in its variable,
and let every selection of one entry per row be linearly independent.
Then the ideal D_L(I) generated by D_L(y^a) = prod_i prod_{j <= a_i}
L_{i,j} over the minimal generators y^a of a monomial ideal I has the
Hilbert function of I.

A matrix with the shape ``validate_matrix`` checks is such an L for
J·R, where R holds the x's and the u's: continue row j, whose own
variable is x_v, with x_v past its used columns, and give every other
variable (the u's, and the x's of dropped rows) the constant row of
itself.  The coefficients of a selection then form a triangular matrix
with a nonzero diagonal: an entry of x_v's row has no x-part outside x_v,
except x_1 for ``bf``, and its coefficient of x_v is nonzero.  So
bar J = D_L(J·R) has the Hilbert function of J·R.  In revlex with the
lifted variables last (``LiftingMatrix.lifted_variables``: the u's, or
x_1 for ``bf``), each entry of x_v's row leads with x_v, so bar(m) leads
with c·m, c != 0, and J·R ⊆ in(bar J).  Equal Hilbert functions make it
an equality: the lifted generators are a Gröbner basis, and the lifted
variables J does not involve are a regular sequence on R/bar J (Bayer
and Stillman, 1987).  Over Q the shape must hold over Z, over F_p mod p:
``validate_matrix`` finds no ``singular_entries`` in that field (p = None
for Z).  ``lift_ideal`` requires it at its prime, and ``verify_lift``
over Z.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import marshal
import math
import random
from dataclasses import dataclass, field
from operator import add, mul

from .hilbert import (
    hilbert_function_artinian,
    hilbert_numerator,
    hilbert_value,
    hilbert_values,
    numerator_degree,
)
from .monomials import Monomial, MonomialIdeal, is_artinian, json_int, standard_monomials

DEFAULT_PRIME = 32003
# The library computes with Python ints.  The bound lets the tests' int64
# Macaulay-matrix reference replay at any prime the CLI accepts (p² fits
# int64), and keeps ``check_prime``'s trial division short.
MAX_PRIME = 3_037_000_499

# A polynomial is a dict mapping exponent tuples to nonzero coefficients.
# Coefficients are ints; reduced mod p by the routines that consume them.
Poly = dict


def check_prime(p) -> int:
    """Return ``p`` if it is a prime in [2, MAX_PRIME]; raise ValueError
    otherwise."""
    if (not isinstance(p, int) or not 2 <= p <= MAX_PRIME
            or any(p % q == 0 for q in range(2, math.isqrt(p) + 1))):
        raise ValueError(f"modulus {p!r} is not a prime in [2, {MAX_PRIME}]")
    return p


def poly_degree(f: Poly) -> int:
    if not f:
        return -1
    degrees = {sum(e) for e in f}
    if len(degrees) != 1:
        raise ValueError("polynomial is not homogeneous")
    return degrees.pop()


def poly_normalize(f: Poly, p: int | None) -> Poly:
    if p is None:
        return {e: c for e, c in f.items() if c != 0}
    return {e: c % p for e, c in f.items() if c % p != 0}


def poly_mul(f: Poly, g: Poly, p: int | None) -> Poly:
    out: Poly = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return poly_normalize(out, p)


def linear_form_poly(coeffs, p: int | None = None) -> Poly:
    """Degree-1 polynomial from a coefficient vector."""
    N = len(coeffs)
    out: Poly = {}
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * N
            e[i] = 1
            out[tuple(e)] = c
    return poly_normalize(out, p)


def expand(gen, matrix, p: int | None = DEFAULT_PRIME, memo: dict | None = None) -> Poly:
    """Expand a lifted generator (factor references into a matrix): the
    product of its linear forms mod p, or over Z when p is None, taken
    from the last row's forms to the first row's; the empty product is
    the constant 1.

    ``memo`` is a trie of the runs of forms already multiplied: it maps a
    form's coefficient tuple to the product of the run ending there and
    the trie of the runs that continue it.  A generator multiplies only
    the forms past the longest run it shares with one expanded before, so
    bar(x_1^k·m) reuses the product bar'(m) by the matrix with its first
    row dropped.  One memo serves one p; without one nothing is kept."""
    node = {} if memo is None else memo
    acc: Poly = {(0,) * matrix.N: 1}
    for r, c in sorted(gen.factors, key=lambda f: -f[0]):  # stable: columns ascend
        coeffs = matrix.rows[r][c].coeffs
        hit = node.get(coeffs)
        if hit is None:
            hit = node[coeffs] = (poly_mul(acc, linear_form_poly(coeffs, p), p), {})
        acc, node = hit
    return acc


class MatrixError(ValueError):
    """Malformed or insufficient lifting matrix."""


class InvalidMatrix(MatrixError):
    """A lift refused because ``validate_matrix`` rejects its matrix;
    ``report`` is what it found."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(f"matrix failed validation: {report.to_json()}")
        self.report = report


class LiftError(ValueError):
    """A lift that is refused: a zero or unit source, a lifted-ideal record
    that is malformed or not what ``lift_record`` makes from its own source
    and matrix, or a lift past a size limit (``BF_COLUMN_LIMIT``,
    ``COEFFICIENT_LIMIT``, ``POINT_LIMIT``)."""


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

    @property
    def lifted_variables(self) -> tuple[int, ...]:
        """The variables a lift orders last: the u's of a t-lift, x_1 for
        ``bf``.  In revlex with them smallest each lifted generator leads
        with the monomial it lifts."""
        return (0,) if self.kind == "bf" else tuple(range(self.ambient_n, self.N))

    def drop_first_row(self) -> "LiftingMatrix":
        return LiftingMatrix(self.rows[1:], self.ambient_n, self.t, self.kind, self.seed)

    def to_json(self) -> dict:
        kind = "bf" if self.kind == "bf" else {"seed": self.seed, "t": self.t}
        return {
            "ambient_n": self.ambient_n,
            "kind": kind,
            "rows": [[list(f.coeffs) for f in row] for row in self.rows],
            "schema": "matrix/1",
            "t": self.t,
        }

    @classmethod
    def from_json(cls, data: dict) -> "LiftingMatrix":
        """The matrix a ``matrix/1`` document stores: ``ambient_n`` and
        ``t`` must be integers >= 0, and every coefficient and a t-lift's
        ``seed``, unless null, an integer (``json_int``).  A t-lift's kind
        must name its ``t``.  A ``bf`` matrix, and a t-lift with a seed,
        must be the last rows of the ``default_matrix`` its kind, seed and
        row length name (MatrixError otherwise)."""
        spec = data["kind"]
        if spec == "bf":
            kind, seed = "bf", None
        elif isinstance(spec, dict):
            kind, seed = "t-lift", spec.get("seed")
            if seed is not None:
                json_int(seed, "seed", None)
        else:
            raise MatrixError(f"unknown matrix kind {spec!r}")
        matrix = cls(
            tuple(
                tuple(LinearForm(tuple(json_int(c, "coefficient", None) for c in form))
                      for form in row)
                for row in data["rows"]
            ),
            json_int(data["ambient_n"], "ambient_n"),
            json_int(data["t"], "t"),
            kind,
            seed,
        )
        if any(len(f.coeffs) != matrix.N for row in matrix.rows for f in row):
            raise MatrixError(
                f"every linear form needs ambient_n + t = {matrix.N} coefficients"
            )
        if kind == "t-lift" and json_int(spec.get("t"), "kind t", None) != matrix.t:
            raise MatrixError(f"kind names t = {spec['t']}, the matrix has t = {matrix.t}")
        if kind == "bf" or seed is not None:
            _check_default(matrix)
        return matrix

    def content_hash(self) -> str:
        return _digest(self.to_json())


def _digest(document: dict) -> str:
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()[:16]


def _default_rows(n: int, kind: str, seed: int | None, ncols: int, t: int,
                  first: int = 0):
    """The coefficient tuples of rows ``first``..n-1 of
    ``default_matrix(n, kind, seed, ncols, t)``, one list per row.  No row
    before ``first`` is built; a t-lift only draws their vectors."""
    if kind == "bf":
        for j in range(first, n):
            row = []
            for i in range(ncols):
                coeffs = [0] * n
                if j == 0:
                    coeffs[0] = i + 1
                else:
                    coeffs[j], coeffs[0] = 1, i
                row.append(tuple(coeffs))
            yield row
        return
    rng = random.Random(seed)
    for j in range(n):
        drawn: dict = {}  # an ordered set
        while len(drawn) < ncols:
            drawn.setdefault(tuple(rng.randrange(1, 3000) for _ in range(t)))
        if j >= first:
            unit = tuple(int(k == j) for k in range(n))
            yield [unit + cs for cs in drawn]


def _check_default(A: LiftingMatrix) -> None:
    """Raise MatrixError unless A's rows are the last n_source rows of
    ``default_matrix(ambient_n, kind, seed, ncols, t)``.  Each stored
    entry is compared with its formula, and the rows before them are not
    built.  A t-lift still draws their coefficients, so one whose dropped
    rows draw more than its stored rows hold is refused: the cost stays
    linear in the document."""
    ncols = len(A.rows[0]) if A.rows else 0
    skip = A.ambient_n - A.n_source
    if skip < 0 or any(len(row) != ncols for row in A.rows):
        raise MatrixError("a default matrix has at most ambient_n rows, "
                          "all of one length")
    if ncols == 0:
        return
    if A.kind == "t-lift":
        if skip * A.t > A.n_source * A.N:
            raise MatrixError(f"{skip} dropped rows with t = {A.t} draw more "
                              f"coefficients than the {A.n_source} stored rows hold")
        # 2999^ncols >= ncols, so the exponent can stop at ncols.
        if ncols > 2999 ** min(A.t, ncols):
            raise MatrixError(f"{ncols} columns of distinct coefficient vectors "
                              f"in [1, 2999]^{A.t} do not exist")
    name = "bf matrix" if A.kind == "bf" else f"t-lift matrix of seed {A.seed}"
    want = _default_rows(A.ambient_n, A.kind, A.seed, ncols, A.t, skip)
    for j, (row, coeffs) in enumerate(zip(A.rows, want)):
        for i, (form, c) in enumerate(zip(row, coeffs)):
            if form.coeffs != c:
                raise MatrixError(f"row {j + 1}, column {i + 1} differs from "
                                  f"the default {name}")


BF_COLUMN_LIMIT = 10**5
"""Ceiling on the columns of a ``bf`` matrix, checked before any row is
built.  A ``bf`` matrix has one column per degree of J's largest
generator, so in one variable it bounds the numerator ``verify_lift``
reads, which ``COEFFICIENT_LIMIT`` alone would let reach 10^6 terms."""

COEFFICIENT_LIMIT = 10**6
"""Ceiling on the coefficients the rows of a default matrix hold, n rows
of ``ncols`` forms in N = n + t variables, checked for both kinds before
any row is built: a lift builds or draws each, and its record stores
each."""


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

    Rows of more than COEFFICIENT_LIMIT coefficients, and a ``bf`` matrix
    of more than BF_COLUMN_LIMIT columns, checked first, are LiftErrors.
    """
    if style == "bf":
        if ncols > BF_COLUMN_LIMIT:
            raise LiftError(f"{ncols} columns in a bf matrix, more than "
                            f"BF_COLUMN_LIMIT = {BF_COLUMN_LIMIT}")
        t, seed = 0, None
    elif style != "t-lift":
        raise ValueError(f"unknown style {style!r}")
    if n * ncols * (n + t) > COEFFICIENT_LIMIT:
        raise LiftError(f"{n * ncols * (n + t)} coefficients in a {style} matrix, more than "
                        f"COEFFICIENT_LIMIT = {COEFFICIENT_LIMIT}")
    if style == "t-lift" and ncols > 2999 ** min(t, ncols):  # 2999^ncols >= ncols
        raise LiftError(f"{ncols} columns of distinct coefficient vectors "
                        f"in [1, 2999]^{t}: at most {2999 ** t} exist")
    rows = tuple(tuple(map(LinearForm, row))
                 for row in _default_rows(n, style, seed, ncols, t))
    return LiftingMatrix(rows, n, t, style, seed)


def default_matrix_for(J: MonomialIdeal, style: str, seed: int = 0,
                       t: int = 1) -> LiftingMatrix:
    """The ``default_matrix`` of ``style`` for J: one column per degree of
    its largest generator."""
    return default_matrix(J.n, style, seed, ncols=max(J.max_gen_degree, 1), t=t)


@dataclass
class ValidationReport:
    """What ``validate_matrix`` found, in the field ``prime`` names (None
    for Z).  ``selections_checked`` is the number of selections of one
    used entry per row, which the shape rule proves independent at once."""

    ok: bool
    used_cols: tuple[int, ...]
    proportional_pairs: list  # (row, col, col) entries proportional in a row
    singular_entries: list  # (row, col) used entries without a lifting's shape
    selections_checked: int
    prime: int | None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "used_cols": list(self.used_cols),
            "proportional_pairs": self.proportional_pairs,
            "singular_entries": [list(e) for e in self.singular_entries],
            "selections_checked": self.selections_checked,
            "prime": self.prime,
        }


def _nonzero(c: int, p: int | None) -> bool:
    """Whether c is nonzero mod p, or over Z for None (``poly_normalize``)."""
    return bool(c if p is None else c % p)


def _proportional(a: LinearForm, b: LinearForm, p: int | None) -> bool:
    """Whether no 2x2 minor of the coefficient vectors is ``_nonzero``."""
    return not any(_nonzero(ai * bj - aj * bi, p) for (ai, bi), (aj, bj)
                   in itertools.combinations(zip(a.coeffs, b.coeffs), 2))


def validate_matrix(A: LiftingMatrix, J: MonomialIdeal,
                    prime: int | None = DEFAULT_PRIME) -> ValidationReport:
    """Check, in one walk over the used entries, the conditions under which
    A lifts J over the field ``prime`` names: F_p, or Q when it is None,
    with "nonzero" read over Z.

    (a) for t-lifting matrices, no two used entries of a row are
        proportional (some 2x2 minor of their coefficient vectors is
        nonzero), so their point slices are distinct;
    (b) every used entry of row j has the shape of a lifting.  Its own
        variable is x_v, v = ambient_n - n_source + j (so a matrix with
        its first rows dropped keeps its variables).  A t-lift entry has
        no x-part outside x_v, a bf entry none outside {x_v, x_1}, and
        the coefficient of x_v is nonzero.  Then the x-part of any
        selection of one used entry per row is diagonal (t-lift) or
        triangular (bf) with a nonzero diagonal: every selection is
        linearly independent, and the row products cut out a
        codimension-n complete intersection.  No rank is taken.  Over Z
        this is the hypothesis of the lifting theorem over Q
        (``verify_lift``).

    A matrix with more rows than x-variables is a MatrixError.
    """
    if J.n != A.n_source:
        raise MatrixError(
            f"ideal in {J.n} variables vs matrix with {A.n_source} rows"
        )
    offset = A.ambient_n - A.n_source
    if offset < 0:
        raise MatrixError(f"{A.n_source} rows for {A.ambient_n} x-variables")
    used = tuple(
        max((g.exps[j] for g in J.gens), default=0) for j in range(A.n_source)
    )
    for j, u in enumerate(used):
        if u > len(A.rows[j]):
            raise MatrixError(f"row {j + 1} has {len(A.rows[j])} columns, needs {u}")

    proportional_pairs = []
    if A.kind == "t-lift":
        for j, u in enumerate(used):
            for c1, c2 in itertools.combinations(range(u), 2):
                if _proportional(A.rows[j][c1], A.rows[j][c2], prime):
                    proportional_pairs.append((j, c1, c2))

    singular = []
    for j, u in enumerate(used):
        v = offset + j
        own = {v, 0} if A.kind == "bf" else {v}
        for c in range(u):
            x = A.rows[j][c].coeffs[:A.ambient_n]
            if not _nonzero(x[v], prime) or any(
                    _nonzero(a, prime) for k, a in enumerate(x) if k not in own):
                singular.append((j, c))

    selections = math.prod(u for u in used if u) if any(used) else 0
    ok = not proportional_pairs and not singular
    return ValidationReport(ok, used, proportional_pairs, singular, selections, prime)


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
    """The lift of ``source`` by ``matrix``.  ``validation`` is the
    report that passed it, at its prime; equality and JSON ignore it."""

    source: MonomialIdeal
    matrix: LiftingMatrix
    generators: tuple[LiftedGenerator, ...]
    validation: ValidationReport = field(compare=False, repr=False)

    @property
    def N(self) -> int:
        return self.matrix.N

    def polynomials(self, p: int | None = DEFAULT_PRIME, memo: dict | None = None) -> list:
        """The generators expanded mod p (over Z when p is None), all with
        one ``expand`` memo: generators that share a run of forms share
        its product.  A caller's ``memo``, for the same p, also shares the
        products of the lifts expanded with it before."""
        memo = {} if memo is None else memo
        return [expand(g, self.matrix, p, memo) for g in self.generators]

    def initial_ideal(self) -> MonomialIdeal:
        """J·R, the source in the rows' own variables: the initial ideal
        in revlex with ``matrix.lifted_variables`` last, by the lifting
        theorem (module docstring), over F_p at the prime ``validation``
        passed the matrix at."""
        A = self.matrix
        return self.source.pad(A.ambient_n - A.n_source, A.t)

    def to_json(self) -> dict:
        return {
            "generators": [
                {"factors": [list(f) for f in g.factors], "source": list(g.source.exps)}
                for g in self.generators
            ],
            "matrix": self.matrix.to_json(),
            "matrix_hash": self.matrix.content_hash(),
            "schema": "lifted/1",
            "source": self.source.to_json(),
        }


def lift_ideal(J: MonomialIdeal, A: LiftingMatrix,
               prime: int = DEFAULT_PRIME) -> LiftedIdeal:
    """One lifted generator per minimal generator of J; the matrix must
    pass validation at ``prime`` first (InvalidMatrix otherwise)."""
    report = validate_matrix(A, J, prime=prime)
    if not report.ok:
        raise InvalidMatrix(report)
    return LiftedIdeal(J, A, tuple(bar(g, A) for g in J.gens), report)


@dataclass(frozen=True)
class PointConfiguration:
    """Distinct points (affine u=1 chart coordinates mod p), one per
    standard monomial of the source ideal."""

    prime: int
    points: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, ...], ...]  # standard monomial exponents

    def to_json(self) -> dict:
        return {
            "labels": [list(lb) for lb in self.labels],
            "points": [list(pt) for pt in self.points],
            "prime": self.prime,
            "schema": "points/1",
        }


POINT_LIMIT = 80_000
"""Ceiling on the points of a point model, checked before any is built:
``lift`` and ``verify-lift`` each spend about 0.12 ms per point (2-core
x86-64 host, Python 3.11).  The 1-lift of (x1^43, x2^43, x3^43), 79 507
points, takes them 9.5 s and 8.3 s."""


def point_model(J: MonomialIdeal, A: LiftingMatrix,
                prime: int = DEFAULT_PRIME) -> PointConfiguration:
    """Explicit zero-scheme of a 1-lifting of an Artinian ideal.

    The point for a standard monomial x^c solves L_{j, c_j + 1} = 0 for
    every j on the chart u = 1, in the rows' own variables and u (a matrix
    with its first rows dropped lifts to the cone over these points).
    Verifies that the points are pairwise distinct and that every lifted
    generator vanishes on every point.  ``prime`` is prime, so a product
    of forms vanishes at a point iff one of its factors does: each form
    is evaluated once per point, and a generator passes at a point on its
    first vanishing factor.
    The number of points, the sum of J's Hilbert function, is read from
    its closed form first: more than POINT_LIMIT is a LiftError, raised
    before any point is built.
    """
    if not is_artinian(J):
        raise ValueError("point model requires an Artinian source ideal")
    if A.kind != "t-lift" or A.t != 1:
        raise MatrixError("point model requires a t-lifting matrix with t = 1")
    count = sum(hilbert_function_artinian(J).values)
    if count > POINT_LIMIT:
        raise LiftError(f"{count} points in the point model, more than "
                        f"POINT_LIMIT = {POINT_LIMIT}")
    n = J.n
    std = []
    d = 0
    while True:
        layer = standard_monomials(J, d)
        if not layer:
            break
        std.extend(layer)
        d += 1

    offset = A.ambient_n - n  # row j's own variable is x_{offset + j}
    generators = [bar(m, A) for m in J.gens]
    points = []
    for m in std:
        coords = []
        for j in range(n):
            form = A.rows[j][m.exps[j]]
            xc = form.coeffs[offset + j] % prime
            uc = form.coeffs[A.ambient_n] % prime
            if xc == 0:
                raise MatrixError(f"singular slice for {m} in row {j + 1}")
            coords.append((-uc * pow(xc, prime - 2, prime)) % prime)
        coords.append(1)
        points.append(tuple(coords))

    if len(set(points)) != len(points):
        raise MatrixError("point model produced coincident points")

    tails = {f: A.rows[f[0]][f[1]].coeffs[offset:]
             for f in {f for g in generators for f in g.factors}}
    vanishing = [{f for f, tail in tails.items() if sum(map(mul, tail, pt)) % prime == 0}
                 for pt in points]
    for g in generators:
        for pt, zeros in zip(points, vanishing):
            if not any(f in zeros for f in g.factors):
                raise MatrixError(
                    f"lifted generator of {g.source} does not vanish at {pt}"
                )
    return PointConfiguration(prime, tuple(points), tuple(m.exps for m in std))


def _lift(J: MonomialIdeal, A: LiftingMatrix, report: ValidationReport,
          prime: int) -> dict:
    """The record of J lifted by A, whose ``validate_matrix`` report is
    ``report``, with the point model at ``prime`` for a 1-lifting of an
    Artinian J."""
    if J.is_zero or J.is_unit:
        raise LiftError("cannot lift a zero or unit ideal")
    record = LiftedIdeal(J, A, tuple(bar(g, A) for g in J.gens), report).to_json()
    if A.kind == "t-lift" and A.t == 1 and is_artinian(J):
        record["points"] = point_model(J, A, prime=prime).to_json()
    return record


def lift_record(J: MonomialIdeal, A: LiftingMatrix,
                prime: int = DEFAULT_PRIME) -> dict:
    """The record ``liaison lift`` writes: the lifted ideal's JSON, plus
    its point model under ``"points"`` for a 1-lifting of an Artinian
    source.  The matrix must pass validation at ``prime`` first
    (InvalidMatrix otherwise)."""
    report = validate_matrix(A, J, prime=prime)
    if not report.ok:
        raise InvalidMatrix(report)
    return _lift(J, A, report, prime)


def canonical_json(value) -> str:
    """JSON text with sorted keys: equal exactly for equal documents.
    ``same_document`` compares two documents by it without producing it
    when their keys already stand in one order, as every ``to_json`` here
    emits them sorted and a document decoded from this text keeps them."""
    return json.dumps(value, sort_keys=True)


def same_document(a, b) -> bool:
    """Whether the JSON documents ``a`` and ``b`` have the same
    ``canonical_json`` text.  Equal ``marshal`` bytes decide it at once:
    version 2 writes no object references and no interned-string flags,
    so equal bytes mean equal types (``True`` is not ``1``, ``1`` is not
    ``1.0``, a tuple is not a list), equal values and equal key order.
    Unequal bytes, as for keys in another order, and an object marshal
    refuses leave the texts to decide.  Nothing is unmarshalled."""
    try:
        if marshal.dumps(a, 2) == marshal.dumps(b, 2):
            return True
    except ValueError:  # an object marshal refuses
        pass
    return canonical_json(a) == canonical_json(b)


def _numerator_text(num) -> str:
    """The nonzero terms of a polynomial in t, lowest degree first, as
    ``1 - 3t^2 + 2t^3``."""
    terms = [(c, "" if k == 0 else "t" if k == 1 else f"t^{k}")
             for k, c in enumerate(num) if c]
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c) if abs(c) != 1 or not t else ''}{t}"
                    for c, t in terms)
    return ("-" + text[2:] if text.startswith("-") else text[2:]) or "0"


def verify_lift(data: dict) -> dict:
    """The ``lift-report/2`` of a stored lift record.

    The record must be exactly what ``lift_record`` makes from its own
    source and matrix, with the points rebuilt at the prime they record;
    otherwise LiftError names the keys that differ.  Only the source and
    the matrix are decoded: every other key, the generators and the
    matrix hash included, is compared with the replay by
    ``same_document``, so a record whose keys stand in another order
    still verifies and a ``1`` still does not pass for ``true``.  A point
    model past POINT_LIMIT is refused as ``lift`` refuses it.

    ``matrix-validation`` is ``validate_matrix`` over Z, the one walk
    over the used entries.  Every other row is read off J's numerator
    K_J (``hilbert_numerator``), and holds once every used entry has a
    lifting's shape over Z.  Then the lifting theorem (module docstring)
    proves, exactly over Q, that the generators are a Gröbner basis in
    revlex with the lifted variables last, that in(I) = J·R, so that the
    Hilbert series of R/I is K_J / (1 - t)^N, and that the lifted
    variables J does not involve are a regular sequence on R/I, so I is
    saturated.  No generator is expanded.  The rows:
    ``hilbert-difference-t{t}`` the difference of h_{R/I} once per new
    variable (t, plus the x's of dropped rows), which is h_J: all of it
    for an Artinian J, else given by K_J, whose terms it prints; for a t-lift,
    ``non-degeneracy-dim-I1`` that h_{R/I}(1) is N minus the number of
    J's linear generators, each of which lifts to one linear form; and
    ``dimension-degree`` the Krull dimension N - c of R/I and its degree
    Q(1), for K_J = (1 - t)^c·Q(t) (``numerator_degree``): 1 and the
    number of points for a 1-lifting of an Artinian J.  An entry without
    the shape over Z fails these rows, named in their detail: an
    x-coefficient off its own variable that is a nonzero multiple of the
    recorded prime passes the point replay, but no theorem covers it.
    Only that replay works modulo a prime.
    """
    try:
        J = MonomialIdeal.from_json(data["source"])
        A = LiftingMatrix.from_json(data["matrix"])
        at = check_prime(data["points"]["prime"]) if "points" in data else DEFAULT_PRIME
        report = validate_matrix(A, J, prime=None)
        replay = _lift(J, A, report, at)
    except LiftError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise LiftError(f"malformed lifted ideal: {exc}")
    differ = sorted(k for k in data.keys() | replay.keys()
                    if not same_document(data.get(k), replay.get(k)))
    if differ:
        raise LiftError("lifted ideal differs from the lift of its own source "
                        f"and matrix in: {', '.join(differ)}")

    num = hilbert_numerator(J)
    if is_artinian(J):
        h = hilbert_values(num, J.n, len(num))
        while not h[-1]:  # h_J reaches 0 and stays 0
            h.pop()
        detail = f"difference {tuple(h)}"
    else:
        detail = f"numerator {_numerator_text(num)}"
    rows = [(f"hilbert-difference-t{A.t}", True, detail)]
    if A.kind == "t-lift":
        # I_1 is spanned by the lifts of J's linear generators x_v, one
        # linear form each, independent as each leads with its own x_v: the
        # lifted scheme lies in no hyperplane but the ones they cut out.
        h1, want = hilbert_value(num, A.N, 1), A.N - sum(g.degree == 1 for g in J.gens)
        rows.append(("non-degeneracy-dim-I1", h1 == want,
                     "" if h1 == want else f"h(1) = {h1}, expected {want}"))
    codim, degree = numerator_degree(num)
    rows.append(("dimension-degree", True, f"dimension {A.N - codim}, degree {degree}"))
    detail = "over Z"
    if report.proportional_pairs:
        j, c1, c2 = report.proportional_pairs[0]
        detail = f"row {j + 1}, columns {c1 + 1} and {c2 + 1} are proportional over Z"
    if report.singular_entries:
        j, c = report.singular_entries[0]
        detail = f"row {j + 1}, column {c + 1} has no lifting's shape over Z"
        rows = [(name, False, detail) for name, _, _ in rows]
    checks = [("matrix-validation", report.ok, detail)] + rows
    return {"schema": "lift-report/2",
            "ok": all(passed for _, passed, _ in checks),
            "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in checks]}
