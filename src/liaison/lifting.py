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
from operator import add

from .hilbert import difference, hilbert_function, hilbert_function_artinian, partial_sum
from .monomials import Monomial, MonomialIdeal, is_artinian, json_int, standard_monomials
from .oracle import DEFAULT_PRIME, check_prime, expand, horizon


class MatrixError(ValueError):
    """Malformed or insufficient lifting matrix."""


class LiftError(ValueError):
    """A lift that is refused: a zero or unit source, a lifted-ideal record
    that is malformed or not what ``lift_record`` makes from its own source
    and matrix, or a source whose horizon ``horizon`` refuses as too wide."""


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
        t, seed = 0, None
    elif style != "t-lift":
        raise ValueError(f"unknown style {style!r}")
    elif ncols > 2999 ** t:
        raise LiftError(f"{ncols} columns of distinct coefficient vectors "
                        f"in [1, 2999]^{t}: at most {2999 ** t} exist")
    rows = tuple(tuple(map(LinearForm, row))
                 for row in _default_rows(n, style, seed, ncols, t))
    return LiftingMatrix(rows, n, t, style, seed)


@dataclass
class ValidationReport:
    """What ``validate_matrix`` found.  ``selections_checked`` is the
    number of selections of one used entry per row, which the shape rule
    proves independent at once."""

    ok: bool
    used_cols: tuple[int, ...]
    proportional_pairs: list  # (row, col, col) entries proportional in a row
    singular_entries: list  # (row, col) used entries without a lifting's shape
    selections_checked: int
    prime: int

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "used_cols": list(self.used_cols),
            "proportional_pairs": self.proportional_pairs,
            "singular_entries": [list(e) for e in self.singular_entries],
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


def validate_matrix(A: LiftingMatrix, J: MonomialIdeal,
                    prime: int = DEFAULT_PRIME) -> ValidationReport:
    """Check, modulo ``prime``, the conditions under which A lifts J over
    the field the lift is computed in.

    (a) for t-lifting matrices, no two used entries of a row are
        proportional mod ``prime`` (some 2x2 minor of their coefficient
        vectors is nonzero mod ``prime``), so their point slices are
        distinct;
    (b) every used entry of row j has the shape of a lifting.  Its own
        variable is x_v, v = ambient_n - n_source + j (so a matrix with
        its first rows dropped keeps its variables).  A t-lift entry has
        no x-part outside x_v, a bf entry none outside {x_v, x_1}, and
        the coefficient of x_v is nonzero mod ``prime``.  Then the x-part
        of any selection of one used entry per row is diagonal (t-lift)
        or triangular (bf) with a nonzero diagonal: every selection is
        linearly independent, and the row products cut out a
        codimension-n complete intersection.  No rank is taken.

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
            if x[v] % prime == 0 or any(a % prime for k, a in enumerate(x)
                                        if k not in own):
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


POINT_LIMIT = 10**6


def point_model(J: MonomialIdeal, A: LiftingMatrix,
                prime: int = DEFAULT_PRIME) -> PointConfiguration:
    """Explicit zero-scheme of a 1-lifting of an Artinian ideal.

    The point for a standard monomial x^c solves L_{j, c_j + 1} = 0 for
    every j on the chart u = 1, in the rows' own variables and u (a matrix
    with its first rows dropped lifts to the cone over these points).
    Verifies that the points are pairwise distinct and that every lifted
    generator vanishes on every point.
    The number of points, the sum of J's Hilbert function, is read from
    its closed form first: more than POINT_LIMIT is a MatrixError, raised
    before any point is built.
    """
    if not is_artinian(J):
        raise ValueError("point model requires an Artinian source ideal")
    if A.kind != "t-lift" or A.t != 1:
        raise MatrixError("point model requires a t-lifting matrix with t = 1")
    count = sum(hilbert_function_artinian(J).values)
    if count > POINT_LIMIT:
        raise MatrixError(f"{count} points in the point model, more than {POINT_LIMIT}")
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

    for g in generators:
        for pt in points:
            value = 1
            for r, c in g.factors:
                form = A.rows[r][c]
                value = (value * sum(
                    fc * pc for fc, pc in zip(form.coeffs[offset:], pt)
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


def _subtract_multiple(r: dict, c: int, f: dict, shift) -> None:
    """r -= c * x^shift * f, in place, dropping the terms that cancel."""
    for e, v in f.items():
        key = tuple(map(add, e, shift))
        w = r.get(key, 0) - c * v
        if w:
            r[key] = w
        else:
            r.pop(key, None)


def _residues(r: dict, prime: int | None) -> dict:
    """r mod ``prime``, zeros dropped; r itself without a prime."""
    return r if prime is None else {e: v % prime for e, v in r.items() if v % prime}


def _buchberger_failure(polys, leads, last, prime=None) -> str | None:
    """None when the forms ``polys`` are a Gröbner basis in revlex with
    the variables ``last`` smallest (and, unless ``leads`` is None, lead
    with ``leads``); else which generator or S-pair fails, from 1.

    A term is keyed by its exponents read from the smallest variable up,
    so the revlex-largest term of a form is its least key.  Pairs with
    coprime leading monomials are skipped; every other S-polynomial is
    top-reduced.  Over Q (no prime) this never divides: a remainder is
    multiplied by the divisor's leading coefficient, then freed of its
    content.  Given a prime, it reduces with monic divisors mod p."""
    N = len(next(iter(polys[0]))) if polys else 0
    order = list(last)[::-1] + [v for v in range(N) if v not in last][::-1]
    basis = []
    for k, f in enumerate(polys):
        g = _residues({tuple(e[v] for v in order): c for e, c in f.items()}, prime)
        lead = min(g)
        if leads is not None and lead != tuple(leads[k][v] for v in order):
            return f"generator {k + 1} does not lead with its source monomial"
        if prime is not None:
            unit = pow(g[lead], -1, prime)
            g = {e: c * unit % prime for e, c in g.items()}
        basis.append((lead, g[lead], g))
    for i, j in itertools.combinations(range(len(basis)), 2):
        (a, ca, f), (b, cb, g) = basis[i], basis[j]
        if not any(x and y for x, y in zip(a, b)):
            continue
        lcm = tuple(map(max, a, b))
        r: dict = {}
        _subtract_multiple(r, -cb, f, [x - y for x, y in zip(lcm, a)])
        _subtract_multiple(r, ca, g, [x - y for x, y in zip(lcm, b)])
        while r := _residues(r, prime):
            lead = min(r)
            divisor = next((item for item in basis
                            if all(x <= y for x, y in zip(item[0], lead))), None)
            if divisor is None:
                return f"S-pair of generators {i + 1} and {j + 1} does not reduce to 0"
            m, cm, h = divisor
            q = math.gcd(r[lead], cm)
            scale = cm // q
            if scale != 1:
                r = {e: scale * v for e, v in r.items()}
            _subtract_multiple(r, r[lead] // cm, h, [x - y for x, y in zip(lead, m)])
            if scale != 1 and r:
                content = math.gcd(*r.values())
                r = {e: v // content for e, v in r.items()}
    return None


def verify_lift(data: dict, prime: int = DEFAULT_PRIME) -> dict:
    """The ``lift-report/1`` of a stored lift record.

    The record must be exactly what ``lift_record`` makes from its own
    source and matrix, with the points rebuilt at the prime they record;
    otherwise LiftError names the keys that differ.  Only the source and
    the matrix are decoded: every other key, the generators and the
    matrix hash included, is compared with the replay, and the checks
    expand the generators from the source and the matrix.

    The Hilbert rows are exact over Q, in every degree.  In revlex with
    the lifted variables last (the u's of a t-lift, x_1 for ``bf``) each
    lifted generator leads with the monomial it lifts, so in(I) contains
    J R; when the generators are a Gröbner basis (Buchberger's criterion
    over Z) in(I) = J R, h_{R/I} is J's closed form, partial-summed over
    the new variables, and the lifted variables are a regular sequence on
    R/I (Bayer and Stillman, 1987), so I is saturated.  The rows report
    that Hilbert function through the horizon ``horizon`` derives from
    the source with k the number of lifted variables, which for an
    Artinian source reaches two degrees past its socle degree:
    ``hilbert-difference-t{t}`` its difference once per new variable (t,
    plus the x's of dropped rows), which must be J's,
    ``saturation-spot-check`` its last three values, equal for an Artinian
    source with one new variable, and, for a t-lift,
    ``non-degeneracy-dim-I1`` that it is N in degree 1.  An S-pair that does not reduce to 0 fails
    all three, named in their detail, and so does a generator that leads
    with another monomial (an x-coefficient off its own variable that
    vanishes mod the prime, not over Z).  Only ``matrix-validation`` and
    the point replay work modulo a prime.

    The ``point-model`` row restates ``point_model``'s construction, one
    point per standard monomial, so it cannot fail; the replay's
    MatrixErrors carry its content.  It stays until ``lift-report/2``.
    """
    try:
        J = MonomialIdeal.from_json(data["source"])
        A = LiftingMatrix.from_json(data["matrix"])
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
        dmax = horizon(J, A.N, A.N)
    except ValueError as exc:
        raise LiftError(str(exc))

    report = validate_matrix(A, J, prime=prime)
    checks = [("matrix-validation", report.ok, f"prime {report.prime}")]
    offset = A.ambient_n - A.n_source
    leads = [(0,) * offset + g.exps + (0,) * A.t for g in J.gens]
    last = (0,) if A.kind == "bf" else tuple(range(A.ambient_n, A.N))
    failure = _buchberger_failure([expand(bar(g, A), A, None) for g in J.gens],
                                  leads, last)
    source_h = hilbert_function(J, dmax)
    new = A.N - J.n  # t, plus the x's of the rows a matrix has dropped
    hf = partial_sum(source_h, new, dmax)
    diff = difference(hf, new).values
    rows = [(f"hilbert-difference-t{A.t}", diff == source_h.values, f"difference {diff}"),
            ("saturation-spot-check",
             not (is_artinian(J) and new == 1)
             or hf.at(dmax) == hf.at(dmax - 1) == hf.at(dmax - 2),
             f"tail values {hf.values[-3:]}")]
    if A.kind == "t-lift":
        # A proper lifting of a nonzero ideal spans no linear forms: the
        # lifted scheme is nondegenerate in its ambient space.
        rows.append(("non-degeneracy-dim-I1", hf.at(1) == A.N, ""))
    if failure is None:
        checks += rows
    else:
        checks += [(name, False, failure) for name, _, _ in rows]
    if "points" in replay:
        got, want = len(replay["points"]["points"]), sum(source_h.values)
        checks.append(("point-model", got == want, f"{got} points, expected {want}"))
    return {"schema": "lift-report/1", "prime": prime, "dmax": dmax,
            "ok": all(passed for _, passed, _ in checks),
            "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in checks]}
