"""Lifting matrices, the bar operator m -> prod L_{j,i}, lifted ideals as
factor lists, and the explicit point model for one-new-variable liftings
of Artinian ideals."""
from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
import random
from dataclasses import dataclass
from operator import add, le, sub

from .hilbert import difference, hilbert_function, hilbert_function_artinian, partial_sum
from .monomials import Monomial, MonomialIdeal, is_artinian, json_int, standard_monomials
from .oracle import DEFAULT_PRIME, check_prime, expand, horizon, poly_degree


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

    @property
    def lifted_variables(self) -> tuple[int, ...]:
        """The variables a lift orders last: the u's of a t-lift, x_1 for
        ``bf``.  In revlex with them smallest each lifted generator leads
        with the monomial it lifts."""
        return (0,) if self.kind == "bf" else tuple(range(self.ambient_n, self.N))

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


BUCHBERGER_BUDGET = 10**8
"""Most work one Gröbner check over F_p (``GroebnerBasis``) may do.  Each
top reduction is charged before it is made, as the terms of the form it
reduces times the terms of the longest divisor, and each S-pair taken
from the queue as the forms the chain criterion may scan.  A check that
would pass the budget stops with a ValueError.  A unit took 0.15 to
0.8 µs on a 2-core shared x86-64 host, so the budget is a minute or so of
one check; the largest check of the 25-cube (x1^25, x2^25, x3^25) takes
510 300, that of the Artinian certificate of (x1, x2, x3, x4)^12 about
9 * 10^7."""


def _revlex_order(N: int, last) -> tuple[int, ...]:
    """The variables from the smallest up, in revlex with ``last`` smallest
    (the last of them least): a term is keyed by its exponents in this
    order, so the revlex-largest term of a form is its least key."""
    return tuple(list(last)[::-1] + [v for v in range(N) if v not in last][::-1])


def _subtract_multiple(r: dict, c: int, f: dict, shift) -> None:
    """r -= c * x^shift * f, in place, dropping the terms that cancel."""
    for e, v in f.items():
        key = tuple(map(add, e, shift))
        w = r.get(key, 0) - c * v
        if w:
            r[key] = w
        else:
            r.pop(key, None)


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _divisor(basis, lead):
    """The first item of ``basis`` whose leading key divides ``lead``, or None."""
    return next((item for item in basis if _divides(item[0], lead)), None)


def _coprime(a, b) -> bool:
    return not any(x and y for x, y in zip(a, b))


def _s_polynomial(basis: list, i: int, j: int) -> dict:
    """The S-polynomial cb·(lcm/a)·f − ca·(lcm/b)·g of items i and j of
    ``basis``, a list of (leading key a, leading coefficient ca, form f)."""
    (a, ca, f), (b, cb, g) = basis[i], basis[j]
    lcm = tuple(map(max, a, b))
    r: dict = {}
    _subtract_multiple(r, -cb, f, tuple(map(sub, lcm, a)))
    _subtract_multiple(r, ca, g, tuple(map(sub, lcm, b)))
    return r


def _top_reduce(r: dict, basis) -> dict:
    """The remainder of the integer form ``r`` under top reduction by
    ``basis`` (as ``_s_polynomial`` takes it): empty, or led by a key no
    leading key divides.  It never divides: a remainder is multiplied by
    the divisor's leading coefficient, then freed of its content."""
    while r:
        lead = min(r)
        divisor = _divisor(basis, lead)
        if divisor is None:
            return r
        m, cm, h = divisor
        shift = tuple(map(sub, lead, m))
        q = math.gcd(r[lead], cm)
        scale = cm // q
        if scale != 1:
            r = {e: scale * v for e, v in r.items()}
        _subtract_multiple(r, r[lead] // cm, h, shift)
        if scale != 1 and r:
            content = math.gcd(*r.values())
            r = {e: v // content for e, v in r.items()}
    return r


def _top_reduce_mod_p(r: dict, basis, prime: int) -> dict:
    """``_top_reduce`` over F_p, in place, of residues ``r`` by monic
    divisors: only the terms a step touches are reduced mod p, and the
    keys wait in a heap, so the lead is not searched for."""
    heap = list(r)
    heapq.heapify(heap)
    while heap:
        lead = heapq.heappop(heap)
        c = r.get(lead)
        if c is None:  # cancelled after it was pushed
            continue
        divisor = _divisor(basis, lead)
        if divisor is None:
            return r
        m, _, h = divisor
        shift = tuple(map(sub, lead, m))
        for e, v in h.items():
            key = tuple(map(add, e, shift))
            old = r.get(key)
            w = ((old or 0) - c * v) % prime
            if not w:
                del r[key]
            else:
                if old is None:
                    heapq.heappush(heap, key)
                r[key] = w
    return r


def _residues(f: dict, prime: int) -> dict:
    return {e: c % prime for e, c in f.items() if c % prime}


def _longest(forms) -> int:
    return max((len(form) for _, _, form in forms), default=0)


def _monic(g: dict, prime: int) -> tuple:
    """(leading key, 1, g scaled to a leading coefficient 1 mod ``prime``)."""
    lead = min(g)
    unit = pow(g[lead], -1, prime)
    return lead, 1, {e: c * unit % prime for e, c in g.items()}


def _keyed(f: dict, order) -> dict:
    """The form ``f`` with each term keyed by its exponents read in ``order``."""
    return {tuple(e[v] for v in order): c for e, c in f.items()}


def _buchberger_failure(polys, leads, last) -> str | None:
    """None when the integer forms ``polys`` are a Gröbner basis over Q in
    revlex with the variables ``last`` smallest (and, unless ``leads`` is
    None, lead with ``leads``); else which generator or S-pair fails, from
    1.  Every S-pair whose leading monomials are not coprime is top-reduced
    fraction-free (``_top_reduce``)."""
    N = len(next(iter(polys[0]))) if polys else 0
    order = _revlex_order(N, last)
    basis = []
    for k, f in enumerate(polys):
        g = _keyed(f, order)
        lead = min(g)
        if leads is not None and lead != tuple(leads[k][v] for v in order):
            return f"generator {k + 1} does not lead with its source monomial"
        basis.append((lead, g[lead], g))
    for i, j in itertools.combinations(range(len(basis)), 2):
        if (not _coprime(basis[i][0], basis[j][0])
                and _top_reduce(_s_polynomial(basis, i, j), basis)):
            return f"S-pair of generators {i + 1} and {j + 1} does not reduce to 0"
    return None


def _pairs(basis: list, new: int) -> list:
    """The S-pairs (degree of the lcm, i, new) of item ``new`` of ``basis``
    with those before it, skipping those whose S-polynomial is known to
    reduce to 0: coprime leading monomials, and two monomials."""
    b, monomial = basis[new][0], len(basis[new][2]) == 1
    return [(sum(map(max, a, b)), i, new) for i, (a, _, f) in enumerate(basis[:new])
            if not (_coprime(a, b) or monomial and len(f) == 1)]


def _chained(basis: list, i: int, j: int, pending: set) -> bool:
    """Buchberger's chain criterion: whether the leading monomial of some
    other item k of ``basis`` divides the lcm of items i and j while the
    pairs (i, k) and (j, k) are no longer ``pending``.  Their S-polynomials
    then have standard representations, and so has that of (i, j), which
    need not be reduced (Buchberger's second criterion, 1979)."""
    lcm = tuple(map(max, basis[i][0], basis[j][0]))
    return any(all(map(le, b, lcm)) and k != i and k != j
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, (b, _, _) in enumerate(basis))


class GroebnerBasis:
    """A Gröbner basis over F_p of the ideal of the forms ``polys`` in N
    variables (zero ones dropped), in revlex with the variables ``last``
    smallest.

    ``failure`` is Buchberger's criterion on the forms themselves: None
    when they are a Gröbner basis, else the first generator or S-pair that
    shows they are not.  First each form whose leading monomial is not
    minimal among the forms' is top-reduced by those whose leading
    monomials are.  When all of them reduce to 0, the minimal ones generate
    the same ideal and the same ideal of leading monomials, so they are a
    basis exactly when all the forms were; a remainder shows the forms
    were not, and takes its form's place.  Then the S-pairs of the forms
    left are top-reduced in the order of the degree of their lcm (the
    normal strategy), skipping those whose S-polynomial is known to reduce
    to 0 (``_pairs``, ``_chained``).  Only when one does not reduce to 0 is
    the basis completed, by adjoining the remainders until every S-pair
    reduces to 0.  A form lies in the ideal exactly when it top-reduces to
    0 (``contains``), and the leading monomials generate the initial
    ideal, whose closed-form Hilbert function is the ideal's in every
    degree (Macaulay).  ``work`` counts the work done, in the units of
    BUCHBERGER_BUDGET; past the budget it is a ValueError."""

    def __init__(self, polys, N: int, last, prime: int):
        self.N = N
        self.order = _revlex_order(N, last)
        self.prime = prime
        numbers, basis = [], []
        for k, f in enumerate(polys):
            poly_degree(f)  # revlex orders only the terms of a form
            g = _keyed(_residues(f, prime), self.order)
            if g:
                numbers.append(k + 1)
                basis.append(_monic(g, prime))
        self.basis = basis
        self.work = 0
        self.failure = self._complete(numbers)

    def _charge(self, work: int) -> None:
        """Count ``work`` more; a ValueError once it passes BUCHBERGER_BUDGET."""
        self.work += work
        if self.work > BUCHBERGER_BUDGET:
            raise ValueError(
                f"a Gröbner check over F_{self.prime} of {len(self.basis)} forms "
                f"needs more work than BUCHBERGER_BUDGET = {BUCHBERGER_BUDGET}")

    def _complete(self, numbers: list) -> str | None:
        basis, prime = self.basis, self.prime
        minimal = [not any(_divides(b, a) and (b != a or j < k)
                           for j, (b, _, _) in enumerate(basis) if j != k)
                   for k, (a, _, _) in enumerate(basis)]
        divisors = [item for item, m in zip(basis, minimal) if m]
        longest = _longest(divisors)
        failure, remainders = None, []
        for k in range(len(basis)):
            if minimal[k]:
                continue
            self._charge(len(basis[k][2]) * longest)
            r = _top_reduce_mod_p(dict(basis[k][2]), divisors, prime)
            if r:
                failure = failure or (f"generator {numbers[k]} does not reduce to 0 by "
                                      "those with minimal leading monomials")
                remainders.append(k)
                basis[k] = _monic(r, prime)
        kept = [k for k, m in enumerate(minimal) if m] + remainders
        basis[:] = [basis[k] for k in kept]
        numbers = [numbers[k] for k in kept]
        queue = [pair for new in range(len(basis)) for pair in _pairs(basis, new)]
        heapq.heapify(queue)
        pending = {(i, j) for _, i, j in queue}
        longest = _longest(basis)
        while queue:
            _, i, j = heapq.heappop(queue)
            pending.remove((i, j))
            self._charge(len(basis))
            if _chained(basis, i, j, pending):
                continue
            r = _residues(_s_polynomial(basis, i, j), prime)
            self._charge(len(r) * longest)
            r = _top_reduce_mod_p(r, basis, prime)
            if not r:
                continue
            failure = failure or (f"S-pair of generators {numbers[i]} and {numbers[j]} "
                                  "does not reduce to 0")
            basis.append(_monic(r, prime))
            longest = max(longest, len(r))
            new = _pairs(basis, len(basis) - 1)
            for pair in new:
                heapq.heappush(queue, pair)
                pending.add(pair[1:])
        return failure

    def contains(self, f: dict) -> bool:
        """Whether the form ``f`` lies in the ideal; a ValueError unless it
        is homogeneous."""
        poly_degree(f)
        r = _keyed(_residues(f, self.prime), self.order)
        return not _top_reduce_mod_p(r, self.basis, self.prime)

    def first_outside(self, forms) -> int | None:
        """The least degree of a form of ``forms`` outside the ideal, or None."""
        return min((poly_degree(f) for f in forms if not self.contains(f)), default=None)

    def initial_ideal(self) -> MonomialIdeal:
        """The ideal of the leading monomials, in the forms' variables."""
        gens = []
        for lead, _, _ in self.basis:
            exps = [0] * self.N
            for v, a in zip(self.order, lead):
                exps[v] = a
            gens.append(Monomial(tuple(exps)))
        return MonomialIdeal.from_gens(self.N, gens)


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
    failure = _buchberger_failure([expand(bar(g, A), A, None) for g in J.gens],
                                  leads, A.lifted_variables)
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
