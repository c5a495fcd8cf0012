"""Polynomial helpers, the prime and horizon contracts, and the reference
oracle over a prime field.

Expands lifted generators into honest polynomials.  The oracle answers
graded questions degree by degree from Macaulay matrices, the coefficient rows
of every monomial multiple of the generators in one degree.  A matrix is
assembled in numpy, one block per generator: the multipliers' exponent
vectors, shifted by each term, are mapped to their columns by their rank
in descending lex order.  An ideal whose generators are single terms
(nonzero mod p) builds no matrix: its degree-d basis is read off its
monomials, exactly, as the degree-d monomials some generator divides.

- a graded dimension is the pivot count of the reduced row echelon form,
  computed from leading terms: the first row leading in each column is a
  pivot row, these rows form a triangular system solved by level sets,
  and only the Schur complement of the other rows (the part left after
  reducing them by the pivot rows) is eliminated column by column; the
  products run in float64 (BLAS) wherever every sum stays below 2^53;
- containment is decided in the generators' degrees: (A)_d lies in (B)_d
  for every d <= dmax exactly when each generator of A of degree at most
  dmax lies in (B) in its own degree, so only those generators' rows are
  reduced against B's reduced row echelon basis, in those degrees, and
  the first failing degree is the least degree of a generator outside
  (B); against a monomial ideal the residual is the terms no generator
  divides;
- equality is containment both ways, in the same degrees;
- colon stability (I : f = I in degree d) ranks only the multiples f*mu
  of the h(d) standard monomials mu, the free columns of I_d's basis:
  their residual modulo I_{d+deg f} must have full row rank h(d), and
  degrees with h(d) = 0 are skipped.  It is the tier-1 reference for the
  exact proof of I : f = I that the certificates run (``linkage.py``);
  no library code calls it.

Every answer is exact over F_p, but F_p is not Q.  A single rank mod p
can only be too small, so a dimension is a lower bound.  A containment
has no such direction: its residual can vanish mod p when it does not
over Q, so it can pass spuriously at one prime.  The horizon truncates
neither containment nor equality when every generator they compare has
degree at most dmax: both then decide the ideals themselves, in every
degree.

No certificate calls the matrices of this module.  ``linkage.py`` reads
its Hilbert functions, containments and equalities off Gröbner bases
over F_p (``lifting.GroebnerBasis``), exact in every degree, and
``verify_lift`` proves its Hilbert rows by the lifting theorem.  The oracle
is the tier-1 reference for both: tests compare every answer a
certificate reads off a basis, on the worked certificate and on the 94
certificates of the Borel sweep, and every ``verify_lift`` row, with it
at 32003 and at 65537.  The benchmark's gate on the worked lift reads
its first difference from ``hilbert_oracle``.  No basis is kept from one
call to the next.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .hilbert import HVector, hilbert_function_artinian
from .monomials import MonomialIdeal, is_artinian, monomials_of_degree

DEFAULT_PRIME = 32003
# Largest modulus whose square fits int64: elimination multiplies two
# residues before reducing.  A product of matrices of residues sums k
# terms below (p - 1)^2 each: in float64 when k (p - 1)^2 < 2^53, where
# every partial sum is an exact integer, else in int64 chunks of at most
# (2^63 - 1) // (p - 1)^2 terms.  Bases are stored as uint32,
# which every prime up to it fits.
MAX_PRIME = 3_037_000_499
_INT64_MAX = 2**63 - 1
_FLOAT_EXACT = 2**53
# Rows of the Schur complement computed per product, bounding its
# temporaries.
_ROW_BLOCK = 256

MAX_WIDTH = 10**5
"""Sanity ceiling on a horizon: the width C(N - 1 + dmax, N - 1) of its
top-degree Macaulay matrix.  ``horizon`` derives the horizon from the
ideal, so only an ideal of high degree in many variables reaches it; it
stops such an input before any matrix or monomial table is built, but
does not guarantee memory to those below."""

# A polynomial is a dict mapping exponent tuples to nonzero coefficients.
# Coefficients are ints; reduced mod p by the routines that consume them.
Poly = dict


def check_prime(p) -> int:
    """Return ``p`` if it is a prime the rank kernel can work modulo,
    2 <= p <= MAX_PRIME; raise ValueError otherwise."""
    if (not isinstance(p, int) or not 2 <= p <= MAX_PRIME
            or any(p % q == 0 for q in range(2, isqrt(p) + 1))):
        raise ValueError(f"modulus {p!r} is not a prime in [2, {MAX_PRIME}]")
    return p


def horizon(J: MonomialIdeal, k: int, N: int) -> int:
    """The degree horizon of a check on J: max generator degree + ``k``,
    raised to s + 2 when J is Artinian and proper of socle degree s, so
    that a Hilbert function read through it has stabilized over its last
    two degrees.  A certificate passes k = J.n, a lift the number of its
    variables.  Raises ValueError when the horizon's top-degree Macaulay
    matrix in ``N`` variables is wider than MAX_WIDTH."""
    dmax = J.max_gen_degree + k
    if is_artinian(J) and not J.is_unit:
        dmax = max(dmax, len(hilbert_function_artinian(J).values) + 1)
    width = ring_dim(N, dmax)
    if width > MAX_WIDTH:
        raise ValueError(f"horizon dmax {dmax} needs Macaulay matrices {width} "
                         f"columns wide in {N} variables, more than {MAX_WIDTH}")
    return dmax


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
            e = tuple(a + b for a, b in zip(e1, e2))
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


def expand_product(forms, N: int, p: int | None) -> Poly:
    """Product of linear forms; the empty product is the constant 1."""
    acc: Poly = {(0,) * N: 1}
    for form in forms:
        acc = poly_mul(acc, linear_form_poly(form.coeffs, p), p)
    return acc


def expand(gen, matrix, p: int | None = DEFAULT_PRIME) -> Poly:
    """Expand a lifted generator (factor references into a matrix)."""
    forms = [matrix.rows[r][c] for r, c in gen.factors]
    return expand_product(forms, matrix.N, p)


def ring_dim(N: int, d: int) -> int:
    """The number of monomials of degree d in N variables."""
    if d < 0:
        return 0
    return comb(N - 1 + d, d) if N else int(d == 0)


@lru_cache(maxsize=None)
def _exponents(N: int, d: int) -> np.ndarray:
    """Exponent rows of the degree-d monomials, descending lex: row k is
    the monomial of column k of a degree-d Macaulay matrix."""
    monos = monomials_of_degree(N, d)
    E = np.array([m.exps for m in monos], dtype=np.int64).reshape(len(monos), N)
    E.flags.writeable = False
    return E


@lru_cache(maxsize=None)
def _lex_rank_table(N: int, d: int) -> np.ndarray:
    """T[i, m] = C(m + k - 1, k) with k = N - 1 - i, and 0 for m = 0 or
    i = N - 1: the number of degree-d monomials that agree with a monomial
    e before variable i and exceed it there, when m = d - e_0 - ... - e_i
    is the degree e leaves after i."""
    T = np.array([[comb(m + N - 2 - i, N - 1 - i) if m and i < N - 1 else 0
                   for m in range(d + 1)] for i in range(N)],
                 dtype=np.int64).reshape(N, d + 1)
    T.flags.writeable = False
    return T


def _columns(E: np.ndarray, N: int, d: int) -> np.ndarray:
    """Column of each degree-d exponent vector (the last axis of E): its
    position in descending lex order, summed from ``_lex_rank_table``.
    Exact in int64 wherever the matrix itself fits in memory."""
    left = d - np.cumsum(E, axis=-1)
    return _lex_rank_table(N, d)[np.arange(N), left].sum(axis=-1)


def _row_echelon(M: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward Gaussian elimination over F_p with deterministic pivoting
    (first nonzero column, lowest row index).  Returns the pivot columns
    and the pivot rows: row i has a 1 in column pivots[i] and zeros
    before it."""
    M = np.array(M, dtype=np.int64) % p
    rows, cols = M.shape
    pivots: list[int] = []
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
        # Rows below are zero left of c: update the trailing block only.
        below = M[r + 1 :, c:]
        mask = below[:, 0] != 0
        if mask.any():
            below[mask] = (below[mask] - np.outer(below[mask, 0], M[r, c:])) % p
        pivots.append(c)
    return np.array(pivots, dtype=np.intp), M[: len(pivots)]


def rank_mod_p(M: np.ndarray, p: int) -> int:
    """Rank over F_p: the pivot count of ``_row_echelon``.  No library code
    calls it outside ``colon_stability_failure``, the tier-1 reference."""
    return len(_row_echelon(M, p)[0])


def _sub_mul(C: np.ndarray, A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """(C - A @ B) mod p as int64, exact for entries in [0, p).  In float64
    (BLAS) when each sum of k = A.shape[1] products stays below 2^53, as
    k (p - 1)^2 < 2^53 ensures: every partial sum is then an exact integer
    in any summation order.  Otherwise in int64, in chunks of at most
    (2^63 - 1) // (p - 1)^2 terms, so that no sum overflows."""
    k = A.shape[1]
    if k * (p - 1) ** 2 < _FLOAT_EXACT:
        out = C.astype(np.float64) - A.astype(np.float64) @ B.astype(np.float64)
        return np.mod(out, p).astype(np.int64)
    out = C.astype(np.int64)
    used = A.any(axis=0)  # chunks hold one term at the largest primes
    A, B = A[:, used].astype(np.int64), B[used].astype(np.int64)
    step = _INT64_MAX // (p - 1) ** 2
    for s in range(0, A.shape[1], step):
        out = (out - A[:, s : s + step] @ B[s : s + step]) % p
    return out


def _echelon(M: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of M over F_p from its leading terms.
    Returns the pivot columns, ascending, and the reduced rows restricted
    to the free (non-pivot) columns, one row per pivot.

    The first row leading in each distinct column is a pivot row; scaled
    to a leading 1, these rows restricted to their leading columns L form
    a unit upper triangular matrix U, solved by level sets (each level is
    the rows whose entries off the diagonal point only at rows already
    solved, in one product).  Every other row is reduced to its Schur
    complement in the free columns F, R_F - R_L @ X, in row blocks; only
    the nonzero complement rows are eliminated by ``_row_echelon``, and
    their pivots are then cleared from X."""
    M = np.asarray(M, dtype=np.int64) % p
    ncols = M.shape[1]
    nonzero = M != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    if not rows.size:
        return np.zeros(0, dtype=np.intp), np.zeros((0, ncols), dtype=np.int64)
    L, at = np.unique(nonzero[rows].argmax(axis=1), return_index=True)
    k, first = L.size, rows[at]
    F = np.setdiff1d(np.arange(ncols), L, assume_unique=True)
    rest = np.setdiff1d(rows, first, assume_unique=True)
    # Pivot rows and the others, the leading columns first in both.
    columns = np.concatenate([L, F])
    P, R = M[np.ix_(first, columns)], M[np.ix_(rest, columns)]
    del M, nonzero

    # Pivot rows scaled to a leading 1, one inverse per distinct leader.
    leaders, which = np.unique(P.diagonal(), return_inverse=True)
    inverses = np.array([pow(int(a), p - 2, p) for a in leaders], dtype=np.int64)
    P = P * inverses[which][:, None] % p

    U, X = P[:, :k], P[:, k:].copy()
    needs = U != 0
    np.fill_diagonal(needs, False)
    unsolved_needs = needs.sum(axis=1)
    solved = np.zeros(k, dtype=bool)
    ready = np.flatnonzero(unsolved_needs == 0)
    while ready.size:
        done = np.flatnonzero(solved)
        X[ready] = _sub_mul(X[ready], U[ready][:, done], X[done], p)
        solved[ready] = True
        unsolved_needs -= needs[:, ready].sum(axis=1)
        ready = np.flatnonzero((unsolved_needs == 0) & ~solved)

    S = np.empty((len(R), F.size), dtype=np.int64)
    for r in range(0, len(R), _ROW_BLOCK):
        block = R[r : r + _ROW_BLOCK]
        S[r : r + _ROW_BLOCK] = _sub_mul(block[:, k:], block[:, :k], X, p)
    S = S[S.any(axis=1)]

    new, Y = _row_echelon(S, p)
    # Back-substitute, last pivot first: row i is already clear in the
    # later pivot columns when it is used.
    for i in range(len(new) - 1, 0, -1):
        above = Y[:i, new[i]:]
        mask = above[:, 0] != 0
        if mask.any():
            above[mask] = (above[mask] - np.outer(above[mask, 0], Y[i, new[i]:])) % p
    if new.size:
        X = _sub_mul(X, X[:, new], Y, p)
    keep = np.ones(F.size, dtype=bool)
    keep[new] = False
    pivots = np.concatenate([L, F[new]])
    order = np.argsort(pivots)
    return pivots[order], np.vstack([X, Y])[order][:, keep]


class _Basis:
    """Reduced row echelon basis of one degree-d piece of an ideal over F_p.

    The pivot block of a reduced basis is the identity, so only its block
    in the free (non-pivot) columns is kept, as ``reduced``, one row per
    pivot.
    ``of_matrix`` eliminates a Macaulay matrix with ``_echelon``;
    ``of_monomials`` reads the basis of a monomial ideal off its terms:
    the pivots are the monomials they divide and the free block is zero.
    Entries are uint32, which every prime ``check_prime`` accepts fits.
    """

    def __init__(self, p: int, ncols: int, pivots: np.ndarray, reduced: np.ndarray,
                 monomial: bool = False):
        free = np.ones(ncols, dtype=bool)
        free[pivots] = False
        self.p = p
        self.pivots = pivots
        self.free = np.flatnonzero(free)
        self.monomial = monomial
        self.reduced = reduced.astype(np.uint32)

    @classmethod
    def of_matrix(cls, M: np.ndarray, p: int) -> "_Basis":
        pivots, reduced = _echelon(M, p)
        return cls(p, M.shape[1], pivots, reduced)

    @classmethod
    def of_monomials(cls, terms, d: int, N: int, p: int) -> "_Basis":
        """Basis of the degree-d piece of the ideal generated by the
        monomials with exponent vectors ``terms``."""
        E = _exponents(N, d)
        divided = np.zeros(len(E), dtype=bool)
        for t in terms:
            divided |= (E >= t).all(axis=1)
        pivots = np.flatnonzero(divided)
        reduced = np.zeros((pivots.size, len(E) - pivots.size), dtype=np.uint32)
        return cls(p, len(E), pivots, reduced, monomial=True)

    def residual(self, A: np.ndarray) -> np.ndarray:
        """Rows of A modulo this row space, in the free columns:
        A_free - A_pivots @ X mod p, exact through ``_sub_mul``.  For a
        monomial basis X is zero, and the residual is A_free: the terms
        no generator divides."""
        A = np.asarray(A, dtype=np.int64) % self.p
        if self.monomial:
            return A[:, self.free]
        return _sub_mul(A[:, self.free], A[:, self.pivots], self.reduced, self.p)


def _basis(gens, d: int, N: int, p: int) -> _Basis:
    """Echelon basis of the degree-d piece of (gens): read off the
    monomials when every generator is one term with a coefficient nonzero
    mod p; else eliminated from the Macaulay matrix."""
    if all(len(g) == 1 and next(iter(g.values())) % p for g in gens):
        return _Basis.of_monomials([next(iter(g)) for g in gens], d, N, p)
    return _Basis.of_matrix(_degree_rows(gens, d, N, p), p)


def _degree_rows(gens, d: int, N: int, p: int) -> np.ndarray:
    """Coefficient rows of all monomial multiples of the generators in
    degree d.  Row order: generators in given order, multiplier monomials
    in descending degree-lex.  A generator's block is filled in one step:
    its multipliers' exponents shifted by each of its terms give the
    entries' columns, and its coefficients, reduced mod p, their values."""
    blocks = []
    for g in gens:
        dg = poly_degree(g)
        if 0 <= dg <= d:
            terms = np.array(list(g), dtype=np.int64).reshape(len(g), N)
            shifted = _exponents(N, d - dg)[:, None, :] + terms
            coeffs = np.array([c % p for c in g.values()], dtype=np.int64)
            blocks.append((_columns(shifted, N, d), coeffs))
    M = np.zeros((sum(len(cols) for cols, _ in blocks), ring_dim(N, d)), dtype=np.int64)
    start = 0
    for cols, coeffs in blocks:
        rows = np.arange(start, start + len(cols))
        M[rows[:, None], cols] = coeffs
        start += len(cols)
    return M


def graded_dim(gens, d: int, N: int, p: int = DEFAULT_PRIME) -> int:
    """Dimension of the degree-d piece of the ideal generated by ``gens``."""
    return len(_basis(gens, d, N, p).pivots)


def hilbert_oracle(gens, dmax: int, N: int, p: int = DEFAULT_PRIME) -> HVector:
    """Hilbert function of the quotient through degree dmax, flagged as
    truncated with horizon dmax."""
    values = [ring_dim(N, d) - graded_dim(gens, d, N, p) for d in range(dmax + 1)]
    return HVector.truncated(values, dmax)


def _first_outside(gensA, gensB, dmax: int, N: int, p: int):
    """Least degree d <= dmax of a generator of A outside (gensB), or None.
    (A)_d is spanned by the multiples of A's generators of degree at most d,
    so it lies in (B)_d for every d <= dmax exactly when each generator of
    degree at most dmax lies in (B) in its own degree: its coefficient row
    leaves no residual modulo B's basis there.  Zero generators are
    skipped; a non-homogeneous one on either side raises ValueError."""
    by_degree: dict[int, list] = {}
    for g in gensA:
        by_degree.setdefault(poly_degree(g), []).append(g)
    for g in gensB:
        poly_degree(g)  # raises on a non-homogeneous generator
    for d in sorted(by_degree):
        if 0 <= d <= dmax:
            basis = _basis(gensB, d, N, p)
            if basis.free.size and basis.residual(_degree_rows(by_degree[d], d, N, p)).any():
                return d
    return None


def containment_failure(gensA, gensB, dmax: int, N: int, p: int = DEFAULT_PRIME):
    """First degree d <= dmax where (gensA)_d is not inside (gensB)_d, or
    None: the least degree of a generator of A outside (gensB)."""
    return _first_outside(gensA, gensB, dmax, N, p)


def ideals_equal_up_to(gensA, gensB, dmax: int, N: int, p: int = DEFAULT_PRIME) -> bool:
    """Whether (gensA)_d = (gensB)_d for every d <= dmax: containment both
    ways, in the generators' degrees."""
    return (_first_outside(gensA, gensB, dmax, N, p) is None
            and _first_outside(gensB, gensA, dmax, N, p) is None)


def colon_stability_failure(gens, f: Poly, dmax: int, N: int, p: int = DEFAULT_PRIME):
    """First degree d <= dmax where {g : f*g in I} is strictly bigger than
    I_d, or None if I : f = I holds through the horizon.  (I : f)_d = I_d
    exactly when multiplication by f is injective on (R/I)_d, whose basis
    is the h(d) standard monomials mu (the free columns of I_d's basis):
    the rows f*mu must leave a residual of rank h(d) modulo I_{d+deg f}.
    Degrees with h(d) = 0 hold trivially and are skipped.  An f that is
    zero mod p raises ValueError.  No library code calls it: it is the
    tier-1 reference for the exact proof the certificates run."""
    df = poly_degree(f)
    if not poly_normalize(f, p):
        raise ValueError("zero multiplier")
    for d in range(dmax + 1):
        free = _basis(gens, d, N, p).free
        if not free.size:
            continue
        multiples = _degree_rows([f], d + df, N, p)[free]
        if rank_mod_p(_basis(gens, d + df, N, p).residual(multiples), p) != free.size:
            return d
    return None


def stable_value(h: HVector) -> int:
    """Last value of a truncated Hilbert function, requiring it to have
    stabilized over the final two degrees."""
    if len(h.values) < 2 or h.values[-1] != h.values[-2]:
        raise ValueError(
            f"Hilbert values not stable at horizon: {h.values[-3:]}")
    return h.values[-1]


def poly_to_json(f: Poly) -> list:
    return sorted([list(e) + [c] for e, c in f.items()], reverse=True)
