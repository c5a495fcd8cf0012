"""The Macaulay-matrix reference oracle over a prime field.

The oracle answers graded questions degree by degree from Macaulay
matrices, the coefficient rows of every monomial multiple of the
generators in one degree, with one kernel: the rank over F_p by
Gaussian elimination (``rank_mod_p``).

- a graded dimension is the rank of the Macaulay matrix;
- containment is decided in the generators' degrees: (A)_d lies in (B)_d
  for every d <= dmax exactly when each generator of A of degree at most
  dmax lies in (B) in its own degree, that is, when stacking its row on
  B_d leaves the rank of B_d unchanged; the first failing degree is the
  least degree of a generator outside (B);
- equality is containment both ways, in the same degrees;
- colon stability (I : f = I in degree d) compares dim (I : f)_d, which
  is dim R_d minus the rank that the rows of f*R_d add to I_{d+deg f},
  with dim I_d.  It is the tier-1 reference for the exact proof of
  I : f = I that the certificates run (``links.py``).

Every answer is exact over F_p, but F_p is not Q.  A single rank mod p
can only be too small, so a dimension is a lower bound.  A containment
has no such direction: a generator's row can fall into B's row space mod
p when it does not over Q, so it can pass spuriously at one prime.  The
horizon truncates neither containment nor equality when every generator
they compare has degree at most dmax: both then decide the ideals
themselves, in every degree.

This is the one module that imports numpy, and no library module
imports it, so the library and the CLI run without numpy.  ``links.py``
checks its Hilbert identities as equations of Hilbert-series numerators
of closed-form initial ideals, and decides its containments and
equalities by terms, factor lists and leading monomials, all exact in
every degree; ``verify_lift`` proves its Hilbert rows by the lifting
theorem.  The oracle is the tier-1 reference for both: tests compare
every numerator's Hilbert function through the certificate's horizon,
every containment answer of the worked certificate and of the 94 sweep
certificates, and every ``verify_lift`` row with it at 32003 and at
65537.  The benchmark's gate on the worked lift reads its first
difference from ``hilbert_oracle``.  No matrix is kept from one call to
the next.
"""
from __future__ import annotations

from math import comb
from operator import add

import numpy as np

from .hilbert import HVector
from .lifting import DEFAULT_PRIME, poly_degree, poly_normalize
from .lifting import expand  # noqa: F401  the benchmark's tracer wraps it; ROADMAP item 5 drops it
from .monomials import monomials_of_degree


def ring_dim(N: int, d: int) -> int:
    """The number of monomials of degree d in N variables."""
    if d < 0:
        return 0
    return comb(N - 1 + d, d) if N else int(d == 0)


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
    """Rank over F_p: the pivot count of ``_row_echelon``."""
    return len(_row_echelon(M, p)[0])


def _degree_rows(gens, d: int, N: int, p: int) -> np.ndarray:
    """Coefficient rows of all monomial multiples of the generators in
    degree d.  Row order: generators in given order, multiplier monomials
    in descending degree-lex; column k is the k-th degree-d monomial in
    that order.  Each term of a multiple is looked up in a dict from
    exponent tuple to column, its coefficient reduced mod p."""
    column = {m.exps: k for k, m in enumerate(monomials_of_degree(N, d))}
    rows = []
    for g in gens:
        dg = poly_degree(g)
        if 0 <= dg <= d:
            terms = [(e, c % p) for e, c in g.items()]
            for mu in monomials_of_degree(N, d - dg):
                rows.append({column[tuple(map(add, e, mu.exps))]: c for e, c in terms})
    M = np.zeros((len(rows), len(column)), dtype=np.int64)
    for r, row in enumerate(rows):
        M[r, list(row)] = list(row.values())
    return M


def graded_dim(gens, d: int, N: int, p: int = DEFAULT_PRIME) -> int:
    """Dimension of the degree-d piece of the ideal generated by ``gens``."""
    return rank_mod_p(_degree_rows(gens, d, N, p), p)


def hilbert_oracle(gens, dmax: int, N: int, p: int = DEFAULT_PRIME) -> HVector:
    """Hilbert function of the quotient through degree dmax, flagged as
    truncated with horizon dmax."""
    values = [ring_dim(N, d) - graded_dim(gens, d, N, p) for d in range(dmax + 1)]
    return HVector.truncated(values, dmax)


def _rank_gain(B: np.ndarray, A: np.ndarray, p: int) -> int:
    """rank([B; A]) - rank(B) over F_p: the dimension A's rows add to B's
    row space."""
    return rank_mod_p(np.vstack([B, A]), p) - rank_mod_p(B, p)


def containment_failure(gensA, gensB, dmax: int, N: int, p: int = DEFAULT_PRIME):
    """First degree d <= dmax where (gensA)_d is not inside (gensB)_d, or
    None.  (A)_d is spanned by the multiples of A's generators of degree at
    most d, so the first such d is the least degree of a generator of A
    whose row adds to the rank of B_d.  Zero generators are skipped; a
    non-homogeneous one on either side raises ValueError."""
    by_degree: dict[int, list] = {}
    for g in gensA:
        by_degree.setdefault(poly_degree(g), []).append(g)
    for g in gensB:
        poly_degree(g)  # raises on a non-homogeneous generator
    for d in sorted(by_degree):
        if 0 <= d <= dmax and _rank_gain(_degree_rows(gensB, d, N, p),
                                         _degree_rows(by_degree[d], d, N, p), p):
            return d
    return None


def ideals_equal_up_to(gensA, gensB, dmax: int, N: int, p: int = DEFAULT_PRIME) -> bool:
    """Whether (gensA)_d = (gensB)_d for every d <= dmax: containment both
    ways, in the generators' degrees."""
    return (containment_failure(gensA, gensB, dmax, N, p) is None
            and containment_failure(gensB, gensA, dmax, N, p) is None)


def colon_stability_failure(gens, f: dict, dmax: int, N: int, p: int = DEFAULT_PRIME):
    """First degree d <= dmax where {g : f*g in I} is strictly bigger than
    I_d, or None if I : f = I holds through the horizon.  (I : f)_d has
    dimension dim R_d - rank(f*R_d modulo I_{d+deg f}), which is compared
    with dim I_d.  An f that is zero mod p raises ValueError."""
    df = poly_degree(f)
    if not poly_normalize(f, p):
        raise ValueError("zero multiplier")
    for d in range(dmax + 1):
        image = _rank_gain(_degree_rows(gens, d + df, N, p), _degree_rows([f], d + df, N, p), p)
        if ring_dim(N, d) - image != graded_dim(gens, d, N, p):
            return d
    return None
