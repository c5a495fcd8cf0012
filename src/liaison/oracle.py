"""Brute-force verification engine over a prime field.

Expands lifted generators into honest polynomials, computes graded
dimensions by row reduction mod p, and answers containment / equality /
colon-stability questions degree by degree.  All certificates produced
from these routines are "mod p" certificates: a wrong rank mod p can only
be too small, so agreement at two primes is decisive at desk scale.
"""
from __future__ import annotations

from math import comb, isqrt
from functools import lru_cache

import numpy as np

from .hilbert import HVector
from .monomials import monomials_of_degree

DEFAULT_PRIME = 32003
FALLBACK_PRIME = 65537
# Largest modulus whose square fits int64: rank_mod_p multiplies two
# residues before reducing.
MAX_PRIME = 3_037_000_499

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


def poly_shift(f: Poly, mono_exps: tuple[int, ...]) -> Poly:
    return {tuple(a + b for a, b in zip(e, mono_exps)): c for e, c in f.items()}


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


@lru_cache(maxsize=None)
def _basis_index(N: int, d: int) -> dict:
    return {m.exps: k for k, m in enumerate(monomials_of_degree(N, d))}


def ring_dim(N: int, d: int) -> int:
    return comb(N - 1 + d, d) if d >= 0 else 0


def rank_mod_p(M: np.ndarray, p: int) -> int:
    """Rank over F_p by Gaussian elimination with deterministic pivoting
    (first nonzero column, lowest row index)."""
    M = np.array(M, dtype=np.int64) % p
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        col = M[r + 1 :, c]
        mask = col != 0
        if mask.any():
            M[r + 1 :][mask] = (M[r + 1 :][mask] - np.outer(col[mask], M[r])) % p
        r += 1
    return r


def _degree_rows(gens, d: int, N: int, p: int) -> np.ndarray:
    """Coefficient rows of all monomial multiples of the generators in
    degree d.  Row order: generators in given order, multiplier monomials
    in descending degree-lex."""
    index = _basis_index(N, d)
    rows = []
    for g in gens:
        dg = poly_degree(g)
        if dg < 0 or dg > d:
            continue
        for mu in monomials_of_degree(N, d - dg):
            row = np.zeros(len(index), dtype=np.int64)
            for e, c in poly_shift(g, mu.exps).items():
                row[index[e]] = c % p
            rows.append(row)
    if not rows:
        return np.zeros((0, len(index)), dtype=np.int64)
    return np.vstack(rows)


def graded_dim(gens, d: int, N: int, p: int = DEFAULT_PRIME) -> int:
    """Dimension of the degree-d piece of the ideal generated by ``gens``."""
    return rank_mod_p(_degree_rows(gens, d, N, p), p)


def hilbert_oracle(gens, dmax: int, N: int, p: int = DEFAULT_PRIME) -> HVector:
    """Hilbert function of the quotient through degree dmax, flagged as
    truncated with horizon dmax."""
    values = [ring_dim(N, d) - graded_dim(gens, d, N, p) for d in range(dmax + 1)]
    return HVector.truncated(values, dmax)


def containment_failure(gensA, gensB, dmax: int, N: int, p: int = DEFAULT_PRIME):
    """First degree where (gensA)_d is not inside (gensB)_d, or None."""
    for d in range(dmax + 1):
        B = _degree_rows(gensB, d, N, p)
        A = _degree_rows(gensA, d, N, p)
        if A.shape[0] == 0:
            continue
        rb = rank_mod_p(B, p)
        rab = rank_mod_p(np.vstack([B, A]), p)
        if rab != rb:
            return d
    return None


def ideals_equal_up_to(gensA, gensB, dmax: int, N: int, p: int = DEFAULT_PRIME) -> bool:
    return (
        containment_failure(gensA, gensB, dmax, N, p) is None
        and containment_failure(gensB, gensA, dmax, N, p) is None
    )


def colon_stability_failure(gens, f: Poly, dmax: int, N: int, p: int = DEFAULT_PRIME):
    """First degree d where {g : f*g in I} is strictly bigger than I_d,
    or None if I : f = I holds through the horizon."""
    df = poly_degree(f)
    if df < 0:
        raise ValueError("zero multiplier")
    for d in range(dmax + 1):
        big = _degree_rows(gens, d + df, N, p)
        rank_w = rank_mod_p(big, p)
        multiples = _degree_rows([f], d + df, N, p)
        rank_combined = rank_mod_p(np.vstack([big, multiples]), p)
        sol_dim = ring_dim(N, d) - (rank_combined - rank_w)
        if sol_dim != graded_dim(gens, d, N, p):
            return d
    return None


def stable_value(h: HVector) -> int:
    """Last value of a truncated Hilbert function, requiring it to have
    stabilized over the final two degrees."""
    if len(h.values) < 2 or h.values[-1] != h.values[-2]:
        raise ValueError(
            f"Hilbert values not stable at horizon: {h.values[-3:]}; "
            "increase dmax"
        )
    return h.values[-1]


def poly_to_json(f: Poly) -> list:
    return sorted([list(e) + [c] for e, c in f.items()], reverse=True)


def poly_from_json(data: list, N: int | None = None) -> Poly:
    out = {}
    for term in data:
        out[tuple(term[:-1])] = term[-1]
    return out

