"""Buchberger's criterion over Z: the check ``verify_lift`` made before
the lifting theorem replaced it, kept as the independent reference of the
theorem on random shape-valid matrices (``test_lifting.py``).  Its
S-polynomials and term keys are those of ``buchberger_fp``."""
import itertools
import math
from operator import sub

from buchberger_fp import (
    _coprime,
    _divisor,
    _keyed,
    _revlex_order,
    _s_polynomial,
    _subtract_multiple,
)


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


def buchberger_failure(polys, leads, last) -> str | None:
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
