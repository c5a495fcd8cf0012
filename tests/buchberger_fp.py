"""Buchberger's algorithm over F_p: the reference Gröbner bases that the
tier-1 cross-checks compare the certificates' closed-form initial ideals
and containment answers with, at two primes.  ``buchberger_z`` reuses its
S-polynomials and term keys over Z."""
import heapq
from operator import add, le, sub

from liaison.monomials import Monomial, MonomialIdeal
from liaison.oracle import poly_degree


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


def _top_reduce_mod_p(r: dict, basis, prime: int) -> dict:
    """The remainder of the residues ``r`` under top reduction by the
    monic ``basis`` (as ``_s_polynomial`` takes it) over F_p, in place:
    empty, or led by a key no leading key divides.  Only the terms a step
    touches are reduced mod p, and the keys wait in a heap, so the lead is
    not searched for."""
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


def _monic(g: dict, prime: int) -> tuple:
    """(leading key, 1, g scaled to a leading coefficient 1 mod ``prime``)."""
    lead = min(g)
    unit = pow(g[lead], -1, prime)
    return lead, 1, {e: c * unit % prime for e, c in g.items()}


def _keyed(f: dict, order) -> dict:
    """The form ``f`` with each term keyed by its exponents read in ``order``."""
    return {tuple(e[v] for v in order): c for e, c in f.items()}


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
    smallest: the reference the library's closed-form initial ideals and
    containment answers are checked against.

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
    ideal."""

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
        self.failure = self._complete(numbers)

    def _complete(self, numbers: list) -> str | None:
        basis, prime = self.basis, self.prime
        minimal = [not any(_divides(b, a) and (b != a or j < k)
                           for j, (b, _, _) in enumerate(basis) if j != k)
                   for k, (a, _, _) in enumerate(basis)]
        divisors = [item for item, m in zip(basis, minimal) if m]
        failure, remainders = None, []
        for k in range(len(basis)):
            if minimal[k]:
                continue
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
        while queue:
            _, i, j = heapq.heappop(queue)
            pending.remove((i, j))
            if _chained(basis, i, j, pending):
                continue
            r = _residues(_s_polynomial(basis, i, j), prime)
            r = _top_reduce_mod_p(r, basis, prime)
            if not r:
                continue
            failure = failure or (f"S-pair of generators {numbers[i]} and {numbers[j]} "
                                  "does not reduce to 0")
            basis.append(_monic(r, prime))
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
