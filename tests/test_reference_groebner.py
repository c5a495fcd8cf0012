"""Tier-1 cross-checks of the certificates' closed forms with the
reference Buchberger run over F_p (``buchberger_fp``), at two primes.

For every base, divisor, W_1, Z_k and link result a certificate builds,
and every layer lift and direct lift, the reference's initial ideal in
revlex with the lifting's variables last is the one the certificate read
its Hilbert functions off.  Every containment the certificate decides,
and its equalities ``chain-equals-direct-lift`` and ``bar-j-equals-j``,
agree with normal forms against the reference's basis."""
import random

import pytest

from buchberger_fp import GroebnerBasis
from liaison import links
from liaison.hilbert import HVector, lex_ideal_from_hvector
from liaison.lifting import default_matrix
from liaison.linkage import glicci_certificate_artinian, glicci_certificate_borel
from liaison.links import PolyIdeal
from liaison.monomials import (
    Monomial,
    MonomialIdeal,
    enumerate_borel_ideals,
    is_borel_fixed,
    is_cm_borel,
)

PRIMES = [32003, 65537]
WORKED_J = lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3)


def artinian_roots():
    """24 seeded Artinian ideals that are not Borel-fixed, in 3 or 4
    variables, each with the t (1 or 2) and matrix seed it is lifted by."""
    rng = random.Random(26)
    roots = []
    while len(roots) < 24:
        n = rng.choice([3, 4])
        gens = [Monomial(tuple(rng.randint(2, 4 - n // 4) * (k == v) for k in range(n)))
                for v in range(n)]
        gens += [Monomial(tuple(rng.randint(0, 1) for _ in range(n)))
                 for _ in range(rng.randint(1, 3))]
        J = MonomialIdeal.from_gens(n, gens)
        if J.initial_degree() > 1 and not is_borel_fixed(J):
            roots.append((J, rng.choice([1, 2]), rng.randrange(100)))
    return roots


def sweep_ideals():
    return [J for n in range(1, 5) for J in enumerate_borel_ideals(n, 3)
            if not (J.is_zero or J.is_unit) and is_cm_borel(J)[0]]


@pytest.fixture
def answers(monkeypatch):
    """Every containment the certificates decide, as (forms, ideal, last,
    prime, least degree outside or None)."""
    seen = []
    real = links._first_outside

    def recording(part, ideal):
        fail = real(part, ideal)
        seen.append((part.gens, ideal, part.last, part.prime, fail))
        return fail

    monkeypatch.setattr(links, "_first_outside", recording)
    return seen


def agrees_with_the_reference(cert, answers, prime) -> int:
    """Assert that the reference agrees with every initial ideal,
    containment and equality of ``cert``; return how many ideals it
    checked."""
    bases = {}

    def reference(ideal, last):
        key = (id(ideal), tuple(last))
        if key not in bases:
            bases[key] = GroebnerBasis(ideal.gens, ideal.N, last, prime)
        return bases[key]

    def equal(a, b, last):
        return (reference(b, last).first_outside(a.gens) is None
                and reference(a, last).first_outside(b.gens) is None)

    ideals = []
    for step in cert.steps:
        passed = {c.name: c.passed for c in step.checks}
        last = step.kind in ("chain", "bilink") and step.matrix.lifted_variables
        if step.kind == "chain":
            chain = step.chain
            w1 = chain.links[0].divisor if chain.links else chain.result
            ideals += [(i, last) for i in (*chain.vees, w1, step.direct_lift)]
            ideals += [(i, last) for link in chain.links
                       for i in (link.base, link.divisor, link.result)]
            assert passed["chain-equals-direct-lift"] == equal(
                chain.result, step.direct_lift, last)
        elif step.kind == "bilink":
            link = step.link
            ideals += [(i, last) for i in (link.base, link.divisor, link.result)]
            j = PolyIdeal.from_monomial(step.source)
            assert passed["bar-j-equals-j"] == equal(link.result, j, last)
    for ideal, last in ideals:
        assert reference(ideal, last).initial_ideal() == ideal.initial_ideal(last), ideal.label
    for gens, ideal, last, p, fail in answers:
        assert p == prime
        assert reference(ideal, last).first_outside(gens) == fail
    return len(ideals)


@pytest.mark.parametrize("prime", PRIMES)
@pytest.mark.parametrize("t", [1, 2])
def test_worked_certificate(prime, t, answers):
    A = default_matrix(3, "t-lift", seed=7, ncols=6, t=t)
    cert = glicci_certificate_artinian(WORKED_J, A, prime)
    # Four layer lifts, W_1, the direct lift, and three links.
    assert agrees_with_the_reference(cert, answers, prime) == 4 + 2 + 3 * 3
    assert len(answers) == 7


@pytest.mark.parametrize("prime", PRIMES)
def test_non_borel_artinian_roots(prime, answers):
    checked = 0
    for J, t, seed in artinian_roots():
        del answers[:]
        A = default_matrix(J.n, "t-lift", seed=seed, ncols=J.max_gen_degree, t=t)
        cert = glicci_certificate_artinian(J, A, prime)
        checked += agrees_with_the_reference(cert, answers, prime)
    assert checked > 24 * 4


@pytest.mark.parametrize("prime", PRIMES)
def test_every_sweep_bilink(prime, answers):
    bilinks = 0
    for J in sweep_ideals():
        del answers[:]
        cert = glicci_certificate_borel(J, prime)
        bilinks += agrees_with_the_reference(cert, answers, prime) // 3
    assert bilinks == 45
