import random

import pytest

from liaison.monomials import Monomial, MonomialIdeal, enumerate_borel_ideals, is_borel_fixed


@pytest.fixture(scope="session")
def borel_ideals():
    """The 9 686 nonzero Borel-fixed ideals with n <= 4 and generator
    degree <= 4 (the criterion-5 set), in enumeration order."""
    return [J for n in range(1, 5) for J in enumerate_borel_ideals(n, 4)]


@pytest.fixture(scope="session")
def non_borel_ideals():
    """300 seeded random ideals in 2 to 4 variables that are not
    Borel-fixed: up to 6 generators of degree up to 5."""
    rng = random.Random(12)
    out = []
    while len(out) < 300:
        n = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 6)):
            exps = [0] * n
            for _ in range(rng.randint(1, 5)):
                exps[rng.randrange(n)] += 1
            gens.append(Monomial(tuple(exps)))
        J = MonomialIdeal.from_gens(n, gens)
        if not is_borel_fixed(J):
            out.append(J)
    return out
