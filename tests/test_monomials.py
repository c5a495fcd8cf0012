import copy
import dataclasses
import hashlib
import json
import pickle
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from reference_borel import borel_moves, reference_borel_ideals
from timing import budget

from liaison.lifting import default_matrix, lift_ideal
from liaison.links import PolyIdeal
from liaison.monomials import (
    Monomial,
    MonomialIdeal,
    NotBorelFixedError,
    _minimal_gens,
    enumerate_borel_ideals,
    height,
    is_artinian,
    is_borel_fixed,
    is_cm_borel,
    is_equidimensional,
    is_lex_segment,
    lex_segment_violation,
    minimal_primes,
    monomials_of_degree,
    saturate,
    standard_monomials,
    unit_monomial,
    variable,
)


def scanned_lex_segment_violation(J):
    """The lex-segment test by scanning every degree up to the largest
    generator degree: the reference for ``lex_segment_violation``."""
    for d in range(1, J.max_gen_degree + 1):
        seen_outside = None
        for m in monomials_of_degree(J.n, d):
            if J.contains(m):
                if seen_outside is not None:
                    return seen_outside
            elif seen_outside is None:
                seen_outside = m
    return None


def colon_equidimensional(J):
    """Equidimensionality by intersecting each minimal prime's component,
    J : m^big with m the variables outside it: the reference for
    ``is_equidimensional``."""
    primes = minimal_primes(J)
    if len({len(p) for p in primes}) != 1:
        return False
    big = J.max_gen_degree + 1
    intersection = None
    for prime in primes:
        power = Monomial(tuple(0 if i in prime else big for i in range(J.n)))
        component = J.colon(power)
        intersection = component if intersection is None else intersection.intersect(component)
    return intersection == J


def mono(*exps):
    return Monomial(tuple(exps))


def ideal(n, *gens):
    return MonomialIdeal.from_gens(n, [mono(*g) for g in gens])


small_monomials = st.builds(
    Monomial,
    st.lists(st.integers(0, 4), min_size=2, max_size=4).map(tuple),
)


@st.composite
def small_ideals(draw, n=3, max_gens=5, max_exp=4):
    count = draw(st.integers(1, max_gens))
    gens = [
        Monomial(tuple(draw(st.integers(0, max_exp)) for _ in range(n)))
        for _ in range(count)
    ]
    gens = [g for g in gens if not g.is_unit] or [variable(n, 0)]
    return MonomialIdeal.from_gens(n, gens)


class TestMonomial:
    def test_degree_and_divides(self):
        m = mono(2, 1, 0)
        assert m.degree == 3
        assert mono(1, 1, 0).divides(m)
        assert not mono(0, 2, 0).divides(m)

    def test_cached_attributes_change_nothing_observable(self):
        a, b = mono(2, 0, 1), mono(2, 0, 1)
        assert (a.support, a.degree) == ((0, 2), 3)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert dataclasses.astuple(a) == ((2, 0, 1),)
        assert not a < b and not b < a
        others = [mono(3, 0, 0), mono(0, 1, 2), mono(2, 1, 0)]
        assert sorted(others + [a]) == sorted(others + [b])
        for copied in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert copied == b and hash(copied) == hash(b)
            assert (copied.support, copied.degree) == ((0, 2), 3)
        J, K = ideal(3, (2, 0, 1), (0, 1, 0)), ideal(3, (2, 0, 1), (0, 1, 0))
        assert all(g.support for g in J.gens) and J.max_gen_degree == 3
        assert J == K and hash(J) == hash(K)
        assert json.dumps(J.to_json()) == json.dumps(K.to_json())
        assert MonomialIdeal.from_json(J.to_json()) == K
        for copied in (copy.deepcopy(J), pickle.loads(pickle.dumps(J))):
            assert copied == K and hash(copied) == hash(K)

    def test_mul_div_roundtrip(self):
        a, b = mono(2, 0, 1), mono(1, 3, 0)
        assert (a * b) / b == a

    def test_div_requires_divisibility(self):
        with pytest.raises(ValueError):
            mono(1, 0) / mono(2, 0)

    def test_gcd_lcm(self):
        a, b = mono(2, 1, 0), mono(1, 3, 0)
        assert a.gcd(b) == mono(1, 1, 0)
        assert a.lcm(b) == mono(2, 3, 0)

    @pytest.mark.parametrize("op", [
        lambda a, b: a.divides(b), lambda a, b: a.gcd(b), lambda a, b: a.lcm(b),
        lambda a, b: a * b, lambda a, b: a / b,
    ], ids=["divides", "gcd", "lcm", "mul", "truediv"])
    def test_arithmetic_refuses_mismatched_lengths(self, op):
        # zip would truncate: (1, 2) would divide (1, 2, 0).
        for a, b in ((mono(1, 2), mono(1, 2, 0)), (mono(1, 2, 0), mono(1, 2))):
            with pytest.raises(ValueError, match=f"{a.n} and {b.n} variables"):
                op(a, b)

    def test_monomials_of_degree_order_and_count(self):
        ms = monomials_of_degree(3, 2)
        assert len(ms) == 6
        # descending degree-lex: x1^2 first, x3^2 last
        assert ms[0] == mono(2, 0, 0)
        assert ms[-1] == mono(0, 0, 2)


class TestMonomialIdeal:
    def test_minimalization(self):
        J = ideal(2, (2, 0), (3, 0), (2, 1))
        assert J.gens == (mono(2, 0),)

    def test_minimalization_matches_brute_force(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 4)
            gens = [Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
                    for _ in range(rng.randint(0, 12))]
            want = sorted({g for g in gens
                           if not any(h != g and h.divides(g) for h in gens)},
                          key=lambda m: (m.degree, m.exps))
            assert _minimal_gens(gens) == want, gens

    def test_contains(self):
        J = ideal(2, (2, 0), (0, 3))
        assert J.contains(mono(2, 5))
        assert not J.contains(mono(1, 2))

    def test_colon(self):
        J = ideal(2, (3, 0), (1, 2))
        assert J.colon(mono(1, 0)) == ideal(2, (2, 0), (0, 2))

    def test_colon_composes(self):
        J = ideal(3, (3, 0, 0), (1, 2, 0), (0, 0, 2))
        a, b = mono(1, 0, 0), mono(0, 1, 0)
        assert J.colon(a).colon(b) == J.colon(a * b)

    def test_intersect_plus(self):
        A = ideal(2, (2, 0))
        B = ideal(2, (0, 2))
        assert A.intersect(B) == ideal(2, (2, 2))
        assert A.plus(B) == ideal(2, (2, 0), (0, 2))

    def test_restrict_extend(self):
        J = ideal(3, (0, 2, 0), (0, 1, 1))
        R = J.restrict((1, 2))
        assert R == ideal(2, (2, 0), (1, 1))
        assert R.extend_front(1) == J

    @pytest.mark.parametrize("variables, message", [
        ([0, 0], "index 0 repeated"),
        ((1, 2, 1), "index 1 repeated"),
        ([5], "index 5 outside 0..2"),
        ([3], "index 3 outside 0..2"),
        ([2, -1], "index -1 outside 0..2"),
    ])
    def test_restrict_refuses_bad_variable_lists(self, variables, message):
        J = ideal(3, (2, 0, 0), (0, 1, 1))
        with pytest.raises(ValueError, match=message):
            J.restrict(variables)

    def test_restrict_takes_variables_in_any_order(self):
        J = ideal(3, (2, 0, 0), (0, 1, 1), (0, 3, 0))
        assert J.restrict([2, 1]) == J.restrict(range(1, 3)) == ideal(2, (1, 1), (3, 0))
        assert J.restrict([]) == MonomialIdeal.zero(0)

    def test_times_monomial_refuses_another_ambient(self):
        J = ideal(3, (2, 0, 0), (0, 1, 1))
        with pytest.raises(ValueError, match="ambient mismatch"):
            J.times_monomial(mono(1, 0))
        with pytest.raises(ValueError, match="ambient mismatch"):
            MonomialIdeal.zero(3).times_monomial(mono(1, 0, 0, 0))

    def test_pad_refuses_negative_counts(self):
        with pytest.raises(ValueError, match="cannot pad by -1"):
            ideal(2, (1, 0)).pad(-1)
        with pytest.raises(ValueError, match="cannot pad by 0 and -1"):
            PolyIdeal.from_monomial(ideal(2, (1, 0)), N=1)

    def test_json_roundtrip(self):
        J = ideal(3, (1, 2, 0), (0, 0, 3))
        assert MonomialIdeal.from_json(J.to_json()) == J

    def test_standard_monomials(self):
        J = ideal(2, (2, 0), (0, 2))
        assert set(standard_monomials(J, 2)) == {mono(1, 1)}

    @given(small_ideals(), small_monomials)
    @settings(max_examples=60, deadline=None)
    def test_colon_contains_original(self, J, m):
        m = Monomial(m.exps[: J.n] + (0,) * (J.n - len(m.exps[: J.n])))
        C = J.colon(m)
        assert C.contains_ideal(J)

    @given(small_ideals(n=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_trusted_constructors_equal_from_gens(self, J, data):
        # restrict, pad, extend_front and times_monomial skip from_gens;
        # each must give what from_gens gives on the same generators.
        n = J.n
        variables = data.draw(st.permutations(range(n)).flatmap(
            lambda order: st.integers(0, n).map(lambda k: order[:k])))
        inside = sorted(variables)
        R = J.restrict(variables)
        assert R == MonomialIdeal.from_gens(len(inside), (
            Monomial(tuple(g.exps[v] for v in inside))
            for g in J.gens if set(g.support) <= set(inside)))
        before, after = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        padded = MonomialIdeal.from_gens(
            before + n + after, (Monomial((0,) * before + g.exps + (0,) * after) for g in J.gens))
        assert J.pad(before, after) == padded
        assert J.extend_front(before) == J.pad(before, 0)
        m = Monomial(tuple(data.draw(st.integers(0, 2)) for _ in range(n)))
        assert J.times_monomial(m) == MonomialIdeal.from_gens(n, (g * m for g in J.gens))

    @given(small_ideals(), st.integers(0, 2), st.integers(1, 2), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_padded_initial_ideals_equal_from_gens(self, J, extra, t, seed):
        # PolyIdeal.from_monomial pads after, a lift's initial ideal on
        # both sides of the source's variables.
        N = J.n + extra
        assert PolyIdeal.from_monomial(J, N=N, codim=1).initial_ideal() == (
            MonomialIdeal.from_gens(N, (Monomial(g.exps + (0,) * extra) for g in J.gens)))
        A = default_matrix(J.n + extra, "t-lift", seed=seed, ncols=5, t=t)
        for _ in range(extra):
            A = A.drop_first_row()
        L = lift_ideal(J, A)
        head, tail = (0,) * extra, (0,) * A.t
        assert L.initial_ideal() == MonomialIdeal.from_gens(
            A.N, (Monomial(head + g.exps + tail) for g in J.gens))

    def test_trusted_constructors_do_not_minimalize(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("from_gens called")

        J = ideal(3, (2, 0, 0), (1, 1, 0), (0, 1, 1))
        monkeypatch.setattr(MonomialIdeal, "from_gens", refuse)
        assert J.restrict([1, 2]).gens == (mono(1, 1),)
        assert J.extend_front(1).gens == (mono(0, 2, 0, 0), mono(0, 1, 1, 0), mono(0, 0, 1, 1))
        assert J.times_monomial(mono(0, 0, 1)).gens == (
            mono(2, 0, 1), mono(1, 1, 1), mono(0, 1, 2))

    @given(small_ideals())
    @settings(max_examples=60, deadline=None)
    def test_membership_matches_generator_divisibility(self, J):
        for m in monomials_of_degree(J.n, 3):
            assert J.contains(m) == any(g.divides(m) for g in J.gens)


class TestBorelAndLex:
    def test_fixture_borel_not_lex(self):
        J = ideal(3, (3, 0, 0), (2, 1, 0), (1, 2, 0))
        assert is_borel_fixed(J)
        assert not is_lex_segment(J)
        assert lex_segment_violation(J) == mono(2, 0, 1)

    def test_closed_form_lex_matches_scan_on_borel_ideals(self, borel_ideals):
        t0 = time.time()
        lex = 0
        for J in borel_ideals:
            witness = lex_segment_violation(J)
            assert witness == scanned_lex_segment_violation(J), J
            lex += witness is None
        assert 0 < lex < len(borel_ideals)
        budget("lex test of 9686 Borel ideals against the scan", time.time() - t0, 12)

    def test_closed_form_lex_matches_scan_on_non_borel_ideals(self, non_borel_ideals):
        t0 = time.time()
        for J in non_borel_ideals:
            assert lex_segment_violation(J) == scanned_lex_segment_violation(J), J
        budget("lex test of 300 non-Borel ideals against the scan", time.time() - t0, 3)

    @pytest.mark.parametrize("J", [
        MonomialIdeal.zero(3), MonomialIdeal.unit(3), MonomialIdeal.zero(0),
        MonomialIdeal.unit(0), ideal(1, (4,)), ideal(2, (0, 3)), ideal(2, (1, 1)),
        ideal(3, (0, 0, 2)), ideal(3, (1, 0, 0), (0, 2, 0)),
    ], ids=str)
    def test_closed_form_lex_edge_cases(self, J):
        assert lex_segment_violation(J) == scanned_lex_segment_violation(J)

    def test_lex_implies_borel(self):
        J = ideal(3, (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0))
        if is_lex_segment(J):
            assert is_borel_fixed(J)

    def test_power_of_maximal_ideal(self):
        J = MonomialIdeal.from_gens(3, monomials_of_degree(3, 2))
        assert is_borel_fixed(J)
        assert is_lex_segment(J)

    @given(small_ideals(n=4, max_gens=4, max_exp=2))
    @settings(max_examples=150, deadline=None)
    def test_adjacent_moves_decide_borel(self, J):
        every_move = all(J.contains(m) for g in J.gens for m in borel_moves(g))
        assert is_borel_fixed(J) == every_move

    def test_enumerate_borel_small(self):
        ideals = list(enumerate_borel_ideals(2, 2))
        for J in ideals:
            assert J.is_zero or is_borel_fixed(J)
        # distinct ideals only
        assert len({J.gens for J in ideals}) == len(ideals)

    @pytest.mark.parametrize("n, maxdeg", [(2, 3), (3, 2), (2, 4)])
    def test_enumerate_borel_complete(self, n, maxdeg):
        monos = [m for d in range(1, maxdeg + 1) for m in monomials_of_degree(n, d)]
        brute = set()
        for mask in range(1, 2 ** len(monos)):
            J = MonomialIdeal.from_gens(n, (m for k, m in enumerate(monos) if mask >> k & 1))
            if is_borel_fixed(J):
                brute.add(J.gens)
        assert {J.gens for J in enumerate_borel_ideals(n, maxdeg)} == brute

    @pytest.mark.parametrize("n, maxdeg, count", [(5, 3, 2429), (3, 5, 2429), (2, 8, 510)])
    def test_enumeration_matches_reference(self, n, maxdeg, count):
        # The whole sequence, order included, beyond the pinned range.
        ideals = list(enumerate_borel_ideals(n, maxdeg))
        assert len(ideals) == count
        assert ideals == list(reference_borel_ideals(n, maxdeg))

    def test_enumeration_order_is_pinned(self, borel_ideals):
        # Samples of this sequence are benchmark inputs, drawn by position.
        text = json.dumps([J.to_json() for J in borel_ideals], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c52b9b2d599c158e30b895453e236de26d80a0f3c29d53a2cf0558f195ee2937")


class TestDecompositionAndPrimes:
    def test_minimal_primes_and_height(self):
        J = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        primes = {frozenset(p) for p in minimal_primes(J)}
        assert primes == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}
        assert height(J) == 2

    def test_equidimensional_fixture(self):
        J = ideal(3, (3, 0, 0), (2, 1, 0), (1, 2, 0))
        assert not is_equidimensional(J)

    def test_equidimensional_artinian(self):
        J = ideal(2, (2, 0), (1, 1), (0, 3))
        assert is_equidimensional(J)

    @pytest.mark.parametrize("J, equidimensional", [
        # one minimal prime (x1), and an embedded component at (x1, x2)
        (ideal(2, (2, 0), (1, 1)), False),
        # (x1) and (x2, x3): mixed heights
        (ideal(3, (1, 1, 0), (1, 0, 1)), False),
        # (x1, x2) & (x3, x4) & (x1, ..., x4)^3: two primes of height 2 and
        # an embedded component
        (ideal(4, (2, 0, 1, 0), (2, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 2, 0),
               (1, 0, 1, 1), (1, 0, 0, 2), (0, 2, 1, 0), (0, 2, 0, 1), (0, 1, 2, 0),
               (0, 1, 1, 1), (0, 1, 0, 2)), False),
        # one prime (x1, x2), every generator in k[x1, x2]
        (ideal(3, (2, 0, 0), (0, 3, 0)), True),
    ], ids=str)
    def test_equidimensional_fixtures(self, J, equidimensional):
        assert is_equidimensional(J) == colon_equidimensional(J) == equidimensional

    @given(small_ideals(n=4, max_gens=6, max_exp=3))
    @settings(max_examples=200, deadline=None)
    def test_equidimensional_matches_intersection_of_components(self, J):
        assert is_equidimensional(J) == colon_equidimensional(J)

    def test_equidimensional_census_matches_intersection(self, borel_ideals):
        # Every Borel-fixed ideal has one minimal prime: the one-prime rule.
        for J in borel_ideals[::7]:
            assert len(minimal_primes(J)) == 1
            assert is_equidimensional(J) == colon_equidimensional(J), J

    def test_saturate(self):
        J = ideal(2, (2, 0), (1, 1))
        assert saturate(J, mono(0, 1)) == ideal(2, (1, 0))

    @given(small_ideals(), st.lists(st.integers(0, 3), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_saturate_matches_colon_by_a_large_power(self, J, exps):
        big = J.max_gen_degree + 1
        m = Monomial(tuple(exps))
        assert saturate(J, m) == J.colon(Monomial(tuple(e * big for e in exps)))
        with pytest.raises(ValueError, match="ambient mismatch"):
            saturate(J, Monomial(tuple(exps) + (0,)))

    @given(small_ideals())
    @settings(max_examples=40, deadline=None)
    def test_minimal_primes_match_decomposition(self, J):
        # Minimal primes of a monomial ideal are the inclusion-minimal sets
        # of variables that meet the support of every generator.
        hitting = [
            frozenset(s)
            for k in range(J.n + 1)
            for s in combinations(range(J.n), k)
            if all(set(g.support) & set(s) for g in J.gens)
        ]
        minimal = {s for s in hitting if not any(t < s for t in hitting)}
        assert {frozenset(p) for p in minimal_primes(J)} == minimal


class TestCmBorel:
    def test_requires_borel(self):
        J = ideal(2, (0, 2),)
        with pytest.raises(NotBorelFixedError):
            is_cm_borel(J)

    def test_fixture_not_cm(self):
        J = ideal(3, (3, 0, 0), (2, 1, 0), (1, 2, 0))
        ok, cone = is_cm_borel(J)
        assert not ok and cone is None

    def test_artinian_is_cm(self):
        J = MonomialIdeal.from_gens(3, monomials_of_degree(3, 2))
        ok, cone = is_cm_borel(J)
        assert ok
        assert cone.c == 3
        assert is_artinian(cone.artinian_part)

    def test_cone_presentation(self):
        # cone over the Artinian ideal (x1^2, x1x2, x2^2) in 3 variables
        J = ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        ok, cone = is_cm_borel(J)
        assert ok and cone.c == 2
        assert cone.artinian_part == ideal(2, (2, 0), (1, 1), (0, 2))
