import ast
import dataclasses
import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from buchberger_fp import GroebnerBasis
from test_lifting import count_json_texts, reverse_keys, unsorted_objects
from liaison import lifting, linkage, links, oracle
from liaison.cli import main
from liaison.hilbert import (
    HVector,
    hilbert_values,
    lex_ideal_from_hvector,
    numerator_difference,
)
from liaison.layers import decompose
from liaison.lifting import (
    DEFAULT_PRIME,
    MatrixError,
    canonical_json,
    default_matrix,
    lift_ideal,
    linear_form_poly,
    poly_degree,
    poly_normalize,
)
from liaison.linkage import (
    BilinkStep,
    ChainStep,
    GlicciCertificate,
    glicci_certificate_artinian,
    glicci_certificate_borel,
    strip_x1,
    verify_certificate,
)
from liaison.links import (
    LinkageError,
    PolyIdeal,
    basic_double_link,
    hypersurface_chain,
)
from liaison.monomials import (
    Monomial,
    MonomialIdeal,
    enumerate_borel_ideals,
    is_cm_borel,
    monomials_of_degree,
)
from liaison.oracle import containment_failure, hilbert_oracle

P = DEFAULT_PRIME


def ideal(n, *gens):
    return MonomialIdeal.from_gens(n, [Monomial(tuple(g)) for g in gens])


WORKED_J = lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3)
SQUARE = MonomialIdeal.from_gens(3, monomials_of_degree(3, 2))


def lifted_poly_ideal(J, A, codim, label=""):
    return PolyIdeal.from_lifted(lift_ideal(J, A), codim, label=label)


def gens_key(gens) -> tuple:
    """A hashable key of a generator list."""
    return tuple(tuple(sorted(g.items())) for g in gens)


def sweep_ideals():
    """The 94 proper nonzero CM Borel-fixed ideals with n <= 4 and
    generator degree <= 3: the Borel sweep."""
    return [J for n in range(1, 5) for J in enumerate_borel_ideals(n, 3)
            if not (J.is_zero or J.is_unit) and is_cm_borel(J)[0]]


def colon_failure(gens, f):
    """``_colon_failure`` on the ideal of the forms ``gens``, over Z."""
    return links._colon_failure(PolyIdeal(len(next(iter(f))), tuple(gens), 0), f)


@pytest.fixture
def proven(monkeypatch):
    """Every ideal the certificates build with its generators' factors, as
    (generator key, ideal), in order; a Macaulay matrix is refused."""
    made = []
    real = PolyIdeal._prove

    def recording(ideal, *args):
        made.append((gens_key(ideal.gens), ideal))
        return real(ideal, *args)

    def refuse(*args):
        raise AssertionError("a Macaulay matrix was built")

    monkeypatch.setattr(PolyIdeal, "_prove", recording)
    monkeypatch.setattr(oracle, "_degree_rows", refuse)
    return made


class TestBasicDoubleLink:
    def test_simple_link_passes(self):
        # base: one lifted point-pair in P^2; divisor: a point on it
        A = default_matrix(2, "t-lift", seed=4, ncols=4, t=1)
        base = lifted_poly_ideal(ideal(2, (2, 0), (0, 1)), A, codim=2)
        divisor = lifted_poly_ideal(ideal(2, (1, 0), (0, 1)), A, codim=2)
        # codim gap must be exactly one: use a curve as the base instead
        curve = lifted_poly_ideal(ideal(2, (2, 0)), A, codim=1)
        link = basic_double_link(curve, divisor, linear_form_poly((0, 0, 1), P))
        names = {c.name for c in link.checks}
        assert {"containment", "codim-gap", "colon-stable",
                "hilbert-identity", "degree-identity"} <= names
        assert all(c.passed for c in link.checks)

    def test_rejects_codim_gap(self):
        A = default_matrix(2, "t-lift", seed=4, ncols=4, t=1)
        base = lifted_poly_ideal(ideal(2, (2, 0), (0, 1)), A, codim=2)
        divisor = lifted_poly_ideal(ideal(2, (1, 0), (0, 1)), A, codim=2)
        with pytest.raises(LinkageError, match="codim"):
            basic_double_link(base, divisor, linear_form_poly((0, 0, 1), P))

    def test_rejects_non_containment(self):
        A = default_matrix(2, "t-lift", seed=4, ncols=4, t=1)
        B = default_matrix(2, "t-lift", seed=5, ncols=4, t=1)
        curve = lifted_poly_ideal(ideal(2, (2, 0)), A, codim=1)
        # point from a different matrix: the curve does not pass through it
        other = lifted_poly_ideal(ideal(2, (1, 0), (0, 1)), B, codim=2)
        with pytest.raises(LinkageError, match="containment|colon|hilbert"):
            basic_double_link(curve, other, linear_form_poly((0, 0, 1), P))

    def test_rejects_untagged_base(self):
        base = PolyIdeal.from_monomial(ideal(3, (1, 0, 0)), label="mono")
        divisor = PolyIdeal.from_monomial(ideal(3, (1, 0, 0), (0, 1, 0)))
        with pytest.raises(LinkageError, match="gorenstein"):
            basic_double_link(base, divisor, linear_form_poly((0, 0, 1), P))

    def test_refuses_ideals_over_two_fields(self):
        # A curve lifted at 32003 and a point on it lifted at 65537: their
        # generators are reduced mod different primes, so no link is taken.
        A = default_matrix(2, "t-lift", seed=4, ncols=4, t=1)
        curve = PolyIdeal.from_lifted(lift_ideal(ideal(2, (2, 0)), A, P), 1)
        point = PolyIdeal.from_lifted(lift_ideal(ideal(2, (1, 0), (0, 1)), A, 65537), 2)
        assert (curve.prime, point.prime) == (P, 65537)
        with pytest.raises(LinkageError, match="^ideals over F_32003 and F_65537, not one field$"):
            basic_double_link(curve, point, linear_form_poly((0, 0, 1), P))

    def test_result_initial_ideal_is_the_closed_form(self):
        # in(I) + lead(f)·in(J) = (x1^2) + u·(x1, x2), as the reference
        # Buchberger run finds, and its closed form is the result's h.
        A = default_matrix(2, "t-lift", seed=4, ncols=4, t=1)
        divisor = lifted_poly_ideal(ideal(2, (1, 0), (0, 1)), A, codim=2)
        curve = lifted_poly_ideal(ideal(2, (2, 0)), A, codim=1)
        result = basic_double_link(curve, divisor, linear_form_poly((0, 0, 1), P)).result
        want = ideal(3, (2, 0, 0), (1, 0, 1), (0, 1, 1))
        assert result.initial_ideal(()) == want
        assert GroebnerBasis(result.gens, 3, (), P).initial_ideal() == want
        assert hilbert_values(result.numerator, 3, 9) == list(
            hilbert_oracle(result.gens, 8, 3, P).values)

    def test_forms_built_by_hand_have_no_closed_form(self):
        # Case (A) proves the colon, but no theorem gives the base an
        # initial ideal: the result's is refused, naming the missing proof.
        base = PolyIdeal(3, ({(2, 0, 0): 1, (1, 1, 0): 2},), 1, "lifted-generic", "hand")
        divisor = PolyIdeal.from_monomial(ideal(3, (1, 0, 0), (0, 1, 0)))
        with pytest.raises(LinkageError, match="^no theorem gives hand an initial ideal in revlex$"):
            basic_double_link(base, divisor, {(0, 0, 1): 1})

    def test_identity_is_checked_past_every_horizon(self, monkeypatch):
        # A link result whose closed form is wrong only in degree 12: the
        # numerator identity names that degree, however low the horizon
        # of the ideals compared.
        A = default_matrix(2, "t-lift", seed=4, ncols=4, t=1)
        divisor = lifted_poly_ideal(ideal(2, (1, 0), (0, 1)), A, codim=2)
        curve = lifted_poly_ideal(ideal(2, (2, 0)), A, codim=1)
        real = links._link_result

        def off_in_degree_12(*args):
            result = real(*args)
            wrong = result.initial_ideal().plus(ideal(3, (0, 12, 0)))
            assert wrong != result.initial_ideal()
            return result._prove(result.factors, wrong, ())

        monkeypatch.setattr(links, "_link_result", off_in_degree_12)
        with pytest.raises(LinkageError, match="hilbert-identity: first failing degree 12"):
            basic_double_link(curve, divisor, linear_form_poly((0, 0, 1), P))


def worked_flag(prime):
    """The worked example's flag V_r >= ... >= V_1 (given descending) and
    forms F_1..F_r at ``prime``, as its Artinian certificate builds them."""
    A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
    D = decompose(WORKED_J)
    Ap = A.drop_first_row()
    vees = [
        PolyIdeal.from_lifted(lift_ideal(D.layers[j], Ap, prime), 2, f"I{j}")
        for j in range(D.alpha)
    ]
    forms = [
        linear_form_poly(A.rows[0][D.alpha - i].coeffs, prime)
        for i in range(1, D.alpha + 1)
    ]
    return vees, forms


def sections(vees, forms, prime):
    """Generators of W_1..W_r, W_i = I_{V_i} + (F_i), as the chain builds them."""
    return [tuple(v.gens) + (poly_normalize(f, prime),)
            for v, f in zip(reversed(vees), forms)]


class TestHypersurfaceChain:
    def test_worked_example_chain(self):
        vees, forms = worked_flag(P)
        chain = hypersurface_chain(vees, forms)
        assert len(chain.links) == len(vees) - 1
        assert all(c.passed for c in chain.checks)
        for link in chain.links:
            assert all(c.passed for c in link.checks)

    def test_flag_over_two_fields_is_refused(self):
        vees, forms = worked_flag(P)
        other, _ = worked_flag(65537)
        with pytest.raises(LinkageError, match="F_32003 and F_65537"):
            hypersurface_chain(vees[:1] + other[1:], forms)

    def test_requires_matching_lengths(self):
        with pytest.raises(LinkageError):
            hypersurface_chain([], [])

    @pytest.mark.parametrize("prime", [P, 65537])
    def test_section_hilbert_is_the_oracles(self, prime):
        # K_{W_i} = (1 - t^{d_i}) K_{V_i}, through the worked horizon 9.
        vees, forms = worked_flag(prime)
        hypersurface_chain(vees, forms)  # the colon checks pass here
        for v, f, w in zip(reversed(vees), forms, sections(vees, forms, prime)):
            section = numerator_difference(v.numerator, poly_degree(f))
            assert hilbert_values(section, v.N, 10) == list(
                hilbert_oracle(w, 9, v.N, prime).values)

    def test_section_hilbert_read_only_after_colon_checks(self, monkeypatch):
        read = []
        real = PolyIdeal.numerator

        def numerator(ideal):
            read.append(ideal.label)
            return real.fget(ideal)

        monkeypatch.setattr(PolyIdeal, "numerator", property(numerator))
        vees, forms = worked_flag(P)
        hypersurface_chain(vees, forms)
        assert {v.label for v in vees} <= set(read)
        del read[:]
        monkeypatch.setattr(links, "_colon_failure", lambda *args: "refused")
        with pytest.raises(LinkageError, match="colon-stable"):
            hypersurface_chain(vees, forms)
        assert read == []

    def test_sections_after_the_first_not_eliminated(self, proven):
        # Each h_{W_i} is read off h_{V_i}; only W_1, the first link's
        # divisor, is built as an ideal, in the build and in the replay,
        # and no section gets a Macaulay matrix.
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        cert = glicci_certificate_artinian(WORKED_J, A)
        assert verify_certificate(cert).ok
        [step] = cert.steps
        ws = [gens_key(w) for w in sections(step.chain.vees, step.chain.forms, P)]
        keys = [key for key, _ in proven]
        assert len(ws) >= 3 and keys.count(ws[0]) == 2  # build and replay
        assert not set(ws[1:]) & set(keys)


def worked_certificate(prime=P):
    A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
    return glicci_certificate_artinian(WORKED_J, A, prime=prime)


# Leading monomials x1^2 and x1 x2 in revlex with x3 last, but the S-pair
# leaves x3 (x2^2 - x1 x3): no Gröbner basis, and x2^2 - x1 x3 lies in
# I : x3 and not in I.
NOT_A_BASIS = ({(2, 0, 0): 1, (0, 1, 1): 1}, {(1, 1, 0): 1, (0, 0, 2): 1})


class TestColonProof:
    """``_colon_failure`` proves I : f = I exactly; the oracle's ranks are
    its independent reference."""

    @pytest.mark.parametrize("prime", [P, 65537])
    def test_agrees_with_the_oracle_on_every_certificate_check(self, prime, monkeypatch):
        made = []
        real = links._colon_failure

        def recording(ideal, f):
            made.append((ideal, f))
            return real(ideal, f)

        monkeypatch.setattr(links, "_colon_failure", recording)
        checked = 0
        for build in [lambda: worked_certificate(prime)] + [
                functools.partial(glicci_certificate_borel, J, prime) for J in sweep_ideals()]:
            del made[:]
            cert = build()
            for ideal, f in made:
                assert ideal.prime == prime
                assert ((real(ideal, f) is None) == (oracle.colon_stability_failure(
                    ideal.gens, f, cert.dmax, ideal.N, prime) is None))
            checked += len(made)
        assert checked == 13 + 45  # the worked chain's checks, then one per bilink

    def test_power_of_a_leading_variable_fails(self):
        x1 = {(1, 0, 0): 1}
        assert (colon_failure([{(2, 0, 0): 1}], x1)
                == "leading monomial x1^2 of generator 1 involves x1")

    def test_base_that_is_not_a_basis_fails(self):
        # Case (B) needs a theorem that gives the forms an initial ideal:
        # without one the reason names it, and no basis is completed.
        x3 = {(0, 0, 1): 1}
        reason = "no theorem gives the ideal an initial ideal in revlex with x3 last"
        assert colon_failure(NOT_A_BASIS, x3) == reason
        assert oracle.colon_stability_failure(list(NOT_A_BASIS), x3, 4, 3, P) == 2
        base = PolyIdeal(3, NOT_A_BASIS, 2, "lifted-generic")
        divisor = PolyIdeal.from_monomial(ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(LinkageError, match=f"^colon-stable: {reason}$"):
            basic_double_link(base, divisor, x3)

    def test_multiplier_in_neither_case_fails(self):
        f = {(1, 0, 0): 1, (0, 1, 0): 1}
        assert colon_failure([{(1, 1, 0): 1}], f).startswith("neither case applies")

    def test_sweep_certificates_at_three(self):
        for J in sweep_ideals():
            cert = glicci_certificate_borel(J, prime=3)
            assert verify_certificate(cert).ok, J


class TestOracleLeavesTheCertificates:
    def test_certificates_take_no_rank(self, monkeypatch):
        # Neither the build nor the replay of any certificate calls the
        # oracle: no rank, no Macaulay matrix, no graded dimension.
        def refuse(*args):
            raise AssertionError("the oracle was called")

        for name in ("hilbert_oracle", "containment_failure", "ideals_equal_up_to",
                     "colon_stability_failure"):
            assert not hasattr(linkage, name) and not hasattr(links, name), name
        for name in ("colon_stability_failure", "rank_mod_p", "_degree_rows", "graded_dim"):
            monkeypatch.setattr(oracle, name, refuse)
        assert verify_certificate(worked_certificate()).ok
        for J in sweep_ideals():
            assert verify_certificate(glicci_certificate_borel(J)).ok, J

    def test_each_generator_set_is_read_once(self, proven):
        # One initial ideal per ideal: the four layer lifts and the direct
        # lift, by the lifting theorem, R, the divisor of W_1, and W_1, Z_2,
        # Z_3 and Z_4, by the closed form of a link.
        cert = worked_certificate()
        built = proven[:]
        del proven[:]
        assert verify_certificate(cert).ok
        keys = [key for key, _ in built]
        assert len(keys) == len(set(keys)) == 10
        for _, ideal in built:
            ideal.initial_ideal((3,))  # proven in revlex with u last, or raises
        # The replay recomputes what the build computed, sharing nothing.
        assert [key for key, _ in proven] == keys
        assert not {id(i) for _, i in built} & {id(i) for _, i in proven}

    def test_replay_makes_every_product_the_build_makes(self, monkeypatch):
        # A chain step's expansion memo lives only while the step runs: the
        # replay multiplies as many forms as the build did, none fewer.
        products = []
        real = lifting.poly_mul
        monkeypatch.setattr(lifting, "poly_mul",
                            lambda *args: products.append(args) or real(*args))
        for J, A in [(WORKED_J, default_matrix(3, "t-lift", seed=7, ncols=6, t=1)),
                     (MonomialIdeal.from_gens(4, monomials_of_degree(4, 2)),
                      default_matrix(4, "t-lift", seed=3, ncols=4, t=1))]:
            del products[:]
            cert = glicci_certificate_artinian(J, A)
            built = len(products)
            assert verify_certificate(cert).ok
            assert built > 0 and len(products) == 2 * built

    def test_a_fault_in_the_replays_expansion_is_caught(self, monkeypatch):
        # Each product of the replay's expansion doubled, so every lifted
        # generator is a nonzero multiple of its own: the factor lists and
        # initial ideals, and so every check, are unchanged, but the rebuilt
        # step is not the stored one.  A replay that reused the build's
        # products would miss it.
        cert = worked_certificate()
        real = lifting.poly_mul
        monkeypatch.setattr(lifting, "poly_mul",
                            lambda f, g, p: {e: 2 * c % p for e, c in real(f, g, p).items()})
        failing = [e[:2] for e in verify_certificate(cert).entries if not e[2]]
        assert failing == [(0, "stored-equals-rebuilt")]

    def test_memo_is_not_a_field(self):
        v = PolyIdeal.from_monomial(SQUARE)
        fresh = PolyIdeal.from_monomial(SQUARE)
        assert v.numerator is v.numerator and v.involved is v.involved
        assert v == fresh and linkage._encode(v) == linkage._encode(fresh)
        copy = dataclasses.replace(v)
        assert not ({"_numerator", "_initial", "_factors", "_prime", "_involved"}
                    & copy.__dict__.keys())
        with pytest.raises(LinkageError, match="no theorem gives the ideal"):
            copy.numerator


class TestLiftingTheoremBases:
    """Every lifted ideal of a certificate takes its source as its initial
    ideal, by the lifting theorem; a full Buchberger run agrees."""

    @pytest.mark.parametrize("prime", [P, 65537])
    def test_full_run_agrees_on_every_lifted_ideal(self, prime, monkeypatch):
        lifted = []
        real = PolyIdeal.from_lifted.__func__

        def recording(cls, L, *args, **kwargs):
            ideal = real(cls, L, *args, **kwargs)
            lifted.append((ideal, ideal.last))
            return ideal

        monkeypatch.setattr(PolyIdeal, "from_lifted", classmethod(recording))
        worked_certificate(prime)
        for J in sweep_ideals():
            glicci_certificate_borel(J, prime)
        # The worked chain's four layer lifts and direct lift, then bar I_0
        # of each of the 45 bilinks.
        assert len(lifted) == 5 + 45
        for ideal, last in lifted:
            assert ideal.prime == prime
            full = GroebnerBasis(ideal.gens, ideal.N, last, prime)
            assert full.failure is None, ideal.label
            assert full.initial_ideal() == ideal.initial_ideal(last), ideal.label


class TestStripX1:
    def test_strips_one_power(self):
        assert strip_x1(SQUARE) == ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_keeps_x1_free_generators(self):
        J = ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        # x1^2 -> x1, x1x2 -> x2; the x1-free generator x2^2 is absorbed
        assert strip_x1(J) == ideal(3, (1, 0, 0), (0, 1, 0))
        J2 = ideal(3, (2, 0, 0), (0, 2, 0))
        assert strip_x1(J2) == ideal(3, (1, 0, 0), (0, 2, 0))


class TestBorelCertificate:
    def test_square_certificate_shape(self):
        cert = glicci_certificate_borel(SQUARE)
        kinds = [s.kind for s in cert.steps]
        assert kinds == ["bilink", "hyperplane-descent", "cone-descent"]
        assert cert.leaf == "codim<=2-licci"
        assert verify_certificate(cert).ok

    def test_bilink_observations_recorded(self):
        cert = glicci_certificate_borel(SQUARE)
        bilink = cert.steps[0]
        names = {c.name for c in bilink.checks}
        assert {"obs1-iprime-cm-same-height", "obs2-i0-in-iprime",
                "obs3-bar-i0-in-iprime", "obs4-heights",
                "bar-j-equals-j", "initial-degree-drop"} <= names

    def test_rejects_non_cm(self):
        J = ideal(3, (3, 0, 0), (2, 1, 0), (1, 2, 0))
        with pytest.raises(LinkageError, match="Cohen-Macaulay"):
            glicci_certificate_borel(J)

    def test_principal_leaf(self):
        cert = glicci_certificate_borel(ideal(2, (3, 0)))
        assert cert.leaf == "principal"
        assert not cert.steps
        assert verify_certificate(cert).ok

    def test_bar_j_equals_j_checks_the_terms_over_z(self, monkeypatch):
        # Every term of bar I_0 made x2: in I', so obs3 passes, but not in
        # J = (x1, x2, x3)^2, so bar I_0 + x1 * I' is not inside J.
        monkeypatch.setattr(linkage, "expand", lambda g, A, p: {(0, 1, 0): 1})
        with pytest.raises(LinkageError, match="^bar-j-equals-j: failed$"):
            glicci_certificate_borel(SQUARE)

    def test_link_result_has_js_closed_form(self, proven):
        # bar I_0 + x1 * I' gets the initial ideal I_0 + x1 * I' = J, with
        # x1 last, once in the build and once in the replay; bar I_0 its
        # source by the lifting theorem.
        linked = 0
        for J in sweep_ideals():
            del proven[:]
            cert = glicci_certificate_borel(J)
            assert verify_certificate(cert).ok  # the replay too
            for step in cert.steps:
                if step.kind == "bilink":
                    assert step.link.result.initial_ideal((0,)) == step.source
                    for ideal in (step.link.result, step.link.base):
                        made = [i for k, i in proven if k == gens_key(ideal.gens)]
                        assert len(made) == 2, step.source
                    linked += 1
        assert linked == 45

    def test_deeper_borel_ideal(self):
        J = MonomialIdeal.from_gens(3, monomials_of_degree(3, 3))
        cert = glicci_certificate_borel(J)
        assert verify_certificate(cert).ok
        drops = [s for s in cert.steps if s.kind == "bilink"]
        assert len(drops) >= 2  # initial degree 3 needs two bilinks


class TestArtinianCertificate:
    def test_worked_example(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        cert = glicci_certificate_artinian(WORKED_J, A)
        assert [s.kind for s in cert.steps] == ["chain"]
        rep = verify_certificate(cert)
        assert rep.ok, rep.first_failure()

    def test_four_variable_recursion(self):
        J = MonomialIdeal.from_gens(4, monomials_of_degree(4, 2))
        A = default_matrix(4, "t-lift", seed=3, ncols=4, t=1)
        cert = glicci_certificate_artinian(J, A)
        assert [s.kind for s in cert.steps] == ["chain", "chain"]
        rep = verify_certificate(cert)
        assert rep.ok, rep.first_failure()

    @pytest.mark.parametrize("prime", [P, 65537])
    def test_step_ideals_report_the_certificates_prime(self, prime):
        # Each ideal of a step reads its field and order off its operands:
        # the chain's lifts and links are at the certificate's prime, in
        # revlex with u last; a bilink's monomial divisor lies over every field.
        cert = worked_certificate(prime)
        [step] = cert.steps
        chain = step.chain
        ideals = [*chain.vees, chain.result, step.direct_lift,
                  *(i for link in chain.links for i in (link.base, link.divisor, link.result))]
        assert {i.prime for i in ideals} == {cert.prime}
        assert {i.last for i in ideals} == {step.matrix.lifted_variables}
        link = glicci_certificate_borel(SQUARE, prime).steps[0].link
        assert (link.base.prime, link.result.prime, link.divisor.prime) == (prime, prime, None)

    def test_rejects_non_artinian(self):
        A = default_matrix(3, "t-lift", seed=3, ncols=4, t=1)
        with pytest.raises(LinkageError, match="Artinian"):
            glicci_certificate_artinian(ideal(3, (1, 0, 0)), A)


class TestHorizonCoversComparedGenerators:
    """Every containment a certificate checks is decided in every degree,
    by terms, factor lists or leading monomials, and builds no Macaulay
    matrix.  Every generator compared has degree at most the
    certificate's horizon, so the oracle's answer through it decides the
    same question (``TestGroebnerAgreesWithTheOracle``)."""

    @pytest.fixture
    def compared(self, monkeypatch, proven):
        seen = []
        real = links._first_outside

        def recording(part, ideal):
            top = max(map(poly_degree, (*part.gens, *ideal.gens)), default=-1)
            seen.append(top)
            return real(part, ideal)

        monkeypatch.setattr(links, "_first_outside", recording)
        return seen

    @staticmethod
    def assert_within_horizon(cert, seen):
        assert seen and max(seen) <= cert.dmax

    def test_worked_certificate(self, compared):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        cert = glicci_certificate_artinian(WORKED_J, A)
        # Three flag inclusions, three links' containments, and the direct
        # lift inside Z_4 for chain-equals-direct-lift.
        assert len(compared) == 7
        self.assert_within_horizon(cert, compared)

    def test_sweep_certificates(self, compared):
        ideals = sweep_ideals()
        assert len(ideals) == 94
        for J in ideals:
            del compared[:]
            cert = glicci_certificate_borel(J)
            bilinks = sum(s.kind == "bilink" for s in cert.steps)
            # Each bilink: the link's containment; bar-j-equals-j checks
            # the terms of bar I_0 that obs3 expands.
            assert len(compared) == bilinks
            if bilinks:
                self.assert_within_horizon(cert, compared)


class TestGroebnerAgreesWithTheOracle:
    """Every Hilbert series numerator a certificate reads off a closed-form
    initial ideal, and every containment answer it proves, equals the
    Macaulay oracle's through the certificate's horizon, on the worked
    certificate and the 94 sweep certificates, at two primes."""

    @pytest.mark.parametrize("prime", [P, 65537])
    def test_every_answer(self, prime, monkeypatch):
        numerators, containments = {}, []
        real_numerator, real_outside = PolyIdeal.numerator, links._first_outside

        def numerator(ideal):
            K = real_numerator.fget(ideal)
            numerators[id(ideal)] = (ideal, K)  # one value per ideal
            return K

        def outside(part, ideal):
            fail = real_outside(part, ideal)
            containments.append((part.gens, ideal, part.prime, fail))
            return fail

        monkeypatch.setattr(PolyIdeal, "numerator", property(numerator))
        monkeypatch.setattr(links, "_first_outside", outside)
        counted = [0, 0]
        for build in [lambda: worked_certificate(prime)] + [
                functools.partial(glicci_certificate_borel, J, prime) for J in sweep_ideals()]:
            numerators.clear()
            del containments[:]
            cert = build()
            for ideal, K in numerators.values():
                oracle_h = hilbert_oracle(ideal.gens, cert.dmax, ideal.N, prime)
                assert hilbert_values(K, ideal.N, cert.dmax + 1) == list(oracle_h.values), \
                    ideal.label
            for gens, ideal, p, fail in containments:
                assert p == prime
                assert fail == containment_failure(gens, ideal.gens, cert.dmax, ideal.N, p)
            counted[0] += len(numerators)
            counted[1] += len(containments)
        # The worked chain: V_1..V_4, W_1 and Z_2..Z_4; 7 containments.
        # Each of the 45 bilinks: 3 numerators, 1 containment.
        assert counted == [4 + 4 + 3 * 45, 7 + 45]

    def test_a_failing_containment_names_the_oracles_degree(self):
        # Outside a lift by the same matrix, a form leads with a monomial
        # outside its source; outside a monomial ideal, it has a term
        # outside it.
        A = default_matrix(2, "t-lift", seed=4, ncols=4, t=1)
        point = lifted_poly_ideal(ideal(2, (2, 0), (0, 1)), A, codim=2)
        line = PolyIdeal.from_monomial(ideal(3, (1, 0, 0), (0, 2, 0)))
        fails = set()
        for J in (ideal(2, (1, 0)), ideal(2, (1, 1)), ideal(2, (1, 0), (0, 2))):
            lifted = lifted_poly_ideal(J, A, codim=1)
            for target in (point, line):
                fail = links._first_outside(lifted, target)
                assert fail == containment_failure(lifted.gens, target.gens, 4, 3, P)
                fails.add(fail)
        assert fails == {None, 1, 2}


WORKED_AND_SQUARE = pytest.mark.parametrize(
    "build", [worked_certificate, lambda: glicci_certificate_borel(SQUARE)],
    ids=["worked", "square"])


class TestCertificateSerialization:
    def test_roundtrip_borel(self):
        cert = glicci_certificate_borel(SQUARE)
        blob = json.dumps(cert.to_json(), sort_keys=True)
        back = GlicciCertificate.from_json(json.loads(blob))
        assert back.root == cert.root
        assert json.dumps(back.to_json(), sort_keys=True) == blob
        assert verify_certificate(back).ok

    def test_roundtrip_artinian(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        cert = glicci_certificate_artinian(WORKED_J, A)
        blob = json.dumps(cert.to_json(), sort_keys=True)
        back = GlicciCertificate.from_json(json.loads(blob))
        assert json.dumps(back.to_json(), sort_keys=True) == blob

    # Every object a builder encodes, at every level, has its keys sorted,
    # as a document decoded from canonical text has.
    @WORKED_AND_SQUARE
    def test_documents_have_sorted_keys(self, build):
        data = build().to_json()
        assert unsorted_objects(data) == []

    # So a rebuilt step and its stored text compare by marshal bytes, and
    # the replay makes no canonical text.
    @WORKED_AND_SQUARE
    def test_replay_of_canonical_text_encodes_nothing(self, build, monkeypatch):
        text = canonical_json(build().to_json())
        calls = count_json_texts(monkeypatch)
        back = GlicciCertificate.from_json(json.loads(text))
        report = verify_certificate(back)
        assert report.ok and any(e[1] == "stored-equals-rebuilt" for e in report.entries)
        assert calls == []

    def test_certificate_with_every_key_reversed_verifies(self):
        data = json.loads(canonical_json(worked_certificate().to_json()))
        back = GlicciCertificate.from_json(reverse_keys(data))
        report = verify_certificate(back)
        assert report.ok
        assert report.to_json() == verify_certificate(GlicciCertificate.from_json(data)).to_json()

    def test_chain_matrix_seed_is_tied_to_its_rows(self, tmp_path, capsys):
        # Every chain step's matrix relabelled with seed 8: the replay
        # would rebuild the same steps, so decoding must refuse the label.
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        data = glicci_certificate_artinian(WORKED_J, A).to_json()
        chains = [step for step in data["steps"] if step["kind"] == "chain"]
        assert chains
        for step in chains:
            step["matrix"]["kind"]["seed"] = 8
        with pytest.raises(MatrixError, match="default t-lift matrix of seed 8"):
            GlicciCertificate.from_json(data)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: malformed certificate: row 1, column 1 "
                                "differs from the default t-lift matrix of seed 8\n")


class TestOneEncoder:
    """The link layer writes no JSON: ``linkage._encode`` is the
    certificate's one encoder."""

    def test_links_imports_no_certificate_code(self):
        # Every module named by an import, ``from . import m`` included.
        tree = ast.parse(Path(links.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[-1])
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {alias.name.split(".")[-1] for alias in node.names}
        assert "hilbert" in imported and not imported & {"linkage", "cli", "json"}

    def test_no_link_layer_class_encodes_itself(self):
        classes = [c for c in vars(links).values()
                   if isinstance(c, type) and c.__module__ == links.__name__]
        assert {c.__name__ for c in classes} >= {"PolyIdeal", "BasicDoubleLink"}
        assert not [c.__name__ for c in classes if hasattr(c, "to_json")]
        assert not hasattr(oracle, "poly_to_json")
        assert not hasattr(linkage, "_FieldCodec") and not hasattr(links, "_FieldCodec")

    def test_linkage_binds_only_the_link_names_it_uses(self):
        tree = ast.parse(Path(linkage.__file__).read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bound = {name for name, value in vars(linkage).items()
                 if getattr(value, "__module__", None) == links.__name__}
        assert bound and bound <= used


class TestTamperDetection:
    def test_tampered_divisor_fails_at_step(self):
        cert = glicci_certificate_borel(SQUARE)
        data = cert.to_json()
        # swap a generator of I' inside the recorded link divisor
        data["steps"][0]["link"]["divisor"]["gens"][0] = [[2, 0, 0, 1]]
        bad = GlicciCertificate.from_json(data)
        rep = verify_certificate(bad)
        assert not rep.ok
        first = rep.first_failure()
        assert first[0] == 0  # fails at the tampered step

    def test_tampered_continuation_breaks_continuity(self):
        cert = glicci_certificate_borel(
            MonomialIdeal.from_gens(3, monomials_of_degree(3, 3))
        )
        data = cert.to_json()
        data["steps"][1]["source"]["gens"][0] = [3, 0, 0]
        bad = GlicciCertificate.from_json(data)
        rep = verify_certificate(bad)
        failing = [e for e in rep.entries if not e[2]]
        assert failing
        assert min(e[0] for e in failing) == 1

    # Edits of step 0 of the square Borel certificate that decoding used
    # to normalize away: the replay then compared equal objects.
    @pytest.mark.parametrize("edit", [
        lambda step: step.update(note="unchecked"),
        lambda step: step["source"]["gens"].reverse(),
        lambda step: _two_terms(step["link"]["base"]["gens"][0]).reverse(),
        lambda step: step["checks"][0].update(passed=1),
        lambda step: step["link"]["base"].update(N=float(step["link"]["base"]["N"])),
    ], ids=["extra-key", "source-reversed", "poly-reversed", "passed-is-1", "N-is-float"])
    def test_normalized_step_edit_fails_at_step(self, edit):
        data = glicci_certificate_borel(SQUARE).to_json()
        edit(data["steps"][0])
        rep = verify_certificate(GlicciCertificate.from_json(data))
        assert rep.first_failure()[:2] == (0, "stored-equals-rebuilt")

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["root"]["gens"].append([3, 0, 0]), "root"),
        (lambda doc: doc.update(note="unchecked"), "unknown keys"),
        (lambda doc: doc.update(schema="glicci-cert/0"), "schema"),
        (lambda doc: doc["steps"][0].update(kind="nonsense"), "step kind"),
    ], ids=["redundant-root-generator", "extra-key", "schema", "step-kind"])
    def test_noncanonical_document_is_malformed(self, edit, message):
        data = glicci_certificate_borel(SQUARE).to_json()
        edit(data)
        with pytest.raises(ValueError, match=message):
            GlicciCertificate.from_json(data)


def _two_terms(poly):
    assert len(poly) >= 2
    return poly


# One random leaf mutation of a certificate's JSON must never give a
# VERIFIED certificate that differs from what the builder makes from the
# certificate's own inputs.


def _mutations(node, path=()):
    """Every single-leaf mutation of a JSON document, as (path, op)."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _mutations(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield path, ("drop", i)
            yield path, ("duplicate", i)
            yield from _mutations(item, path + (i,))
    elif isinstance(node, bool):
        yield path, ("flip",)
    elif isinstance(node, int):
        yield path, ("add", 1)
        yield path, ("add", -1)
    elif isinstance(node, str):
        yield path, ("edit",)


@functools.cache
def _fuzz_case(name):
    """The certificate's JSON and its mutations, split into those of the
    certificate-wide fields and those of everything nested below them."""
    if name == "borel-square":
        cert = glicci_certificate_borel(SQUARE)
    else:
        J = lex_ideal_from_hvector(HVector.artinian((1, 2, 1)), 3)
        A = default_matrix(3, "t-lift", seed=7, ncols=J.max_gen_degree, t=1)
        cert = glicci_certificate_artinian(J, A)
    doc = cert.to_json()
    muts = list(_mutations(doc))
    return (doc, [m for m in muts if len(m[0]) == 1],
            [m for m in muts if len(m[0]) > 1])


def _mutate(doc, path, op, text):
    """A copy of the JSON text of ``doc`` with one mutation applied."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if op[0] == "drop":
        del node[op[1]]
    elif op[0] == "duplicate":
        node.insert(op[1], node[op[1]])
    elif op[0] == "flip":
        parent[path[-1]] = not node
    elif op[0] == "add":
        parent[path[-1]] = node + op[1]
    else:
        parent[path[-1]] = text
    return doc


class TestSoundnessFuzz:
    @pytest.mark.parametrize("name", ["borel-square", "artinian-121"])
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_mutation_is_rejected_or_harmless(self, name, data):
        doc, top, nested = _fuzz_case(name)
        # The few certificate-wide fields get half the examples.
        path, op = data.draw(st.one_of(st.sampled_from(top),
                                       st.sampled_from(nested)))
        text = None
        if op == ("edit",):
            old = functools.reduce(lambda node, key: node[key], path, doc)
            text = data.draw(st.text(max_size=4).filter(lambda t: t != old))
        try:
            back = GlicciCertificate.from_json(_mutate(doc, path, op, text))
        except (KeyError, TypeError, ValueError, MatrixError):
            return  # ``liaison verify`` rejects it as bad input, exit 2
        if not verify_certificate(back).ok:
            return
        if name == "borel-square":
            rebuilt = glicci_certificate_borel(back.root, prime=back.prime)
        else:
            rebuilt = glicci_certificate_artinian(
                back.root, back.steps[0].matrix, prime=back.prime)
        assert (canonical_json(back.to_json())
                == canonical_json(rebuilt.to_json())), (path, op, text)
