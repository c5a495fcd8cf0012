"""Acceptance suite: one test per criterion, exact tolerances, explicit
time budgets.  Each test prints a single PASS line on success."""
import dataclasses
import hashlib
import json
import random
import time

import pytest
from timing import budget

from liaison.hilbert import (
    HVector,
    NotOSequenceError,
    difference,
    hilbert_function,
    hilbert_function_artinian,
    lex_ideal_from_hvector,
    macaulay_bound,
    partial_sum,
)
from liaison.layers import decompose, hf_via_layers, layer_hvectors
from liaison.lifting import default_matrix, lift_ideal, point_model
from liaison.linkage import (
    BilinkStep,
    GlicciCertificate,
    LinkageError,
    _build_chain_step,
    glicci_certificate_artinian,
    glicci_certificate_borel,
    verify_certificate,
)
from liaison.monomials import (
    Monomial,
    MonomialIdeal,
    enumerate_borel_ideals,
    height,
    is_artinian,
    is_borel_fixed,
    is_cm_borel,
    is_equidimensional,
    is_lex_segment,
    lex_segment_violation,
    monomials_of_degree,
)
from liaison.oracle import (
    DEFAULT_PRIME,
    graded_dim,
    hilbert_oracle,
    ideals_equal_up_to,
)

P = DEFAULT_PRIME
WORKED_H = (1, 3, 6, 10, 4, 2)


def ideal(n, *gens):
    return MonomialIdeal.from_gens(n, [Monomial(tuple(g)) for g in gens])


def test_criterion_1_worked_example_table():
    t0 = time.time()
    J = lex_ideal_from_hvector(HVector.artinian(WORKED_H), 3)
    assert hilbert_function_artinian(J).values == WORKED_H
    D = decompose(J)
    rows = [tuple(h.values) for h in layer_hvectors(D)]
    assert rows == [(1, 2, 3, 4, 4, 2), (1, 2, 3), (1, 2), (1,)]
    assert D.layers[D.alpha].is_unit
    # shifted column sums reproduce the h-vector
    sums = [0] * len(WORKED_H)
    for j, row in enumerate(rows):
        for d, v in enumerate(row):
            sums[j + d] += v
    assert tuple(sums) == WORKED_H
    budget("criterion 1: worked-example layer table", time.time() - t0, 1)


def test_criterion_2_lifting_verification():
    t0 = time.time()
    J = lex_ideal_from_hvector(HVector.artinian(WORKED_H), 3)
    A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
    L = lift_ideal(J, A, prime=P)
    h = hilbert_oracle(L.polynomials(P), 8, A.N, P)
    assert difference(h, 1).values == WORKED_H + (0, 0, 0)
    pts = point_model(J, A, prime=P)
    assert len(pts.points) == 26
    assert len(set(pts.points)) == 26
    assert graded_dim(L.polynomials(P), 1, A.N, P) == 0
    budget("criterion 2: lift, 26 points, first difference", time.time() - t0, 10)


def test_criterion_3_hilbert_recursion_200_random():
    t0 = time.time()
    rng = random.Random(20260824)
    for trial in range(200):
        n = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 6)):
            exps = [0] * n
            for _ in range(rng.randint(1, 6)):
                exps[rng.randrange(n)] += 1
            gens.append(Monomial(tuple(exps)))
        J = MonomialIdeal.from_gens(n, gens)
        D = decompose(J)
        dmax = J.max_gen_degree + 2
        direct = hilbert_function(J, dmax)
        for s in range(dmax + 1):
            assert hf_via_layers(D, s) == direct.at(s), (J, s)
    budget("criterion 3: layer recursion on 200 random ideals",
           time.time() - t0, 30)


def test_criterion_4_borel_lex_fixtures():
    J = ideal(3, (3, 0, 0), (2, 1, 0), (1, 2, 0))
    assert is_borel_fixed(J)
    assert not is_lex_segment(J)
    assert lex_segment_violation(J) == Monomial((2, 0, 1))
    # every builder-produced lex ideal is Borel-fixed
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 3)
        values = [1, n]
        for d in range(1, 4):
            b = macaulay_bound(values[d], d)
            values.append(rng.randint(0, min(b, 6)))
            if values[-1] == 0:
                break
        while values[-1] == 0:
            values.pop()
        L = lex_ideal_from_hvector(HVector.artinian(values), n)
        assert is_lex_segment(L)
        assert is_borel_fixed(L)
    print("PASS criterion 4: Borel/lex fixtures")


def _condition_ii(J):
    return is_equidimensional(J)


def _condition_iii(J):
    c = height(J)
    return (any(g.is_pure_power and g.support == (c - 1,) for g in J.gens)
            and all(max(g.support) <= c - 1 for g in J.gens))


def _condition_iv(J):
    used = max(max(g.support) for g in J.gens) + 1
    return is_artinian(J.restrict(range(used)))


def test_criterion_5_cm_conditions_agree():
    t0 = time.time()
    checked = 0
    for n in range(1, 5):
        for J in enumerate_borel_ideals(n, 4):
            if J.is_zero or J.is_unit:
                continue
            ii, iii, iv = _condition_ii(J), _condition_iii(J), _condition_iv(J)
            assert ii == iii == iv, (J, ii, iii, iv)
            ok, _ = is_cm_borel(J)
            assert ok == iii
            checked += 1
    fixture = ideal(3, (3, 0, 0), (2, 1, 0), (1, 2, 0))
    assert not _condition_ii(fixture)
    assert not _condition_iii(fixture)
    assert not _condition_iv(fixture)
    assert checked > 9000
    budget(f"criterion 5: CM conditions agree on {checked} Borel ideals",
           time.time() - t0, 60)


@pytest.fixture(scope="module")
def generated_certificates():
    J = lex_ideal_from_hvector(HVector.artinian(WORKED_H), 3)
    A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
    certs = [
        glicci_certificate_artinian(J, A, prime=P),
        glicci_certificate_borel(
            MonomialIdeal.from_gens(3, monomials_of_degree(3, 2)), prime=P
        ),
        glicci_certificate_borel(
            MonomialIdeal.from_gens(3, monomials_of_degree(3, 3)), prime=P
        ),
        glicci_certificate_artinian(
            MonomialIdeal.from_gens(4, monomials_of_degree(4, 2)),
            default_matrix(4, "t-lift", seed=3, ncols=4, t=1),
            prime=P,
        ),
    ]
    return certs


def _links_of(cert):
    for step in cert.steps:
        if step.kind == "bilink":
            yield step.link
        elif step.kind == "chain":
            yield from step.chain.links


def test_criterion_6_link_identities(generated_certificates):
    total = 0
    for cert in generated_certificates:
        for link in _links_of(cert):
            names = {c.name: c for c in link.checks}
            assert names["hilbert-identity"].passed
            if link.result.dim == 0:
                assert "degree-identity" in names, "zero-dimensional link " \
                    "must carry the degree identity"
                assert names["degree-identity"].passed
            total += 1
    assert total >= 6
    print(f"PASS criterion 6: Hilbert/degree identities on {total} links")


# sha256 of the canonical JSON of the sweep's certificates and reports at P.
SWEEP_SHA256 = "18bb4feb1403c89abcdafa6de8a26665117546fbb086ffed3ca28a8f9b822e99"


def test_criterion_7_borel_bilink_loop():
    t0 = time.time()
    square = MonomialIdeal.from_gens(3, monomials_of_degree(3, 2))
    cert = glicci_certificate_borel(square, prime=P)
    bilinks = [s for s in cert.steps if isinstance(s, BilinkStep)]
    assert bilinks, "expected at least one bilink"
    for step in bilinks:
        checks = {c.name: c for c in step.checks}
        assert checks["bar-j-equals-j"].passed
        assert checks["obs3-bar-i0-in-iprime"].passed
        assert (step.source.initial_degree()
                - step.continuation.initial_degree()) == 1
    assert verify_certificate(cert).ok

    built = 0
    digest = hashlib.sha256()
    for n in range(1, 5):
        for J in enumerate_borel_ideals(n, 3):
            if J.is_zero or J.is_unit:
                continue
            ok, _ = is_cm_borel(J)
            if not ok:
                continue
            c = glicci_certificate_borel(J, prime=P)
            rep = verify_certificate(c)
            assert rep.ok, (J, rep.first_failure())
            for doc in (c.to_json(), rep.to_json()):
                digest.update(json.dumps(doc, sort_keys=True).encode())
            for step in c.steps:
                if isinstance(step, BilinkStep):
                    assert (step.source.initial_degree()
                            - step.continuation.initial_degree()) == 1
            built += 1
    assert built >= 90
    # Every certificate and replay report, byte for byte: a kernel that
    # spans the same row spaces leaves this unchanged.
    assert digest.hexdigest() == SWEEP_SHA256
    budget(f"criterion 7: bilink loop over {built} CM Borel ideals",
           time.time() - t0, 120)


def test_criterion_8_differentiable_o_sequence_pipeline():
    t0 = time.time()
    checked = 0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        d = seed % 3
        t = d + 1
        n = 2 if t == 3 else rng.choice([2, 3])
        values = [1, n]
        maxlen = 4 if t < 3 else 3
        for deg in range(1, maxlen):
            b = macaulay_bound(values[deg], deg)
            values.append(rng.randint(0, min(b, 5)))
            if values[-1] == 0:
                break
        while values[-1] == 0:
            values.pop()
        h = HVector.artinian(values)
        dmax = len(values) + t + 1
        H = partial_sum(h, t, dmax)

        J = lex_ideal_from_hvector(h, n)
        A = default_matrix(n, "t-lift", seed=seed, ncols=max(J.max_gen_degree, 1), t=t)
        L = lift_ideal(J, A, prime=P)
        got = hilbert_oracle(L.polynomials(P), dmax, A.N, P)
        assert got.values == H.values, (values, t, got.values, H.values)
        checked += 1
    assert checked == 20
    budget("criterion 8: t-lift pipeline on 20 seeded O-sequences",
           time.time() - t0, 120)


# Forged certificates that a verifier trusting any stored object would
# accept.  Each returns the forgery and the (step, check) of its first
# failing report entry.


def _link_swapped(certs):
    data = certs[2].to_json()
    data["steps"][0]["link"] = certs[1].to_json()["steps"][0]["link"]
    return GlicciCertificate.from_json(data), (0, "stored-equals-rebuilt")


def _extra_check(certs):
    data = certs[2].to_json()
    data["steps"][1]["checks"].append(
        {"name": "forged", "passed": True, "witness": None})
    return GlicciCertificate.from_json(data), (1, "stored-equals-rebuilt")


def _zero_horizon(certs):
    return dataclasses.replace(certs[2], dmax=0), (0, "horizon")


def _horizon_past_derived(certs):
    # One degree more than the worked root's derived horizon replays
    # cleanly, but a certificate's horizon is a function of its root.
    return dataclasses.replace(certs[0], dmax=certs[0].dmax + 1), (0, "horizon")


def _foreign_matrix(certs):
    # Step 1 rebuilt consistently with a matrix that is not step 0's
    # matrix with its first row dropped.
    J = lex_ideal_from_hvector(HVector.artinian((1, 4, 3)), 4)
    A = default_matrix(4, "t-lift", seed=3, ncols=J.max_gen_degree, t=1)
    cert = glicci_certificate_artinian(J, A, prime=P)
    B = default_matrix(4, "t-lift", seed=4, ncols=J.max_gen_degree, t=1)
    step = _build_chain_step(cert.steps[1].source, B.drop_first_row(),
                             cert.dmax, P)
    forged = dataclasses.replace(cert, steps=(cert.steps[0], step))
    return forged, (1, "stored-equals-rebuilt")


def _prime_four(certs):
    return dataclasses.replace(certs[1], prime=4), (0, "prime")


def _mode_unknown(certs):
    return dataclasses.replace(certs[1], mode="nonsense"), (0, "mode")


def _mode_relabelled(certs):
    # The square Borel certificate's bilink is not a step of the
    # Artinian induction, whose every step is a chain.
    return dataclasses.replace(certs[1], mode="artinian"), (0, "step-kind")


def _descent_relabelled(certs):
    # The Borel certificate of (x1, x2, x3^2) starts with a hyperplane
    # descent, and stores no matrix for the chain step the Artinian
    # builder makes there.
    cert = glicci_certificate_borel(ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 2)),
                                    prime=P)
    return dataclasses.replace(cert, mode="artinian"), (0, "step-kind")


def _non_cm_root(certs):
    # (x1^2, x1*x2) is Borel-fixed of height 1 but not Cohen-Macaulay, so
    # the Borel builder refuses it; this certificate claims it is a leaf.
    root = ideal(3, (2, 0, 0), (1, 1, 0))
    forged = GlicciCertificate("borel", P, root.max_gen_degree + root.n,
                               root, (), "codim<=2-licci")
    return forged, (0, "root")


class TestCriterion9NegativeControls:
    @pytest.mark.parametrize("forge", [
        _link_swapped, _extra_check, _zero_horizon, _horizon_past_derived,
        _foreign_matrix, _prime_four, _mode_unknown, _mode_relabelled, _descent_relabelled, _non_cm_root,
    ], ids=lambda f: f.__name__.strip("_"))
    def test_forged_certificate_rejected_at_step(self, generated_certificates,
                                                 forge):
        forged, failing = forge(generated_certificates)
        stored = GlicciCertificate.from_json(json.loads(json.dumps(forged.to_json())))
        rep = verify_certificate(stored)
        assert not rep.ok
        assert rep.first_failure()[:2] == failing, rep.first_failure()
        # The replay fails on the forgery, never on its own code.
        assert not any(e[1] == "replay-error" for e in rep.entries), rep.entries
        print(f"PASS criterion 9d: {forge.__name__} rejected at {failing}")

    def test_tampered_certificate_fails_at_step(self, generated_certificates):
        cert = generated_certificates[2]  # borel cert with several steps
        data = json.loads(json.dumps(cert.to_json()))
        victim = next(
            i for i, s in enumerate(data["steps"]) if s["kind"] == "bilink"
        )
        data["steps"][victim]["link"]["divisor"]["gens"][0] = [[3, 0, 0, 1]]
        bad = GlicciCertificate.from_json(data)
        rep = verify_certificate(bad)
        assert not rep.ok
        failing_steps = {e[0] for e in rep.entries if not e[2]}
        assert victim in failing_steps
        # steps before the tampered one still replay clean
        assert all(s >= victim for s in failing_steps)
        print("PASS criterion 9a: tamper localized to the altered step")

    def test_non_o_sequence_rejected_with_degree(self):
        with pytest.raises(NotOSequenceError) as exc:
            lex_ideal_from_hvector(HVector.artinian((1, 2, 5)), 3)
        assert (exc.value.degree, exc.value.bound, exc.value.value) == (2, 3, 5)
        with pytest.raises(NotOSequenceError) as exc:
            lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 11)), 3)
        assert exc.value.degree == 3
        print("PASS criterion 9b: non-O-sequence rejected at first violation")

    def test_non_cm_borel_rejected_before_linking(self):
        J = ideal(3, (3, 0, 0), (2, 1, 0), (1, 2, 0))
        with pytest.raises(LinkageError, match="Cohen-Macaulay"):
            glicci_certificate_borel(J, prime=P)
        print("PASS criterion 9c: non-CM input rejected before any link")
