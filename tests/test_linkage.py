import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

from liaison.hilbert import HVector, lex_ideal_from_hvector
from liaison.lifting import (
    MatrixError,
    canonical_json,
    default_matrix,
    lift_ideal,
)
from liaison.linkage import (
    BilinkStep,
    ChainStep,
    GlicciCertificate,
    LinkageError,
    PolyIdeal,
    basic_double_link,
    glicci_certificate_artinian,
    glicci_certificate_borel,
    hypersurface_chain,
    strip_x1,
    verify_certificate,
)
from liaison.monomials import Monomial, MonomialIdeal, monomials_of_degree
from liaison.oracle import DEFAULT_PRIME, linear_form_poly

P = DEFAULT_PRIME


def ideal(n, *gens):
    return MonomialIdeal.from_gens(n, [Monomial(tuple(g)) for g in gens])


WORKED_J = lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3)
SQUARE = MonomialIdeal.from_gens(3, monomials_of_degree(3, 2))


def lifted_poly_ideal(J, A, codim, label=""):
    return PolyIdeal.from_lifted(lift_ideal(J, A), codim, label=label)


class TestBasicDoubleLink:
    def test_simple_link_passes(self):
        # base: one lifted point-pair in P^2; divisor: a point on it
        A = default_matrix(2, "t-lift", seed=4, ncols=4, t=1)
        base = lifted_poly_ideal(ideal(2, (2, 0), (0, 1)), A, codim=2)
        divisor = lifted_poly_ideal(ideal(2, (1, 0), (0, 1)), A, codim=2)
        # codim gap must be exactly one: use a curve as the base instead
        curve = lifted_poly_ideal(ideal(2, (2, 0)), A, codim=1)
        link = basic_double_link(curve, divisor, linear_form_poly((0, 0, 1), P), 8, P)
        names = {c.name for c in link.checks}
        assert {"containment", "codim-gap", "colon-stable",
                "hilbert-identity", "degree-identity"} <= names
        assert all(c.passed for c in link.checks)

    def test_rejects_codim_gap(self):
        A = default_matrix(2, "t-lift", seed=4, ncols=4, t=1)
        base = lifted_poly_ideal(ideal(2, (2, 0), (0, 1)), A, codim=2)
        divisor = lifted_poly_ideal(ideal(2, (1, 0), (0, 1)), A, codim=2)
        with pytest.raises(LinkageError, match="codim"):
            basic_double_link(base, divisor, linear_form_poly((0, 0, 1), P), 8, P)

    def test_rejects_non_containment(self):
        A = default_matrix(2, "t-lift", seed=4, ncols=4, t=1)
        B = default_matrix(2, "t-lift", seed=5, ncols=4, t=1)
        curve = lifted_poly_ideal(ideal(2, (2, 0)), A, codim=1)
        # point from a different matrix: the curve does not pass through it
        other = lifted_poly_ideal(ideal(2, (1, 0), (0, 1)), B, codim=2)
        with pytest.raises(LinkageError, match="containment|colon|hilbert"):
            basic_double_link(curve, other, linear_form_poly((0, 0, 1), P), 8, P)

    def test_rejects_untagged_base(self):
        base = PolyIdeal.from_monomial(ideal(3, (1, 0, 0)), label="mono")
        divisor = PolyIdeal.from_monomial(ideal(3, (1, 0, 0), (0, 1, 0)))
        with pytest.raises(LinkageError, match="gorenstein"):
            basic_double_link(base, divisor, linear_form_poly((0, 0, 1), P), 6, P)

class TestHypersurfaceChain:
    def test_worked_example_chain(self):
        A = default_matrix(3, "t-lift", seed=7, ncols=6, t=1)
        from liaison.layers import decompose

        D = decompose(WORKED_J)
        Ap = A.drop_first_row()
        vees = [
            lifted_poly_ideal(D.layers[j], Ap, codim=2, label=f"I{j}")
            for j in range(D.alpha)
        ]
        forms = [
            linear_form_poly(A.rows[0][D.alpha - i].coeffs, P)
            for i in range(1, D.alpha + 1)
        ]
        chain = hypersurface_chain(vees, forms, 9, P)
        assert len(chain.links) == D.alpha - 1
        assert all(c.passed for c in chain.checks)
        for link in chain.links:
            assert all(c.passed for c in link.checks)

    def test_requires_matching_lengths(self):
        with pytest.raises(LinkageError):
            hypersurface_chain([], [], 5, P)


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

    def test_rejects_non_artinian(self):
        A = default_matrix(3, "t-lift", seed=3, ncols=4, t=1)
        with pytest.raises(LinkageError, match="Artinian"):
            glicci_certificate_artinian(ideal(3, (1, 0, 0)), A)


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
    ], ids=["extra-key", "source-reversed", "poly-reversed", "passed-is-1"])
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
            rebuilt = glicci_certificate_borel(
                back.root, dmax=back.dmax, prime=back.prime)
        else:
            rebuilt = glicci_certificate_artinian(
                back.root, back.steps[0].matrix, dmax=back.dmax,
                prime=back.prime)
        assert (canonical_json(back.to_json())
                == canonical_json(rebuilt.to_json())), (path, op, text)
