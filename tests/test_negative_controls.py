"""Negative controls for the link-layer checks: each injects one fault into
a link or a chain and asserts that the builder refuses it, naming exactly
that check.  A check that no fault can make fail alone is listed as
derived, with its reason."""
import re
from pathlib import Path

import pytest

from test_linkage import P, ideal, worked_certificate, worked_flag
from liaison import links
from liaison.links import (
    LinkageError,
    PolyIdeal,
    basic_double_link,
    hypersurface_chain,
    proven_equal,
)

# Checks that hold whenever the checks before them pass: kept, as their
# bytes are in every certificate, but no fault can make them fail alone.
DERIVED = {
    "liaison-class-of-W1": "a literal True: the claim follows from the "
                           "chain's checks, which ran before it",
}


def base_generically_gorenstein(monkeypatch):
    # A monomial base: every other side condition of the link holds.
    base = PolyIdeal.from_monomial(ideal(3, (2, 0, 0)), label="mono")
    divisor = PolyIdeal.from_monomial(ideal(3, (1, 0, 0), (0, 1, 0)))
    basic_double_link(base, divisor, {(0, 0, 1): 1})


def flag_inclusion_1(monkeypatch):
    # V_1 and V_2 of the worked flag swapped: V_2 is not inside V_1, and
    # every form is still regular on every member.
    vees, forms = worked_flag(P)
    vees[-2], vees[-1] = vees[-1], vees[-2]
    hypersurface_chain(vees, forms)


def chain_hilbert_formula(monkeypatch):
    # An r = 1 chain whose W_1 has one more initial generator, u^5, than
    # its closed form: its numerator differs from (1 - t)·K_{V_1} first in
    # degree 5.
    vees, forms = worked_flag(P)
    real = links._link_result

    def one_more(*args):
        result = real(*args)
        wrong = result.initial_ideal().plus(ideal(4, (0, 0, 0, 5)))
        assert wrong != result.initial_ideal()
        return result._prove(result.factors, wrong, result.last)

    monkeypatch.setattr(links, "_link_result", one_more)
    hypersurface_chain(vees[-1:], forms[:1])


# Each control and the one report entry its fault must produce: the
# check's name and its witness, and no other check.
CONTROLS = {
    "base-generically-gorenstein": (base_generically_gorenstein, "tag: monomial"),
    "flag-inclusion-1": (flag_inclusion_1, "I_V2 not inside I_V1 at degree 1"),
    "chain-hilbert-formula": (chain_hilbert_formula, "first failing degree 5"),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_fault_is_refused_by_its_check_alone(name, monkeypatch):
    control, witness = CONTROLS[name]
    with pytest.raises(LinkageError) as refused:
        control(monkeypatch)
    assert str(refused.value) == f"{name}: {witness}"


def test_every_listed_check_is_a_link_layer_check():
    # A name the source makes with an f-string is matched by its prefix.
    source = Path(links.__file__).read_text()
    named = re.findall(r'Check\(\s*(f?)"([\w-]+)', source)
    for name in (*CONTROLS, *DERIVED):
        assert any(name == n or (f and name.startswith(n)) for f, n in named), name


def test_derived_check_is_recorded_in_every_chain():
    vees, forms = worked_flag(P)
    [derived] = [c for c in hypersurface_chain(vees, forms).checks if c.name in DERIVED]
    assert derived.passed and derived.witness.startswith("derived claim")


class TestProvenEqual:
    def test_direct_lift_equals_the_worked_chain(self):
        [step] = worked_certificate().steps
        assert proven_equal(step.direct_lift, step.chain.result)

    def test_proper_containment_is_refused(self):
        # The base of the chain's last link lies in Z_4, its result, but
        # has a smaller initial ideal.
        [step] = worked_certificate().steps
        link = step.chain.links[-1]
        assert links._first_outside(link.base, link.result) is None
        assert not proven_equal(link.base, link.result)
