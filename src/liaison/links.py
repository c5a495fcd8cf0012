"""Basic double G-links and hypersurface-section chains over F_p: the link
layer the certificates of ``linkage`` are built from.

No Gröbner basis is computed and no Macaulay matrix is built.  Both
inductions are monomial at heart, so every ideal a certificate compares
carries the initial ideal a theorem proves for it (``PolyIdeal``): a
monomial ideal is its own, a lift's is its source (the lifting theorem,
``lifting``), and a basic double link's is in(I) + lead(f)·in(J)
(``_link_result``).  A Hilbert function is the closed form of that
ideal.  An ideal also carries the prime of its field and the order of
that proof, and each operation reads both off its ideals, so no caller
passes them; ideals at two primes are a LinkageError.  A containment is
decided without reduction (``_first_outside``): by the terms of each
form when the ideal is monomial, else by factor lists, as bar(h) divides
bar(g) when h divides g, or refuted by a leading monomial outside the
initial ideal.  An equality is one containment and equal initial ideals
(``proven_equal``).  Colon stability, I : f = I, is proven from the
generators (``_colon_failure``).  Every Hilbert-function identity is one
exact equation of Hilbert-series numerators in the one ambient ring, so
it holds in every degree; no check reads the degree horizon.

This module writes no JSON: ``linkage._encode`` encodes its dataclasses
field by field, so renaming a field changes the bytes of every
certificate, and the golden certificates catch it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .hilbert import (
    first_mismatch,
    hilbert_numerator,
    numerator_degree,
    numerator_difference,
    numerator_sum,
)
from .lifting import LiftedIdeal, linear_form_poly, poly_degree, poly_mul, poly_normalize
from .monomials import Monomial, MonomialIdeal, height


class LinkageError(ValueError):
    """A certificate precondition or identity failed."""


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str | None = None


def _require(checks: list[Check]) -> None:
    bad = [c for c in checks if not c.passed]
    if bad:
        raise LinkageError(
            "; ".join(f"{c.name}: {c.witness or 'failed'}" for c in bad)
        )


def _revlex_order(N: int, last) -> tuple[int, ...]:
    """The variables from the smallest up, in revlex with ``last`` smallest
    (the last of them least): a term keyed by its exponents in this order
    is the revlex-largest of a form when its key is the least."""
    return tuple(list(last)[::-1] + [v for v in range(N) if v not in last][::-1])


def _lead(f: dict, order) -> tuple[int, ...]:
    """The exponents of the leading term of the nonzero form ``f``."""
    return min(f, key=lambda e: tuple(e[v] for v in order))


def _key(f: dict, prime: int) -> tuple:
    """The form ``f`` mod p as a factor in a factor list."""
    return tuple(sorted(poly_normalize(f, prime).items()))


@dataclass(frozen=True)
class PolyIdeal:
    """Homogeneous polynomial generators with provenance tags.

    ``codim`` comes from the source monomial data (lifting preserves
    codimension); ``gorenstein_tag`` records whether the ideal arose from
    a validated generic lifting ("lifted-generic"), is a monomial ideal
    ("monomial"), or has unknown provenance.

    Outside its fields, so JSON and equality ignore them, it keeps what
    its construction proves: the ``prime`` its generators are reduced at,
    ``factors``, each generator as the forms mod p whose product it is (a
    count per form), and the initial ideal in revlex with the variables
    ``last`` smallest, of which the generators are a Gröbner basis; and
    the Hilbert-series ``numerator`` and the ``involved`` variables its
    checks read again.  Three
    theorems give that ideal:

    - ``from_monomial``: the ideal itself, in every order and over every
      field (no prime);
    - ``from_lifted``: the source in the rows' own variables, with the
      variables the lifting orders last (``LiftingMatrix.lifted_variables``),
      by the lifting theorem (``lifting``) at the prime the matrix was
      validated at;
    - ``basic_double_link``: in(I) + lead(f)·in(J) for I + f·J
      (``_link_result``), at the prime of I and J.

    An ideal built any other way has none, and a check that needs one
    raises LinkageError naming it.
    """

    N: int
    gens: tuple[dict, ...]
    codim: int
    gorenstein_tag: str = "unknown"
    label: str = ""

    @classmethod
    def from_monomial(cls, J: MonomialIdeal, N: int | None = None,
                      codim: int | None = None, label: str = "") -> "PolyIdeal":
        N = N if N is not None else J.n
        if codim is None:
            codim = height(J)
        padded = J.pad(0, N - J.n)
        exps = [g.exps for g in padded.gens]
        units = [((tuple(int(k == v) for k in range(N)), 1),) for v in range(N)]
        factors = tuple(Counter({units[v]: a for v, a in enumerate(e) if a}) for e in exps)
        ideal = cls(N, tuple({e: 1} for e in exps), codim, "monomial", label)
        return ideal._prove(factors, padded)

    @classmethod
    def from_lifted(cls, L: LiftedIdeal, codim: int, label: str = "",
                    memo: dict | None = None) -> "PolyIdeal":
        """The lift's generators expanded mod the prime its matrix was
        validated at, where the lifting theorem holds, with ``memo`` when
        given (``LiftedIdeal.polynomials``)."""
        prime = L.validation.prime
        ideal = cls(L.N, tuple(L.polynomials(prime, memo)), codim, "lifted-generic", label)
        ideal.__dict__["_prime"] = prime
        rows = L.matrix.rows
        keys = {f: _key(linear_form_poly(rows[f[0]][f[1]].coeffs), prime)
                for f in {f for g in L.generators for f in g.factors}}
        factors = tuple(Counter(keys[f] for f in g.factors) for g in L.generators)
        return ideal._prove(factors, L.initial_ideal(), L.matrix.lifted_variables)

    def _prove(self, factors, initial: MonomialIdeal, last=None) -> "PolyIdeal":
        """Keep the generators' ``factors`` (or None) and the ``initial``
        ideal a theorem gives, in revlex with ``last`` smallest, or in
        every order when ``last`` is None; return the ideal."""
        self.__dict__["_factors"] = factors
        self.__dict__["_initial"] = (last, initial)
        return self

    @property
    def factors(self) -> tuple[Counter, ...] | None:
        return self.__dict__.get("_factors")

    @property
    def prime(self) -> int | None:  # None: monomials, or forms over Z
        return self.__dict__.get("_prime")

    @property
    def last(self):  # the initial ideal's order; None: every order, or none
        return self.__dict__.get("_initial", (None,))[0]

    @property
    def dim(self) -> int:
        # Projective dimension of the cut-out scheme.
        return self.N - 1 - self.codim

    def initial_ideal(self, last=None) -> MonomialIdeal:
        """The initial ideal a theorem gives this ideal, in revlex with the
        variables ``last`` smallest, or in the order it was proven in when
        ``last`` is None; LinkageError when no theorem gives one."""
        proven, initial = self.__dict__.get("_initial", (None, None))
        if initial is None or not (last is None or proven is None or _revlex_order(
                self.N, proven) == _revlex_order(self.N, last)):
            where = "" if last is None else " in revlex" + (
                " with " + ", ".join(f"x{v + 1}" for v in last) + " last" if last else "")
            raise LinkageError(f"no theorem gives {self.label or 'the ideal'} "
                               f"an initial ideal{where}")
        return initial

    @property
    def numerator(self) -> tuple[int, ...]:
        """K(t) with sum_d h_{R/I}(d) t^d = K(t) / (1 - t)^N, exact in every
        degree: the numerator of ``initial_ideal()``'s closed form,
        remembered (no order changes it)."""
        if "_numerator" not in self.__dict__:
            self.__dict__["_numerator"] = hilbert_numerator(self.initial_ideal())
        return self.__dict__["_numerator"]

    @property
    def involved(self) -> frozenset[int]:
        """The variables some term of a generator involves, remembered: a
        chain's colon checks ask it of each layer lift once per form."""
        if "_involved" not in self.__dict__:
            self.__dict__["_involved"] = frozenset(
                v for g in self.gens for e in g for v, a in enumerate(e) if a)
        return self.__dict__["_involved"]


def _field(*ideals: PolyIdeal) -> int | None:
    """The one prime the ``ideals`` are reduced at, or None; two different
    primes are a LinkageError naming both."""
    primes = sorted({I.prime for I in ideals} - {None})
    if len(primes) > 1:
        raise LinkageError(f"ideals over F_{primes[0]} and F_{primes[1]}, not one field")
    return primes[0] if primes else None


def _first_outside(part: PolyIdeal, ideal: PolyIdeal) -> int | None:
    """The least degree of a generator of ``part`` outside ``ideal`` over
    their ``_field``, or None: exact in every degree, with no Gröbner
    basis.  A form lies in an ideal of monomials exactly when its terms
    do.  Else it lies in the ideal when the factor list of a generator is
    part of its own, as bar(h) divides bar(g) when h divides g; and
    outside it when its leading monomial, in the order the ideal's is
    proven in, is outside its initial ideal.  A form neither decides is a
    LinkageError."""
    prime = _field(part, ideal)
    monomial = all(len(g) <= 1 for g in ideal.gens)
    if monomial:
        target = MonomialIdeal.from_gens(
            ideal.N, (Monomial(e) for g in ideal.gens for e in poly_normalize(g, prime)))
    last = ideal.last or ()
    order = _revlex_order(ideal.N, last)
    outside = []
    for k, g in enumerate(part.gens):
        if not g:
            continue
        degree = poly_degree(g)
        if monomial:
            if not all(target.contains(Monomial(e)) for e in g):
                outside.append(degree)
        elif not (part.factors is not None and ideal.factors is not None
                  and _divides_one(ideal.factors, part.factors[k])):
            if ideal.initial_ideal(last).contains(Monomial(_lead(g, order))):
                raise LinkageError(f"no proof decides the containment of a form of "
                                   f"degree {degree} in {ideal.label or 'the ideal'}")
            outside.append(degree)
    return min(outside, default=None)


def _divides_one(lists, g: Counter) -> bool:
    """Whether one of the factor ``lists`` is part of ``g``: its forms are
    among g's, each at most as often."""
    forms = g.keys()
    return any(h.keys() <= forms and all(c <= g[x] for x, c in h.items()) for h in lists)


def proven_equal(part: PolyIdeal, ideal: PolyIdeal) -> bool:
    """Whether part = ideal is proven: ``part`` lies in ``ideal``
    (``_first_outside``) and their initial ideals, in the order ``part``'s
    is proven in, are equal, as I ⊆ J and in(I) = in(J) give I = J."""
    return (_first_outside(part, ideal) is None
            and ideal.initial_ideal(part.last) == part.initial_ideal())


def _link_result(base: PolyIdeal, divisor: PolyIdeal, f: dict, label: str) -> PolyIdeal:
    """I + f·J for I = ``base`` and J = ``divisor`` over their field, with
    its factor lists and its initial ideal in(I) + m·in(J) in the order
    in(I) was proven in (in(J)'s when I's holds in every order), m the
    leading monomial of f.  The caller must have proven
    I ⊆ J and I : f = I; then R/(I + fJ) has the Hilbert function
    h_{R/I}(t) - h_{R/I}(t - d) + h_{R/J}(t - d), d = deg f.  When m is
    prime to the generators of in(I), it is regular on R/in(I), and
    in(I) ⊆ in(J), so the monomial ideal has that Hilbert function too
    (Bayer and Stillman, 1987).  It lies in in(I + fJ), as
    lead(f·g) = m·lead(g), so the two are equal, and the leading
    monomials of the generators of I and of f times those of J generate
    it.  An m that shares a variable with in(I) is a LinkageError."""
    prime = _field(base, divisor)
    last = next((I.last for I in (base, divisor) if I.last is not None), ())
    initial = base.initial_ideal(last)
    m = Monomial(_lead(poly_normalize(f, prime), _revlex_order(base.N, last)))
    if any(g.exps[v] for g in initial.gens for v in m.support):
        raise LinkageError(f"no theorem gives the initial ideal of a link on "
                           f"{base.label or 'the base'}: {m} shares a variable with its own")
    gens = tuple(base.gens) + tuple(poly_mul(f, g, prime) for g in divisor.gens)
    factors = None
    if base.factors is not None and divisor.factors is not None:
        times_f = Counter({_key(f, prime): 1})
        factors = base.factors + tuple(h + times_f for h in divisor.factors)
    result = PolyIdeal(base.N, gens, base.codim + 1, base.gorenstein_tag, label)
    result.__dict__["_prime"] = prime
    return result._prove(factors, initial.plus(divisor.initial_ideal(last).times_monomial(m)),
                         last)


def _colon_failure(ideal: PolyIdeal, f: dict) -> str | None:
    """None when I : f = I is proven over the field of the ideal I, in
    every degree; else why the proof does not apply.

    (A) f has a term c x_v^{deg f}, c nonzero, and no generator
        involves x_v: R/I is a polynomial ring in x_v, f monic in it.
    (B) f = c x_v^k, the leading monomials of the generators in revlex
        with x_v last avoid x_v, and a theorem gives I an initial ideal in
        that order (``PolyIdeal``), of which the generators are a Gröbner
        basis: then in(I) : x_v = in(I), so I : x_v = I (Bayer and
        Stillman, 1987).  For a bilink's bar I_0 it is the lifting
        theorem.  Without such a theorem the reason names it."""
    f = poly_normalize(f, ideal.prime)
    gens = [g for g in ideal.gens if g]
    poly_degree(f)  # (A) reads deg f off a term
    supports = [[v for v, a in enumerate(e) if a] for e in f]
    if any(len(s) == 1 and s[0] not in ideal.involved for s in supports):  # (A)
        return None
    if len(supports) == 1 and len(supports[0]) == 1:  # (B)
        v = supports[0][0]
        order = _revlex_order(ideal.N, (v,))
        for k, g in enumerate(gens):
            poly_degree(g)  # revlex orders the terms of a form
            lead = _lead(g, order)
            if lead[v]:
                return (f"leading monomial {Monomial(lead)} of generator {k + 1} "
                        f"involves x{v + 1}")
        try:
            ideal.initial_ideal((v,))
        except LinkageError as exc:
            return str(exc)
        return None
    return ("neither case applies: the multiplier is neither monic in a "
            "variable the generators avoid nor a power of one variable")


@dataclass(frozen=True)
class BasicDoubleLink:
    """Passage from a divisor J on a base I to I + A*J, with the verified
    side conditions recorded."""

    base: PolyIdeal
    divisor: PolyIdeal
    multiplier: dict
    result: PolyIdeal
    checks: tuple[Check, ...]


def basic_double_link(base: PolyIdeal, divisor: PolyIdeal,
                      multiplier: dict) -> BasicDoubleLink:
    """Build I + A*J and verify every recorded side condition; raises
    LinkageError naming the first failure.  Every check holds in every
    degree over the one field of I and J (``_field``).  Once
    ``containment`` and ``colon-stable`` pass, the result's initial ideal,
    in in(I)'s order, is in(I) + lead(A)·in(J) (``_link_result``), whose
    Hilbert series numerator ``hilbert-identity`` compares with
    K_I·(1 - t^d) + t^d·K_J, d = deg A.  A base or divisor that no
    theorem gives an initial ideal in that order (``PolyIdeal``), such as
    one of forms built by hand, is a LinkageError naming the missing
    proof."""
    checks: list[Check] = []
    d = poly_degree(multiplier)

    checks.append(Check(
        "codim-gap",
        divisor.codim == base.codim + 1,
        f"codim base {base.codim}, divisor {divisor.codim}",
    ))
    checks.append(Check(
        "base-generically-gorenstein",
        base.gorenstein_tag == "lifted-generic",
        f"tag: {base.gorenstein_tag}",
    ))

    fail = _first_outside(base, divisor)
    checks.append(Check(
        "containment",
        fail is None,
        None if fail is None else f"base not inside divisor at degree {fail}",
    ))

    colon = _colon_failure(base, multiplier)
    checks.append(Check("colon-stable", colon is None, colon))

    if fail is None and colon is None:  # I ⊆ J and I : f = I: a closed form
        result = _link_result(base, divisor, multiplier, "bdl-result")
        k_base, k_div, k_res = base.numerator, divisor.numerator, result.numerator
        bad_deg = first_mismatch(
            k_res, numerator_sum([(0, numerator_difference(k_base, d)), (d, k_div)]))
        checks.append(Check(
            "hilbert-identity",
            bad_deg is None,
            None if bad_deg is None else f"first failing degree {bad_deg}",
        ))

        if result.dim == 0:
            deg_base, deg_div, deg_res = map(numerator_degree, (k_base, k_div, k_res))
            checks.append(Check("degree-identity", deg_res == d * deg_base + deg_div,
                                f"{deg_res} vs {d}*{deg_base}+{deg_div}"))

    _require(checks)
    return BasicDoubleLink(base, divisor, multiplier, result, tuple(checks))


@dataclass(frozen=True)
class HypersurfaceChain:
    """Successive hypersurface sections of a flag of schemes, realized as
    a first section followed by basic double links."""

    vees: tuple[PolyIdeal, ...]  # schemes descending: V_r, ..., V_1
    forms: tuple[dict, ...]  # F_1, ..., F_r
    links: tuple[BasicDoubleLink, ...]
    result: PolyIdeal
    checks: tuple[Check, ...]


def hypersurface_chain(vees, forms) -> HypersurfaceChain:
    """Z from the flag V_r >= ... >= V_1 (schemes, given descending) and
    forms F_1..F_r: the union of the hypersurface sections F_i on V_i,
    with the full Hilbert bookkeeping verified.  The flag's inclusions are
    decided on factor lists (``_first_outside``).  Once every colon check
    is proven, in every degree, W_1 = I_{V_1} + (F_1) has the initial
    ideal in(V_1) + (lead F_1) (``_link_result`` with J = R), each later
    Z_k that of its link, and each W_i = I_{V_i} + (F_i) the numerator
    (1 - t^{deg F_i})·K_{V_i}.  The field and the order are the V_i's
    (``PolyIdeal``)."""
    vees = tuple(vees)
    forms = tuple(forms)
    r = len(vees)
    if len(forms) != r or r == 0:
        raise LinkageError("need one form per flag member")
    asc = tuple(reversed(vees))  # V_1, ..., V_r: ideals descending
    N = asc[0].N
    checks: list[Check] = []

    for k in range(r - 1):
        fail = _first_outside(asc[k + 1], asc[k])
        checks.append(Check(
            f"flag-inclusion-{k + 1}",
            fail is None,
            None if fail is None else
            f"I_V{k + 2} not inside I_V{k + 1} at degree {fail}",
        ))

    for i in range(1, r + 1):
        for j in range(1, i + 1):
            fail = _colon_failure(asc[j - 1], forms[i - 1])
            checks.append(Check(f"colon-stable-F{i}-V{j}", fail is None, fail))
    _require(checks)

    # W_i = I_{V_i} + (F_i); Z_1 = W_1, then Z_k = I_{V_k} + F_k * Z_{k-1}.
    unit = PolyIdeal.from_monomial(MonomialIdeal.unit(N), codim=0)
    current = _link_result(asc[0], unit, forms[0], "W1")
    links: list[BasicDoubleLink] = []
    for k in range(2, r + 1):
        link = basic_double_link(asc[k - 1], current, forms[k - 1])
        links.append(link)
        current = link.result

    # Hilbert formula: K_Z = sum_i t^{d_{i+1} + ... + d_r}·K_{W_i}, each
    # K_{W_i} = (1 - t^{d_i})·K_{V_i}, as 0 -> R/(V_i : F_i)(-d_i) -> R/V_i
    # -> R/W_i -> 0 is exact and V_i : F_i = V_i is checked.
    degs = [poly_degree(f) for f in forms]
    bad = first_mismatch(current.numerator, numerator_sum(
        (sum(degs[i + 1:]), numerator_difference(v.numerator, degs[i]))
        for i, v in enumerate(asc)))
    checks.append(Check(
        "chain-hilbert-formula",
        bad is None,
        None if bad is None else f"first failing degree {bad}",
    ))
    checks.append(Check(
        "liaison-class-of-W1",
        True,
        "derived claim: all arithmetic preconditions verified",
    ))
    _require(checks)
    return HypersurfaceChain(vees, forms, tuple(links), current, tuple(checks))

