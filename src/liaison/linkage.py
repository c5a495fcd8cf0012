"""Basic double G-links, hypersurface-section chains, the certificate
builders, and the verifier.

A certificate never constructs the intermediate arithmetically Gorenstein
ideals; its meaning is that every arithmetic precondition and identity
attached to each step has been verified over F_p in every degree.  No
Gröbner basis is computed and no Macaulay matrix is built.  Both
inductions are monomial at heart, so every ideal a certificate compares
carries the initial ideal a theorem proves for it (``PolyIdeal``): a
monomial ideal is its own, a lift's is its source (the lifting theorem,
``lifting``), and a basic double link's is in(I) + lead(f)·in(J)
(``_link_result``).  A Hilbert function is the closed form of that
ideal.  An ideal also carries the prime of its field and the order of
that proof, and each operation reads both off its ideals, so no caller
passes them; ideals at two primes are a LinkageError.  A containment is decided without reduction (``_first_outside``):
by the terms of each form when the ideal is monomial, else by factor
lists, as bar(h) divides bar(g) when h divides g, or refuted by a leading
monomial outside the initial ideal.  An equality is one containment and
equal initial ideals.  Colon stability, I : f = I, is proven from the
generators (``_colon_failure``).  Every Hilbert-function identity is one
exact equation of Hilbert-series numerators in the one ambient ring, so
it holds in every degree; no check reads the degree horizon.

The builders and ``verify_certificate`` run one induction, ``_induction``.
The verifier reruns it from the certificate's inputs (mode, root, prime
and, for the Artinian builder, the matrix of step 0) and requires each
stored step to have the canonical JSON text of the step it builds
(``lifting.same_document``), so nothing stored is trusted.  The mode
must be known, the root acceptable to the mode's builder, each stored
step's source and kind and the leaf what that builder makes there; the
prime must pass ``check_prime``, and the stored horizon must be the one
``oracle.horizon`` derives from the root.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from functools import cache

from .hilbert import (
    first_mismatch,
    hilbert_numerator,
    numerator_degree,
    numerator_difference,
    numerator_sum,
)
from .layers import decompose
from .lifting import (
    LiftedIdeal,
    LiftingMatrix,
    MatrixError,
    default_matrix_for,
    lift_ideal,
    same_document,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    height,
    is_artinian,
    is_cm_borel,
    variable,
)
from .oracle import (
    DEFAULT_PRIME,
    check_prime,
    expand,
    horizon,
    linear_form_poly,
    poly_degree,
    poly_mul,
    poly_normalize,
    poly_to_json,
)


class LinkageError(ValueError):
    """A certificate precondition or identity failed."""


# --- JSON codec -------------------------------------------------------------


class _FieldCodec:
    """JSON encoder driven by the dataclass fields: one key per field, plus
    the class's ``schema`` or ``kind`` tag, in sorted order (``_json_keys``),
    so a rebuilt document and one decoded from canonical text compare
    without encoding (``same_document``).  A polynomial (dict) goes
    through ``poly_to_json``, a tuple becomes a list, and a value with its
    own ``to_json`` uses it."""

    def to_json(self) -> dict:
        return {k: _encode(getattr(self, k)) for k in _json_keys(type(self))}


@cache
def _json_keys(cls) -> tuple[str, ...]:
    """The keys of ``cls``'s documents, sorted: its fields and tags."""
    tags = {tag for tag in ("schema", "kind") if hasattr(cls, tag)}
    return tuple(sorted({f.name for f in fields(cls)} | tags))


def _encode(value):
    if isinstance(value, dict):
        return poly_to_json(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


@dataclass(frozen=True)
class Check(_FieldCodec):
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
class PolyIdeal(_FieldCodec):
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
class BasicDoubleLink(_FieldCodec):
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
class HypersurfaceChain(_FieldCodec):
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


# --- certificate steps ------------------------------------------------------


@dataclass(frozen=True)
class ChainStep(_FieldCodec):
    """One level of the Artinian induction: decompose, lift the layers by
    the row-deleted matrix, and rebuild the lift as a hypersurface chain.
    Continues with the top proper layer in one fewer variable."""

    source: MonomialIdeal
    matrix: LiftingMatrix
    alpha: int
    layers: tuple[MonomialIdeal, ...]  # I_0 .. I_{alpha-1}, in n-1 variables
    chain: HypersurfaceChain
    direct_lift: PolyIdeal
    continuation: MonomialIdeal  # I_{alpha-1}
    checks: tuple[Check, ...]

    kind = "chain"

@dataclass(frozen=True)
class BilinkStep(_FieldCodec):
    """One G-bilink of the Borel loop: J = bar I_0 + x_1 * I' with the
    four observations and the bar J = J identity verified."""

    source: MonomialIdeal
    i0: MonomialIdeal       # layer 0, in n-1 variables
    iprime: MonomialIdeal   # J with one x_1 stripped, in n variables
    matrix: LiftingMatrix   # the integer-shift matrix used for bar I_0
    link: BasicDoubleLink
    checks: tuple[Check, ...]

    kind = "bilink"

    @property
    def continuation(self) -> MonomialIdeal:
        return self.iprime

@dataclass(frozen=True)
class DescentStep(_FieldCodec):
    """Hyperplane-section or cone move connecting two certificate levels."""

    kind: str  # "hyperplane-descent" | "cone-descent"
    source: MonomialIdeal
    continuation: MonomialIdeal
    checks: tuple[Check, ...]


_STEP_KINDS = frozenset({"chain", "bilink", "hyperplane-descent", "cone-descent"})


@dataclass(frozen=True)
class StoredStep:
    """A step as a certificate document stores it: its JSON ``data``, and
    decoded from it what the replay reads."""

    kind: str
    source: MonomialIdeal
    matrix: LiftingMatrix | None
    data: dict

    @classmethod
    def from_json(cls, data: dict) -> "StoredStep":
        kind = data["kind"]
        if kind not in _STEP_KINDS:
            raise ValueError(f"unknown step kind {kind!r}")
        matrix = LiftingMatrix.from_json(data["matrix"]) if kind == "chain" else None
        return cls(kind, MonomialIdeal.from_json(data["source"]), matrix, data)

    def to_json(self) -> dict:
        return self.data


@dataclass(frozen=True)
class GlicciCertificate(_FieldCodec):
    mode: str  # "artinian" | "borel"
    prime: int
    dmax: int
    root: MonomialIdeal
    steps: tuple[ChainStep | BilinkStep | DescentStep | StoredStep, ...]
    leaf: str  # "codim<=2-licci" | "principal"

    schema = "glicci-cert/1"

    @classmethod
    def from_json(cls, data: dict) -> "GlicciCertificate":
        """The certificate a ``glicci-cert/1`` document stores; a root that
        is not canonical JSON or a key outside the schema is a ValueError."""
        if data.get("schema") != cls.schema:
            raise ValueError(f"expected schema {cls.schema}")
        unknown = data.keys() - {f.name for f in fields(cls)} - {"schema"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        root = MonomialIdeal.from_json(data["root"])
        if not same_document(root.to_json(), data["root"]):
            raise ValueError("root is not the canonical JSON of its ideal")
        return cls(data["mode"], data["prime"], data["dmax"], root,
                   tuple(map(StoredStep.from_json, data["steps"])), data["leaf"])


def _check_root(mode: str, J: MonomialIdeal) -> MonomialIdeal:
    """The precondition of the ``mode`` builder on its root ideal; raises
    LinkageError."""
    if mode == "artinian":
        if not is_artinian(J) or J.is_unit:
            raise LinkageError("root ideal must be Artinian and proper")
    elif J.is_zero or J.is_unit:
        raise LinkageError("root ideal must be proper and nonzero")
    elif not is_cm_borel(J)[0]:
        raise LinkageError("not Cohen-Macaulay (Borel equivalence test)")
    return J


def _horizon(J: MonomialIdeal, A: LiftingMatrix | None) -> int:
    """The degree horizon of a certificate for J: ``horizon`` with k = J.n,
    its width measured in the variables of the matrix ``A``, or J's."""
    return horizon(J, J.n, J.n if A is None else A.N)


def _check_stored_horizon(dmax, J: MonomialIdeal, A: LiftingMatrix | None) -> int:
    """The stored horizon ``dmax`` if it is the one derived from J; raises
    ValueError otherwise."""
    derived = _horizon(J, A)
    if type(dmax) is not int or dmax != derived:
        raise ValueError(f"horizon dmax {dmax!r} is not {derived}, "
                         "the horizon derived from the root")
    return dmax


# --- Artinian certificate ---------------------------------------------------


def _build_chain_step(J: MonomialIdeal, A: LiftingMatrix, prime: int) -> ChainStep:
    n = J.n
    D = decompose(J)
    alpha = D.alpha
    Aprime = A.drop_first_row()
    # One expansion memo for the step: the direct lift's bar(x1^k·m)
    # continues the layer lifts' bar'(m).  It is dropped on return.
    memo: dict = {}
    layer_lifts = []
    for j in range(alpha):
        lifted = lift_ideal(D.layers[j], Aprime, prime=prime)
        layer_lifts.append(PolyIdeal.from_lifted(
            lifted, codim=n - 1, label=f"lift-I{j}", memo=memo
        ))
    # F_i = L_{1, alpha - i + 1}, so the last form F_r is L_{1,1}.
    forms = [
        linear_form_poly(A.rows[0][alpha - i].coeffs, prime)
        for i in range(1, alpha + 1)
    ]
    chain = hypersurface_chain(layer_lifts, forms)

    direct = PolyIdeal.from_lifted(
        lift_ideal(J, A, prime=prime), codim=n, label="direct-lift", memo=memo,
    )
    # The direct lift lies in Z_alpha, whose initial ideal M_alpha is J.
    equal = (_first_outside(direct, chain.result) is None
             and chain.result.initial_ideal(direct.last) == direct.initial_ideal())
    checks = [Check("chain-equals-direct-lift", equal, None)]
    _require(checks)
    return ChainStep(
        J, A, alpha, tuple(D.layers[:alpha]), chain, direct,
        D.layers[alpha - 1], tuple(checks),
    )


def glicci_certificate_artinian(J: MonomialIdeal, A: LiftingMatrix,
                                prime: int = DEFAULT_PRIME) -> GlicciCertificate:
    """Certificate for the lift of an Artinian monomial ideal: induction
    on the codimension via layer decomposition and hypersurface chains,
    terminating at a codimension-2 licci leaf."""
    return _build_certificate("artinian", J, A, prime)


# --- Borel certificate ------------------------------------------------------


def strip_x1(J: MonomialIdeal) -> MonomialIdeal:
    """I': one x_1 removed from each x_1-divisible minimal generator,
    together with the x_1-free generators."""
    x1 = variable(J.n, 0)
    gens = [g / x1 if g.exps[0] > 0 else g for g in J.gens]
    return MonomialIdeal.from_gens(J.n, gens)


def _build_bilink_step(J: MonomialIdeal, prime: int) -> BilinkStep:
    n = J.n
    ok, cone = is_cm_borel(J)
    if not ok:
        raise LinkageError("not Cohen-Macaulay (Borel equivalence test)")
    c = cone.c
    D = decompose(J)
    i0 = D.layers[0]
    i0_ext = i0.extend_front(1)
    iprime = strip_x1(J)
    x1 = variable(n, 0)

    checks: list[Check] = []
    rebuilt = i0_ext.plus(iprime.times_monomial(x1))
    checks.append(Check(
        "decomposition-identity",
        rebuilt == J,
        f"I_0 + x1*I' = {rebuilt}",
    ))

    ok_p, cone_p = is_cm_borel(iprime)
    checks.append(Check(
        "obs1-iprime-cm-same-height",
        ok_p and cone_p is not None and cone_p.c == c,
        f"I' CM: {ok_p}, height {cone_p.c if cone_p else '?'} vs {c}",
    ))
    checks.append(Check(
        "obs2-i0-in-iprime",
        iprime.contains_ideal(i0_ext),
        None,
    ))

    B = default_matrix_for(J, "bf")
    Bprime = B.drop_first_row()
    bar_i0 = lift_ideal(i0, Bprime, prime=prime)

    # Observation 3: every term of every expanded bar-generator lies in
    # I'; for bar-j-equals-j, in J.  Expansion over the integers: shift
    # coefficients never vanish, and a form whose terms lie in a monomial
    # ideal lies in it over F_p too.
    witness, in_j = None, True
    for g in bar_i0.generators:
        for exps in expand(g, Bprime, p=None):
            m = Monomial(exps)
            if J.contains(m):
                continue
            in_j = False
            if not iprime.contains(m):
                witness = f"term {m} of bar({g.source}) not in I'"
                break
        if witness:
            break
    checks.append(Check("obs3-bar-i0-in-iprime", witness is None, witness))

    checks.append(Check(
        "obs4-heights",
        height(i0_ext) == c - 1,
        f"height I_0 = {height(i0_ext)}, expected {c - 1}"
        " (bar I_0 inherits it from the lifting)",
    ))

    base = PolyIdeal.from_lifted(bar_i0, codim=c - 1, label="bar-I0")
    divisor = PolyIdeal.from_monomial(iprime, codim=c, label="Iprime")
    link = basic_double_link(base, divisor, {x1.exps: 1})
    # The result bar I_0 + x1*I' lies in J, and its initial ideal, the
    # closed form I_0 + x1*I', is J: equal Hilbert functions.
    checks.append(Check(
        "bar-j-equals-j",
        in_j and J.contains_ideal(iprime.times_monomial(x1))
        and link.result.initial_ideal() == J,
        None,
    ))
    checks.append(Check(
        "initial-degree-drop",
        iprime.initial_degree() == J.initial_degree() - 1,
        f"{iprime.initial_degree()} vs {J.initial_degree()} - 1",
    ))
    _require(checks)
    return BilinkStep(J, i0, iprime, B, link, tuple(checks))


def _build_hyperplane_step(J: MonomialIdeal) -> DescentStep:
    """J has initial degree 1: J = I_0 + (x_1).  The hyperplane section
    x_1 = 0 continues with I_0, still in n variables."""
    n = J.n
    D = decompose(J)
    i0_ext = D.layers[0].extend_front(1)
    expected = i0_ext.plus(MonomialIdeal.from_gens(n, [variable(n, 0)]))
    checks = [Check(
        "hyperplane-section-identity",
        expected == J and D.alpha == 1 and D.layers[1].is_unit,
        f"I_0 + (x1) = {expected}",
    )]
    _require(checks)
    return DescentStep("hyperplane-descent", J, i0_ext, tuple(checks))


def _build_cone_step(source: MonomialIdeal) -> DescentStep:
    """A source none of whose generators involves x_1 is a cone over its
    restriction J_0 to x_2..x_n, which must be CM Borel-fixed."""
    j0 = source.restrict(range(1, source.n))
    ok0, _ = is_cm_borel(j0) if not (j0.is_zero or j0.is_unit) else (True, None)
    bad = [g for g in source.gens if g.exps[0] > 0]
    checks = [Check(
        "cone-restriction",
        not bad,
        None if not bad else f"generators involving x1: {bad[0]}",
    ), Check(
        "cone-base-cm-borel",
        ok0,
        None if ok0 else "J_0 not CM Borel-fixed",
    )]
    _require(checks)
    return DescentStep("cone-descent", source, j0, tuple(checks))


def glicci_certificate_borel(J: MonomialIdeal,
                             prime: int = DEFAULT_PRIME) -> GlicciCertificate:
    """Certificate for a Cohen-Macaulay Borel-fixed ideal: bilinks strip
    x_1 until the initial degree reaches one, then a hyperplane section
    and a cone descent drop to one fewer variable; leaves at height <= 2
    or a principal ideal."""
    return _build_certificate("borel", J, None, prime)


# --- the induction ----------------------------------------------------------


def _next_move(mode: str, cur: MonomialIdeal, prev: str | None) -> str:
    """What the builder of ``mode`` does next at ``cur`` after a step of
    kind ``prev``: the kind of its next step, or the leaf it stops at.
    Raises ValueError for an ideal no induction reaches, such as zero."""
    if mode == "artinian":
        if cur.n > 2:
            return "chain"
        return "principal" if cur.n == 1 else "codim<=2-licci"
    if prev == "hyperplane-descent":
        return "cone-descent"
    if len(cur.gens) == 1:
        return "principal"
    if height(cur) <= 2:
        return "codim<=2-licci"
    if cur.initial_degree() == 1:
        return "hyperplane-descent"
    return "bilink"


def _build_step(kind: str, source: MonomialIdeal, A: LiftingMatrix | None, prime: int):
    """The builder of a step of ``kind`` run on ``source``; ``A`` is the
    lifting matrix of a chain step."""
    if kind == "chain":
        if A is None:
            raise LinkageError("chain step needs a lifting matrix; "
                               "the certificate stores none")
        return _build_chain_step(source, A, prime)
    if kind == "bilink":
        return _build_bilink_step(source, prime)
    if kind == "hyperplane-descent":
        return _build_hyperplane_step(source)
    return _build_cone_step(source)


def _induction(mode: str, J: MonomialIdeal, A: LiftingMatrix | None, prime: int):
    """The induction of the ``mode`` builder from J.  Before each step it
    yields the ideal the step starts at and the step's kind; asked once
    more, it builds that step and yields it.  Last it yields the ideal it
    stops at and the leaf.  Each chain step uses the previous one's matrix
    minus its first row; a builder's error propagates."""
    cur, prev = J, None
    while (move := _next_move(mode, cur, prev)) in _STEP_KINDS:
        yield cur, move
        step = _build_step(move, cur, A, prime)
        yield step
        if move == "chain":
            A = A.drop_first_row()
        cur, prev = step.continuation, move
    yield cur, move


def _build_certificate(mode: str, J: MonomialIdeal, A: LiftingMatrix | None,
                       prime: int) -> GlicciCertificate:
    """Collect the steps of the induction from J and its leaf, and store
    the horizon derived from J.  A root the mode refuses is a
    LinkageError; a root whose horizon ``horizon`` refuses as too wide,
    checked after it, is ``horizon``'s ValueError."""
    _check_root(mode, J)
    check_prime(prime)
    dmax = _horizon(J, A)
    steps: list = []
    induction = _induction(mode, J, A, prime)
    for _, move in induction:
        if move in _STEP_KINDS:
            steps.append(next(induction))
    return GlicciCertificate(mode, prime, dmax, J, tuple(steps), move)


# --- verification -----------------------------------------------------------


@dataclass
class VerificationReport:
    entries: list  # (step index, check name, passed, witness)

    @property
    def ok(self) -> bool:
        return all(e[2] for e in self.entries)

    def first_failure(self):
        for e in self.entries:
            if not e[2]:
                return e
        return None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "entries": [
                {"step": s, "check": n, "passed": p, "witness": w}
                for s, n, p, w in self.entries
            ],
        }


def _all_checks(step):
    """The checks a step records, those of its links included."""
    if isinstance(step, ChainStep):
        yield from step.chain.checks
        for link in step.chain.links:
            yield from link.checks
    elif isinstance(step, BilinkStep):
        yield from step.link.checks
    yield from step.checks


def _check_mode(mode) -> str:
    if mode not in ("artinian", "borel"):
        raise LinkageError(f"unknown certificate mode {mode!r}")
    return mode


def _contract(name: str, check, *args) -> tuple:
    """Report entry for a certificate-wide precondition: the accepted
    value, or the error raised by ``check``."""
    try:
        return (0, name, True, str(check(*args)))
    except ValueError as exc:
        return (0, name, False, str(exc))


def verify_certificate(cert: GlicciCertificate) -> VerificationReport:
    """Rerun the builder's induction from the certificate's inputs,
    report each rebuilt step's checks, and require every stored step's
    JSON to have the canonical JSON text of its rebuild, compared by
    ``same_document``: a step decoded from canonical text has its keys
    sorted, like its rebuild, and is compared by marshal bytes without
    making either text.  Failures become report entries, never
    exceptions.  The replay builds its own objects, so it reuses nothing
    the build computed: a chain step's expansion memo lives only while
    that step is built, and no module keeps one.

    An unknown mode, an invalid prime, a stored horizon other than the one
    ``oracle.horizon`` derives from the root, or a root the mode's builder
    refuses fails the report before any step is replayed.  Each stored
    step's source and kind, and the leaf, must be where the builder stands
    and what it makes next.  The replay follows the builder, not the
    stored steps, and ends where the builder stops or raises.
    """
    prime = cert.prime
    # The induction reruns from the certificate's inputs: the root and,
    # for the Artinian builder, the matrix stored step 0 lifts by.
    steps = cert.steps
    A = steps[0].matrix if steps and steps[0].kind == "chain" else None
    entries: list = [
        _contract("mode", _check_mode, cert.mode),
        _contract("prime", check_prime, prime),
        _contract("horizon", _check_stored_horizon, cert.dmax, cert.root, A),
    ]
    if entries[0][2]:  # the root's precondition depends on the mode
        entries.append(_contract("root", _check_root, cert.mode, cert.root))
    if not all(e[2] for e in entries):
        return VerificationReport(entries)

    induction = _induction(cert.mode, cert.root, A, prime)
    idx = 0
    try:
        for idx, step in enumerate(cert.steps):
            cur, move = next(induction)
            entries.append((
                idx, "step-continuity", step.source == cur,
                f"expected {cur}, step stores {step.source}",
            ))
            entries.append((
                idx, "step-kind", step.kind == move,
                f"at {cur}: expected {move}, certificate stores {step.kind}",
            ))
            if move not in _STEP_KINDS:  # the builder stops here
                return VerificationReport(entries)
            rebuilt = next(induction)
            entries.extend(
                (idx, c.name, c.passed, c.witness) for c in _all_checks(rebuilt)
            )
            entries.append((idx, "stored-equals-rebuilt",
                            same_document(rebuilt.to_json(), step.to_json()), None))
        cur, leaf = next(induction)
        entries.append((
            len(cert.steps), "leaf-validity", cert.leaf == leaf,
            f"at {cur}: expected {leaf}, certificate stores {cert.leaf}",
        ))
    except (LinkageError, MatrixError) as exc:
        entries.append((idx, "rebuild", False, str(exc)))
    except Exception as exc:  # replay must never crash the report
        entries.append((idx, "replay-error", False, repr(exc)))
    return VerificationReport(entries)
