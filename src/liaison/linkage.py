"""Basic double G-links, hypersurface-section chains, the certificate
builders, and the verifier.

A certificate never constructs the intermediate arithmetically Gorenstein
ideals; its meaning is that every arithmetic precondition and identity
attached to each step has been verified modulo the working prime through
the degree horizon.

The builders and ``verify_certificate`` run one induction, ``_induction``.
The verifier reruns it from the certificate's inputs (mode, root, prime,
horizon and, for the Artinian builder, the matrix of step 0) and requires
each stored step to be the canonical JSON text of the step it builds, so
nothing stored is trusted.  The mode must be known, the root acceptable to
the mode's builder, each stored step's source and kind and the leaf what
that builder makes there; the prime must pass ``check_prime`` and the
horizon ``check_horizon``.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .hilbert import HVector, difference
from .layers import decompose
from .lifting import (
    LiftedIdeal,
    LiftingMatrix,
    MatrixError,
    canonical_json,
    default_matrix,
    lift_ideal,
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
    check_dmax,
    colon_stability_failure,
    containment_failure,
    expand,
    hilbert_oracle,
    ideals_equal_up_to,
    linear_form_poly,
    poly_degree,
    poly_mul,
    poly_normalize,
    poly_to_json,
    scope,
    stable_value,
)


class LinkageError(ValueError):
    """A certificate precondition or identity failed."""


# --- JSON codec -------------------------------------------------------------


class _FieldCodec:
    """JSON encoder driven by the dataclass fields: one key per field, plus
    the class's ``schema`` or ``kind`` tag.  A polynomial (dict) goes
    through ``poly_to_json``, a tuple becomes a list, and a value with its
    own ``to_json`` uses it."""

    def to_json(self) -> dict:
        out = {f.name: _encode(getattr(self, f.name)) for f in fields(self)}
        for tag in ("schema", "kind"):
            if hasattr(self, tag):
                out[tag] = getattr(self, tag)
        return out


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


@dataclass(frozen=True)
class PolyIdeal(_FieldCodec):
    """Homogeneous polynomial generators with provenance tags.

    ``codim`` comes from the source monomial data (lifting preserves
    codimension); ``gorenstein_tag`` records whether the ideal arose from
    a validated generic lifting ("lifted-generic"), is a monomial ideal
    ("monomial"), or has unknown provenance.
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
        gens = tuple(
            {g.exps + (0,) * (N - J.n): 1} for g in J.gens
        )
        return cls(N, gens, codim, "monomial", label)

    @classmethod
    def from_lifted(cls, L: LiftedIdeal, codim: int,
                    prime: int = DEFAULT_PRIME, label: str = "") -> "PolyIdeal":
        return cls(L.N, tuple(L.polynomials(prime)), codim, "lifted-generic", label)

    @property
    def dim(self) -> int:
        # Projective dimension of the cut-out scheme.
        return self.N - 1 - self.codim

    def hilbert(self, dmax: int, prime: int) -> HVector:
        return hilbert_oracle(self.gens, dmax, self.N, prime)


@dataclass(frozen=True)
class BasicDoubleLink(_FieldCodec):
    """Passage from a divisor J on a base I to I + A*J, with the verified
    side conditions recorded."""

    base: PolyIdeal
    divisor: PolyIdeal
    multiplier: dict
    result: PolyIdeal
    checks: tuple[Check, ...]


def basic_double_link(base: PolyIdeal, divisor: PolyIdeal, multiplier: dict,
                      dmax: int, prime: int = DEFAULT_PRIME) -> BasicDoubleLink:
    """Build I + A*J and verify every recorded side condition; raises
    LinkageError naming the first failure."""
    result_gens = tuple(base.gens) + tuple(
        poly_mul(multiplier, g, prime) for g in divisor.gens
    )
    result = PolyIdeal(
        base.N, result_gens, base.codim + 1, base.gorenstein_tag, "bdl-result"
    )
    checks: list[Check] = []
    N = base.N
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

    fail = containment_failure(base.gens, divisor.gens, dmax, N, prime)
    checks.append(Check(
        "containment",
        fail is None,
        None if fail is None else f"base not inside divisor at degree {fail}",
    ))

    fail = colon_stability_failure(base.gens, multiplier, dmax, N, prime)
    checks.append(Check(
        "colon-stable",
        fail is None,
        None if fail is None else f"I : A != I at degree {fail}",
    ))

    h_base = base.hilbert(dmax, prime)
    h_div = divisor.hilbert(dmax, prime)
    h_res = result.hilbert(dmax, prime)
    bad_deg = None
    for t in range(dmax + 1):
        if h_res.at(t) != h_base.at(t) - h_base.at(t - d) + h_div.at(t - d):
            bad_deg = t
            break
    checks.append(Check(
        "hilbert-identity",
        bad_deg is None,
        None if bad_deg is None else f"first failing degree {bad_deg}",
    ))

    if result.dim == 0:
        try:
            deg_base = stable_value(difference(h_base, base.dim))
            deg_div = stable_value(h_div)
            deg_res = stable_value(h_res)
            ok = deg_res == d * deg_base + deg_div
            witness = f"{deg_res} vs {d}*{deg_base}+{deg_div}"
        except ValueError as exc:
            ok, witness = False, f"horizon too small: {exc}"
        checks.append(Check("degree-identity", ok, witness))

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


def hypersurface_chain(vees, forms, dmax: int,
                       prime: int = DEFAULT_PRIME) -> HypersurfaceChain:
    """Z from the flag V_r >= ... >= V_1 (schemes, given descending) and
    forms F_1..F_r: the union of the hypersurface sections F_i on V_i,
    with the full Hilbert bookkeeping verified."""
    vees = tuple(vees)
    forms = tuple(forms)
    r = len(vees)
    if len(forms) != r or r == 0:
        raise LinkageError("need one form per flag member")
    asc = tuple(reversed(vees))  # V_1, ..., V_r: ideals descending
    N = asc[0].N
    checks: list[Check] = []

    for k in range(r - 1):
        fail = containment_failure(asc[k + 1].gens, asc[k].gens, dmax, N, prime)
        checks.append(Check(
            f"flag-inclusion-{k + 1}",
            fail is None,
            None if fail is None else
            f"I_V{k + 2} not inside I_V{k + 1} at degree {fail}",
        ))

    for i in range(1, r + 1):
        for j in range(1, i + 1):
            fail = colon_stability_failure(asc[j - 1].gens, forms[i - 1], dmax, N, prime)
            checks.append(Check(
                f"colon-stable-F{i}-V{j}",
                fail is None,
                None if fail is None else f"failed at degree {fail}",
            ))
    _require(checks)

    # W_1 = V_1 + (F_1); then Z_k = I_{V_k} + F_k * Z_{k-1}.
    current = PolyIdeal(
        N,
        tuple(asc[0].gens) + (poly_normalize(forms[0], prime),),
        asc[0].codim + 1,
        asc[0].gorenstein_tag,
        "W1",
    )
    links: list[BasicDoubleLink] = []
    for k in range(2, r + 1):
        link = basic_double_link(asc[k - 1], current, forms[k - 1], dmax, prime)
        links.append(link)
        current = link.result

    # Hilbert formula: h_Z(t) = sum_i h_{W_i}(t - d_{i+1} - ... - d_r).
    degs = [poly_degree(f) for f in forms]
    h_ws = []
    for i in range(1, r + 1):
        w = tuple(asc[i - 1].gens) + (poly_normalize(forms[i - 1], prime),)
        h_ws.append(hilbert_oracle(w, dmax, N, prime))
    h_z = current.hilbert(dmax, prime)
    bad = None
    for t in range(dmax + 1):
        total = 0
        for i in range(1, r + 1):
            shift = sum(degs[i:])  # d_{i+1} + ... + d_r
            if t - shift >= 0:
                total += h_ws[i - 1].at(t - shift)
        if total != h_z.at(t):
            bad = t
            break
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
        if canonical_json(root.to_json()) != canonical_json(data["root"]):
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


def check_horizon(J: MonomialIdeal, dmax: int | None,
                  A: LiftingMatrix | None = None) -> int:
    """The degree horizon of a certificate for J: ``dmax``, or the floor
    max generator degree + number of variables when ``dmax`` is None.
    Raises LinkageError for a horizon below that floor or above the
    ``check_dmax`` ceiling in the variables of the matrix ``A``, or J's."""
    try:
        return check_dmax(dmax, J.max_gen_degree + J.n, J.n if A is None else A.N)
    except ValueError as exc:
        raise LinkageError(str(exc))


# --- Artinian certificate ---------------------------------------------------


def _build_chain_step(J: MonomialIdeal, A: LiftingMatrix, dmax: int,
                      prime: int) -> ChainStep:
    n = J.n
    D = decompose(J)
    alpha = D.alpha
    Aprime = A.drop_first_row()
    layer_lifts = []
    for j in range(alpha):
        lifted = lift_ideal(D.layers[j], Aprime, prime=prime)
        layer_lifts.append(PolyIdeal.from_lifted(
            lifted, codim=n - 1, prime=prime, label=f"lift-I{j}"
        ))
    # F_i = L_{1, alpha - i + 1}, so the last form F_r is L_{1,1}.
    forms = [
        linear_form_poly(A.rows[0][alpha - i].coeffs, prime)
        for i in range(1, alpha + 1)
    ]
    chain = hypersurface_chain(layer_lifts, forms, dmax, prime)

    direct = PolyIdeal.from_lifted(
        lift_ideal(J, A, prime=prime), codim=n, prime=prime, label="direct-lift"
    )
    checks = [Check(
        "chain-equals-direct-lift",
        ideals_equal_up_to(chain.result.gens, direct.gens, dmax, A.N, prime),
        None,
    )]
    _require(checks)
    return ChainStep(
        J, A, alpha, tuple(D.layers[:alpha]), chain, direct,
        D.layers[alpha - 1], tuple(checks),
    )


def glicci_certificate_artinian(J: MonomialIdeal, A: LiftingMatrix,
                                dmax: int | None = None,
                                prime: int = DEFAULT_PRIME) -> GlicciCertificate:
    """Certificate for the lift of an Artinian monomial ideal: induction
    on the codimension via layer decomposition and hypersurface chains,
    terminating at a codimension-2 licci leaf."""
    return _build_certificate("artinian", J, A, dmax, prime)


# --- Borel certificate ------------------------------------------------------


def strip_x1(J: MonomialIdeal) -> MonomialIdeal:
    """I': one x_1 removed from each x_1-divisible minimal generator,
    together with the x_1-free generators."""
    x1 = variable(J.n, 0)
    gens = [g / x1 if g.exps[0] > 0 else g for g in J.gens]
    return MonomialIdeal.from_gens(J.n, gens)


def _build_bilink_step(J: MonomialIdeal, dmax: int, prime: int) -> BilinkStep:
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

    B = default_matrix(n, "bf", ncols=max(J.max_gen_degree, 1))
    Bprime = B.drop_first_row()
    bar_i0 = lift_ideal(i0, Bprime, prime=prime)

    # Observation 3: every monomial of every expanded bar-generator lies
    # in I'.  Expansion over the integers: shift coefficients never vanish.
    witness = None
    for g in bar_i0.generators:
        expanded = expand(g, Bprime, p=None)
        for exps in expanded:
            if not iprime.contains(Monomial(exps)):
                witness = f"term {Monomial(exps)} of bar({g.source}) not in I'"
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

    base = PolyIdeal.from_lifted(bar_i0, codim=c - 1, prime=prime, label="bar-I0")
    divisor = PolyIdeal.from_monomial(iprime, codim=c, label="Iprime")
    multiplier = {x1.exps: 1}
    link_result_gens = tuple(base.gens) + tuple(
        poly_mul(multiplier, g, prime) for g in divisor.gens
    )
    j_polys = PolyIdeal.from_monomial(J, codim=c, label="J")
    checks.append(Check(
        "bar-j-equals-j",
        ideals_equal_up_to(link_result_gens, j_polys.gens, dmax, n, prime),
        None,
    ))
    checks.append(Check(
        "initial-degree-drop",
        iprime.initial_degree() == J.initial_degree() - 1,
        f"{iprime.initial_degree()} vs {J.initial_degree()} - 1",
    ))
    _require(checks)

    link = basic_double_link(base, divisor, multiplier, dmax, prime)
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


def glicci_certificate_borel(J: MonomialIdeal, dmax: int | None = None,
                             prime: int = DEFAULT_PRIME) -> GlicciCertificate:
    """Certificate for a Cohen-Macaulay Borel-fixed ideal: bilinks strip
    x_1 until the initial degree reaches one, then a hyperplane section
    and a cone descent drop to one fewer variable; leaves at height <= 2
    or a principal ideal."""
    return _build_certificate("borel", J, None, dmax, prime)


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


def _build_step(kind: str, source: MonomialIdeal, A: LiftingMatrix | None,
                dmax: int, prime: int):
    """The builder of a step of ``kind`` run on ``source``; ``A`` is the
    lifting matrix of a chain step."""
    if kind == "chain":
        if A is None:
            raise LinkageError("chain step needs a lifting matrix; "
                               "the certificate stores none")
        return _build_chain_step(source, A, dmax, prime)
    if kind == "bilink":
        return _build_bilink_step(source, dmax, prime)
    if kind == "hyperplane-descent":
        return _build_hyperplane_step(source)
    return _build_cone_step(source)


def _induction(mode: str, J: MonomialIdeal, A: LiftingMatrix | None,
               dmax: int, prime: int):
    """The induction of the ``mode`` builder from J.  Before each step it
    yields the ideal the step starts at and the step's kind; asked once
    more, it builds that step and yields it.  Last it yields the ideal it
    stops at and the leaf.  Each chain step uses the previous one's matrix
    minus its first row; a builder's error propagates."""
    cur, prev = J, None
    while (move := _next_move(mode, cur, prev)) in _STEP_KINDS:
        yield cur, move
        step = _build_step(move, cur, A, dmax, prime)
        yield step
        if move == "chain":
            A = A.drop_first_row()
        cur, prev = step.continuation, move
    yield cur, move


@scope()
def _build_certificate(mode: str, J: MonomialIdeal, A: LiftingMatrix | None,
                       dmax: int | None, prime: int) -> GlicciCertificate:
    """Collect the steps of the induction from J and its leaf.  The build
    runs in one oracle scope."""
    _check_root(mode, J)
    check_prime(prime)
    dmax = check_horizon(J, dmax, A)
    steps: list = []
    induction = _induction(mode, J, A, dmax, prime)
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


@scope()
def verify_certificate(cert: GlicciCertificate,
                       dmax: int | None = None) -> VerificationReport:
    """Rerun the builder's induction from the certificate's inputs,
    report each rebuilt step's checks, and require every stored step's
    JSON to be the canonical JSON text of its rebuild; failures become
    report entries, never exceptions.  The replay runs in one oracle
    scope; opened outside any scope, it reuses nothing the build computed.

    ``dmax`` overrides the stored horizon.  An unknown mode, an invalid
    prime, a horizon ``check_horizon`` refuses or a root the mode's builder
    refuses fails the report before any step is replayed.  Each stored
    step's source and kind, and the leaf, must be where the builder stands
    and what it makes next.  The replay follows the builder, not the
    stored steps, and ends where the builder stops or raises.
    """
    dmax = cert.dmax if dmax is None else dmax
    prime = cert.prime
    # The induction reruns from the certificate's inputs: the root and,
    # for the Artinian builder, the matrix stored step 0 lifts by.
    steps = cert.steps
    A = steps[0].matrix if steps and steps[0].kind == "chain" else None
    entries: list = [
        _contract("mode", _check_mode, cert.mode),
        _contract("prime", check_prime, prime),
        _contract("horizon", check_horizon, cert.root, dmax, A),
    ]
    if entries[0][2]:  # the root's precondition depends on the mode
        entries.append(_contract("root", _check_root, cert.mode, cert.root))
    if not all(e[2] for e in entries):
        return VerificationReport(entries)

    induction = _induction(cert.mode, cert.root, A, dmax, prime)
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
                            canonical_json(rebuilt.to_json())
                            == canonical_json(step.to_json()), None))
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
