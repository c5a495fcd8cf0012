"""Basic double G-links, hypersurface-section chains, the certificate
builders, and the verifier.

A certificate never constructs the intermediate arithmetically Gorenstein
ideals; its meaning is that every arithmetic precondition and identity
attached to each step has been verified modulo the working prime through
the degree horizon.

``verify_certificate`` replays a certificate through the same step
builders: each step is rebuilt once from its stored source (chain steps
after the first use the previous matrix minus its first row), and the
stored step must equal the rebuild, so nothing stored is trusted.  The
prime must pass ``check_prime`` and the horizon ``check_horizon``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .hilbert import HVector
from .layers import decompose
from .lifting import (
    LiftedIdeal,
    LiftingMatrix,
    MatrixError,
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
    colon_stability_failure,
    containment_failure,
    expand,
    hilbert_oracle,
    ideals_equal_up_to,
    linear_form_poly,
    poly_degree,
    poly_from_json,
    poly_mul,
    poly_normalize,
    poly_to_json,
    scheme_degree,
    stable_value,
)


class LinkageError(ValueError):
    """A certificate precondition or identity failed."""


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}

    @classmethod
    def from_json(cls, data: dict) -> "Check":
        return cls(data["name"], data["passed"], data.get("witness"))


def _require(checks: list[Check]) -> None:
    bad = [c for c in checks if not c.passed]
    if bad:
        raise LinkageError(
            "; ".join(f"{c.name}: {c.witness or 'failed'}" for c in bad)
        )


@dataclass(frozen=True)
class PolyIdeal:
    """Homogeneous polynomial generators with provenance tags.

    ``codim`` comes from the source monomial data (lifting preserves
    codimension); ``gorenstein_tag`` records whether the ideal arose from
    a validated generic lifting ("lifted-generic"), is a monomial ideal
    ("monomial"), or has unknown provenance.
    """

    N: int
    gens: tuple
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

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "codim": self.codim,
            "gorenstein_tag": self.gorenstein_tag,
            "label": self.label,
            "gens": [poly_to_json(g) for g in self.gens],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolyIdeal":
        return cls(
            data["N"],
            tuple(poly_from_json(g) for g in data["gens"]),
            data["codim"],
            data["gorenstein_tag"],
            data.get("label", ""),
        )


@dataclass(frozen=True)
class BasicDoubleLink:
    """Passage from a divisor J on a base I to I + A*J, with the verified
    side conditions recorded."""

    base: PolyIdeal
    divisor: PolyIdeal
    multiplier: dict
    result: PolyIdeal
    checks: tuple[Check, ...]

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "divisor": self.divisor.to_json(),
            "multiplier": poly_to_json(self.multiplier),
            "result": self.result.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BasicDoubleLink":
        return cls(
            PolyIdeal.from_json(data["base"]),
            PolyIdeal.from_json(data["divisor"]),
            poly_from_json(data["multiplier"]),
            PolyIdeal.from_json(data["result"]),
            tuple(Check.from_json(c) for c in data["checks"]),
        )


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
            deg_base = scheme_degree(base.gens, base.dim, dmax, N, prime)
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
class HypersurfaceChain:
    """Successive hypersurface sections of a flag of schemes, realized as
    a first section followed by basic double links."""

    vees: tuple[PolyIdeal, ...]  # schemes descending: V_r, ..., V_1
    forms: tuple  # F_1, ..., F_r
    links: tuple[BasicDoubleLink, ...]
    result: PolyIdeal
    checks: tuple[Check, ...]

    def to_json(self) -> dict:
        return {
            "vees": [v.to_json() for v in self.vees],
            "forms": [poly_to_json(f) for f in self.forms],
            "links": [l.to_json() for l in self.links],
            "result": self.result.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HypersurfaceChain":
        return cls(
            tuple(PolyIdeal.from_json(v) for v in data["vees"]),
            tuple(poly_from_json(f) for f in data["forms"]),
            tuple(BasicDoubleLink.from_json(l) for l in data["links"]),
            PolyIdeal.from_json(data["result"]),
            tuple(Check.from_json(c) for c in data["checks"]),
        )


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
class ChainStep:
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

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "source": self.source.to_json(),
            "matrix": self.matrix.to_json(),
            "alpha": self.alpha,
            "layers": [I.to_json() for I in self.layers],
            "chain": self.chain.to_json(),
            "direct_lift": self.direct_lift.to_json(),
            "continuation": self.continuation.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainStep":
        return cls(
            MonomialIdeal.from_json(data["source"]),
            LiftingMatrix.from_json(data["matrix"]),
            data["alpha"],
            tuple(MonomialIdeal.from_json(x) for x in data["layers"]),
            HypersurfaceChain.from_json(data["chain"]),
            PolyIdeal.from_json(data["direct_lift"]),
            MonomialIdeal.from_json(data["continuation"]),
            tuple(Check.from_json(c) for c in data["checks"]),
        )


@dataclass(frozen=True)
class BilinkStep:
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

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "source": self.source.to_json(),
            "i0": self.i0.to_json(),
            "iprime": self.iprime.to_json(),
            "matrix": self.matrix.to_json(),
            "link": self.link.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BilinkStep":
        return cls(
            MonomialIdeal.from_json(data["source"]),
            MonomialIdeal.from_json(data["i0"]),
            MonomialIdeal.from_json(data["iprime"]),
            LiftingMatrix.from_json(data["matrix"]),
            BasicDoubleLink.from_json(data["link"]),
            tuple(Check.from_json(c) for c in data["checks"]),
        )


@dataclass(frozen=True)
class DescentStep:
    """Hyperplane-section or cone move connecting two certificate levels."""

    kind_tag: str  # "hyperplane-descent" | "cone-descent"
    source: MonomialIdeal
    continuation: MonomialIdeal
    checks: tuple[Check, ...]

    @property
    def kind(self) -> str:
        return self.kind_tag

    def to_json(self) -> dict:
        return {
            "kind": self.kind_tag,
            "source": self.source.to_json(),
            "continuation": self.continuation.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DescentStep":
        return cls(
            data["kind"],
            MonomialIdeal.from_json(data["source"]),
            MonomialIdeal.from_json(data["continuation"]),
            tuple(Check.from_json(c) for c in data["checks"]),
        )


def _step_from_json(data: dict):
    kind = data["kind"]
    if kind == "chain":
        return ChainStep.from_json(data)
    if kind == "bilink":
        return BilinkStep.from_json(data)
    if kind in ("hyperplane-descent", "cone-descent"):
        return DescentStep.from_json(data)
    raise ValueError(f"unknown step kind {kind!r}")


@dataclass(frozen=True)
class GlicciCertificate:
    mode: str  # "artinian" | "borel"
    prime: int
    dmax: int
    root: MonomialIdeal
    steps: tuple
    leaf: str  # "codim<=2-licci" | "principal"

    def to_json(self) -> dict:
        return {
            "schema": "glicci-cert/1",
            "mode": self.mode,
            "prime": self.prime,
            "dmax": self.dmax,
            "root": self.root.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "leaf": self.leaf,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GlicciCertificate":
        return cls(
            data["mode"],
            data["prime"],
            data["dmax"],
            MonomialIdeal.from_json(data["root"]),
            tuple(_step_from_json(s) for s in data["steps"]),
            data["leaf"],
        )


def check_horizon(J: MonomialIdeal, dmax: int | None) -> int:
    """The degree horizon of a certificate for J: ``dmax``, or the floor
    max generator degree + number of variables when ``dmax`` is None.
    Raises LinkageError for a horizon below that floor."""
    floor = J.max_gen_degree + J.n
    if dmax is None:
        return floor
    if not isinstance(dmax, int) or dmax < floor:
        raise LinkageError(
            f"horizon dmax {dmax!r} is below the floor {floor} "
            "(max generator degree + number of variables)"
        )
    return dmax


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
    if not is_artinian(J) or J.is_unit:
        raise LinkageError("root ideal must be Artinian and proper")
    check_prime(prime)
    dmax = check_horizon(J, dmax)
    steps: list = []
    cur, curA = J, A
    while cur.n > 2:
        step = _build_chain_step(cur, curA, dmax, prime)
        steps.append(step)
        cur, curA = step.continuation, curA.drop_first_row()
    leaf = "principal" if cur.n == 1 else "codim<=2-licci"
    return GlicciCertificate("artinian", prime, dmax, J, tuple(steps), leaf)


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
    if J.is_zero or J.is_unit:
        raise LinkageError("root ideal must be proper and nonzero")
    ok, _ = is_cm_borel(J)
    if not ok:
        raise LinkageError("not Cohen-Macaulay (Borel equivalence test)")
    check_prime(prime)
    dmax = check_horizon(J, dmax)

    steps: list = []
    cur = J
    while True:
        if len(cur.gens) == 1:
            leaf = "principal"
            break
        if height(cur) <= 2:
            leaf = "codim<=2-licci"
            break
        if cur.initial_degree() == 1:
            hyper = _build_hyperplane_step(cur)
            cone_step = _build_cone_step(hyper.continuation)
            steps.extend([hyper, cone_step])
            cur = cone_step.continuation
            continue
        step = _build_bilink_step(cur, dmax, prime)
        steps.append(step)
        cur = step.continuation
    return GlicciCertificate("borel", prime, dmax, J, tuple(steps), leaf)


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


def _rebuild(step, A: LiftingMatrix | None, dmax: int, prime: int):
    """The builder of the step's kind, run on the step's stored source."""
    if isinstance(step, ChainStep):
        return _build_chain_step(step.source, A, dmax, prime)
    if isinstance(step, BilinkStep):
        return _build_bilink_step(step.source, dmax, prime)
    if step.kind == "hyperplane-descent":
        return _build_hyperplane_step(step.source)
    return _build_cone_step(step.source)


def _all_checks(step):
    """The checks a step records, those of its links included."""
    if isinstance(step, ChainStep):
        yield from step.chain.checks
        for link in step.chain.links:
            yield from link.checks
    elif isinstance(step, BilinkStep):
        yield from step.link.checks
    yield from step.checks


def _contract(name: str, check, *args) -> tuple:
    """Report entry for a certificate-wide precondition: the accepted
    value, or the error raised by ``check``."""
    try:
        return (0, name, True, str(check(*args)))
    except ValueError as exc:
        return (0, name, False, str(exc))


def verify_certificate(cert: GlicciCertificate,
                       dmax: int | None = None) -> VerificationReport:
    """Rebuild every step once with its builder, report the rebuilt
    checks, and require the stored step to equal the rebuild; failures
    become report entries, never exceptions.

    ``dmax`` overrides the stored horizon.  An invalid prime or a horizon
    below the floor fails the report before any step is replayed.
    """
    dmax = cert.dmax if dmax is None else dmax
    prime = cert.prime
    entries: list = [
        _contract("prime", check_prime, prime),
        _contract("horizon", check_horizon, cert.root, dmax),
    ]
    if not all(e[2] for e in entries):
        return VerificationReport(entries)

    # Loop state of the builders: the current ideal and, along a chain of
    # Artinian steps, the matrix (step 0 stores it; each later step drops
    # the first row of the previous one).
    cur, A = cert.root, None
    for idx, step in enumerate(cert.steps):
        entries.append((
            idx, "step-continuity", step.source == cur,
            f"expected {cur}, step stores {step.source}",
        ))
        try:
            if isinstance(step, ChainStep):
                A = step.matrix if A is None else A.drop_first_row()
            rebuilt = _rebuild(step, A, dmax, prime)
        except (LinkageError, MatrixError) as exc:
            entries.append((idx, "rebuild", False, str(exc)))
        except Exception as exc:  # replay must never crash the report
            entries.append((idx, "replay-error", False, repr(exc)))
        else:
            entries.extend(
                (idx, c.name, c.passed, c.witness) for c in _all_checks(rebuilt)
            )
            entries.append((idx, "stored-equals-rebuilt", rebuilt == step, None))
        cur = step.continuation

    if cert.leaf == "principal":
        leaf_ok = len(cur.gens) == 1 or cur.n == 1
    elif cert.leaf == "codim<=2-licci":
        leaf_ok = cur.n <= 2 or (not cur.is_zero and not cur.is_unit
                                 and height(cur) <= 2)
    else:
        leaf_ok = False
    entries.append((len(cert.steps), "leaf-validity", leaf_ok, f"leaf ideal {cur}"))
    return VerificationReport(entries)
