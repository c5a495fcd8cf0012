"""Glicci certificates: the step builders of the Artinian and Borel
inductions, the certificate JSON, and the verifier.

A certificate never constructs the intermediate arithmetically Gorenstein
ideals; its meaning is that every arithmetic precondition and identity
attached to each step has been verified over F_p in every degree, by the
links and chains of ``links``.  This module alone knows the certificate's
JSON: ``_encode`` encodes every step, link, ideal and check in it.

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

from dataclasses import dataclass, fields
from functools import cache

from .layers import decompose
from .lifting import (
    LiftingMatrix,
    MatrixError,
    default_matrix_for,
    lift_ideal,
    same_document,
)
from .links import (
    BasicDoubleLink,
    Check,
    HypersurfaceChain,
    LinkageError,
    PolyIdeal,
    _require,
    basic_double_link,
    hypersurface_chain,
    proven_equal,
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
)


# --- the certificate JSON ---------------------------------------------------


@cache
def _json_keys(cls) -> tuple[str, ...]:
    """The keys of ``cls``'s documents, sorted: its fields and tags."""
    tags = {tag for tag in ("schema", "kind") if hasattr(cls, tag)}
    return tuple(sorted({f.name for f in fields(cls)} | tags))


_SCALARS = frozenset({bool, int, str, type(None)})


def _encode(value):
    """The JSON of a certificate value, every object's keys sorted, so a
    rebuilt document and one decoded from canonical text compare without
    encoding (``same_document``).  A scalar is itself; a polynomial
    (dict) gives its terms, largest first; a tuple a list; an ideal, a
    matrix or a ``StoredStep`` its own ``to_json``; any other dataclass
    one key per field, plus its ``schema`` or ``kind`` tag
    (``_json_keys``)."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, dict):
        return [[*e, c] for e, c in sorted(value.items(), reverse=True)]
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    return {k: _encode(getattr(value, k)) for k in _json_keys(type(value))}


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

@dataclass(frozen=True)
class DescentStep:
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
class GlicciCertificate:
    mode: str  # "artinian" | "borel"
    prime: int
    dmax: int
    root: MonomialIdeal
    steps: tuple[ChainStep | BilinkStep | DescentStep | StoredStep, ...]
    leaf: str  # "codim<=2-licci" | "principal"

    schema = "glicci-cert/1"

    def to_json(self) -> dict:
        return {k: _encode(getattr(self, k)) for k in _json_keys(GlicciCertificate)}

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
    checks = [Check("chain-equals-direct-lift", proven_equal(direct, chain.result), None)]
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
                            same_document(_encode(rebuilt), _encode(step)), None))
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
