"""Glicci certificates: the step builders of the Artinian and Borel
inductions, the certificate JSON, and the verifier.

A certificate never constructs the intermediate arithmetically Gorenstein
ideals; its meaning is that every arithmetic precondition and identity
attached to each step has been verified over F_p in every degree, by the
links and chains of ``links``.  This module alone knows the certificate's
JSON: ``_encode`` encodes every step, link, ideal and check in it.

A ``glicci-cert/2`` document stores the inputs of the induction (mode,
prime, root and the matrix of a chain step 0), the leaf, and one digest
per step, ``lifting._digest`` of its ``_encode``.  The builders and
``verify_certificate`` run one induction, ``_induction``; the verifier
reruns it from the inputs and requires each rebuilt step to have its
stored digest, so nothing stored is trusted, and the builder decides
where the replay stops.  A ``glicci-cert/1`` document, which stored each
step in full, enters the same replay with each step's digest.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache

from .hilbert import horizon
from .layers import decompose
from .lifting import (
    DEFAULT_PRIME,
    LiftingMatrix,
    MatrixError,
    check_prime,
    default_matrix_for,
    _digest,
    expand,
    lift_ideal,
    linear_form_poly,
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


# --- the certificate JSON ---------------------------------------------------


@cache
def _json_keys(cls) -> tuple[str, ...]:
    """The keys of ``cls``'s documents, sorted: its fields and tags."""
    tags = {tag for tag in ("schema", "kind") if hasattr(cls, tag)}
    return tuple(sorted({f.name for f in fields(cls)} | tags))


_SCALARS = frozenset({bool, int, str, type(None)})


def _encode(value):
    """The JSON of a certificate value, every object's keys sorted, as in
    its canonical text.  A scalar is itself; a polynomial (dict) gives its
    terms, largest first; a tuple a list; an ideal or a matrix its own
    ``to_json``; any other dataclass one key per field, plus its
    ``schema`` or ``kind`` tag (``_json_keys``)."""
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


def _step_digest(step) -> str:
    """What a ``glicci-cert/2`` document stores for a step: the digest of
    its canonical JSON, or the step itself if it is one already."""
    return step if type(step) is str else _digest(_encode(step))


def _decode_canonical(cls, doc, name: str):
    """The ideal or matrix ``doc`` stores, if ``doc`` is its canonical
    JSON; raises ValueError otherwise."""
    value = cls.from_json(doc)
    if not same_document(value.to_json(), doc):
        raise ValueError(f"{name} is not the canonical JSON of its {cls.__name__}")
    return value


@dataclass(frozen=True)
class GlicciCertificate:
    """A certificate as built, with its steps, or as decoded, with each
    step's digest (``_step_digest``)."""

    mode: str  # "artinian" | "borel"
    prime: int
    root: MonomialIdeal
    matrix: LiftingMatrix | None  # step 0's, if step 0 is a chain
    steps: tuple[ChainStep | BilinkStep | DescentStep | str, ...]
    leaf: str  # "codim<=2-licci" | "principal"

    schema = "glicci-cert/2"

    def to_json(self) -> dict:
        """The ``glicci-cert/2`` document, each step as its digest."""
        return {k: [_step_digest(s) for s in self.steps] if k == "steps"
                else _encode(getattr(self, k)) for k in _json_keys(GlicciCertificate)}

    @classmethod
    def from_json(cls, data: dict) -> "GlicciCertificate":
        """The certificate a ``glicci-cert/2`` or ``glicci-cert/1`` document
        stores.  A cert/1 document gives its step 0's matrix, for a chain,
        and each stored step's digest, and its ``dmax`` must be the horizon
        derived from the root.  A root or matrix that is not canonical
        JSON, a key outside the schema, steps that are not a list or, in
        cert/2, a step that is not a digest string is a ValueError."""
        legacy = data.get("schema") == "glicci-cert/1"
        if data.get("schema") != cls.schema and not legacy:
            raise ValueError(f"expected schema {cls.schema} or glicci-cert/1")
        keys = set(_json_keys(cls))
        unknown = data.keys() - (keys - {"matrix"} | {"dmax"} if legacy else keys)
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        root = _decode_canonical(MonomialIdeal, data["root"], "root")
        steps = data["steps"]
        if type(steps) is not list:
            raise ValueError("steps must be a list")
        if legacy:
            first = steps[0] if steps and type(steps[0]) is dict else {}
            matrix = first["matrix"] if first.get("kind") == "chain" else None
            steps = map(_digest, steps)
        else:
            matrix = data["matrix"]
            if any(type(step) is not str for step in steps):
                raise ValueError("a glicci-cert/2 step is stored as its digest string")
        A = None if matrix is None else _decode_canonical(LiftingMatrix, matrix, "matrix")
        if legacy and not same_document(data["dmax"], dmax := _horizon(root, A)):
            raise ValueError(f"horizon dmax {data['dmax']!r} is not {dmax}, "
                             "the horizon derived from the root")
        return cls(data["mode"], data["prime"], root, A, tuple(steps), data["leaf"])


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
    its width measured in the variables of the matrix ``A``, or J's: the
    size refusal builders and verifier run on the root before any step."""
    return horizon(J, J.n, J.n if A is None else A.N)


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
    i0_ext = i0.pad(1)
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
    i0_ext = D.layers[0].pad(1)
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
        return _build_chain_step(source, A, prime)
    if kind == "bilink":
        return _build_bilink_step(source, prime)
    if kind == "hyperplane-descent":
        return _build_hyperplane_step(source)
    return _build_cone_step(source)


def _induction(mode: str, J: MonomialIdeal, A: LiftingMatrix | None, prime: int):
    """The induction of the ``mode`` builder from J: it yields each step it
    builds, then the ideal it stops at and the leaf.  Each chain step uses
    the previous one's matrix minus its first row; a builder's error
    propagates."""
    cur, prev = J, None
    while (move := _next_move(mode, cur, prev)) in _STEP_KINDS:
        step = _build_step(move, cur, A, prime)
        yield step
        if move == "chain":
            A = A.drop_first_row()
        cur, prev = step.continuation, move
    yield cur, move


def _check_matrix(mode: str, J: MonomialIdeal, A: LiftingMatrix | None) -> bool:
    """Whether a certificate on J stores a matrix, as it must exactly when
    the ``mode`` builder starts there with a chain step; raises ValueError
    otherwise."""
    if (A is not None) != (_next_move(mode, J, None) == "chain"):
        raise ValueError("a certificate stores a matrix exactly when step 0 is a chain")
    return A is not None


def _build_certificate(mode: str, J: MonomialIdeal, A: LiftingMatrix | None,
                       prime: int) -> GlicciCertificate:
    """Collect the steps of the induction from J and its leaf, and store A
    if step 0 is a chain.  A root the mode refuses is a LinkageError; a
    root whose horizon ``horizon`` refuses as too wide, checked after it,
    is ``horizon``'s ValueError."""
    _check_root(mode, J)
    check_prime(prime)
    _horizon(J, A)
    *steps, (_, leaf) = _induction(mode, J, A, prime)
    chain = steps and steps[0].kind == "chain"
    return GlicciCertificate(mode, prime, J, A if chain else None, tuple(steps), leaf)


# --- verification -----------------------------------------------------------


@dataclass
class VerificationReport:
    entries: list  # (step index, check name, passed, witness)

    @property
    def ok(self) -> bool:
        return all(e[2] for e in self.entries)

    def first_failure(self):
        return next((e for e in self.entries if not e[2]), None)

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
    """Rerun the builder's induction from the certificate's inputs, report
    each rebuilt step's checks, and require each stored step to be the
    digest of its rebuild (``_step_digest``).  Failures become report
    entries, never exceptions.  The replay builds its own objects, so it
    reuses nothing the build computed: a chain step's expansion memo lives
    only while that step is built, and no module keeps one.

    An unknown mode, an invalid prime, a root past the size refusal of
    ``hilbert.horizon`` or one the mode's builder refuses, or a matrix
    stored other than for a chain step 0 fails the report before any step
    is replayed.  The builder decides where the replay stops, and
    ``leaf-validity`` requires as many stored steps and the same leaf.
    """
    A = cert.matrix
    entries: list = [
        _contract("mode", _check_mode, cert.mode),
        _contract("prime", check_prime, cert.prime),
        _contract("horizon", _horizon, cert.root, A),
    ]
    if entries[0][2]:  # the root's precondition depends on the mode
        entries.append(_contract("root", _check_root, cert.mode, cert.root))
    if all(e[2] for e in entries):  # and so does the builder's first move
        entries.append(_contract("matrix", _check_matrix, cert.mode, cert.root, A))
    if not all(e[2] for e in entries):
        return VerificationReport(entries)

    induction = _induction(cert.mode, cert.root, A, cert.prime)
    idx = 0
    try:
        while not isinstance(rebuilt := next(induction), tuple):
            entries.extend(
                (idx, c.name, c.passed, c.witness) for c in _all_checks(rebuilt)
            )
            stored = _step_digest(cert.steps[idx]) if idx < len(cert.steps) else None
            digest = _step_digest(rebuilt)
            entries.append((idx, "stored-equals-rebuilt", stored == digest,
                            None if stored == digest else f"stored {stored!r}, rebuilt {digest}"))
            idx += 1
        cur, leaf = rebuilt
        entries.append((
            idx, "leaf-validity", cert.leaf == leaf and len(cert.steps) == idx,
            f"at {cur} after {idx} steps: expected {leaf}, "
            f"certificate stores {cert.leaf} after {len(cert.steps)}",
        ))
    except (LinkageError, MatrixError) as exc:
        entries.append((idx, "rebuild", False, str(exc)))
    except Exception as exc:  # replay must never crash the report
        entries.append((idx, "replay-error", False, repr(exc)))
    return VerificationReport(entries)
