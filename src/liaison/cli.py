"""Command-line interface: build, analyze, lift, certify, verify.

Exit codes: 0 success, 2 bad input or out of memory, 3 verification
failure.  All outputs are deterministic functions of the arguments;
``--json`` switches stdout from human tables to machine JSON.
"""
from __future__ import annotations

import argparse
import json
import sys

from .hilbert import (
    HVector,
    NotOSequenceError,
    hilbert_function_artinian,
    lex_ideal_from_hvector,
)
from .layers import decompose, hf_via_layers, layer_hvectors
from .lifting import (
    DEFAULT_PRIME,
    InvalidMatrix,
    LiftError,
    MatrixError,
    check_prime,
    default_matrix_for,
    lift_record,
    verify_lift,
)
from .linkage import (
    GlicciCertificate,
    LinkageError,
    glicci_certificate_artinian,
    glicci_certificate_borel,
    verify_certificate,
)
from .monomials import (
    MonomialIdeal,
    NotBorelFixedError,
    height,
    is_artinian,
    is_borel_fixed,
    is_cm_borel,
    is_equidimensional,
    is_lex_segment,
    lex_segment_violation,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3


class InputError(Exception):
    pass


class VerifyError(Exception):
    pass


def _prime(text: str) -> int:
    try:
        return check_prime(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_hvector(text: str) -> HVector:
    try:
        return HVector.artinian(tuple(int(v) for v in text.split(",")))
    except ValueError as exc:
        raise InputError(f"bad h-vector {text!r}: {exc}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, an int past the digit limit, or nesting too deep
        raise InputError(f"cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _load_ideal(path: str) -> MonomialIdeal:
    data = _load_json(path)
    if data.get("schema") != "ideal/1":
        raise InputError(f"{path}: expected schema ideal/1")
    try:
        return MonomialIdeal.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed ideal: {exc}")


def _emit(args, human_lines, payload) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _fmt_h(h: HVector) -> str:
    return "(" + ",".join(str(v) for v in h.values) + ")"


# --- subcommands ------------------------------------------------------------


def cmd_lex_build(args) -> int:
    if args.n < 0:
        raise InputError(f"--n must be at least 0, got {args.n}")
    h = _parse_hvector(args.h)
    try:
        J = lex_ideal_from_hvector(h, args.n)
    except NotOSequenceError as exc:
        raise InputError(
            f"bound {exc.bound} < {exc.value} at degree {exc.degree}"
        )
    except ValueError as exc:
        raise InputError(str(exc))
    lines = [
        f"lex-segment ideal in {args.n} variables for h = {_fmt_h(h)}:",
        f"  {J}",
    ]
    _emit(args, lines, J.to_json())
    return EXIT_OK


def cmd_analyze(args) -> int:
    J = _load_ideal(args.ideal)
    lines = [f"ideal: {J}"]
    payload: dict = {"schema": "analysis/1", "ideal": J.to_json()}
    if J.is_zero or J.is_unit:
        kind = "zero" if J.is_zero else "unit"
        lines.append(f"degenerate: {kind} ideal")
        payload["degenerate"] = kind
        _emit(args, lines, payload)
        return EXIT_OK

    try:  # a numerator over NUMERATOR_LIMIT, or layers over LAYER_LIMIT
        borel = is_borel_fixed(J)
        lexseg = is_lex_segment(J)
        witness = None if lexseg else lex_segment_violation(J)
        art = is_artinian(J)
        ht = height(J)
        equi = is_equidimensional(J)
        cm = cone = None
        if borel:
            cm, cone = is_cm_borel(J)
        D = decompose(J)
    except ValueError as exc:
        raise InputError(str(exc))
    lines.append(
        f"Artinian: {'yes' if art else 'no'}, "
        f"Borel-fixed: {'yes' if borel else 'no'}, "
        f"lex-segment: {'yes' if lexseg else 'no'}"
        + (f" (witness {witness})" if witness is not None else "")
    )
    lines.append(
        f"height: {ht}, equidimensional: {'yes' if equi else 'no'}"
        + (f", CM (Borel test): {'yes' if cm else 'no'}" if borel else "")
    )
    payload.update({
        "artinian": art,
        "borel_fixed": borel,
        "lex_segment": lexseg,
        "lex_witness": list(witness.exps) if witness is not None else None,
        "height": ht,
        "equidimensional": equi,
        "cm_borel": cm,
    })

    lines.append(f"layer decomposition along x1: alpha = {D.alpha}")
    layer_json = []
    for j, (text, ideal_json, hf_json) in enumerate(D.map_runs(_layer_row)):
        lines.append(f"  I_{j}: {text}")
        layer_json.append({"index": j, "ideal": ideal_json, "h": hf_json})
    payload["layers"] = {"alpha": D.alpha, "entries": layer_json}
    _emit(args, lines, payload)
    return EXIT_OK


def _layer_row(I: MonomialIdeal) -> tuple[str, dict, dict | None]:
    """One layer's line after its index, its JSON and its h-vector's."""
    if I.is_unit:
        hf_txt, hf_json = "(unit)", None
    elif is_artinian(I):
        hv = hilbert_function_artinian(I)
        hf_txt, hf_json = _fmt_h(hv), hv.to_json()
    else:
        hf_txt, hf_json = "(not Artinian)", None
    return f"{I}  h = {hf_txt}", I.to_json(), hf_json


def _matrix_for(args, J: MonomialIdeal):
    spec = args.matrix
    if spec == "bf":
        return default_matrix_for(J, "bf")
    if spec.startswith("t:"):
        try:
            t = int(spec[2:])
        except ValueError:
            raise InputError(f"bad matrix spec {spec!r}")
        if t < 1:
            raise InputError("t must be at least 1")
        return default_matrix_for(J, "t-lift", args.seed, t)
    raise InputError(f"bad matrix spec {spec!r} (use bf or t:<t>)")


def cmd_lift(args) -> int:
    J = _load_ideal(args.ideal)
    try:
        A = _matrix_for(args, J)
        record = lift_record(J, A, prime=args.prime)
    except InvalidMatrix as exc:
        print("matrix validation failed:")
        print(json.dumps(exc.report.to_json(), indent=1, sort_keys=True))
        return EXIT_VERIFY
    except LiftError as exc:
        raise InputError(str(exc))
    except MatrixError as exc:
        raise VerifyError(str(exc))
    lines = [
        f"lifted {len(record['generators'])} generators into {A.N} variables "
        f"(matrix {A.kind}, hash {record['matrix_hash']})",
    ]
    if "points" in record:
        lines.append(f"point model: {len(record['points']['points'])} "
                     f"distinct points mod {args.prime}")
    _emit(args, lines, record)
    return EXIT_OK


def _check_lines(report: dict) -> list[str]:
    """One line per check of a ``lift-report/2``."""
    return [f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}"
            + (f"  [{c['detail']}]" if c["detail"] else "") for c in report["checks"]]


def cmd_verify_lift(args) -> int:
    try:
        report = verify_lift(_load_json(args.lifted))
    except LiftError as exc:
        raise InputError(str(exc))
    _emit(args, _check_lines(report), report)
    if not report["ok"]:
        raise VerifyError("lift verification failed")
    return EXIT_OK


def cmd_glicci(args) -> int:
    J = _load_ideal(args.ideal)
    prime = args.prime
    try:
        if args.mode == "artinian":
            A = default_matrix_for(J, "t-lift", args.seed)
            cert = glicci_certificate_artinian(J, A, prime=prime)
        else:
            cert = glicci_certificate_borel(J, prime=prime)
    except (LinkageError, NotBorelFixedError, MatrixError) as exc:
        raise VerifyError(str(exc))
    except ValueError as exc:  # too wide a lifting matrix or horizon
        raise InputError(str(exc))
    lines = [
        f"certificate: mode {cert.mode}, {len(cert.steps)} steps, "
        f"leaf {cert.leaf}, prime {cert.prime}",
    ]
    for i, step in enumerate(cert.steps):
        lines.append(f"  step {i}: {step.kind}  source {step.source}")
        for c in step.checks:
            lines.append(f"    PASS  {c.name}")
    _emit(args, lines, cert.to_json())
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        cert = GlicciCertificate.from_json(_load_json(args.cert))
    except (KeyError, TypeError, ValueError, MatrixError) as exc:
        raise InputError(f"malformed certificate: {exc}")
    report = verify_certificate(cert)
    lines = []
    for step_idx, name, passed, witness in report.entries:
        lines.append(
            f"{'PASS' if passed else 'FAIL'}  step {step_idx}  {name}"
            + (f"  [{witness}]" if witness and not passed else "")
        )
    lines.append("certificate " + ("VERIFIED" if report.ok else "REJECTED"))
    _emit(args, lines, report.to_json())
    if not report.ok:
        raise VerifyError("certificate verification failed")
    return EXIT_OK


GOLDEN_H = (1, 3, 6, 10, 4, 2)
GOLDEN_LAYER_H = ((1, 2, 3, 4, 4, 2), (1, 2, 3), (1, 2), (1,))


def cmd_worked_example(args) -> int:
    """End-to-end reproduction of the standard worked example with every
    table compared against embedded golden values.  The lift is the one
    ``lift`` writes, checked by the ``verify-lift`` checks."""
    prime = args.prime
    seed = args.seed
    diffs: list[str] = []
    lines: list[str] = []

    h = HVector.artinian(GOLDEN_H)
    J = lex_ideal_from_hvector(h, 3)
    lines.append(f"h = {_fmt_h(h)}  ->  J = {J}")
    got_h = hilbert_function_artinian(J).values
    if got_h != GOLDEN_H:
        diffs.append(f"h of J: got {got_h}, want {GOLDEN_H}")

    D = decompose(J)
    got_layers = tuple(tuple(hv.values) for hv in layer_hvectors(D))
    lines.append(f"alpha = {D.alpha}")
    for j, row in enumerate(got_layers):
        lines.append(f"  I_{j}: h = {row}")
    if got_layers != GOLDEN_LAYER_H:
        diffs.append(f"layer table: got {got_layers}, want {GOLDEN_LAYER_H}")

    shifted = tuple(hf_via_layers(D, s) for s in range(len(GOLDEN_H)))
    lines.append(f"shifted column sums: {shifted}")
    if shifted != GOLDEN_H:
        diffs.append(f"column sums: got {shifted}, want {GOLDEN_H}")

    A = default_matrix_for(J, "t-lift", seed)
    try:
        record = lift_record(J, A, prime=prime)
        lift_report = verify_lift(record)
    except (LiftError, MatrixError) as exc:
        raise VerifyError(str(exc))
    points = len(record["points"]["points"])
    lines.append(f"lift: {points} points mod {prime}")
    lines.extend(f"  {line}" for line in _check_lines(lift_report))
    diffs.extend(f"lift check {c['name']} failed"
                 for c in lift_report["checks"] if not c["passed"])

    cert = glicci_certificate_artinian(J, A, prime=prime)
    report = verify_certificate(cert)
    lines.append(
        f"certificate: {len(cert.steps)} steps, leaf {cert.leaf}, "
        f"replay {'ok' if report.ok else 'FAILED'}"
    )
    if not report.ok:
        diffs.append(f"certificate replay: {report.first_failure()}")

    payload = {
        "schema": "worked-example/3",
        "prime": prime,
        "seed": seed,
        "ok": not diffs,
        "layer_table": [list(r) for r in got_layers],
        "points": points,
        "lift_checks": lift_report["checks"],
        "certificate_steps": len(cert.steps),
        "diffs": diffs,
    }
    if diffs:
        lines.append("MISMATCHES:")
        lines.extend(f"  {d}" for d in diffs)
    else:
        lines.append("all golden comparisons pass")
    _emit(args, lines, payload)
    if diffs:
        raise VerifyError("golden comparison failed")
    return EXIT_OK


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one line with exit code 2."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liaison",
        description="Monomial ideals, liftings, and replayable linkage certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, prime=False, seed=False):
        # Each subcommand takes only the options it reads.
        if prime:
            p.add_argument("--prime", type=_prime, default=DEFAULT_PRIME)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None)

    p = sub.add_parser("lex-build", help="Artinian lex-segment ideal from an h-vector")
    p.add_argument("--h", required=True, help="comma-separated h-vector")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    common(p)
    p.set_defaults(func=cmd_lex_build)

    p = sub.add_parser("analyze", help="structure report and layer decomposition")
    p.add_argument("ideal")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lift", help="lift a monomial ideal by a matrix of linear forms")
    p.add_argument("ideal")
    p.add_argument("--matrix", default="t:1", help="bf or t:<t>")
    common(p, prime=True, seed=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify-lift", help="replay a lift, prove its Hilbert function")
    p.add_argument("lifted")
    common(p)
    p.set_defaults(func=cmd_verify_lift)

    p = sub.add_parser("glicci", help="build a linkage certificate")
    p.add_argument("ideal")
    p.add_argument("--mode", choices=("artinian", "borel"), required=True)
    common(p, prime=True, seed=True)
    p.set_defaults(func=cmd_glicci)

    p = sub.add_parser("verify", help="replay a certificate")
    p.add_argument("cert")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "worked-example",
        help="end-to-end run of the standard example against golden values",
    )
    common(p, prime=True, seed=True)
    p.set_defaults(func=cmd_worked_example)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except MemoryError as exc:
        # An input below every ceiling can still need more memory than the
        # host has; the arrays are freed once the stack has unwound.
        detail = " ".join(str(exc).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
