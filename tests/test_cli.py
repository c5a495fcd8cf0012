import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from liaison import cli, oracle
from liaison.cli import main
from liaison.linkage import glicci_certificate_borel
from liaison.monomials import MonomialIdeal

SQUARE = {"schema": "ideal/1", "n": 3,
          "gens": [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                   [0, 2, 0], [0, 1, 1], [0, 0, 2]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_bounded(*argv, timeout=60):
    """``liaison *argv`` in a subprocess held to 2 GiB of address space and
    ``timeout`` seconds, so that a hang or a runaway allocation fails the
    test rather than the host: (exit code, stdout, stderr)."""
    limit = 2 << 30
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "liaison.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=timeout, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def worked_ideal(tmp_path, capsys):
    path = tmp_path / "J.json"
    code, _, _ = run(capsys, "lex-build", "--h", "1,3,6,10,4,2", "--n", "3",
                     "--out", str(path))
    assert code == 0
    return str(path)


class TestLexBuild:
    def test_worked_example(self, tmp_path, capsys):
        path = tmp_path / "J.json"
        code, out, _ = run(capsys, "lex-build", "--h", "1,3,6,10,4,2",
                           "--n", "3", "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["schema"] == "ideal/1"
        assert data["n"] == 3
        assert len(data["gens"]) == 15

    def test_maximal_ideal(self, capsys):
        code, out, _ = run(capsys, "lex-build", "--h", "1", "--n", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert sorted(data["gens"]) == [[0, 1], [1, 0]]

    def test_rejects_non_o_sequence(self, capsys):
        code, _, err = run(capsys, "lex-build", "--h", "1,2,5", "--n", "3")
        assert code == 2
        assert "bound 3 < 5 at degree 2" in err

    def test_malformed_h(self, capsys):
        code, _, err = run(capsys, "lex-build", "--h", "1,two", "--n", "3")
        assert code == 2


class TestAnalyze:
    def test_worked_example_table(self, worked_ideal, capsys):
        code, out, _ = run(capsys, "analyze", worked_ideal)
        assert code == 0
        assert "I_0" in out and "(1,2,3,4,4,2)" in out
        assert "(1,2,3)" in out and "(1,2)" in out
        assert "lex-segment: yes" in out

    def test_borel_not_lex_fixture(self, tmp_path, capsys):
        path = tmp_path / "F.json"
        path.write_text(json.dumps(
            {"schema": "ideal/1", "n": 3,
             "gens": [[3, 0, 0], [2, 1, 0], [1, 2, 0]]}
        ))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "Borel-fixed: yes" in out
        assert "lex-segment: no" in out
        assert "equidimensional: no" in out

    def test_unit_ideal_degenerate(self, tmp_path, capsys):
        path = tmp_path / "U.json"
        path.write_text(json.dumps(
            {"schema": "ideal/1", "n": 2, "gens": [[0, 0]]}
        ))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "degenerate" in out

    def test_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2


@pytest.mark.parametrize("command", ["analyze", "lift", "verify-lift",
                                     "glicci", "verify"])
def test_non_object_json_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    extra = ["--mode", "borel"] if command == "glicci" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: expected a JSON object, got list\n"


class TestLiftAndVerify:
    def test_lift_then_verify(self, worked_ideal, tmp_path, capsys):
        lifted = tmp_path / "L.json"
        code, out, _ = run(capsys, "lift", worked_ideal, "--matrix", "t:1",
                           "--seed", "7", "--out", str(lifted))
        assert code == 0
        assert "26 distinct points" in out
        code, out, _ = run(capsys, "verify-lift", str(lifted))
        assert code == 0
        assert "PASS  hilbert-difference-t1" in out
        assert "(1, 3, 6, 10, 4, 2" in out
        assert "PASS  non-degeneracy-dim-I1" in out
        assert "FAIL" not in out

    def test_bf_lift_of_maximal_ideal(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"schema": "ideal/1", "n": 2, "gens": [[1, 0], [0, 1]]}
        ))
        lifted = tmp_path / "L.json"
        code, _, _ = run(capsys, "lift", str(path), "--matrix", "bf",
                         "--out", str(lifted))
        assert code == 0
        code, out, _ = run(capsys, "verify-lift", str(lifted))
        assert code == 0

    # The default horizon of the worked lift is max generator degree 6 +
    # 4 variables; below it the difference check passed vacuously.
    @pytest.mark.parametrize("dmax", ["-1", "0", "9"])
    def test_horizon_below_floor_is_input_error(self, worked_ideal, tmp_path,
                                                 capsys, dmax):
        lifted = tmp_path / "L.json"
        run(capsys, "lift", worked_ideal, "--seed", "7", "--out", str(lifted))
        code, out, err = run(capsys, "verify-lift", str(lifted), "--dmax", dmax)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "below the floor 10" in err

    def test_bf_lift_fails_validation_at_the_working_prime(self, tmp_path, capsys):
        # The bf row-1 entry 3*x1 is zero mod 3.
        path = tmp_path / "cube.json"
        path.write_text(json.dumps(
            {"schema": "ideal/1", "n": 3,
             "gens": [[3 - a - b, a, b] for a in range(4) for b in range(4 - a)]}
        ))
        code, out, err = run(capsys, "lift", str(path), "--matrix", "bf",
                             "--prime", "3")
        assert code == 3
        assert out.startswith("matrix validation failed:\n")
        report = json.loads(out.split("\n", 1)[1])
        assert not report["ok"] and report["prime"] == 3
        assert err == ""
        code, _, _ = run(capsys, "lift", str(path), "--matrix", "bf",
                         "--prime", "32003")
        assert code == 0

    def test_too_many_selections_is_a_verification_failure(self, tmp_path, capsys):
        path = tmp_path / "powers.json"
        path.write_text(json.dumps(
            {"schema": "ideal/1", "n": 4,
             "gens": [[32 if i == j else 0 for j in range(4)] for i in range(4)]}
        ))
        code, out, err = run(capsys, "lift", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: 1048576 selections") and err.count("\n") == 1

    def test_bad_matrix_spec(self, worked_ideal, capsys):
        code, _, err = run(capsys, "lift", worked_ideal, "--matrix", "q:9")
        assert code == 2


def _rehash(data):
    """Give a lifted record the hash of its edited matrix, as if made so."""
    blob = json.dumps(data["matrix"], sort_keys=True).encode()
    data["matrix_hash"] = hashlib.sha256(blob).hexdigest()[:16]


def _reverse_columns(data):
    # Factors from the last columns of each row instead of the first ones:
    # a different ideal.
    ncols = len(data["matrix"]["rows"][0])
    for g in data["generators"]:
        g["factors"] = [[r, ncols - 1 - c] for r, c in g["factors"]]


def _edit_point(data):
    data["points"]["points"][0][0] += 1


def _edit_source(data):
    data["generators"][0]["source"] = [9, 9, 9]


def _drop_points(data):
    del data["points"]


def _factor_out_of_range(data):
    data["generators"][0]["factors"][0] = [9, 0]


def _short_form(data):
    data["matrix"]["rows"][0][0] = data["matrix"]["rows"][0][0][:2]
    _rehash(data)


def _t_zero(data):
    data["matrix"]["t"] = 0
    data["matrix"]["kind"]["t"] = 0
    _rehash(data)


class TestVerifyLiftReplay:
    """verify-lift refuses a record that is not what lift writes from the
    record's own source and matrix, and one it cannot decode."""

    @pytest.fixture
    def worked_lift(self, worked_ideal, tmp_path, capsys):
        lifted = tmp_path / "L.json"
        code, _, _ = run(capsys, "lift", worked_ideal, "--seed", "7",
                         "--out", str(lifted))
        assert code == 0
        return lifted

    @pytest.mark.parametrize("tamper,message", [
        (_reverse_columns, "in: generators"),
        (_edit_point, "in: points"),
        (_edit_source, "in: generators"),
        (_drop_points, "in: points"),
        (_factor_out_of_range, "in: generators"),
        (_short_form, "ambient_n + t = 4 coefficients"),
        (_t_zero, "ambient_n + t = 3 coefficients"),
    ], ids=["reversed-columns", "edited-point", "edited-source", "no-points",
            "factor-out-of-range", "short-form", "t-zero"])
    def test_altered_record_is_input_error(self, worked_lift, capsys,
                                           tamper, message):
        data = json.loads(worked_lift.read_text())
        tamper(data)
        worked_lift.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify-lift", str(worked_lift))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_lift_at_another_prime_verifies_at_the_default(
            self, worked_ideal, tmp_path, capsys):
        lifted = tmp_path / "L.json"
        code, _, _ = run(capsys, "lift", worked_ideal, "--seed", "7",
                         "--prime", "65537", "--out", str(lifted))
        assert code == 0
        code, out, _ = run(capsys, "verify-lift", str(lifted), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] and report["prime"] == 32003
        assert report["checks"][-1] == {
            "name": "point-model", "passed": True,
            "detail": "26 points, expected 26"}

    def test_coincident_points_are_a_verification_failure(
            self, worked_ideal, capsys):
        # Entries proportional mod 3 would give coincident points; check
        # (a) of the matrix validation finds them first.
        code, out, err = run(capsys, "lift", worked_ideal, "--prime", "3")
        assert code == 3
        assert out.startswith("matrix validation failed:\n")
        report = json.loads(out.split("\n", 1)[1])
        assert report["prime"] == 3 and report["proportional_pairs"]
        assert err == ""


# Options that a subcommand does not read are not accepted.
@pytest.mark.parametrize("argv", [
    ["lex-build", "--h", "1", "--n", "2", "--prime", "65537"],
    ["lex-build", "--h", "1", "--n", "2", "--seed", "1"],
    ["analyze", "J.json", "--prime", "65537"],
    ["analyze", "J.json", "--seed", "1"],
    ["verify-lift", "L.json", "--seed", "1"],
    ["verify", "cert.json", "--prime", "65537"],
    ["verify", "cert.json", "--seed", "1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_option_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"


class TestGlicciAndVerify:
    def test_artinian_roundtrip(self, worked_ideal, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "glicci", worked_ideal, "--mode", "artinian",
                           "--seed", "7", "--out", str(cert))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0
        assert "certificate VERIFIED" in out

    def test_borel_square(self, tmp_path, capsys):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(
            {"schema": "ideal/1", "n": 3,
             "gens": [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                      [0, 2, 0], [0, 1, 1], [0, 0, 2]]}
        ))
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "glicci", str(path), "--mode", "borel",
                           "--out", str(cert))
        assert code == 0
        assert "bilink" in out
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0

    def test_non_cm_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"schema": "ideal/1", "n": 3,
             "gens": [[3, 0, 0], [2, 1, 0], [1, 2, 0]]}
        ))
        code, _, err = run(capsys, "glicci", str(path), "--mode", "borel")
        assert code == 3
        assert "Cohen-Macaulay" in err

    @pytest.mark.parametrize("argv,env", [
        (["--prime", "4"], None),
        (["--prime", "1"], None),
        (["--dmax", "0"], None),
        ([], "abc"),
    ])
    def test_bad_prime_or_horizon_is_input_error(self, tmp_path, capsys,
                                                 monkeypatch, argv, env):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(
            {"schema": "ideal/1", "n": 3,
             "gens": [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                      [0, 2, 0], [0, 1, 1], [0, 0, 2]]}
        ))
        if env is not None:
            monkeypatch.setenv("LIAISON_PRIME", env)
        code, out, err = run(capsys, "glicci", str(path), "--mode", "borel", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tampered_certificate_rejected(self, tmp_path, capsys):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(
            {"schema": "ideal/1", "n": 3,
             "gens": [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                      [0, 2, 0], [0, 1, 1], [0, 0, 2]]}
        ))
        cert = tmp_path / "cert.json"
        run(capsys, "glicci", str(path), "--mode", "borel", "--out", str(cert))
        data = json.loads(cert.read_text())
        data["steps"][0]["link"]["divisor"]["gens"][0] = [[2, 0, 0, 1]]
        cert.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 3
        assert "REJECTED" in out

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["root"]["gens"].append([3, 0, 0]),
        lambda doc: doc["steps"][0].update(kind="nonsense"),
    ], ids=["redundant-root-generator", "unknown-step-kind"])
    def test_malformed_certificate_is_input_error(self, tmp_path, capsys, edit):
        data = glicci_certificate_borel(MonomialIdeal.from_json(SQUARE)).to_json()
        edit(data)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(cert))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed certificate: ")
        assert err.count("\n") == 1


class TestUnboundedInputs:
    """Inputs that used to hang or exhaust memory are refused at once."""

    # (x1^3000) needs 3000 distinct u-coefficients from [1, 2999] in one
    # row of its default 1-lifting matrix.
    @pytest.mark.parametrize("command", [["lift"], ["glicci", "--mode", "artinian"]])
    def test_row_wider_than_its_coefficients(self, tmp_path, command):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"schema": "ideal/1", "n": 1, "gens": [[3000]]}))
        code, out, err = run_bounded(command[0], path, *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: 3000 columns") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["glicci", "verify-lift", "worked-example"])
    def test_absurd_horizon_is_input_error(self, tmp_path, capsys, command):
        square, lifted = str(tmp_path / "sq.json"), str(tmp_path / "L.json")
        Path(square).write_text(json.dumps(SQUARE))
        run(capsys, "lift", square, "--matrix", "bf", "--out", lifted)
        argv = {"glicci": [square, "--mode", "borel"], "verify-lift": [lifted],
                "worked-example": []}[command]
        code, out, err = run_bounded(command, *argv, "--dmax", 10**6)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "columns wide" in err

    def test_absurd_horizon_is_refused_before_replay(self, tmp_path):
        data = glicci_certificate_borel(MonomialIdeal.from_json(SQUARE)).to_json()
        data["dmax"] = 10**6
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(data))
        code, out, _ = run_bounded("verify", cert)
        assert code == 3
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failing) == 1
        assert failing[0].startswith("FAIL  step 0  horizon  [horizon dmax 1000000")
        assert "step-continuity" not in out


class TestWorkedExampleCommand:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "worked-example")
        assert code == 0
        assert "26 points" in out
        assert "all golden comparisons pass" in out

    def test_prime_override_same_combinatorics(self, capsys):
        code, out, _ = run(capsys, "worked-example", "--prime", "65537", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["layer_table"] == [
            [1, 2, 3, 4, 4, 2], [1, 2, 3], [1, 2], [1]]
        assert data["points"] == 26

    def test_env_prime_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LIAISON_PRIME", "65537")
        from liaison.cli import build_parser

        args = build_parser().parse_args(["worked-example"])
        assert args.prime == 65537

    def test_coincident_points_are_a_verification_failure(self, capsys):
        code, out, err = run(capsys, "worked-example", "--prime", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("error: matrix failed validation: ")
        assert err.count("\n") == 1 and "'proportional_pairs': [(" in err

    def test_replay_recomputes_what_the_build_computed(self, capsys, monkeypatch):
        # The certificate replay shares no echelon basis with its build.
        calls = []
        real = oracle._degree_rows

        def counting(*args):
            calls.append(args[1:])
            return real(*args)

        phases = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                start = len(calls)
                result = fn(*args, **kwargs)
                phases[name] = len(calls) - start
                return result
            return wrapper

        monkeypatch.setattr(oracle, "_degree_rows", counting)
        monkeypatch.setattr(cli, "glicci_certificate_artinian",
                            counted("build", cli.glicci_certificate_artinian))
        monkeypatch.setattr(cli, "verify_certificate",
                            counted("verify", cli.verify_certificate))
        code, _, _ = run(capsys, "worked-example")
        assert code == 0
        assert phases["build"] > 0 and phases["verify"] == phases["build"]

    def test_dmax_too_small(self, capsys):
        code, _, err = run(capsys, "worked-example", "--dmax", "3")
        assert code == 3
        assert "horizon too small" in err

    @pytest.mark.parametrize("dmax", ["-1", "-3"])
    def test_negative_dmax_is_input_error(self, capsys, dmax):
        code, out, err = run(capsys, "worked-example", "--dmax", dmax)
        assert code == 2
        assert out == ""
        assert err == f"error: horizon dmax {dmax} is negative\n"

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "worked-example", "--json")
        code2, out2, _ = run(capsys, "worked-example", "--json")
        assert (code1, out1) == (code2, out2)
