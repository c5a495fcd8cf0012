import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liaison import cli, lifting, links, oracle
from liaison.cli import main
from liaison.hilbert import HVector, lex_ideal_from_hvector
from liaison.lifting import default_matrix_for
from liaison.linkage import glicci_certificate_borel
from liaison.monomials import MonomialIdeal

SQUARE = {"schema": "ideal/1", "n": 3,
          "gens": [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                   [0, 2, 0], [0, 1, 1], [0, 0, 2]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_bounded(*argv, timeout=60, limit=2 << 30):
    """``liaison *argv`` in a subprocess held to ``limit`` bytes (2 GiB) of
    address space and ``timeout`` seconds, so that a hang or a runaway
    allocation fails the test rather than the host: (exit code, stdout,
    stderr)."""
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

    def test_negative_entry(self, capsys):
        code, out, err = run(capsys, "lex-build", "--h", "1,-2", "--n", "3")
        assert (code, out) == (2, "")
        assert err == "error: bad h-vector '1,-2': negative entry in (1, -2)\n"

    def test_negative_variable_count(self, capsys):
        code, out, err = run(capsys, "lex-build", "--h", "1", "--n", "-1")
        assert (code, out, err) == (2, "", "error: --n must be at least 0, got -1\n")


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


# Bytes that are not UTF-8, an integer past Python's 4300-digit limit and
# nesting past the recursion limit: each is one line and exit 2.
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"9" * 5000, b"[" * 10**5],
                         ids=["not-utf8", "long-int", "deep"])
@pytest.mark.parametrize("command", ["analyze", "lift", "verify-lift",
                                     "glicci", "verify"])
def test_unreadable_json_is_input_error(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    extra = ["--mode", "borel"] if command == "glicci" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def square_documents(tmp_path_factory):
    """SQUARE, its default lift record and its Artinian certificate, as
    the CLI writes them."""
    d = tmp_path_factory.mktemp("square")
    (d / "sq.json").write_text(json.dumps(SQUARE))
    assert main(["lift", str(d / "sq.json"), "--out", str(d / "L.json")]) == 0
    assert main(["glicci", str(d / "sq.json"), "--mode", "artinian",
                 "--out", str(d / "cert.json")]) == 0
    return {"ideal": SQUARE, "lift": json.loads((d / "L.json").read_text()),
            "cert": json.loads((d / "cert.json").read_text())}


# Where each command reads an ideal/1 and a matrix/1 document: the file it
# takes, and the path inside it to each (None: it reads no matrix).
_READS = {"analyze": ("ideal", (), None), "lift": ("ideal", (), None),
          "glicci": ("ideal", (), None),
          "verify": ("cert", ("root",), ("matrix",)),
          "verify-lift": ("lift", ("source",), ("matrix",))}

# JSON numbers that are not integers, or are out of range, where integers
# belong: (document, path in it, value).
_BAD_NUMBERS = {
    "exponent-1.5": ("ideal", ("gens", 0, 0), 1.5),
    "exponent-true": ("ideal", ("gens", 0, 0), True),
    "n-3.0": ("ideal", ("n",), 3.0),
    "n-negative": ("ideal", ("n",), -1),
    "coefficient-1.5": ("matrix", ("rows", 0, 0, 0), 1.5),
    "coefficient-true": ("matrix", ("rows", 0, 0, 0), True),
    "ambient_n-3.0": ("matrix", ("ambient_n",), 3.0),
    "t-true": ("matrix", ("t",), True),
    "seed-1.5": ("matrix", ("kind", "seed"), 1.5),
    "seed-true": ("matrix", ("kind", "seed"), True),
    "seed-string": ("matrix", ("kind", "seed"), "7"),
}


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("command,case", [
    (command, case) for case, (part, _, _) in _BAD_NUMBERS.items()
    for command, (_, _, matrix_at) in _READS.items()
    if part == "ideal" or matrix_at is not None])
def test_non_integer_number_is_input_error(square_documents, tmp_path, capsys,
                                           command, case):
    name, ideal_at, matrix_at = _READS[command]
    part, path, value = _BAD_NUMBERS[case]
    data = json.loads(json.dumps(square_documents[name]))
    target = _at(data, matrix_at if part == "matrix" else ideal_at)
    _at(target, path[:-1])[path[-1]] = value
    if command == "verify-lift" and part == "matrix":
        _rehash(data)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(data))
    extra = ["--mode", "artinian"] if command == "glicci" else []
    code, out, err = run(capsys, command, str(doc), *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_bf_lift_with_powers_of_x1(self, worked_ideal, tmp_path, capsys):
        # Row 1 of the bf matrix is x1, 2*x1, 3*x1, ...: x1^4 lifts to
        # 24*x1^4, whose own coefficient the lifting theorem needs nonzero
        # only.
        lifted = tmp_path / "L.json"
        code, _, _ = run(capsys, "lift", worked_ideal, "--matrix", "bf",
                         "--out", str(lifted))
        assert code == 0
        code, out, _ = run(capsys, "verify-lift", str(lifted), "--json")
        assert code == 0
        assert [(c["name"], c["passed"], c["detail"])
                for c in json.loads(out)["checks"]] == [
            ("matrix-validation", True, "over Z"),
            ("hilbert-difference-t0", True, "difference (1, 3, 6, 10, 4, 2)"),
            ("dimension-degree", True, "dimension 0, degree 26")]

    def test_non_groebner_generators_fail_the_hilbert_rows(self, tmp_path, capsys):
        # The entry 32003*x1 + x2 + 3u vanishes off x2 mod 32003 only: the
        # record is what `lift` makes, but no lifting over Z, and the
        # generator x1*x2 leads with x1^2 over Q.  Every row fails, and the
        # exit code is a verification failure's.
        rows = [[[1, 0, 1], [1, 0, 2]], [[32003, 1, 3], [0, 1, 5]]]
        A = lifting.LiftingMatrix.from_json(
            {"schema": "matrix/1", "kind": {"t": 1, "seed": None}, "ambient_n": 2,
             "t": 1, "rows": rows})
        J = MonomialIdeal.from_json({"schema": "ideal/1", "n": 2,
                                     "gens": [[2, 0], [1, 1], [0, 2]]})
        lifted = tmp_path / "L.json"
        lifted.write_text(json.dumps(lifting.lift_record(J, A)))
        code, out, _ = run(capsys, "verify-lift", str(lifted), "--json")
        assert code == 3
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks if c["passed"]] == []
        failed = {c["name"]: c["detail"] for c in checks}
        assert failed == dict.fromkeys(
            ["matrix-validation", "hilbert-difference-t1", "non-degeneracy-dim-I1",
             "dimension-degree"],
            "row 2, column 1 has no lifting's shape over Z")

    def test_lift_of_an_ideal_with_a_linear_generator(self, tmp_path, capsys):
        # x1 lifts to one linear form, so h(1) is N - 1 = 2, not N.
        path, lifted = tmp_path / "J.json", tmp_path / "L.json"
        path.write_text(json.dumps({"schema": "ideal/1", "n": 2, "gens": [[1, 0], [0, 2]]}))
        code, _, _ = run(capsys, "lift", str(path), "--matrix", "t:1", "--seed", "7",
                         "--out", str(lifted))
        assert code == 0
        code, out, _ = run(capsys, "verify-lift", str(lifted), "--json")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["non-degeneracy-dim-I1"] == {
            "name": "non-degeneracy-dim-I1", "passed": True, "detail": ""}

    def test_lift_past_its_socle_degree(self, tmp_path, capsys):
        # (x1^5, x2^5) has socle degree 8, past max generator degree 5: the
        # difference reaches it, and the lift's Hilbert function settles at
        # the 25 points.
        path, lifted = tmp_path / "J.json", tmp_path / "L.json"
        path.write_text(json.dumps({"schema": "ideal/1", "n": 2,
                                    "gens": [[5, 0], [0, 5]]}))
        code, _, _ = run(capsys, "lift", str(path), "--out", str(lifted))
        assert code == 0
        code, out, _ = run(capsys, "verify-lift", str(lifted), "--json")
        assert code == 0
        checks = {c["name"]: (c["passed"], c["detail"]) for c in json.loads(out)["checks"]}
        assert checks["hilbert-difference-t1"] == (True, "difference (1, 2, 3, 4, 5, 4, 3, 2, 1)")
        assert checks["dimension-degree"] == (True, "dimension 1, degree 25")

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

    # A point model of more than POINT_LIMIT points: the 3-variable
    # 60-cube, the 4-variable 31-cube and 32-cube.  `lift` refuses the
    # ideal, and `verify-lift` a lifted ideal made without its points,
    # each before building any point.
    def test_too_many_points_is_input_error(self, tmp_path, capsys):
        for n, e, points in [(3, 60, 216000), (4, 31, 923521), (4, 32, 1048576)]:
            gens = [[e if i == j else 0 for j in range(n)] for i in range(n)]
            path, lifted = tmp_path / "powers.json", tmp_path / "L.json"
            path.write_text(json.dumps({"schema": "ideal/1", "n": n, "gens": gens}))
            J = MonomialIdeal.from_json(json.loads(path.read_text()))
            lifted.write_text(json.dumps(lifting.lift_ideal(
                J, lifting.default_matrix_for(J, "t-lift")).to_json()))
            message = (f"error: {points} points in the point model, more than "
                       "POINT_LIMIT = 80000\n")
            for argv in (["lift", str(path)], ["verify-lift", str(lifted)]):
                start = time.perf_counter()
                assert run(capsys, *argv) == (2, "", message)
                assert time.perf_counter() - start < 1, argv

    @pytest.mark.parametrize("matrix", ["t:1", "t:2", "bf"])
    def test_lift_takes_no_rank(self, worked_ideal, capsys, monkeypatch, matrix):
        argv = ("lift", worked_ideal, "--seed", "7", "--matrix", matrix)
        want = run(capsys, *argv)
        assert want[0] == 0

        def no_rank(*args):
            raise AssertionError("rank taken")

        monkeypatch.setattr(oracle, "rank_mod_p", no_rank)
        assert run(capsys, *argv) == want

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

    def test_matrix_seed_edited_is_input_error(self, tmp_path, capsys):
        # The default lift of (x1, x2, x3)^2 draws its matrix from seed 0.
        path, lifted = tmp_path / "sq.json", tmp_path / "L.json"
        path.write_text(json.dumps(SQUARE))
        code, _, _ = run(capsys, "lift", str(path), "--out", str(lifted))
        assert code == 0
        data = json.loads(lifted.read_text())
        assert data["matrix"]["kind"] == {"t": 1, "seed": 0}
        data["matrix"]["kind"]["seed"] = 8
        _rehash(data)
        lifted.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify-lift", str(lifted))
        assert code == 2
        assert out == ""
        assert err == ("error: malformed lifted ideal: row 1, column 1 differs "
                       "from the default t-lift matrix of seed 8\n")

    def test_lift_at_another_prime_verifies_at_the_default(
            self, worked_ideal, tmp_path, capsys):
        lifted = tmp_path / "L.json"
        code, _, _ = run(capsys, "lift", worked_ideal, "--seed", "7",
                         "--prime", "65537", "--out", str(lifted))
        assert code == 0
        code, out, _ = run(capsys, "verify-lift", str(lifted), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] and json.loads(lifted.read_text())["points"]["prime"] == 65537
        assert report["checks"][-1] == {
            "name": "dimension-degree", "passed": True,
            "detail": "dimension 1, degree 26"}

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
    # A lift is verified exactly: its points at the prime it records.
    ["verify-lift", "L.json", "--prime", "65537"],
    ["verify", "cert.json", "--prime", "65537"],
    ["verify", "cert.json", "--seed", "1"],
    # The horizon is derived from the ideal, never chosen.
    ["glicci", "J.json", "--mode", "borel", "--dmax", "9"],
    ["verify", "cert.json", "--dmax", "9"],
    ["verify-lift", "L.json", "--dmax", "9"],
    ["worked-example", "--dmax", "9"],
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

    def test_unit_root_in_no_variables(self, tmp_path, capsys):
        # The root check comes before the horizon, as for every unit root;
        # replay derives the horizon 0 of the ring with no variables.
        path, cert = tmp_path / "one.json", tmp_path / "cert.json"
        root = {"schema": "ideal/1", "n": 0, "gens": [[]]}
        path.write_text(json.dumps(root))
        code, out, err = run(capsys, "glicci", str(path), "--mode", "borel")
        assert (code, out, err) == (3, "", "error: root ideal must be proper and nonzero\n")
        data = glicci_certificate_borel(MonomialIdeal.from_json(SQUARE)).to_json()
        data.update(root=root, steps=[], leaf="principal")
        cert.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 3
        assert out.splitlines()[2:] == [
            "PASS  step 0  horizon",
            "FAIL  step 0  root  [root ideal must be proper and nonzero]",
            "certificate REJECTED"]

    @pytest.mark.parametrize("prime", ["4", "1"])
    def test_bad_prime_is_input_error(self, tmp_path, capsys, prime):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(
            {"schema": "ideal/1", "n": 3,
             "gens": [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                      [0, 2, 0], [0, 1, 1], [0, 0, 2]]}
        ))
        code, out, err = run(capsys, "glicci", str(path), "--mode", "borel",
                             "--prime", prime)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # At max generator degree + 3 these roots' Hilbert functions had not
    # settled: their socle degrees are 12 and 7.
    @pytest.mark.parametrize("gens", [
        [[5, 0, 0], [0, 5, 0], [0, 0, 5]],
        [[4, 0, 0], [0, 4, 0], [0, 0, 2]],
    ], ids=["x1^5,x2^5,x3^5", "x1^4,x2^4,x3^2"])
    def test_artinian_root_past_its_socle_degree(self, tmp_path, capsys, gens):
        path, cert = tmp_path / "J.json", tmp_path / "cert.json"
        path.write_text(json.dumps({"schema": "ideal/1", "n": 3, "gens": gens}))
        code, _, _ = run(capsys, "glicci", str(path), "--mode", "artinian",
                         "--out", str(cert))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0
        assert "certificate VERIFIED" in out

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
        data["steps"][0] = data["steps"][1]
        cert.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 3
        assert "FAIL  step 0  stored-equals-rebuilt  [stored '" in out
        assert "REJECTED" in out

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["root"]["gens"].append([3, 0, 0]),
        lambda doc: doc["steps"].__setitem__(0, {"kind": "nonsense"}),
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

    # A bf matrix has one column per degree of the largest generator:
    # (x1, x2^(2^40)) would need 2^40 of them, refused before any is built.
    def test_bf_matrix_wider_than_its_limit(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"schema": "ideal/1", "n": 2, "gens": [[1, 0], [0, 2**40]]}))
        message = f"error: {2**40} columns in a bf matrix, more than BF_COLUMN_LIMIT = 100000\n"
        assert run_bounded("lift", path, "--matrix", "bf", timeout=10) == (2, "", message)
        start = time.perf_counter()  # in-process, now that it is refused
        assert run(capsys, "lift", str(path), "--matrix", "bf") == (2, "", message)
        assert time.perf_counter() - start < 1

    # The rows of the t = 10^7 lifting matrix of (x1^2, x2) would hold
    # 4·10^7 coefficients: refused before any is drawn, and before 2999^t.
    def test_t_lift_matrix_over_its_coefficient_limit(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"schema": "ideal/1", "n": 2, "gens": [[2, 0], [0, 1]]}))
        message = ("error: 40000008 coefficients in a t-lift matrix, more than "
                   "COEFFICIENT_LIMIT = 1000000\n")
        start = time.perf_counter()
        assert run(capsys, "lift", str(path), "--matrix", "t:10000000") == (2, "", message)
        assert time.perf_counter() - start < 1

    # The bf matrix of (x1, x2, x3, x4^100000) has BF_COLUMN_LIMIT columns,
    # but its 4 rows of forms in 4 variables would hold 1.6·10^6
    # coefficients: refused before any row is built.
    def test_bf_matrix_over_its_coefficient_limit(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"schema": "ideal/1", "n": 4, "gens": _powers(4, 1)[:3]
                                    + [[0, 0, 0, 100000]]}))
        message = ("error: 1600000 coefficients in a bf matrix, more than "
                   "COEFFICIENT_LIMIT = 1000000\n")
        start = time.perf_counter()
        assert run(capsys, "lift", str(path), "--matrix", "bf") == (2, "", message)
        assert time.perf_counter() - start < 1

    # A horizon derived from an ideal of high degree: 119 in 4 variables
    # for the certificate of (x1^40, x2^40, x3^40).
    @pytest.mark.parametrize("command", ["glicci"])
    def test_absurd_horizon_is_input_error(self, tmp_path, command):
        cube = tmp_path / "cube.json"
        cube.write_text(json.dumps(
            {"schema": "ideal/1", "n": 3, "gens": [[40, 0, 0], [0, 40, 0], [0, 0, 40]]}))
        code, out, err = run_bounded(command, cube, "--mode", "artinian")
        assert (code, out) == (2, "")
        assert err.startswith("error: horizon dmax ") and err.count("\n") == 1
        assert "columns wide" in err

    # (x1^400000, x2^3) has 400 001 layers along x1, and the time and memory
    # of building them grow linearly with the exponent: refused before any.
    def test_more_layers_than_the_limit_is_input_error(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"schema": "ideal/1", "n": 2, "gens": [[400000, 0], [0, 3]]}))
        code, out, err = run_bounded("analyze", path, timeout=10)
        assert (code, out) == (2, "")
        assert err == "error: 400001 layers along x1, more than LAYER_LIMIT = 100000\n"

    # A generator of huge degree would need a Hilbert-series numerator of
    # more coefficients than NUMERATOR_LIMIT: refused before any list is
    # allocated, and `verify` rejects such a root at its horizon.
    @pytest.mark.parametrize("command,exponent", [
        (["analyze"], 2**64), (["glicci", "--mode", "borel"], 2**64),
        (["analyze"], 2**40), (["verify"], 2**70)])
    def test_huge_exponent_is_refused(self, tmp_path, command, exponent):
        doc = {"schema": "ideal/1", "n": 2, "gens": [[0, exponent], [1, 0]]}
        if command == ["verify"]:  # a certificate whose root is that ideal
            cert = glicci_certificate_borel(MonomialIdeal.from_json(SQUARE))
            doc = dict(cert.to_json(), root=doc)
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_bounded(command[0], path, *command[1:], timeout=20)
        assert err.count("\n") == 1 and "Traceback" not in err
        if command == ["verify"]:
            assert code == 3 and out.endswith("certificate REJECTED\n")
            assert (f"FAIL  step 0  horizon  [{exponent + 2} Hilbert-series numerator "
                    "coefficients, more than NUMERATOR_LIMIT = 1000000]") in out
        else:
            assert (code, out) == (2, "")
            assert err == (f"error: {exponent + 2} Hilbert-series numerator coefficients, "
                           "more than NUMERATOR_LIMIT = 1000000\n")

    def test_long_numerator_below_the_limit_is_analyzed(self, tmp_path):
        # (x1^99999, x2^3): 100 000 layers and a numerator of 100 003
        # coefficients, both inside their limits.
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"schema": "ideal/1", "n": 2, "gens": [[99999, 0], [0, 3]]}))
        code, out, err = run_bounded("analyze", path, timeout=20)
        assert (code, err) == (0, "")
        assert out.endswith("  I_99999: (1)  h = (unit)\n")

    def test_out_of_memory_is_input_error(self, tmp_path, capsys, monkeypatch):
        # An input below every ceiling can still need more memory than the
        # host has: the MemoryError is exit 2 and one line.
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate 1 GiB")

        square = tmp_path / "square.json"
        square.write_text(json.dumps(SQUARE))
        monkeypatch.setattr(cli, "glicci_certificate_borel", exhausted)
        code, out, err = run(capsys, "glicci", str(square), "--mode", "borel")
        assert (code, out, err) == (2, "", "error: out of memory: cannot allocate 1 GiB\n")

    # The Macaulay matrices of the horizon of (x1^25, x2^25, x3^25), 74, did
    # not fit in memory; its checks read closed forms and factor lists, and
    # `glicci` and `verify` take about 1.2 s each (2-core x86-64 host).  Its
    # certificate stores the root, the matrix and one digest: under 4 KB.
    @pytest.mark.parametrize("e", [8, 25])
    def test_cube_certifies_and_verifies(self, tmp_path, e):
        cube, cert = tmp_path / "cube.json", tmp_path / "cert.json"
        cube.write_text(json.dumps(
            {"schema": "ideal/1", "n": 3, "gens": [[e, 0, 0], [0, e, 0], [0, 0, e]]}))
        code, _, err = run_bounded("glicci", cube, "--mode", "artinian", "--out", cert,
                                   timeout=60, limit=1 << 30)
        assert (code, err) == (0, "") and cert.stat().st_size < 4096
        code, out, err = run_bounded("verify", cert, timeout=60, limit=1 << 30)
        assert (code, err) == (0, "") and "FAIL" not in out

    # The t = 2 lift of (x1, x2, x3)^8 has 45 generators: Buchberger's
    # criterion over Z took 13 to 15 s on them (2-core x86-64 host), the
    # lifting theorem reduces no S-pair.
    def test_verify_lift_of_a_power_of_the_maximal_ideal(self, tmp_path, capsys):
        power, lifted = str(tmp_path / "m8.json"), str(tmp_path / "L.json")
        gens = [[a, b, 8 - a - b] for a in range(9) for b in range(9 - a)]
        Path(power).write_text(json.dumps({"schema": "ideal/1", "n": 3, "gens": gens}))
        code, _, _ = run(capsys, "lift", power, "--matrix", "t:2", "--out", lifted)
        assert code == 0
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify-lift", lifted)
        elapsed = time.perf_counter() - start
        assert code == 0 and "FAIL" not in out
        assert elapsed < 1, f"verify-lift took {elapsed:.2f} s"

    # A certificate of (x1^40, x2^40, x3^40), which `glicci` refuses at its
    # horizon, stores no step: `verify` refuses the root before any.
    def test_absurd_horizon_is_refused_before_replay(self, tmp_path):
        cube = MonomialIdeal.from_json({"schema": "ideal/1", "n": 3, "gens": _powers(3, 40)})
        data = {"leaf": "codim<=2-licci", "matrix": default_matrix_for(cube, "t-lift").to_json(),
                "mode": "artinian", "prime": 32003, "root": cube.to_json(),
                "schema": "glicci-cert/2", "steps": []}
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(data))
        code, out, _ = run_bounded("verify", cert)
        assert code == 3
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failing) == 1
        assert failing[0].startswith("FAIL  step 0  horizon  [horizon dmax 119 ")
        assert "leaf-validity" not in out


def _powers(n, e):
    return [[e if i == j else 0 for j in range(n)] for i in range(n)]


_WORKED = [list(g.exps)
           for g in lex_ideal_from_hvector(HVector.artinian((1, 3, 6, 10, 4, 2)), 3).gens]
_CUBIC = [[3 - a - b, a, b] for a in range(4) for b in range(4 - a)]
_M8 = [[a, b, 8 - a - b] for a in range(9) for b in range(9 - a)]

# Every ideal that tier-1 and CI lift, with the options, and the exit code
# of `lift`: 0 (its record must verify), 2 (an input over a limit) or 3
# (a matrix that fails validation at the prime).
LIFT_INPUTS = {
    "worked-t1": (_WORKED, ["--matrix", "t:1", "--seed", "7"], 0),
    "worked-t1-65537": (_WORKED, ["--seed", "7", "--prime", "65537"], 0),
    "worked-t1-prime-3": (_WORKED, ["--prime", "3"], 3),
    "worked-t2": (_WORKED, ["--matrix", "t:2", "--seed", "7"], 0),
    "worked-bf": (_WORKED, ["--matrix", "bf"], 0),
    "worked-t10000000": (_WORKED, ["--matrix", "t:10000000"], 2),
    "square": (SQUARE["gens"], [], 0),
    "maximal-bf": ([[1, 0], [0, 1]], ["--matrix", "bf"], 0),
    "linear-generator": ([[1, 0], [0, 2]], ["--matrix", "t:1", "--seed", "7"], 0),
    "past-the-socle": ([[5, 0], [0, 5]], [], 0),
    "cubic-bf": (_CUBIC, ["--matrix", "bf"], 0),
    "cubic-bf-prime-3": (_CUBIC, ["--matrix", "bf", "--prime", "3"], 3),
    "m8-t2": (_M8, ["--matrix", "t:2"], 0),
    "x1-x2^2-t7500": ([[2, 0], [0, 1]], ["--matrix", "t:7500", "--seed", "7"], 0),
    "x1-x2^2-t249998": ([[2, 0], [0, 1]], ["--matrix", "t:249998", "--seed", "7"], 0),
    "wide-bf": ([[200, 0, 0, 0]], ["--matrix", "bf"], 0),
    "bf-over-its-columns": ([[1, 0], [0, 2**40]], ["--matrix", "bf"], 2),
    "bf-at-its-columns": ([[1, 0], [0, 100000]], ["--matrix", "bf"], 0),
    "4-bf-over-its-coefficients": (_powers(4, 1)[:3] + [[0, 0, 0, 100000]], ["--matrix", "bf"], 2),
    "x1^3000": ([[3000]], [], 2),
    "cube-31": (_powers(3, 31), [], 0),
    "cube-60": (_powers(3, 60), [], 2),
    "4-cube-31": (_powers(4, 31), [], 2),
}


@pytest.mark.parametrize("case", LIFT_INPUTS)
def test_every_lift_verifies(tmp_path, capsys, case):
    gens, options, want = LIFT_INPUTS[case]
    path, lifted = tmp_path / "J.json", tmp_path / "L.json"
    path.write_text(json.dumps({"schema": "ideal/1", "n": len(gens[0]), "gens": gens}))
    code, out, err = run(capsys, "lift", str(path), *options, "--out", str(lifted))
    assert code == want, err
    if want == 2:
        assert (out, err.count("\n")) == ("", 1) and err.startswith("error: ")
    if want == 0:
        code, out, err = run(capsys, "verify-lift", str(lifted))
        assert (code, err) == (0, "") and "FAIL" not in out


class TestWorkedExampleCommand:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "worked-example")
        assert code == 0
        assert "26 points" in out
        assert "all golden comparisons pass" in out

    @pytest.mark.parametrize("prime", ["32003", "65537"])
    def test_lift_checks_are_the_verify_lift_checks(self, worked_ideal, tmp_path,
                                                     capsys, prime):
        lifted = tmp_path / "L.json"
        code, _, _ = run(capsys, "lift", worked_ideal, "--seed", "0",
                         "--prime", prime, "--out", str(lifted))
        assert code == 0
        code, out, _ = run(capsys, "verify-lift", str(lifted), "--json")
        assert code == 0
        checks = json.loads(out)["checks"]
        code, out, _ = run(capsys, "worked-example", "--prime", prime, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "worked-example/3" and data["ok"]
        assert data["lift_checks"] == checks
        assert [c["name"] for c in checks] == [
            "matrix-validation", "hilbert-difference-t1", "non-degeneracy-dim-I1",
            "dimension-degree"]

    def test_prime_override_same_combinatorics(self, capsys):
        code, out, _ = run(capsys, "worked-example", "--prime", "65537", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["layer_table"] == [
            [1, 2, 3, 4, 4, 2], [1, 2, 3], [1, 2], [1]]
        assert data["points"] == 26

    def test_coincident_points_are_a_verification_failure(self, capsys):
        code, out, err = run(capsys, "worked-example", "--prime", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("error: matrix failed validation: ")
        assert err.count("\n") == 1 and "'proportional_pairs': [(" in err

    def test_replay_recomputes_what_the_build_computed(self, capsys, monkeypatch):
        # The certificate replay proves the initial ideals of ideals of its
        # own, as many as its build, and neither builds a Macaulay matrix.
        calls = []
        real = links.PolyIdeal._prove

        def counting(ideal, *args):
            calls.append(ideal)
            return real(ideal, *args)

        def refuse(*args):
            raise AssertionError("a Macaulay matrix was built")

        phases = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                start = len(calls)
                result = fn(*args, **kwargs)
                phases[name] = len(calls) - start
                return result
            return wrapper

        monkeypatch.setattr(links.PolyIdeal, "_prove", counting)
        monkeypatch.setattr(oracle, "_degree_rows", refuse)
        monkeypatch.setattr(cli, "glicci_certificate_artinian",
                            counted("build", cli.glicci_certificate_artinian))
        monkeypatch.setattr(cli, "verify_certificate",
                            counted("verify", cli.verify_certificate))
        code, _, _ = run(capsys, "worked-example")
        assert code == 0
        assert phases["build"] > 0 and phases["verify"] == phases["build"]
        assert len({id(i) for i in calls}) == len(calls)

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "worked-example", "--json")
        code2, out2, _ = run(capsys, "worked-example", "--json")
        assert (code1, out1) == (code2, out2)
