"""Self-tests of the benchmark: tracer completeness, traced == untraced,
pinned deterministic counts and sizes, gates, and BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
import types

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
WORK = run.OUT / "test-work"

# Deterministic counts of the worked example, the same at every matrix
# seed: rank calls, Macaulay-matrix builds and distinct (generators,
# degree) keys, per phase.
WORKED_COUNTS = {
    "build.oracle.rank_mod_p.calls": 802,
    "build.oracle.degree_rows.calls": 590,
    "build.oracle.degree_rows.distinct": 124,
    "verify.oracle.rank_mod_p.calls": 1830,
    "verify.oracle.degree_rows.calls": 1580,
    "verify.oracle.degree_rows.distinct": 124,
    "oracle.degree_rows.distinct": 124,
}

# output_bytes of one pass: certificate JSON on the certificate workloads.
PINNED_BYTES = {
    ("artinian-worked", 7): 20445,
    ("artinian-worked", 11): 20455,
    ("borel-sweep", 1): 195898,
    ("borel-census", 3): 267172,
    ("lift-roundtrip", 3): 56975,
}


def set_up(name, seed):
    WORK.mkdir(parents=True, exist_ok=True)
    _, lib, items = run.set_up(WORKLOADS[name], seed, WORK)
    return lib, items


def traced_and_plain(name, lib, items):
    workload = WORKLOADS[name]
    plain = run.run_pass(workload, lib, items)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(workload, lib, items, tracer)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def test_every_alias_is_wrapped_and_restored():
    lib, _ = set_up("borel-census", 0)
    original = lib.linkage.containment_failure
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_aliases() == []
        for module, name in [(lib.linkage, "containment_failure"), (lib.lifting, "rank_mod_p"),
                             (lib.lifting, "expand"), (lib.cli, "hilbert_oracle"),
                             (lib.cli, "validate_matrix"), (lib.oracle, "_degree_rows"),
                             (sys.modules["liaison"], "decompose")]:
            assert hasattr(getattr(module, name), "__wrapped__"), f"{module.__name__}.{name}"
        # A missed alias is reported.
        lib.linkage.containment_failure = original
        assert tracer.unwrapped_aliases() == ["liaison.linkage.containment_failure"]
    finally:
        tracer.uninstall()
    assert lib.linkage.containment_failure is original
    assert lib.oracle.containment_failure is original


@pytest.fixture(scope="module", params=[7, 11])
def worked(request):
    lib, items = set_up("artinian-worked", request.param)
    return (request.param,) + traced_and_plain("artinian-worked", lib, items)


def test_worked_counts_are_pinned(worked):
    _, _, _, tracer = worked
    metrics = tracer.metrics()
    assert {k: metrics[k] for k in WORKED_COUNTS} == WORKED_COUNTS


def test_worked_traced_equals_untraced(worked):
    seed, plain, traced, _ = worked
    assert plain["failures"] == traced["failures"] == []
    assert plain["outputs"] == traced["outputs"]
    assert plain["bytes"] == PINNED_BYTES[("artinian-worked", seed)]


@pytest.mark.parametrize("name,seed,count", [
    ("borel-sweep", 1, 12),
    ("borel-census", 3, 60),
    ("lift-roundtrip", 3, 5),
])
def test_traced_equals_untraced(name, seed, count):
    lib, items = set_up(name, seed)
    plain, traced, _ = traced_and_plain(name, lib, items[:count])
    assert plain["failures"] == traced["failures"] == []
    assert plain["outputs"] == traced["outputs"]


@pytest.mark.parametrize("name,seed", [("borel-census", 3), ("lift-roundtrip", 3)])
def test_output_bytes_are_pinned(name, seed):
    lib, items = set_up(name, seed)
    result = run.run_pass(WORKLOADS[name], lib, items)
    assert result["failures"] == []
    assert result["bytes"] == PINNED_BYTES[(name, seed)]


def test_sweep_certificate_bytes_are_pinned():
    lib, items = set_up("borel-sweep", 1)
    total = sum(len(json.dumps(lib.linkage.glicci_certificate_borel(J).to_json(),
                               sort_keys=True).encode()) for J in items)
    assert len(items) == 94
    assert total == PINNED_BYTES[("borel-sweep", 1)]


def test_gate_catches_a_wrong_answer(monkeypatch):
    lib, items = set_up("borel-census", 5)
    real = lib.hilbert.hilbert_function

    def off_by_one(J, dmax):
        h = real(J, dmax)
        return type(h).truncated([v + 1 for v in h.values], dmax)

    monkeypatch.setattr(lib.hilbert, "hilbert_function", off_by_one)
    result = run.run_pass(WORKLOADS["borel-census"], lib, items[:10])
    assert len(result["failures"]) == 10
    assert all("GateError" in f for f in result["failures"])


def test_benchmark_json_lists_what_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    WORK.mkdir(parents=True, exist_ok=True)
    args = types.SimpleNamespace(seed=1, seconds=0.1)
    workload = WORKLOADS["lift-roundtrip"]
    measured = run.measure(workload, args, WORK)
    assert measured["failures"] == []
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, unit) for k, (_, unit) in measured["metrics"].items()]
    assert all(value > 0 for value, _ in measured["metrics"].values())
    traced = run.trace(workload, args, WORK)
    assert traced["failures"] == []
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, unit) for k, (_, unit) in traced["metrics"].items()]


def test_refuses_to_run_without_library_source():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "borel-census",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=60, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
