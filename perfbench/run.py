"""Benchmark of the liaison library, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload artinian-worked --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20

``--trace 0`` measures the end-to-end metrics: the library is set up
several times (fresh import, input generation, warm-up) and passes over
the workload's inputs repeat for about ``--seconds`` seconds; each timing
is the median over set-ups or passes, scaled by the host-speed factor of
calibrate.py.  ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics of the traced one, plus
a probe of the rank kernel.  Every output is checked; the last line of
stdout is one JSON object, and the exit code is 1 when a check failed.
See perfbench/README.md for the metrics and the workloads.
"""
from __future__ import annotations

import os

# One BLAS thread: the library is single-threaded and the timings must not
# depend on how many cores a BLAS pool finds.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from calibrate import BLOCK_S, NOMINAL_S, Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Lap  # noqa: E402

perf_counter = time.perf_counter

SETUPS = 3
MODULES = ("oracle", "lifting", "linkage", "monomials", "layers", "hilbert", "cli")
PRIME = 32003
PROBE_SHAPES = ((120, 84), (300, 165), (600, 286))
PROBE_REPS = {120: 9, 300: 7, 600: 3}

# Names shown next to each metric in the human-readable table, by workload.
ALIASES = {
    "artinian-worked": {"build_s": "glicci build", "verify_s": "verify replay",
                        "output_bytes": "cert_bytes"},
    "borel-sweep": {"build_s": "glicci build", "verify_s": "verify replay",
                    "output_bytes": "cert_bytes"},
    "borel-census": {"build_s": "census analysis", "verify_s": "census Hilbert cross-check",
                     "output_bytes": "layer decomposition JSON"},
    "lift-roundtrip": {"build_s": "lift_s", "verify_s": "verify_lift_s",
                       "output_bytes": "ideal, lifted and report JSON"},
}


class SetupError(Exception):
    """The benchmark cannot run here: no library source, or bad inputs."""


def load_library() -> types.SimpleNamespace:
    """Import the library afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "liaison" or n.startswith("liaison.")]:
        del sys.modules[name]
    pkg = importlib.import_module("liaison")
    if Path(pkg.__file__).resolve().parent != SRC / "liaison":
        raise SetupError(f"imported liaison from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"liaison.{m}") for m in MODULES})


def set_up(workload, seed: int, workdir: Path):
    start = perf_counter()
    lib = load_library()
    items = workload.inputs(lib, seed, workdir)
    workload.warm_up(lib, items)
    return perf_counter() - start, lib, items


def run_pass(workload, lib, items, tracer=None, calibrator=None) -> dict:
    lap = Lap(tracer, calibrator)
    outputs, failures, nbytes = [], [], 0
    start = perf_counter()
    for i, item in enumerate(items):
        lap.calibrate()
        try:
            out, size = workload.run(lib, item, lap)
        except Exception as exc:  # a crash is a failed item, like a wrong output
            failures.append(f"item {i}: {exc!r}")
            out, size = None, 0
        outputs.append(out)
        nbytes += size
    return {"wall": perf_counter() - start, "build": lap.seconds["build"],
            "verify": lap.seconds["verify"], "bytes": nbytes,
            "outputs": outputs, "failures": failures}


def mismatches(reference: dict, other: dict, label: str) -> list[str]:
    return [f"item {i}: {label} output differs"
            for i, (a, b) in enumerate(zip(reference["outputs"], other["outputs"]))
            if a != b and a is not None and b is not None]


def kernel_probe(lib, seed: int) -> tuple[dict, list[str]]:
    """rank_mod_p on seeded dense random matrices; returns metrics and
    failures (a dense random matrix mod p has full rank)."""
    rng = np.random.default_rng(seed)
    metrics, failures = {}, []
    for rows, cols in PROBE_SHAPES:
        M = rng.integers(0, PRIME, size=(rows, cols), dtype=np.int64)
        times, ranks = [], set()
        for _ in range(PROBE_REPS[rows]):
            start = perf_counter()
            ranks.add(lib.oracle.rank_mod_p(M, PRIME))
            times.append(perf_counter() - start)
        if ranks != {min(rows, cols)}:
            failures.append(f"probe {rows}x{cols}: ranks {sorted(ranks)}")
        metrics[f"oracle.rank_mod_p.probe_s.{rows}x{cols}"] = statistics.median(times)
        metrics[f"oracle.rank_mod_p.probe_computed_bytes.{rows}x{cols}"] = 8 * rows * cols
    return metrics, failures


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, args, workdir: Path) -> dict:
    cal = Calibrator()
    cal.block(BLOCK_S)
    setups = []
    for _ in range(SETUPS):
        seconds, lib, items = set_up(workload, args.seed, workdir)
        setups.append(seconds)
        cal.sample()
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, lib, items, calibrator=cal))
        elapsed = perf_counter() - start
        if elapsed + statistics.median(p["wall"] for p in passes) > args.seconds:
            break
    cal.block(BLOCK_S)
    failures = [f for p in passes for f in p["failures"]]
    for p in passes[1:]:
        failures += mismatches(passes[0], p, "repeated pass")
    factor = cal.factor()
    metrics = {
        "setup_s": (factor * statistics.median(setups), "s"),
        "build_s": (factor * statistics.median(p["build"] for p in passes), "s"),
        "verify_s": (factor * statistics.median(p["verify"] for p in passes), "s"),
        "output_bytes": (passes[0]["bytes"], "bytes"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {"setup_s": setups, "calibration_s": cal.samples, "factor": factor,
           "passes": [{k: p[k] for k in ("wall", "build", "verify", "bytes")} for p in passes]}
    return {"metrics": metrics, "attempted": len(items) * len(passes),
            "failures": failures, "items": len(items), "passes": len(passes), "raw": raw}


UNITS = {"calls": "count", "self_s": "s", "cells": "count", "max_cells": "count",
         "rows": "count", "distinct": "count", "distinct_ratio": "ratio",
         "selections": "count", "overhead_s": "s", "coverage": "ratio", "hook_s": "s"}


def per_layer_unit(name: str) -> str:
    if ".probe_s." in name:
        return "s"
    if ".probe_computed_bytes." in name:
        return "bytes"
    return UNITS[name.rsplit(".", 1)[1]]


def trace(workload, args, workdir: Path) -> dict:
    _, lib, items = set_up(workload, args.seed, workdir)
    plain = run_pass(workload, lib, items)
    tracer = Tracer()
    tracer.install()
    try:
        failures = [f"unwrapped alias {a}" for a in tracer.unwrapped_aliases()]
        traced = run_pass(workload, lib, items, tracer)
    finally:
        tracer.uninstall()
    failures += plain["failures"] + traced["failures"]
    failures += mismatches(plain, traced, "traced")
    probes, probe_failures = kernel_probe(lib, args.seed)
    failures += probe_failures

    values = tracer.metrics()
    values["trace.overhead_s"] = traced["wall"] - plain["wall"]
    values["trace.coverage"] = tracer.self_total() / traced["wall"]
    values["trace.hook_s"] = tracer.hook_s
    values.update(probes)
    metrics = {name: (v, per_layer_unit(name)) for name, v in values.items()}
    raw = {"untraced_wall": plain["wall"], "traced_wall": traced["wall"],
           "spans": tracer.dump()}
    return {"metrics": metrics, "attempted": 2 * len(items) + len(PROBE_SHAPES),
            "failures": failures, "items": len(items), "passes": 2, "raw": raw}


def provenance(args, result: dict) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": result["items"],
        "passes": result["passes"],
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = (trace if args.trace else measure)(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args, result)
    failed = len(result["failures"])
    aliases = ALIASES[args.workload]
    print(f"workload {args.workload}: " + ", ".join(f"{k} {v}" for k, v in prov.items()
                                                  if k not in ("workload",)))
    for name, (value, unit) in result["metrics"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<58} {value:>14.6g} {unit}{alias}")
    print(f"  {'fail_ratio':<58} {failed / result['attempted']:>14.6g} "
          f"failed/attempted ({failed}/{result['attempted']})")
    if "factor" in result["raw"]:
        print(f"  times above are calibrated: measured seconds x {result['raw']['factor']:.4f} "
              f"(calibration kernel {NOMINAL_S} s nominal)")
    for failure in result["failures"][:20]:
        print(f"  FAIL {failure}")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    record = {"provenance": prov, "failures": result["failures"], "metrics": metrics,
              "raw": result["raw"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    summary, codes = {}, []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        codes.append(proc.returncode)
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(summary))
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liaison" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'liaison'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
