"""The benchmark's four workloads.

Each workload makes its inputs from the benchmark seed with the library's
own constructors, then runs one *pass* over them.  A pass times two
phases per item, ``build`` (produce the artifact) and ``verify`` (check it
from its serialized form), and checks every output; a wrong output raises
``GateError``.  The library is reached through module objects looked up at
call time, so a tracer that rebinds module attributes sees every call.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import time
from pathlib import Path

perf_counter = time.perf_counter

WORKED_H = (1, 3, 6, 10, 4, 2)
GOLDEN_LAYER_H = ((1, 2, 3, 4, 4, 2), (1, 2, 3), (1, 2), (1,))
GOLDEN_POINTS = 26
GOLDEN_DMAX = 8  # horizon of the golden first-difference check
SWEEP_SIZE = 94  # CM Borel-fixed ideals with n <= 4 and degree <= 3
CENSUS_SAMPLE = 480


class GateError(Exception):
    """An output of the library is wrong."""


class Lap:
    """Phase timer shared by the items of one pass.

    With a tracer it also tags the tracer's counters with the phase and
    opens codec spans; with a calibrator it samples the host speed
    outside the timed phases.
    """

    def __init__(self, tracer=None, calibrator=None):
        self.tracer = tracer
        self.calibrator = calibrator
        self.seconds = {"build": 0.0, "verify": 0.0}

    def calibrate(self) -> None:
        if self.calibrator is not None:
            self.calibrator.maybe()

    @contextlib.contextmanager
    def phase(self, name: str):
        self.calibrate()
        if self.tracer is not None:
            self.tracer.phase = name
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - start
            if self.tracer is not None:
                self.tracer.phase = None
            self.calibrate()

    def codec(self, layer: str = "linkage"):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"{layer}.codec")


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def _warm_monomials(lib, top_degrees: dict) -> None:
    """Fill the lazy monomial tables that a first pass would otherwise
    build: {number of variables: highest degree}."""
    for n, top in top_degrees.items():
        for d in range(top + 1):
            lib.monomials.monomials_of_degree(n, d)


def _certify_and_replay(lib, lap: Lap, build):
    """Build a certificate, serialize it, then replay it from the JSON
    text alone, as ``liaison glicci`` followed by ``liaison verify``."""
    with lap.phase("build"):
        cert = build()
    with lap.codec():
        text = json.dumps(cert.to_json(), sort_keys=True)
    with lap.phase("verify"):
        with lap.codec():
            replay = lib.linkage.GlicciCertificate.from_json(json.loads(text))
        report = lib.linkage.verify_certificate(replay)
    _gate(report.ok, f"certificate not VERIFIED: {report.first_failure()}")
    return text, json.dumps(report.to_json(), sort_keys=True)


class ArtinianWorked:
    name = "artinian-worked"
    why = ("the worked example h=(1,3,6,10,4,2), n=3: a few large Macaulay "
           "matrices, so the mod-p rank kernel dominates")

    def inputs(self, lib, seed: int, workdir: Path) -> list:
        J = lib.hilbert.lex_ideal_from_hvector(lib.hilbert.HVector.artinian(WORKED_H), 3)
        # The seed is the t-lift matrix seed; 7 is the golden one.
        A = lib.lifting.default_matrix(
            3, "t-lift", seed=seed, ncols=max(J.max_gen_degree, 1), t=1)
        return [(J, A)]

    def warm_up(self, lib, items) -> None:
        J, A = items[0]
        dmax = J.max_gen_degree + J.n
        _warm_monomials(lib, {J.n: dmax + 1, A.N: dmax + 1})

    def run(self, lib, item, lap: Lap):
        J, A = item
        text, report = _certify_and_replay(
            lib, lap, lambda: lib.linkage.glicci_certificate_artinian(J, A))

        layers = tuple(tuple(h.values) for h in
                       lib.layers.layer_hvectors(lib.layers.decompose(J)))
        _gate(layers == GOLDEN_LAYER_H, f"layer table {layers}")
        points = len(lib.lifting.point_model(J, A).points)
        _gate(points == GOLDEN_POINTS, f"{points} points, want {GOLDEN_POINTS}")
        polys = lib.lifting.lift_ideal(J, A).polynomials()
        hf = lib.oracle.hilbert_oracle(polys, GOLDEN_DMAX, A.N)
        diff = lib.hilbert.difference(hf, 1).values
        want = (WORKED_H + (0,) * len(diff))[: len(diff)]
        _gate(diff == want, f"first difference {diff}, want {want}")
        return (text, report, layers, points, diff), len(text.encode())


class BorelSweep:
    name = "borel-sweep"
    why = ("all 94 CM Borel-fixed ideals with n<=4, degree<=3: thousands of "
           "small matrices and containment into monomial ideals")

    def inputs(self, lib, seed: int, workdir: Path) -> list:
        ideals = []
        for n in range(1, 5):
            for J in lib.monomials.enumerate_borel_ideals(n, 3):
                if not (J.is_zero or J.is_unit) and lib.monomials.is_cm_borel(J)[0]:
                    ideals.append(J)
        _gate(len(ideals) == SWEEP_SIZE, f"{len(ideals)} CM Borel ideals, want {SWEEP_SIZE}")
        random.Random(seed).shuffle(ideals)
        return ideals

    def warm_up(self, lib, items) -> None:
        top: dict = {}
        for J in items:
            top[J.n] = max(top.get(J.n, 0), J.max_gen_degree + J.n + 1)
        _warm_monomials(lib, top)

    def run(self, lib, J, lap: Lap):
        text, report = _certify_and_replay(
            lib, lap, lambda: lib.linkage.glicci_certificate_borel(J))
        return (text, report), len(text.encode())


def _condition_iii(lib, J) -> bool:
    c = lib.monomials.height(J)
    return (any(g.is_pure_power and g.support == (c - 1,) for g in J.gens)
            and all(max(g.support) <= c - 1 for g in J.gens))


def _condition_iv(lib, J) -> bool:
    used = max(max(g.support) for g in J.gens) + 1
    return lib.monomials.is_artinian(J.restrict(range(used)))


class BorelCensus:
    name = "borel-census"
    why = ("a seeded sample of the 9686 Borel-fixed ideals with n<=4, "
           "degree<=4: monomial, layer and Hilbert code with no oracle call")

    def inputs(self, lib, seed: int, workdir: Path) -> list:
        ideals = [J for n in range(1, 5)
                  for J in lib.monomials.enumerate_borel_ideals(n, 4)
                  if not (J.is_zero or J.is_unit)]
        # One ideal from each of CENSUS_SAMPLE equal blocks of the
        # enumeration order: neighbours there cost alike, so the cost of a
        # pass hardly depends on the seed.
        rng = random.Random(seed)
        size = len(ideals)
        return [ideals[b * size // CENSUS_SAMPLE
                       + rng.randrange((b + 1) * size // CENSUS_SAMPLE - b * size // CENSUS_SAMPLE)]
                for b in range(CENSUS_SAMPLE)]

    def warm_up(self, lib, items) -> None:
        top: dict = {}
        for J in items:
            top[J.n] = max(top.get(J.n, 0), J.max_gen_degree + 2)
        _warm_monomials(lib, top)

    def run(self, lib, J, lap: Lap):
        mono = lib.monomials
        with lap.phase("build"):
            cm, _ = mono.is_cm_borel(J)
            ii = mono.is_equidimensional(J)
            iii = _condition_iii(lib, J)
            iv = _condition_iv(lib, J)
            D = lib.layers.decompose(J)
            lex = mono.is_lex_segment(J)
        _gate(ii == iii == iv == cm, f"criterion 5 disagrees on {J}: {ii} {iii} {iv} {cm}")
        with lap.phase("verify"):
            dmax = J.max_gen_degree + 2
            direct = lib.hilbert.hilbert_function(J, dmax).values
            via = tuple(lib.layers.hf_via_layers(D, s) for s in range(dmax + 1))
        _gate(via == tuple(direct), f"layer recursion {via} != {direct} on {J}")
        with lap.codec("layers"):
            text = json.dumps(D.to_json(), sort_keys=True)
        return (cm, lex, D.alpha, text, via), len(text.encode())


def criterion8_sequences(lib) -> list:
    """The twenty differentiable O-sequences of acceptance criterion 8,
    as (n, h, t) with t cycling through 1..3."""
    out = []
    for k in range(20):
        rng = random.Random(1000 + k)
        t = k % 3 + 1
        n = 2 if t == 3 else rng.choice([2, 3])
        values = [1, n]
        for deg in range(1, 4 if t < 3 else 3):
            b = lib.hilbert.macaulay_bound(values[deg], deg)
            values.append(rng.randint(0, min(b, 5)))
            if values[-1] == 0:
                break
        while values[-1] == 0:
            values.pop()
        out.append((n, tuple(values), t))
    return out


class LiftRoundtrip:
    name = "lift-roundtrip"
    why = ("lex-build, lift and verify-lift through the CLI on 21 h-vectors, "
           "t=1..3: the oracle's dimension path with no repeated matrix")

    def inputs(self, lib, seed: int, workdir: Path) -> list:
        # The h-vectors are fixed; the seed picks each lifting matrix.
        # (Seeding the h-vectors too moved the cost of a pass by a third
        # between seeds.)
        rng = random.Random(seed)
        seqs = [(3, WORKED_H, 1)] + criterion8_sequences(lib)
        return [(n, h, t, rng.randrange(2**31), workdir / f"item{k}")
                for k, (n, h, t) in enumerate(seqs)]

    def warm_up(self, lib, items) -> None:
        top: dict = {}
        for n, h, t, _, _ in items:
            N = n + t
            top[N] = max(top.get(N, 0), len(h) + N + 1)
        _warm_monomials(lib, top)

    @staticmethod
    def _cli(lib, argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main([str(a) for a in argv])
        return code, out.getvalue() + err.getvalue()

    def run(self, lib, item, lap: Lap):
        n, h, t, mseed, stem = item
        ideal, lifted = f"{stem}-ideal.json", f"{stem}-lifted.json"
        code, text = self._cli(lib, ["lex-build", "--h", ",".join(map(str, h)),
                                     "--n", n, "--out", ideal])
        _gate(code == 0, f"lex-build exit {code}: {text}")
        with lap.phase("build"):
            code, text = self._cli(lib, ["lift", ideal, "--matrix", f"t:{t}",
                                         "--seed", mseed, "--out", lifted])
        _gate(code == 0, f"lift exit {code}: {text}")
        with lap.phase("verify"):
            code, report = self._cli(lib, ["verify-lift", lifted, "--json"])
        _gate(code == 0, f"verify-lift exit {code}: {report}")

        checks = {c["name"]: c for c in json.loads(report)["checks"]}
        diff = checks[f"hilbert-difference-t{t}"]
        # The t-th difference of the lift's Hilbert function is h, i.e.
        # the Hilbert function is partial_sum(h, t).
        got = ast.literal_eval(diff["detail"].removeprefix("difference "))
        want = (h + (0,) * len(got))[: len(got)]
        _gate(diff["passed"] and got == want, f"difference {got}, want {want}")
        data = Path(lifted).read_text()
        if t == 1:
            points = len(json.loads(data)["points"]["points"])
            _gate(points == sum(h), f"{points} points, want {sum(h)}")
        nbytes = len(Path(ideal).read_bytes()) + len(data.encode()) + len(report.encode())
        return (data, report), nbytes


WORKLOADS = {w.name: w for w in (ArtinianWorked(), BorelSweep(), BorelCensus(), LiftRoundtrip())}
