"""Outside-in tracer for the liaison library.

The tracer wraps public functions of the ``liaison`` modules from outside
the package: no file under ``src/`` changes.  Modules import functions by
name (``from .oracle import rank_mod_p``), so installing a wrapper rebinds
every attribute of every loaded ``liaison`` module that points at the
original function, and uninstalling restores each one.

Each wrapped call records an in-memory span ``(name, start, end, parent)``
and adds to per-name call counts and self time (span time minus the time of
child spans).  Optional hooks add counters such as matrix cells.  The
spans are kept until the run ends and then dumped by the caller.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _poly_key(g: dict) -> tuple:
    return tuple(sorted(g.items()))


def _rank_hook(tracer, args, result):
    rows, cols = args[0].shape
    cells = rows * cols
    tracer.counts["oracle.rank_mod_p.cells"] += cells
    if cells > tracer.counts["oracle.rank_mod_p.max_cells"]:
        tracer.counts["oracle.rank_mod_p.max_cells"] = cells


def _degree_rows_hook(tracer, args, result):
    gens, d = args[0], args[1]
    key = (tuple(_poly_key(g) for g in gens), d) + tuple(args[2:])
    tracer.keys[None].add(key)
    if tracer.phase is not None:
        tracer.keys[tracer.phase].add(key)
    tracer.counts["oracle.degree_rows.rows"] += int(result.shape[0])


def _validate_hook(tracer, args, result):
    tracer.counts["lifting.validate_matrix.selections"] += result.selections_checked


# (span name, module, attribute, counter hook run after the call)
TARGETS = (
    ("oracle.rank_mod_p", "liaison.oracle", "rank_mod_p", _rank_hook),
    ("oracle.degree_rows", "liaison.oracle", "_degree_rows", _degree_rows_hook),
    ("oracle.containment_failure", "liaison.oracle", "containment_failure", None),
    ("oracle.ideals_equal_up_to", "liaison.oracle", "ideals_equal_up_to", None),
    ("oracle.colon_stability_failure", "liaison.oracle", "colon_stability_failure", None),
    ("oracle.graded_dim", "liaison.oracle", "graded_dim", None),
    ("oracle.hilbert_oracle", "liaison.oracle", "hilbert_oracle", None),
    ("oracle.expand", "liaison.oracle", "expand", None),
    ("lifting.validate_matrix", "liaison.lifting", "validate_matrix", _validate_hook),
    ("lifting.lift_ideal", "liaison.lifting", "lift_ideal", None),
    ("lifting.point_model", "liaison.lifting", "point_model", None),
    ("monomials.is_borel_fixed", "liaison.monomials", "is_borel_fixed", None),
    ("monomials.is_cm_borel", "liaison.monomials", "is_cm_borel", None),
    ("monomials.is_equidimensional", "liaison.monomials", "is_equidimensional", None),
    ("monomials.height", "liaison.monomials", "height", None),
    ("monomials.is_artinian", "liaison.monomials", "is_artinian", None),
    ("monomials.is_lex_segment", "liaison.monomials", "is_lex_segment", None),
    ("layers.decompose", "liaison.layers", "decompose", None),
    ("layers.hf_via_layers", "liaison.layers", "hf_via_layers", None),
    ("hilbert.hilbert_function", "liaison.hilbert", "hilbert_function", None),
    ("hilbert.hilbert_function_artinian", "liaison.hilbert", "hilbert_function_artinian", None),
    ("linkage.glicci_certificate_artinian", "liaison.linkage", "glicci_certificate_artinian", None),
    ("linkage.glicci_certificate_borel", "liaison.linkage", "glicci_certificate_borel", None),
    ("linkage.basic_double_link", "liaison.linkage", "basic_double_link", None),
    ("linkage.hypersurface_chain", "liaison.linkage", "hypersurface_chain", None),
    ("linkage.verify_certificate", "liaison.linkage", "verify_certificate", None),
    ("cli.main", "liaison.cli", "main", None),
)

# Spans opened by the benchmark around serialization, which is made of
# to_json/from_json methods plus the json module rather than functions.
EXTRA_SPANS = ("linkage.codec", "layers.codec")

SPAN_NAMES = tuple(t[0] for t in TARGETS) + EXTRA_SPANS

# Counters that are reported in total and per phase (build / verify).
PHASED = ("oracle.rank_mod_p", "oracle.degree_rows")


def liaison_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "liaison" or name.startswith("liaison."))]


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.phase_calls = defaultdict(int)  # (phase, name) -> calls
        self.keys = defaultdict(set)   # phase (None = whole run) -> degree_rows keys
        self.phase = None
        self.hook_s = 0.0
        self._stack: list = []         # [span index, time covered by children]
        self._originals: dict = {}     # id(original) -> original
        self._rebound: list = []       # (module, attribute, original)

    # -- spans --------------------------------------------------------------

    def _open(self) -> list:
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [len(self.spans), 0.0, parent]
        self.spans.append(None)
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        self.spans[frame[0]] = (name, start, end, frame[2])
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        if self.phase is not None and name in PHASED:
            self.phase_calls[(self.phase, name)] += 1
        if self._stack:
            self._stack[-1][1] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, perf_counter())

    def _hook_time(self, since: float) -> None:
        # Counter hooks are tracer overhead: keep them out of the caller's
        # self time and report them separately.
        spent = perf_counter() - since
        self.hook_s += spent
        if self._stack:
            self._stack[-1][1] += spent

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(name, frame, start, end)
            if hook is not None:
                hook(tracer, args, result)
                tracer._hook_time(end)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = liaison_modules()
        by_module = {m.__name__: m for m in modules}
        for name, modname, attr, hook in TARGETS:
            original = getattr(by_module[modname], attr)
            wrapper = self._wrap(name, original, hook)
            self._originals[id(original)] = original
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._rebound.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._rebound):
            setattr(m, key, original)
        self._rebound.clear()

    def unwrapped_aliases(self) -> list[str]:
        """``module.attribute`` names that still point at an original."""
        return [
            f"{m.__name__}.{key}"
            for m in liaison_modules()
            for key, value in vars(m).items()
            if id(value) in self._originals and value is self._originals[id(value)]
        ]

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and self times, keyed by metric name."""
        out: dict = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["oracle.rank_mod_p.cells"] = self.counts["oracle.rank_mod_p.cells"]
        out["oracle.rank_mod_p.max_cells"] = self.counts["oracle.rank_mod_p.max_cells"]
        out["oracle.degree_rows.rows"] = self.counts["oracle.degree_rows.rows"]
        distinct = len(self.keys[None])
        calls = self.calls["oracle.degree_rows"]
        out["oracle.degree_rows.distinct"] = distinct
        out["oracle.degree_rows.distinct_ratio"] = distinct / calls if calls else 0.0
        out["lifting.validate_matrix.selections"] = self.counts["lifting.validate_matrix.selections"]
        for phase in ("build", "verify"):
            for name in PHASED:
                out[f"{phase}.{name}.calls"] = self.phase_calls[(phase, name)]
            out[f"{phase}.oracle.degree_rows.distinct"] = len(self.keys[phase])
        return out

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans if s is not None})
        ids = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[ids[n], round(a, 7), round(b, 7), p]
                      for n, a, b, p in (s for s in self.spans if s is not None)],
        }
