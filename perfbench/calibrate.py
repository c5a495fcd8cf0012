"""Host-speed calibration for the end-to-end timings.

On a shared host the speed of a core drifts by a third over minutes, and
all code slows down together.  A run therefore times a fixed kernel of the
benchmark's own: in blocks at its start and end, and between items
throughout.  It scales every measured time by ``NOMINAL_S / mean kernel
time`` over the whole run.  The kernel uses no library code, so a change
to the library cannot move it.  Like the library, it mixes small numpy row
operations with tuple and dict work.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

perf_counter = time.perf_counter

# Kernel time at the reference host speed (2-core Xeon VM, Python 3.11,
# numpy 2.4); calibrated times are seconds at that speed.
NOMINAL_S = 0.030
EVERY_S = 1.0  # at most one sample per second of measured work
BLOCK_S = 0.5  # length of the blocks at the start and end of a run
_PRIME = 32003
_MATRICES = [np.random.default_rng(k).integers(0, _PRIME, size=(90, 70)) for k in range(3)]


def _eliminate(M: np.ndarray) -> int:
    M = M.copy()
    r = 0
    for c in range(M.shape[1]):
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        M[[r, k]] = M[[k, r]]
        M[r] = M[r] * pow(int(M[r, c]), _PRIME - 2, _PRIME) % _PRIME
        M[r + 1:] = (M[r + 1:] - np.outer(M[r + 1:, c], M[r])) % _PRIME
        r += 1
    return r


def kernel() -> int:
    ranks = sum(_eliminate(M) for M in _MATRICES)
    table: dict = {}
    for i in range(15000):
        e = (i % 5, i % 7, i % 3, i % 11)
        table[tuple(a + b for a, b in zip(e, (1, 0, 2, 1)))] = i
    return ranks + len(table)


class Calibrator:
    """Kernel timings taken between pieces of measured work."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")
        kernel()  # the first call pays one-off numpy set-up costs

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        self._last = perf_counter()
        self.samples.append(self._last - start)

    def maybe(self) -> None:
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def block(self, seconds: float) -> None:
        end = perf_counter() + seconds
        while perf_counter() < end:
            self.sample()

    def factor(self) -> float:
        """Scale that turns measured seconds into seconds at NOMINAL_S."""
        return NOMINAL_S / statistics.fmean(self.samples)
