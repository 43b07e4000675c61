"""Reference clock for timing on a shared host.

On a host shared with other tenants the same work can take 20-40% longer
for minutes at a time, which swamps the differences a benchmark must
resolve.  A fixed calibration kernel, independent of lazystates (a pure
Python loop, small numpy eigendecompositions and products, and numpy calls
on tiny arrays: the mix the package's own small operations are made of), is
interleaved with the measured work.  Every measured time is then scaled by

    NOMINAL_S / (kernel time measured next to it)

which reads as seconds on a host where the kernel takes NOMINAL_S: the
host speed cancels while any change in lazystates shows in full.  Raw wall
times are reported beside the scaled ones.  The kernel runs between
operations, never inside the timed region.
"""

from __future__ import annotations

import bisect
import math
from time import perf_counter

import numpy as np

#: seconds one kernel pass takes on an idle host (2-vCPU Xeon, one BLAS
#: thread, numpy 2.4); a constant, so it only sets the unit
NOMINAL_S = 5.5e-4

#: seconds of measured work between two samples (about 6% overhead)
SAMPLE_EVERY_S = 0.02

_RNG = np.random.default_rng(12345)
_MATRICES = [m + m.T for m in (_RNG.standard_normal((12, 12)) for _ in range(4))]
_SMALL = [m + m.conj().T for m in (
    _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4)) for _ in range(6))]


def kernel():
    """Interpreter work, small LAPACK calls and numpy dispatch on tiny arrays."""
    acc = 0
    for i in range(2000):
        acc += i * i
    for m in _MATRICES:
        w, q = np.linalg.eigh(m)
        acc += float(((q * w) @ q.T)[0, 0])
    eye = np.eye(2)
    for h in _SMALL:
        acc += float(np.abs(np.kron(h, eye) - np.kron(eye, h)).max())
        acc += float(np.einsum("ij,ji->", h, h).real)
        acc += float(np.linalg.eigvalsh(h)[0])
    return acc


def host_speed():
    """NOMINAL_S over the faster of two kernel passes run now.

    The first pass also refills caches that a large operation just flushed,
    which would otherwise read as a slow host.
    """
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return NOMINAL_S / best


class ReferenceClock:
    """Host speed sampled between timed operations.

    `start()` takes the first sample; `after(done, elapsed)` is called once
    per timed operation and samples again when SAMPLE_EVERY_S of operation
    time has built up since the last sample.  Each operation is then
    scaled by the mean of the two samples that bracket it.
    """

    def __init__(self):
        self._marks: list[tuple[int, float]] = []  # (operations done, speed)
        self._pending_s = 0.0

    def start(self):
        if not self._marks:
            self._marks.append((0, host_speed()))

    def after(self, done, elapsed_s):
        self._pending_s += elapsed_s
        if self._pending_s >= SAMPLE_EVERY_S:
            self._marks.append((done, host_speed()))
            self._pending_s = 0.0

    def scales(self, count):
        """Factor turning each of the first `count` operations' seconds
        into reference seconds."""
        if self._marks[-1][0] < count:
            self._marks.append((count, host_speed()))
        done = [mark[0] for mark in self._marks]
        return [
            (self._marks[bisect.bisect_right(done, j) - 1][1]
             + self._marks[bisect.bisect_left(done, j + 1)][1]) / 2.0
            for j in range(count)
        ]
