"""Machine-speed calibration.

The benchmark runs on shared hosts whose speed drifts with other tenants'
load: on the reference host the same fixed work ran up to 1.7 times faster
or slower from one quarter of an hour to the next, with CPU time moving as
much as wall time.  Medians over passes remove bursts shorter than a pass,
not that drift.

So each run also times a fixed slice of reference work that touches no
``viatree`` code: between ops, after every ``EVERY_S`` of op time, and
before each set-up sample.  Each op's time is scaled by ``REF_SLICE_S`` over
the median time of the ``WINDOW`` slices before it and the ``WINDOW`` after
it, and set-up's in-process part by the median of its slices, so the
figures read as seconds on the reference host (the 2-core x86 machine the
bounds were set on) and a drift that slows program and slice alike
cancels.  The window is local because the speed also swings within
seconds: around depth-8 ``deep_tree`` ops of 0.2-3.5 s, scaling each by
its own window instead of its pass's median cut the pass-to-pass spread of
their total from 0.16 to 0.12.  Raw figures are printed beside them.

The slice is three singular value decompositions of a fixed 120 x 120
matrix.  It was chosen by measurement on the reference host, timing passes
of all four workloads in turn for ten minutes while the host's speed
drifted by 1.5 to 2 times: scaling by this slice cut the pass-to-pass
spread (standard deviation of the log) from 0.20 to 0.10 for ``cli_mix``,
0.15 to 0.07 for ``entropy_mid`` and 0.11 to 0.06 for ``bessel_study``.
``deep_tree`` passes (0.16 to 0.15) follow it least.  Other slices tracked
the workloads no better: a Python loop over small NumPy rows, in its place
or mixed in, helped ``cli_mix`` by a tenth at best and hurt the others; a
pure-Python loop helped ``deep_tree`` by a tenth and hurt ``entropy_mid``
and ``bessel_study``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

EVERY_S = 0.25  # op time between two slices
WINDOW = 4  # slices on each side of an op that scale it
SETUP_SLICES = 4  # slices before each set-up sample
REF_SLICE_S = 0.010  # median slice time on the reference host
# Share of a slice's CPU time that other threads of the process may add
# before the slice no longer measures the machine alone.
OTHER_THREADS_TOLERANCE = 0.10

_MATRIX = np.random.default_rng(12345).standard_normal((120, 120))


class Speed:
    """Slice times of one phase, and the CPU time other threads of the
    process used while they ran."""

    def __init__(self):
        self.slices = []
        self.thread_cpu = 0.0
        self.process_cpu = 0.0

    def sample(self) -> None:
        c0, p0 = time.thread_time(), time.process_time()
        start = time.perf_counter()
        _reference_work()
        self.slices.append(time.perf_counter() - start)
        self.thread_cpu += time.thread_time() - c0
        self.process_cpu += time.process_time() - p0

    @property
    def factor(self) -> float:
        """Median slice time over the reference one: above 1 on a slow host."""
        return statistics.median(self.slices) / REF_SLICE_S

    def factor_around(self, n: int) -> float:
        """The factor of the ``WINDOW`` slices before the ``n``-th slice and
        the ``WINDOW`` from it on."""
        return statistics.median(self.slices[max(0, n - WINDOW):n + WINDOW]) / REF_SLICE_S

    def other_threads_ran(self) -> bool:
        return self.process_cpu > (1.0 + OTHER_THREADS_TOLERANCE) * self.thread_cpu + 1e-3


def _reference_work() -> float:
    return sum(float(np.linalg.svd(_MATRIX)[1][0]) for _ in range(3))
