"""Host speed correction for the end-to-end timings.

On a shared virtual machine the speed of the same code drifts by up to 2x:
within a second the host flips between a fast and a slow state, and the
share of time spent in each drifts over minutes.  A fixed calibration kernel
timed right before and right after an op sees the same state as the op.  An
op's corrected time is its measured time scaled by ``REFERENCE_S`` over the
mean of those two kernel times: the op's seconds on a host where the kernel
takes exactly ``REFERENCE_S``.

The kernel is the benchmark's own code and calls nothing in qschlicht, so a
change to the library moves the corrected times as much as the raw ones.
It mixes what the library spends its time on: pure-Python complex
arithmetic and small numpy calls.  The kernel runs on the calling thread, so
it cannot see a second vCPU that slows alone; a sweep op on two worker
threads that waits for such a vCPU is corrected only in part.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: the kernel time that corrected timings are scaled to (seconds)
REFERENCE_S = 1e-3

_Z = [complex(i, -i) * 1e-3 for i in range(48)]
_X = np.linspace(0.0, 1.0, 64) + 0j


def _kernel() -> complex:
    s = 0j
    for _ in range(120):
        for z in _Z:
            s = s * 0.5 + z * z
    for _ in range(60):
        s += np.convolve(_X, _X)[:64].sum()
    return s


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel times ``before`` and ``after``,
    scaled to the reference host speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
