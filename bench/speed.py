"""The benchmark's clock, and the correction for the host's changing speed.

Every timing the benchmark reports is CPU time of its one process,
corrected for the speed the machine had while the work ran:

    reported = cpu_seconds * REFERENCE_S / calibration_seconds

``calibration_seconds`` is the CPU time of ``calibrate()``, a fixed piece
of numpy work that does not touch fedfft, run right before and right after
each timed piece of work (their mean is used). On a small machine shared
with other tenants, the CPU time of the same work changes by up to 1.9x
within seconds, as neighbours load the host's caches and cores; the
calibration changes with it, so the ratio stays put. ``REFERENCE_S`` is the
calibration's CPU time on the reference machine (2-core Xeon, Python 3.11,
numpy 2.4.6) while nothing slowed it, so a reported figure reads as the
time the work takes there.

The calibration uses only numpy, so no change to fedfft moves it. The raw
CPU and wall seconds are kept in every run's detail line.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds of calibrate() on the reference machine, unslowed
REFERENCE_S = 0.0065
# the calibration's fixed input: K=50 clients by the 676 coordinates of a 16-32-4 MLP
_SHAPE = (50, 676)
_REPEATS = 25
_DATA = np.random.default_rng(0).normal(size=_SHAPE)


def clock() -> float:
    """CPU seconds of this process.

    The rounds run on one thread (BLAS is held to one), so on an idle
    machine this equals wall time. On a shared host it leaves out the time
    the process waits for a CPU, in the guest's run queue or stolen by the
    hypervisor, which wall time would count as the program's.
    """
    return time.process_time()


def _kernel() -> None:
    # the operations a robust rule is made of: column sorts, FFTs and
    # Gaussian-kernel sums over small arrays
    np.sort(_DATA, axis=0)
    np.fft.rfft(_DATA, axis=0)
    np.exp(-_DATA * _DATA).sum(axis=0)


def calibrate() -> float:
    """CPU seconds of the fixed calibration work, after one untimed warm-up."""
    _kernel()
    began = clock()
    for _ in range(_REPEATS):
        _kernel()
    return clock() - began


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` of CPU time at the reference speed, given the calibrations around it."""
    return seconds * 2.0 * REFERENCE_S / (before + after)
