"""Calibration kernel: a fixed small-matrix numpy workload that times the host.

The speed of a shared host's core switches between a fast and a 1.6x slower
state within seconds, in CPU time as much as in wall time.  The benchmark
scales every time it reports by CALIB_REF_S / (calibration time taken around
and during it), which follows that switching far less than the raw time does.
Kept in its own module so that the set-up probe's fresh interpreters can
import it after the package.
"""

import time

import numpy as np

# Median time of one ``calibrate()`` on a quiet 2-vCPU Xeon VM.
CALIB_REF_S = 0.17e-3

_rng = np.random.default_rng(12345)
_a = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_H = _a + _a.conj().T
_PSI = _rng.normal(size=8) + 1j * _rng.normal(size=8)


def calibrate(reps: int = 6) -> float:
    """Seconds for the kernel, the fastest of three tries."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            np.linalg.eigvalsh(_H)
            np.einsum("ij,jk->ik", _H, _H)
            np.outer(_PSI, _PSI.conj()).reshape(2, 4, 2, 4).trace(axis1=0, axis2=2)
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, calibrations) -> float:
    """``seconds`` at the reference speed, given the calibrations taken over that time."""
    calibrations = list(calibrations)
    return seconds * CALIB_REF_S * len(calibrations) / sum(calibrations)
