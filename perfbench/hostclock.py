"""A fixed computation that measures how fast the host runs right now.

On a shared host the same work takes 0.7 to 1.4 times its usual time for
seconds to minutes at a stretch, in CPU time as much as in wall time, and
that drift is wider than the bounds the benchmark sets.  So the benchmark
times `calibrate()` between the ops it measures, in the same process, and
reports reference seconds: measured seconds x REFERENCE_S / the mean time of
those calibrations.  The calibration uses numpy the way the program does
(small matrices in a Python loop, and long vector operations) and nothing of
qchancap, so a change to the program cannot move it.
"""

import time

import numpy as np

# median time of calibrate() on the machine of the README's reference figures
REFERENCE_S = 0.040

_rng = np.random.default_rng(0)
_SMALL = [m @ m.T for m in _rng.normal(size=(64, 2, 2))]
_LONG = _rng.uniform(0.01, 1.0, size=200_000)


def calibrate() -> float:
    """Seconds the fixed computation takes now."""
    started = time.perf_counter()
    acc = 0.0
    for i in range(2400):
        acc += float(np.linalg.eigvalsh(_SMALL[i % 64])[0]) + (i * 0.5) ** 0.5
    for _ in range(24):
        acc += float((_LONG * np.log2(_LONG)).sum())
    return time.perf_counter() - started


def to_reference(seconds: float, calibrations) -> float:
    """Measured seconds scaled by the mean of the calibrations around them."""
    return seconds * REFERENCE_S * len(calibrations) / sum(calibrations)
