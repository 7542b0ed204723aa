"""The host's current speed, measured with a fixed kernel between ops.

The benchmark runs on a few cores of a shared host whose speed changes
by a third and more within seconds and between minutes, so wall-clock times of the
same code move with the host.  The worker therefore runs a short, fixed
calibration kernel every ``EVERY_S`` seconds of the loop, and reports every
time multiplied by ``REF_KERNEL_S / kernel time``: the time the op would
take on a host that runs the kernel in ``REF_KERNEL_S``.  The kernel is
code of this directory, never of ``lqglm``, so a change to the library
moves the reported times in full while a change of the host's speed
cancels out.

The kernel mixes the two kinds of work the workloads do: small numpy
operations with their per-call overhead (a Poisson IRLS on n = 400, three
covariates) and plain interpreter work (a scalar loop).
"""

import math
import statistics
from time import perf_counter

import numpy as np

# Kernel time of the host the benchmark was written on, in a calm hour
# (2 cores, CPython 3.11.7, numpy 2.4.6).  Only the ratio to it matters.
REF_KERNEL_S = 0.5e-3
# Seconds of the loop between two calibration blocks, and kernel runs in a
# block (the block reports their median).  The host switches speed within a
# second, so blocks a quarter second apart left op_ms_p90 of ten runs
# spreading by 0.10-0.14 of its median; 50 ms apart, 0.07-0.08.
EVERY_S = 0.05
BLOCK = 7

_rng = np.random.default_rng(20240804)
_X = _rng.uniform(size=(400, 3))
_Y = _rng.poisson(np.exp(_X @ np.array([0.5, 0.5, 0.5]))).astype(float)


def kernel():
    """A fixed amount of numpy and interpreter work (about 0.5 ms)."""
    b = np.zeros(3)
    for _ in range(6):
        mu = np.exp(_X @ b)
        z = _X @ b + (_Y - mu) / mu
        xtw = _X.T * mu
        b = np.linalg.solve(xtw @ _X, xtw @ z)
    s = 0.0
    for i in range(1500):
        s += math.log1p(i * 0.5) * (i & 7)
    return b, s


def sample(reps=BLOCK):
    """Median seconds of ``reps`` kernel runs."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def warm_up():
    for _ in range(20):
        kernel()
