"""A fixed reference load, timed between operations to follow the host's speed.

On the shared 2-vCPU host the benchmark was written on, the same operation on
the same inputs, in one process, ran at about 0.55x of its usual time for
half a minute at a stretch, and at up to 1.3x for a few seconds. That drift
is the host's, not the code's, and it is wider than any bound a benchmark
could hold. So the end-to-end run also times a pass of a fixed load every
few operations, and scales their times to a host on which one pass of the
load takes NOMINAL_NS:

    reported time = measured time * NOMINAL_NS / (median of the passes nearby)

The load does the three kinds of work the workloads spend their time in, in
about equal parts: an interpreted loop of modular integer updates into a
list (as in ``execute``), a loop of small numpy array operations (as in the
oracle) and a complex exponential over an array (as in ``plan``). Through
the drift above, where the operations' speed changed by up to 2x, the
load's kept within about 15% of theirs. Giving each workload only the part
that resembles its own operation did no better over ten runs of each
workload. The load does not call the library, so a change to the library
cannot move it. The unscaled figures and the scales are written next to
every result.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter_ns as now

import numpy as np

_LOOP = 1009
_SMALL = 17
_EXP = 4096
_TABLE = np.exp(-2j * np.pi * np.arange(_SMALL) / _SMALL)
_K = np.arange(_SMALL)


def _loop() -> None:
    phases = [0] * _LOOP
    phase, freq = 0, 17
    for k in range(1, _LOOP):
        freq = (freq - 29) % _LOOP
        phase = (phase + freq) % _LOOP
        phases[k] = phase


def _small_arrays() -> None:
    acc = np.zeros(_SMALL, dtype=np.complex128)
    comp = np.zeros(_SMALL, dtype=np.complex128)
    for n in range(_SMALL):
        y = _TABLE[n] * _TABLE[(n * _K) % _SMALL] - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t


def _exp() -> None:
    np.exp(-2j * np.pi * np.arange(_EXP) / _EXP)


def reference_load() -> None:
    _loop()
    _small_arrays()
    _exp()


# Median pass time on that host (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy
# 2.4.6) in the state it was most often in.
NOMINAL_NS = 500_000


def pass_ns() -> int:
    """Wall time of one pass of the load."""
    t0 = now()
    reference_load()
    return now() - t0


def scale(passes: int) -> float:
    """Run ``passes`` passes; the factor that turns this host's times into nominal ones."""
    return NOMINAL_NS / median(pass_ns() for _ in range(passes))
