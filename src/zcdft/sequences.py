"""Zadoff-Chu sequences and their linear micro-frequency-hopping (lmFH) form.

A prime-length ZC sequence is a chirp whose phase is a quadratic in the
sample index. The same waveform can be produced by accumulating the integer
frequency points of a linear hopping pattern. transform.zc_time takes the
closed form through the spectra's own gather from the table of roots
(transform._gather), and lmfh_symbol the accumulation (accumulate_phases),
as the counted spectra do; tests cross-check them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numtheory import as_int, centered, require_odd_prime


@dataclass
class OpCounters:
    """Tallies of the work done by the counted accumulation; owned by the caller.

    exp_evaluations counts the paper's p table lookups, not calls to exp
    (see transform._twiddle_factors); the name stays because zcdft bench
    and perfbench report it as a key.
    """

    additions: int = 0
    modulo_reductions: int = 0
    exp_evaluations: int = 0


@dataclass(frozen=True, init=False)
class ZcParams:
    """A ZC problem instance: prime length p, root u, cyclic shift ts.

    Validated at construction, the one place the library checks these bounds:
    p is an odd prime below 2**31, 1 <= u <= p-1 (which makes gcd(u, p) = 1
    automatic) and 0 <= ts <= p-1. Numpy integers are accepted and stored as
    Python ints.
    """

    p: int
    u: int
    ts: int = 0

    def __init__(self, p: int, u: int, ts: int = 0) -> None:
        # by hand: the generated __init__ of a frozen dataclass stores each
        # field by object.__setattr__, and one dict update costs less; an
        # exact int needs no as_int call
        p = require_odd_prime(p)
        if type(u) is not int:
            u = as_int(u, "root")
        if type(ts) is not int:
            ts = as_int(ts, "cyclic shift")
        if not 1 <= u <= p - 1:
            raise ValueError(f"root must satisfy 1 <= u <= p-1, got u={u}")
        if not 0 <= ts <= p - 1:
            raise ValueError(f"cyclic shift must satisfy 0 <= ts <= p-1, got ts={ts}")
        self.__dict__.update(p=p, u=u, ts=ts)


@dataclass(frozen=True)
class LmfhParams:
    """lmFH symbol parameters.

    s is the per-step frequency increment (slope), fs a constant frequency
    shift in bins (1/p turns per time step), po a phase offset in radians
    applied outside the 2*pi/p scaling: a finite real, stored as a float.
    """

    p: int
    s: int
    fs: int = 0
    po: float = 0.0

    def __post_init__(self) -> None:
        p = require_odd_prime(self.p)
        s = as_int(self.s, "slope")
        if s % p == 0:
            raise ValueError("slope must be nonzero modulo p")
        po = self.po
        if isinstance(po, bool) or not isinstance(po, numbers.Real) or not math.isfinite(po):
            raise ValueError(f"phase offset must be a finite real number, got {po!r}")
        fs = as_int(self.fs, "frequency shift")
        self.__dict__.update(p=p, s=s, fs=fs, po=float(po))


def lmfh_symbol(params: LmfhParams) -> np.ndarray:
    """lmFH symbol via integer accumulation of frequency points.

    L(k) = exp(i*(2*pi*S(k)/p + po)) with S(k) the mod-p running sum of the
    frequency points s*t + fs, t = 1..k, and S(0) = 0, so the shift
    introduces no extra initial phase: accumulate_phases with iu = -s mod p
    and start frequency fs. This is intentionally not the closed-form
    quadratic: the accumulation route is the cross-check against
    transform.zc_time.
    """
    p, s, fs, po = params.p, params.s, params.fs, params.po
    ang = (2.0 * np.pi / p) * accumulate_phases(p, -s % p, fs, OpCounters()) + po
    return np.exp(1j * ang)


def accumulate_phases(p: int, iu: int, fs: int, counters: OpCounters) -> np.ndarray:
    """phase_k = (k*fs - iu*T(k)) mod p by the paper's counted accumulation, k < p.

    phase starts at 0 and freq at fs; after emitting index k < p - 1,
    freq <- (freq - iu) mod p and phase <- (phase + freq) mod p: exactly
    2(p-1) additions and 2(p-1) reductions, plus the gather's p lookups.
    """
    phases = [0] * p
    phase = 0
    freq = fs
    for k in range(1, p):
        freq = (freq - iu) % p
        phase = (phase + freq) % p
        counters.additions += 2
        counters.modulo_reductions += 2
        phases[k] = phase
    counters.exp_evaluations += p
    return np.asarray(phases, dtype=np.int64)


def frequency_track(params: ZcParams) -> np.ndarray:
    """Instantaneous frequency points of the ZC waveform, in centered residues.

    f(t) = centered(-u*(t+ts), p) for t = 0..p-1: the phase increment, in
    bins, between consecutive samples of transform.zc_time. Each centered
    residue is visited exactly once because u is invertible mod p.
    """
    p, u, ts = params.p, params.u, params.ts
    return centered(-u * ((np.arange(p, dtype=np.int64) + ts) % p), p)
