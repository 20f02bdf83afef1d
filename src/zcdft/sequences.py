"""Zadoff-Chu sequences and their linear micro-frequency-hopping (lmFH) form.

A prime-length ZC sequence is a chirp whose phase is a quadratic in the
sample index. The same waveform can be produced by accumulating the integer
frequency points of a linear hopping pattern; the two construction routes
are kept deliberately separate so tests can cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numtheory import as_int, centered, require_odd_prime, triangular_mod


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
        # field by object.__setattr__, and one dict update costs less
        p = require_odd_prime(p)
        u = as_int(u, "root")
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
    applied outside the 2*pi/p scaling.
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "fs", as_int(self.fs, "frequency shift"))


def zc_time(params: ZcParams) -> np.ndarray:
    """Time-domain ZC sequence Z(k) = exp(-i*pi*u*(k+ts)(k+ts+1)/p), k = 0..p-1.

    The integer numerator u*(k+ts)(k+ts+1) is reduced mod 2p before the float
    conversion, as 2*(u*T(m) mod p) with m = (k+ts) mod p and T(m) = m(m+1)/2,
    which is exact in int64 (see triangular_mod). That keeps trig arguments
    small and makes the samples exactly periodic in the index, so a cyclic
    shift is a bit-exact rotation.
    """
    p, u, ts = params.p, params.u, params.ts
    m = (np.arange(p, dtype=np.int64) + ts) % p
    num = 2 * (u * triangular_mod(m, p) % p)
    return np.exp((-1j * np.pi / p) * num.astype(np.float64))


def lmfh_symbol(params: LmfhParams) -> np.ndarray:
    """lmFH symbol via integer accumulation of frequency points.

    L(k) = exp(i*(2*pi*S(k)/p + po)) with S(k) the mod-p running sum of the
    frequency points s*t + fs', where fs' is suppressed at t = 0 so the
    shift introduces no extra initial phase. This is intentionally not the
    closed-form quadratic: the accumulation route is the cross-check against
    zc_time.
    """
    p, s, fs, po = params.p, params.s, params.fs, params.po
    phases = [0] * p
    acc = 0
    for t in range(1, p):
        acc = (acc + s * t + fs) % p
        phases[t] = acc
    ang = (2.0 * np.pi / p) * np.asarray(phases, dtype=np.float64) + po
    return np.exp(1j * ang)


def frequency_track(params: ZcParams) -> np.ndarray:
    """Instantaneous frequency points of the ZC waveform, in centered residues.

    f(t) = centered(-u*(t+ts), p) for t = 0..p-1: the phase increment, in
    bins, between consecutive samples of zc_time. Each centered residue is
    visited exactly once because u is invertible mod p.
    """
    p, u, ts = params.p, params.u, params.ts
    return centered(-u * ((np.arange(p, dtype=np.int64) + ts) % p), p)
