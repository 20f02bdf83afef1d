"""Brute-force ground truth used to validate every fast path.

These are test-only reference implementations: quadratic-time transforms
with compensated summation, the ZC samples from their unreduced defining
integer, direct summation of the Gauss constant, and the index-remapping
identity, the one O(p) reference for the DFT and IDFT of a cyclically
shifted sequence, for differential testing against both the fast path and
the quadratic-time transforms.
Accuracy beats speed here on purpose; the oracle must be at least as
accurate as the device under test.
"""

from __future__ import annotations

import math

import numpy as np

from .gauss import gauss_sum_closed
from .numtheory import mod_inverse
from .sequences import ZcParams, zc_time
from .transform import DFT, require_direction


def _compensated_transform(x: np.ndarray, sign: int) -> np.ndarray:
    """O(p^2) DFT (sign=-1) or unnormalized IDFT (sign=+1), Kahan-summed.

    Twiddle arguments are reduced as integers (n*k mod p) so every factor is
    an exact table entry; the accumulation across the p terms of each bin is
    compensated so rounding does not grow with p.
    """
    x = np.asarray(x, dtype=np.complex128)
    p = len(x)
    table = np.exp(sign * 2j * np.pi * np.arange(p) / p)
    k = np.arange(p)
    acc = np.zeros(p, dtype=np.complex128)
    comp = np.zeros(p, dtype=np.complex128)
    for n in range(p):
        term = x[n] * table[(n * k) % p]
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc


def naive_dft(x: np.ndarray) -> np.ndarray:
    """X[k] = sum_n x[n] * exp(-i*2*pi*n*k/p), by direct summation."""
    return _compensated_transform(x, -1)


def naive_idft(x: np.ndarray) -> np.ndarray:
    """X[k] = sum_n x[n] * exp(+i*2*pi*n*k/p), unnormalized."""
    return _compensated_transform(x, +1)


def zc_time_direct(params: ZcParams) -> np.ndarray:
    """zc_time from its defining integer, u*(k+ts)(k+ts+1) mod 2p, for p below 2**20."""
    p = params.p
    m = np.arange(params.ts, p + params.ts, dtype=np.int64)
    return np.exp((-1j * np.pi / p) * (params.u * m * (m + 1) % (2 * p)).astype(np.float64))


def brute_gauss_sum(params: ZcParams) -> complex:
    """Direct sum of the unshifted ZC samples, correctly rounded per component.

    Requires ts = 0; the cumulative-sum constant is a property of the base
    sequence (the DC bin of the shifted sequence equals it anyway).
    """
    if params.ts != 0:
        raise ValueError("brute_gauss_sum requires ts=0")
    z = zc_time(params)
    return complex(math.fsum(z.real), math.fsum(z.imag))


def shifted_dft_identity(params: ZcParams, direction: str) -> np.ndarray:
    """Spectrum of x = zc_time(params) by index remapping, in O(p).

    F(k) = conj(x[step*k mod p]) * x[0] * F(0), with step = iu for the DFT
    and -iu for the unnormalized IDFT (iu the inverse of u mod p). F(0) is
    the sum of the samples, the same for both directions and every shift,
    taken from the closed-form Gauss sum: summing the samples instead would
    add their rounding errors coherently. An independent route to the
    spectrum that naive_dft / naive_idft compute by summation.
    """
    require_direction(direction)
    p, u = params.p, params.u
    step = mod_inverse(u, p) if direction == DFT else -mod_inverse(u, p)
    x = zc_time(params)
    idx = step * np.arange(p, dtype=np.int64) % p
    return np.conj(x[idx]) * (x[0] * gauss_sum_closed(p, u).value)
