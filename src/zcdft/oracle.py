"""Brute-force ground truth used to validate every fast path.

These are test-only reference implementations: quadratic-time transforms
with compensated summation, the ZC samples from their unreduced defining
integer, direct summation of the Gauss constant, the index-remapping
identity for the DFT of a cyclically shifted sequence, and the classical
termwise identities (dft_reference / idft_reference) for differential
testing against both the fast path and the quadratic-time transforms.
Accuracy beats speed here on purpose; the oracle must be at least as
accurate as the device under test.
"""

from __future__ import annotations

import math

import numpy as np

from .gauss import gauss_sum_closed
from .numtheory import mod_inverse
from .sequences import ZcParams, zc_time


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


def shifted_dft_identity(params: ZcParams) -> np.ndarray:
    """DFT of a shifted ZC sequence via index remapping into the base sequence.

    F(k) = conj(Z(iu*k + ts)) * Z(ts) * F(0), with Z the unshifted sequence
    evaluated at arguments reduced mod p and F(0) from brute_gauss_sum. An
    independent route to the same spectrum as naive_dft(zc_time(params)).
    """
    p, u, ts = params.p, params.u, params.ts
    iu = mod_inverse(u, p)
    base = zc_time(ZcParams(p=p, u=u, ts=0))
    idx = (iu * np.arange(p) + ts) % p
    f0 = brute_gauss_sum(ZcParams(p=p, u=u, ts=0))
    return np.conj(base[idx]) * base[ts % p] * f0


def _linear_ramp(p: int, shift: int) -> np.ndarray:
    """exp(+i*2*pi*shift*k/p) with the index product reduced exactly mod p."""
    k = np.arange(p)
    return np.exp(2j * np.pi * ((shift * k) % p) / p)


def dft_reference(params: ZcParams) -> np.ndarray:
    """Termwise classical identity for the DFT of a shifted ZC sequence.

    F(k) = Z_{-iu}(k) * exp(i*2*pi*((p+1)/2*(1-iu) + ts)*k/p) * F(0), with
    F(0) from the closed-form Gauss sum. O(p) with one complex multiply per
    sample; no accumulation.
    """
    p, u, ts = params.p, params.u, params.ts
    iu = mod_inverse(u, p)
    shift = (((p + 1) // 2) * (1 - iu) + ts) % p
    dual = zc_time(ZcParams(p=p, u=(p - iu) % p, ts=0))
    return dual * _linear_ramp(p, shift) * gauss_sum_closed(p, u).value


def idft_reference(params: ZcParams) -> np.ndarray:
    """Termwise classical identity for the unnormalized IDFT.

    F(k) = conj(Z_{iu}(k)) * exp(i*2*pi*((p-1)/2*(iu+1) - ts)*k/p) * F(0).
    The IDFT differs from the DFT by a frequency shift of 1 mod p (plus the
    sign of the ts term).
    """
    p, u, ts = params.p, params.u, params.ts
    iu = mod_inverse(u, p)
    shift = (((p - 1) // 2) * (iu + 1) - ts) % p
    dual = np.conj(zc_time(ZcParams(p=p, u=iu, ts=0)))
    return dual * _linear_ramp(p, shift) * gauss_sum_closed(p, u).value
