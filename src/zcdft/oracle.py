"""Brute-force ground truth used to validate every fast path.

These are test-only reference implementations: quadratic-time transforms
with compensated summation, the ZC samples from their unreduced defining
integer, direct summation of the Gauss constant, and the index-remapping
identity, the one O(p) reference for the DFT and IDFT of a cyclically
shifted sequence, for differential testing against both the fast path and
the quadratic-time transforms.
Accuracy beats speed here on purpose; the oracle must be at least as
accurate as the device under test.

The quadratic-time transforms add the p terms x[n] * W^(n*k) of each bin in
the order n = 0, 1, ..., p-1 with Kahan's compensation. They build those
terms _CHUNK at a time as a (rows, p) block and run the recurrence over its
rows with four in-place ufunc calls each; the order and every operation are
the ones of a per-sample loop, so the output is that loop's bit for bit. x
may carry leading batch axes, (..., p): a stack of cases is summed in one
call, row for row the same as one call per case.
"""

from __future__ import annotations

import math

import numpy as np

from .gauss import gauss_sum_closed
from .numtheory import mod_inverse
from .sequences import ZcParams, zc_time
from .transform import DFT, require_direction


# Terms per chunk of _compensated_transform: a chunk's gathered factors and
# terms (256 KB each) and its int64 indices and the per-call index table
# (128 KB each) stay in L2 from the build to the last row. Building all p*p
# terms at once made p = 839 more than twice as slow (12 -> 27 ms).
_CHUNK = 1 << 14


def _compensated_transform(x: np.ndarray, sign: int) -> np.ndarray:
    """O(p^2) DFT (sign=-1) or unnormalized IDFT (sign=+1), Kahan-summed.

    Twiddle arguments are reduced as integers (n*k mod p) so every factor is
    an exact table entry; the accumulation across the p terms of each bin is
    compensated so rounding does not grow with p.

    x has shape (..., p); leading axes are independent cases. The terms are
    built for `rows` consecutive n at a time, rows*x.size close to _CHUNK
    and at least one: the indices n*k mod p of a chunk are its first row's
    (n0*k mod p) plus j*k mod p for j < rows, computed once per call, and
    their sum, below 2p, indexes the table written twice, so no term needs
    its own reduction. The integers are those of n*k mod p, so every factor
    is the same table entry. Each term is x[n] * W^(n*k) with x as the first
    operand: numpy's complex multiply is not bitwise commutative here, and
    with the table entry first all of 2508 sampled cases of the p <= 199
    grid differed from the per-sample loop in the last bit.
    The rows then run in n order through y = term - comp, t = acc + y,
    comp = (t - acc) - y, acc = t, the same operations in the same order as
    a loop over n, so the output is the same bit for bit.
    """
    x = np.asarray(x, dtype=np.complex128)
    p = x.shape[-1]
    table = np.exp(sign * 2j * np.pi * np.arange(p) / p)
    wrapped = np.concatenate((table, table))
    k = np.arange(p)
    rows = min(p, max(1, _CHUNK // x.size))
    step = np.multiply.outer(np.arange(rows), k) % p
    acc = np.zeros(x.shape, dtype=np.complex128)
    comp = np.zeros_like(acc)
    y = np.empty_like(acc)
    t = np.empty_like(acc)
    for n0 in range(0, p, rows):
        c = min(rows, p - n0)
        terms = x[..., n0 : n0 + c, None] * wrapped[step[:c] + n0 * k % p]
        for term in np.moveaxis(terms, -2, 0):
            np.subtract(term, comp, y)
            np.add(acc, y, t)
            np.subtract(t, acc, comp)
            np.subtract(comp, y, comp)
            acc, t = t, acc
    return acc


def naive_dft(x: np.ndarray) -> np.ndarray:
    """X[k] = sum_n x[n] * exp(-i*2*pi*n*k/p), by direct summation, over the last axis."""
    return _compensated_transform(x, -1)


def naive_idft(x: np.ndarray) -> np.ndarray:
    """X[k] = sum_n x[n] * exp(+i*2*pi*n*k/p), unnormalized, over the last axis."""
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
