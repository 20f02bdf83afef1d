"""Brute-force ground truth used to validate every fast path.

These are test-only reference implementations: quadratic-time transforms
summed exactly in integer fixed point, the ZC samples from their unreduced
defining integer, direct summation of the Gauss constant, and the
index-remapping identity, the one O(p) reference for the DFT and IDFT of a
cyclically shifted sequence, for differential testing against both the fast
path and the quadratic-time transforms.
Accuracy beats speed here on purpose; the oracle must be at least as
accurate as the device under test.

The quadratic-time transforms round each term x[n] * W^(n*k) once to a
fixed-point grid, add the rounded terms exactly in int64, and round the
exact sum once to float64 (a long accumulator, after Kulisch, Computer
Arithmetic and Validity, 2008). An exact sum does not depend on the order
of its terms, so they are taken in discrete-log order (Rader, Proc. IEEE
56(6), 1968), where all but the first row and column form a Hankel matrix,
a strided view of one table, and summed a block of rows at a time. x may
carry leading batch axes, (..., p), p prime; the output does not depend on
the block size or the batch shape, so a stack of cases summed in one call
equals one call per case.

What depends on p alone, the log order [0, g**0, ..., g**(p-2)] of a
generator g that this module finds itself, its inverse and both
directions' tables of roots in that order (_entry), is built once per
length p <= _GRID_PMAX and kept read-only (_kept_entry, a functools.cache):
the grid that zcdft verify and the acceptance tests sweep, 336,352 bytes
for 5 <= p <= 199. A longer length builds its entry for the call and drops
it. Kept or built for one call, the entry is the same, so every output is
the same, bit for bit.

Error bound, with eps the float64 epsilon, for each bin of each case, where
sum|x| is the sum of the case's sample moduli and g = 2**(e - _SCALE) its
grid (2**(e-1) <= max component of |x| < 2**e):
    |naive_dft(x)[k] - sum_n x[n]*exp(-2*pi*i*n*k/p)|
        <= (3*pi + 1/sqrt(2) + sqrt(2) + 1/2) * eps * sum|x| + p * g / sqrt(2),
to first order in eps, and the same for naive_idft. The terms are:
- table: each entry's angle 2*pi*j/p takes three roundings (fl(pi), the
  product with j, the division by p), so it is off by at most 2*pi*gamma_3
  ~ 3*pi*eps; libm's cos and sin add at most eps/2 each, eps/sqrt(2) in all;
- product: one complex multiply adds sqrt(2)*gamma_2 ~ sqrt(2)*eps of
  |x[n]| (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.5);
- grid: rounding a term's two components to g adds at most g/sqrt(2);
- the one final rounding adds eps/2 of the sum, at most eps/2 * sum|x|.
For a ZC sequence, sum|x| = p and g = eps/2, so the bound is about
12.4 * p * eps, that is 12.4 * sqrt(p) in units of eps*sqrt(p). It is a
worst case: every term's error would have to point the same way. Measured
against a long-double DFT of the same samples (5 roots, ts = 7, both
directions) the error reads 3.1, 3.3, 3.7, 5.3 and 5.4 eps*sqrt(p) at
p = 61, 139, 199, 839 and 2503.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .gauss import gauss_sum_closed
from .numtheory import mod_inverse
from .sequences import ZcParams, zc_time
from .transform import DFT, require_direction


# Terms per block of _exact_transform: the grid's largest, 198**2 at p = 199,
# so every grid case is one block. A longer length is cut into blocks of
# whole rows, or of one row cut by columns where p - 1 exceeds this; either
# way a block has at most 198 rows, and 1 + 198 <= _CARRY_ROWS. The terms
# (627 KB) and their int64 values (627 KB) live in two buffers per thread,
# allocated on the thread's first call and kept, so a call allocates only
# O(p) temporaries. Chunks of 2**13 terms allocated per call (128 KB each)
# made glibc trim the heap top and fault it back in: 45.6 minor faults per
# operation in a replay of perfbench's verify operations, 0 with the buffers.
_GRID_PMAX = 199
_BLOCK = (_GRID_PMAX - 1) ** 2

# A case is scaled so that its largest component is below 2**_SCALE. A term's
# components are then at most 2**(_SCALE + 1), so the low word, below 2**32
# after a carry, takes up to _CARRY_ROWS rows of terms and stays below 2**63.
_SCALE = 54
_CARRY_ROWS = 2 ** (62 - _SCALE) - 1
_LOW = (1 << 32) - 1

_LOCAL = threading.local()


def _buffers() -> tuple[np.ndarray, np.ndarray]:
    """This thread's kept block buffers: _BLOCK complex128 terms and their int64 values."""
    try:
        return _LOCAL.buffers
    except AttributeError:
        _LOCAL.buffers = np.empty(_BLOCK, np.complex128), np.empty(2 * _BLOCK, np.int64)
        return _LOCAL.buffers


def _log_order(p: int) -> np.ndarray:
    """[0, g**0, ..., g**(p-2)] mod p, p prime, for a generator g found by trying 1, 2, ...

    The oracle's own plain loops, so that a fault in the transform's
    discrete-log tables (numtheory.primitive_root, power_table) cannot also
    be in its reference. Raises ValueError unless p is prime, by trial
    division before any power is taken.
    """
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"the O(p^2) transforms need a prime length, got {p}")
    for g in range(1, p):
        powers = [1]
        while (v := powers[-1] * g % p) != 1:
            powers.append(v)
        if len(powers) == p - 1:
            order = np.array([0, *powers], dtype=np.int64)
            assert np.array_equal(np.sort(order), np.arange(p)), "powers not a permutation"
            return order
    raise AssertionError(f"no generator of the units mod {p}")


def _entry(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """p's set-up, read-only: the log order, its inverse, and each direction's table.

    With W = exp(sign*2*pi*i*k/p) for k < p and order = [0, g**0, ...,
    g**(p-2)] (_log_order), a direction's table is W[order] followed by
    W[order[1:]]: W[0], then W[g**c] for c < 2(p-1), so that entry 1 + a + b
    is W[g**a * g**b mod p] without a reduction. inverse[k] is k's place in
    order. 16*p + 32*(2p-1) bytes.
    """
    order = _log_order(p)
    inverse = np.empty(p, dtype=np.int64)
    inverse[order] = np.arange(p)
    k = np.arange(p, dtype=np.int64)
    tables = []
    for sign in (-1, +1):
        w = np.exp(sign * 2j * np.pi * k / p)[order]
        tables.append(np.concatenate((w, w[1:])))
    entry = (order, inverse, *tables)
    for array in entry:
        array.setflags(write=False)
    return entry


# p's entry, kept; _exact_transform calls it only for p <= _GRID_PMAX, so it
# keeps at most the odd primes up to 199: the grid's 44 entries take 336,352
# bytes, next to numpy's ~27 MB import
_kept_entry = functools.cache(_entry)


def _exact_transform(x: np.ndarray, sign: int) -> np.ndarray:
    """O(p^2) DFT (sign=-1) or unnormalized IDFT (sign=+1), summed exactly.

    Each case (each row of the leading axes) is scaled by 2**(_SCALE - e),
    where 2**(e-1) <= max component of |x| < 2**e: a power of two, so the
    scaling is exact, and np.ldexp applies it where the factor itself would
    not be a float (2**1050 for inputs near 1e-300).

    x has shape (..., p), p prime; leading axes are independent cases. The
    order and the table come from p's entry, kept for p <= _GRID_PMAX
    (_kept_entry) and built for this call above it (_entry). The samples
    are taken in log order, xl = x[order], and the bins are summed in that
    order and put back through the inverse. With n = g**a and k = g**b
    (Rader, Proc. IEEE 56(6), 1968) the term x[n] * W[n*k mod p] is
    xl[1+a] * table[1+a+b], so the terms of bins 1..p-1 from rows 1..p-1
    form the Hankel matrix H[a, b] = table[1+a+b], a strided view of the
    table: no index is formed and no factor gathered. Each such term is
    x[n] times an exact table entry, with x as the first operand: numpy's
    complex multiply is not bitwise commutative here, and the per-sample
    reference in the tests computes x[n] * W^(n*k). Row n = 0 and bin k = 0
    take x[n] * W[0], and W[0] = table[0] is exactly 1 -+ 0j, so that
    product's components are x[n]'s up to the sign of a zero: the scaled
    samples stand in for it.

    The terms' float64 components are rounded to integers, cast to int64
    and added exactly. Row n = 0's term starts every bin's low word, and
    each block of rows (_BLOCK, in this thread's kept buffers) adds its
    column sums, bin 0 its part of column k = 0. Bits from 32 up are carried
    into a high word before a block could take a bin past _CARRY_ROWS
    terms, so no p can overflow; for p <= _CARRY_ROWS no carry is needed and
    the low word is the exact sum. Otherwise hi*2**32 + lo, lo < 2**32 after
    a last carry, is; it is rounded once (hi*2**32 is exact in float64
    while |hi| < 2**53, which holds for p < 2**30) and scaled back exactly,
    unless it underflows.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    p = x.shape[-1]
    top = np.abs(x.view(np.float64).reshape(-1, 2 * p)).max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError("the O(p^2) transforms need finite input")
    shift = _SCALE - np.frexp(top)[1]
    entry = _kept_entry(p) if p <= _GRID_PMAX else _entry(p)
    order, inverse, table = entry[0], entry[1], entry[2 + (sign > 0)]
    xl = x.reshape(-1, p).take(order, axis=1)
    parts = xl.view(np.float64)
    np.ldexp(parts, shift, out=parts)
    # row n = 0 and column k = 0, x[n] * W[0] rounded, in log order
    edge = np.rint(parts).astype(np.int64)
    lo = np.empty_like(edge)
    lo.reshape(len(lo), p, 2)[:] = edge[:, None, :2]
    hi = None
    q = p - 1
    # as_strided(table[1:], (q, q), (16, 16)), built directly: as_strided
    # takes about 6 us, a tenth of a call at p = 61
    hankel = np.ndarray((q, q), np.complex128, table, 16, (16, 16))
    rows, cols = max(1, min(q, _BLOCK // q)), min(q, _BLOCK)
    buffer, values = _buffers()
    added = 1
    for a0 in range(0, q, rows):
        a1 = min(a0 + rows, q)
        # before this block could overflow lo
        if added + a1 - a0 > _CARRY_ROWS:
            if hi is None:
                hi = np.zeros_like(lo)
            hi += lo >> 32
            lo &= _LOW
            added = 0
        lo[:, :2] += edge[:, 2 + 2 * a0 : 2 + 2 * a1].reshape(len(lo), -1, 2).sum(axis=1)
        for b0 in range(0, q, cols):
            b1 = min(b0 + cols, q)
            terms = buffer[: (a1 - a0) * (b1 - b0)].reshape(a1 - a0, b1 - b0)
            block = values[: terms.size * 2].reshape(a1 - a0, 2 * (b1 - b0))
            for case, case_lo in zip(xl, lo):
                np.multiply(case[1 + a0 : 1 + a1, None], hankel[a0:a1, b0:b1], out=terms)
                parts = terms.view(np.float64)
                np.copyto(block, np.rint(parts, out=parts), casting="unsafe")
                case_lo[2 + 2 * b0 : 2 + 2 * b1] += block.sum(axis=0)
        added += a1 - a0
    if hi is None:
        # no carry was made (p <= _CARRY_ROWS, the whole grid): lo is the
        # exact sum, and the ldexp below rounds it once. Skipping the high
        # word's carry and assembly here gave verify 1.05x the spectra per
        # second (10 of 10 paired 30 s runs, 2-vCPU Xeon).
        out = lo
    else:
        hi += lo >> 32
        lo &= _LOW
        out = np.ldexp(hi.astype(np.float64), 32)
        out += lo
    out = out.reshape(len(lo), p, 2).take(inverse, axis=1).reshape(len(lo), 2 * p)
    return np.ldexp(out, -shift).view(np.complex128).reshape(x.shape)


def naive_dft(x: np.ndarray) -> np.ndarray:
    """X[k] = sum_n x[n] * exp(-i*2*pi*n*k/p), by direct summation, over the last axis.

    Raises ValueError unless every sample is finite and the length is prime.
    """
    return _exact_transform(x, -1)


def naive_idft(x: np.ndarray) -> np.ndarray:
    """X[k] = sum_n x[n] * exp(+i*2*pi*n*k/p), unnormalized, over the last axis.

    Raises ValueError unless every sample is finite and the length is prime.
    """
    return _exact_transform(x, +1)


def zc_time_direct(params: ZcParams) -> np.ndarray:
    """zc_time from its defining integer, u*(k+ts)(k+ts+1) mod 2p, for p below 2**20.

    With u < p and k + ts < 2p the product is below 4*p**3, which is below
    2**62 for p < 2**20; a larger p raises ValueError (from about 1.32e6 on,
    the int64 product would wrap).
    """
    p = params.p
    if p >= 1 << 20:
        raise ValueError(f"zc_time_direct needs p < 2**20 to stay within int64, got p={p}")
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
