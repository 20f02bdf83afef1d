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
of its terms, so the terms are built about _CHUNK at a time as a (rows, p)
block and each block is summed over n in one call. x may carry leading
batch axes, (..., p); the output does not depend on the chunk size or the
batch shape, so a stack of cases summed in one call equals one call per
case.

What depends on p alone, both directions' doubled tables of roots, one
chunk's index block and the step between chunks' offset rows (_entry),
is built once per length and kept read-only in _STORE, a second
transform._LengthStore. Its bound is those bytes summed over the grid
5 <= p <= 199, 2,184,544 bytes, so a sweep of the grid keeps all of it; a
length that does not fit is built by the same function for its call and
dropped. Kept or built for one call, the entry is the same, so every
output is the same, bit for bit.

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

import math

import numpy as np

from .gauss import gauss_sum_closed
from .numtheory import mod_inverse, odd_primes
from .sequences import ZcParams, zc_time
from .transform import DFT, _LengthStore, require_direction


# Terms per chunk of _exact_transform, for one case at a time. The product
# overwrites the gathered factors, so a chunk's temporaries are its int64
# indices (64 KB), terms (128 KB) and their int64 values (128 KB): in L2, and
# below glibc's 128 KB mmap threshold, so no call page-faults them in afresh.
# At 2**14 terms every call did (115 faults and 1.9 times the time at
# p = 139), and so did a stack with its cases side by side (3.3 times at 199).
# rows*p <= _CHUNK and rows <= p give rows <= sqrt(_CHUNK) < 91 <= _CARRY_ROWS.
# A kept entry's index block is rows*p int64 as well, at most 64 KB.
_CHUNK = 1 << 13

# A case is scaled so that its largest component is below 2**_SCALE. A term's
# components are then at most 2**(_SCALE + 1), so the low word, below 2**32
# after a carry, takes up to _CARRY_ROWS rows of terms and stays below 2**63.
_SCALE = 54
_CARRY_ROWS = 2 ** (62 - _SCALE) - 1
_LOW = (1 << 32) - 1


def _rows(p: int) -> int:
    """Rows of terms per chunk at length p: rows*p close to _CHUNK, at least 1, at most p."""
    return min(p, max(1, _CHUNK // p))


def _entry(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """p's set-up, read-only: the DFT's and the IDFT's doubled table, step and inc.

    Each table is exp(sign*2*pi*i*k/p) for k < p, written twice, so that
    any sum of two residues below p indexes it without a reduction. step is
    the int64 block j*k mod p for j < rows (_rows), shared by both signs,
    and inc is rows*k mod p, which moves a chunk's offset row n0*k mod p to
    the next chunk's. 72*p + 8*rows*p bytes (_entry_bytes).
    """
    k = np.arange(p, dtype=np.int64)
    tables = []
    for sign in (-1, +1):
        wrapped = np.exp(sign * 2j * np.pi * k / p)
        tables.append(np.concatenate((wrapped, wrapped)))
    rows = _rows(p)
    # j*k mod p by floor division, which numpy runs through libdivide, at
    # half the cost of %
    step = np.multiply.outer(np.arange(rows, dtype=np.int64), k)
    step -= step // p * p
    inc = rows * k % p
    entry = (*tables, step, inc)
    for array in entry:
        array.setflags(write=False)
    return entry


def _entry_bytes(p: int) -> int:
    """Bytes of p's set-up (_entry): two tables of 2p complex128, step and inc."""
    return 64 * p + 8 * _rows(p) * p + 8 * p


# the grid that zcdft verify and the acceptance tests sweep; 2,184,544 bytes,
# next to numpy's ~27 MB import
_STORE = _LengthStore(
    sum(_entry_bytes(p) for p in odd_primes(199) if p >= 5), _entry, _entry_bytes
)


def _exact_transform(x: np.ndarray, sign: int) -> np.ndarray:
    """O(p^2) DFT (sign=-1) or unnormalized IDFT (sign=+1), summed exactly.

    Twiddle arguments are reduced as integers (n*k mod p) so every factor is
    an exact table entry. Each case (each row of the leading axes) is scaled
    by 2**(_SCALE - e), where 2**(e-1) <= max component of |x| < 2**e: a
    power of two, so the scaling is exact, and np.ldexp applies it where the
    factor itself would not be a float (2**1050 for inputs near 1e-300).

    x has shape (..., p); leading axes are independent cases. The table and
    the index block come from p's entry (_entry), kept in _STORE or, for a
    length that does not fit, built for this call. The terms are built for
    `rows` consecutive n at a time (_rows): the indices n*k mod p of a
    chunk are its offset row (n0*k mod p) plus the block step's rows j*k
    mod p, and their sum, below 2p, indexes the doubled table, so no term
    needs its own reduction; the offset row moves on by inc, reduced by an
    unsigned minimum. Each case gathers its own chunk of factors and
    multiplies them by x[n], with x as the first operand: numpy's complex
    multiply is not bitwise commutative here, and the per-sample reference
    in the tests computes x[n] * W^(n*k). The terms' float64 components are
    rounded to integers, cast to int64 and summed over the chunk's rows in
    one call (a one-row chunk is added as it is); the chunk sum is added to
    a low word whose bits from 32 up are carried into a high word at least
    every _CARRY_ROWS rows, so no p can overflow. hi*2**32 + lo,
    lo < 2**32 after the last carry, is the exact sum of the rounded terms;
    it is rounded once (hi*2**32 is exact in float64 while |hi| < 2**53,
    which holds for p < 2**30) and scaled back exactly, unless it
    underflows.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    p = x.shape[-1]
    parts = x.view(np.float64).reshape(-1, 2 * p)
    top = np.abs(parts).max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError("the O(p^2) transforms need finite input")
    shift = _SCALE - np.frexp(top)[1]
    scaled = np.ldexp(parts, shift).view(np.complex128)
    entry = _STORE.entry(p)
    if entry is None:
        entry = _entry(p)
    wrapped = entry[sign > 0]
    step, inc = entry[2:]
    rows = len(step)
    base = np.zeros(p, dtype=np.int64)
    # base + inc < 2p: read as uint64, base - p wraps past 2**63 where
    # base < p, so the minimum of the two is base mod p
    unsigned = base.view(np.uint64)
    hi = np.zeros(parts.shape, dtype=np.int64)
    lo = np.zeros_like(hi)
    added = 0
    for n0 in range(0, p, rows):
        c = min(rows, p - n0)
        if n0:
            base += inc
            np.minimum(unsigned, unsigned - p, out=unsigned)
            idx = step[:c] + base
        else:
            # the first chunk's offset row is 0: its indices are step
            idx = step
        for case, case_lo in zip(scaled, lo):
            terms = wrapped[idx]
            terms = np.multiply(case[n0 : n0 + c, None], terms, out=terms).view(np.float64)
            values = np.rint(terms, out=terms).astype(np.int64)
            case_lo += values[0] if c == 1 else values.sum(axis=0)
        added += c
        # before the next chunk could overflow lo, and before lo is rounded
        if added + rows > _CARRY_ROWS or n0 + c == p:
            hi += lo >> 32
            lo &= _LOW
            added = 0
    out = np.ldexp(hi.astype(np.float64), 32)
    out += lo
    return np.ldexp(out, -shift).view(np.complex128).reshape(x.shape)


def naive_dft(x: np.ndarray) -> np.ndarray:
    """X[k] = sum_n x[n] * exp(-i*2*pi*n*k/p), by direct summation, over the last axis.

    Raises ValueError unless every sample is finite.
    """
    return _exact_transform(x, -1)


def naive_idft(x: np.ndarray) -> np.ndarray:
    """X[k] = sum_n x[n] * exp(+i*2*pi*n*k/p), unnormalized, over the last axis.

    Raises ValueError unless every sample is finite.
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
