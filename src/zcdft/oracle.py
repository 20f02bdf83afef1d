"""Brute-force ground truth used to validate every fast path.

These are test-only reference implementations: quadratic-time transforms
summed exactly in integer fixed point, the ZC samples from their unreduced
defining integer, direct summation of the Gauss constant, the
index-remapping identity, the one O(p) reference for the DFT and IDFT of a
cyclically shifted sequence, for differential testing against both the fast
path and the quadratic-time transforms, and a long-double FFT of the ZC
samples, a reference for the fast path at any length.
Accuracy beats speed here on purpose; the oracle must be at least as
accurate as the device under test.

The quadratic-time transforms round each term x[n] * W^(n*k) once to a
fixed-point grid, add the rounded terms exactly in int64, and round the
exact sum once to float64 (a long accumulator, after Kulisch, Computer
Arithmetic and Validity, 2008). An exact sum does not depend on the order
of its terms, so they are taken in discrete-log order (Rader, Proc. IEEE
56(6), 1968), where all but the first row and column form a Hankel matrix,
a strided view of one table. One loop sums it a block of whole rows at a
time (_exact_sum), each block's sums exact in int64: a grid length, p <=
_GRID_PMAX, is one block, and a longer one adds its blocks' sums in windows
of at most _GRID_PMAX - 1 rows, each exact in int64, and each window's sums
into two words split at bit 32. A length past PMAX = 39,205 raises
ValueError. x may carry leading batch axes, (..., p), p prime; each case is
summed on its own, and the output does not depend on the block size, so a
stack equals one call per case.

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
from .sequences import ZcParams
from .transform import DFT, require_direction


# A case is summed in blocks of at most _GRID_PMAX - 1 whole Hankel rows
# (_exact_sum), so that a bin adds at most _GRID_PMAX terms in a block, row
# n = 0 included, each below 2**(_SCALE + 1): the block's sums stay below
# 2**63, exact in one int64 word, while _GRID_PMAX <= 255. The grid, p <=
# _GRID_PMAX, is one block of (p - 1)**2 terms, and _BLOCK sizes the kept
# buffer to the largest; a longer length takes _BLOCK // (p - 1) < 198 rows
# a block, so one row must fit, p <= PMAX = 39,205. The terms (627 KB)
# live in one buffer per thread, allocated on the thread's first call and
# kept; their rounded components are summed from it in place, so a call
# allocates only O(p) temporaries and one ufunc buffer. Chunks of 2**13
# terms allocated per call (128 KB each) made glibc trim the heap top and
# fault it back in: 45.6 minor faults per operation in a replay of
# perfbench's verify operations, 0 with the kept buffer.
_GRID_PMAX = 199
_BLOCK = (_GRID_PMAX - 1) ** 2
PMAX = _BLOCK + 1

# A case is scaled so that its largest component is below 2**_SCALE, so a
# term's components are below 2**(_SCALE + 1). Past one block, each window
# of blocks' sums is split at bit 32 (_LOW) into a high and a low word.
_SCALE = 54
_LOW = (1 << 32) - 1

_LOCAL = threading.local()


def _buffers() -> np.ndarray:
    """This thread's one kept block buffer: _BLOCK complex128 terms."""
    try:
        return _LOCAL.terms
    except AttributeError:
        _LOCAL.terms = np.empty(_BLOCK, np.complex128)
        return _LOCAL.terms


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
# keeps at most the 46 primes up to 199: the grid's 44 entries (5 <= p <= 199)
# take 336,352 bytes, next to numpy's ~27 MB import
_kept_entry = functools.cache(_entry)


def _hankel(table: np.ndarray, a0: int, rows: int, q: int) -> np.ndarray:
    """H[a, b] = table[1 + a + b] for a0 <= a < a0 + rows and b < q, a strided view of table.

    Built directly: np.lib.stride_tricks.as_strided takes about 6 us, a
    tenth of a call at p = 61.
    """
    return np.ndarray((rows, q), np.complex128, table, 16 * (1 + a0), (16, 16))


def _scaled_log_order(x: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """One case in log order scaled by 2**shift, its components rounded to int64, and shift.

    shift = _SCALE - e, where 2**(e-1) <= max component of |x| < 2**e (e = 0
    for a zero case): a power of two, so the scaling is exact, and np.ldexp
    applies it where the factor itself would not be a float (2**1050 for
    inputs near 1e-300). The rounded components are those of x[n] * W[0],
    row n = 0 and column k = 0 of the sum, since W[0] is exactly 1 -+ 0j.
    Raises ValueError unless every component is finite.
    """
    top = np.abs(x.view(np.float64)).max()
    if not math.isfinite(top):
        raise ValueError("the O(p^2) transforms need finite input")
    shift = _SCALE - math.frexp(top)[1]
    xl = x.take(order)
    parts = xl.view(np.float64)
    np.ldexp(parts, shift, out=parts)
    return xl, np.rint(parts).astype(np.int64), shift


def _natural_order(sums: np.ndarray, inverse: np.ndarray, shift: int) -> np.ndarray:
    """The bins' exact sums, component pairs in log order, put back and scaled by 2**-shift.

    Each bin's two 8-byte sums move as one complex128 item, so the take
    copies their bytes and one 1-D gather does it. An int64 sum is rounded
    to float64 once, by the cast in np.ldexp; the scaling is exact unless it
    underflows.
    """
    moved = sums.view(np.complex128).take(inverse).view(sums.dtype)
    return np.ldexp(moved, -shift).view(np.complex128)


def _exact_sum(x: np.ndarray, order: np.ndarray, inverse: np.ndarray, table: np.ndarray) -> np.ndarray:
    """One case of a prime length p <= PMAX, a block of whole Hankel rows at a time.

    A block's column sums are its part of bins 1..p-1, its rows' scaled
    samples its part of bin 0, and the first block adds row n = 0 to every
    bin. It has min(p - 1, _BLOCK // (p - 1)) <= _GRID_PMAX - 1 rows, so its
    sums are exact in int64 (see _GRID_PMAX); a grid length is one block. A
    longer one adds its blocks' sums into one int64 word for a window of
    (_GRID_PMAX - 1) // rows blocks, at most _GRID_PMAX - 1 rows and row 0,
    so exact by the same bound, and each window's sums into a high and a low
    word split at bit 32: below 2**21 windows (p <= PMAX has at most 39,204
    blocks) both stay below 2**53, so hi*2**32 + lo is the exact sum,
    rounded once in float64. A window's first block sums into acc, each
    later one into sums, then acc += sums: one pass over 2p words a block,
    and the split's four once a window.

    A block is formed in the kept buffer (_buffers), x written first and
    multiplied by the Hankel view in place, so numpy buffers only the view;
    it is rounded there, and one int64 reduction casts and sums its
    columns, exactly, as each rounded component is an integer below 2**55.
    """
    p = len(x)
    q = p - 1
    xl, edge, shift = _scaled_log_order(x, order)
    rows = min(q, _BLOCK // q)
    window = (_GRID_PMAX - 1) // rows
    buffer = _buffers()
    acc = np.empty(2 * p, np.int64)
    sums = acc if rows == q else np.empty(2 * p, np.int64)
    hi = lo = 0
    for i, a0 in enumerate(range(0, q, rows)):
        n = min(rows, q - a0)
        terms = buffer[: n * q].reshape(n, q)
        terms[...] = xl[1 + a0 : 1 + a0 + n, None]
        np.multiply(terms, _hankel(table, a0, n, q), out=terms)
        parts = terms.view(np.float64)
        np.rint(parts, out=parts)
        out = sums if i % window else acc
        rest = np.add.reduce(parts, axis=0, dtype=np.int64, out=out[2:]).reshape(q, 2)
        if a0 == 0:
            rest += edge[:2]
        edge[2 + 2 * a0 if a0 else 0 : 2 * (1 + a0 + n)].reshape(-1, 2).sum(axis=0, out=out[:2])
        if n == q:
            return _natural_order(acc, inverse, shift)
        if i % window:
            acc += sums
        if i % window == window - 1 or a0 + n == q:
            hi += acc >> 32
            lo += acc & _LOW
    return _natural_order(np.ldexp(hi.astype(np.float64), 32) + lo, inverse, shift)


def _exact_transform(x: np.ndarray, sign: int) -> np.ndarray:
    """O(p^2) DFT (sign=-1) or unnormalized IDFT (sign=+1), summed exactly.

    x has shape (..., p), p prime; leading axes are independent cases, each
    summed on its own, and an empty stack gives an empty output. The order
    and the table come from p's entry: a grid length p <= _GRID_PMAX keeps
    it (_kept_entry), a longer one builds it for this call (_entry); a
    length past PMAX raises ValueError before that. Each case is summed in
    blocks of whole rows (_exact_sum), one on the grid, several above it.

    Each case is scaled by an exact power of two (_scaled_log_order) and
    taken in log order, xl = x[order]; the bins are summed in that order
    and put back through the inverse. With n = g**a and k = g**b (Rader,
    Proc. IEEE 56(6), 1968) the term x[n] * W[n*k mod p] is
    xl[1+a] * table[1+a+b], so the terms of bins 1..p-1 from rows 1..p-1
    form the Hankel matrix H[a, b] = table[1+a+b], a strided view of the
    table (_hankel): no index is formed and no factor gathered. Each such
    term is x[n] times an exact table entry, with x as the first operand:
    numpy's complex multiply is not bitwise commutative here, and the
    per-sample reference in the tests computes x[n] * W^(n*k). Row n = 0 and
    bin k = 0 take x[n] * W[0], and W[0] = table[0] is exactly 1 -+ 0j, so
    that product's components are x[n]'s up to the sign of a zero: the
    scaled samples stand in for it. The terms' float64 components are
    rounded to integers and added exactly in int64.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    p = x.shape[-1]
    if p > PMAX:
        raise ValueError(f"the O(p^2) transforms take p <= {PMAX}, one row in the kept buffer; got {p}")
    entry = _kept_entry(p) if p <= _GRID_PMAX else _entry(p)
    order, inverse, table = entry[0], entry[1], entry[2 + (sign > 0)]
    if x.ndim == 1:
        return _exact_sum(x, order, inverse, table)
    out = np.empty_like(x)
    for case, row in zip(x.reshape(-1, p), out.reshape(-1, p)):
        row[:] = _exact_sum(case, order, inverse, table)
    return out


def naive_dft(x: np.ndarray) -> np.ndarray:
    """X[k] = sum_n x[n] * exp(-i*2*pi*n*k/p), by direct summation, over the last axis.

    Raises ValueError unless every sample is finite and the length is a
    prime p <= PMAX.
    """
    return _exact_transform(x, -1)


def naive_idft(x: np.ndarray) -> np.ndarray:
    """X[k] = sum_n x[n] * exp(+i*2*pi*n*k/p), unnormalized, over the last axis.

    Raises ValueError unless every sample is finite and the length is a
    prime p <= PMAX.
    """
    return _exact_transform(x, +1)


def zc_time_direct(params: ZcParams) -> np.ndarray:
    """The ZC samples from their defining integer, u*m(m+1) mod 2p with m = k + ts, by np.exp.

    m is reduced mod p first and m(m+1) mod 2p before the product with u:
    u*m(m+1) mod 2p has period p in m, as (m + p)(m + p + 1) - m(m + 1) =
    p(2m + 1 + p) and 2m + 1 + p is even. So every int64 intermediate is
    below 2p**2 < 2**63 for any p < 2**31, and the argument is the same
    integer as without the reductions. The reference the oracle's
    other routines and verify's fast-vs-naive family sum, built without
    transform's table of roots.
    """
    p = params.p
    m = (np.arange(p, dtype=np.int64) + params.ts) % p
    return np.exp((-1j * np.pi / p) * (params.u * (m * (m + 1) % (2 * p)) % (2 * p)).astype(np.float64))


def long_double_spectrum(params: ZcParams, direction: str) -> np.ndarray:
    """The DFT or unnormalized IDFT of the ZC samples in long double, for any p < 2**31.

    Sample n is exp(-2*pi*i*(u*(T(m) mod p) mod p)/p), T(m) = m(m+1)/2 and
    m = (n + ts) mod p (T(m + p) = T(m) mod odd p), by int64 products below
    2**62; 2*pi is 2*arccos(-1). The DFT is np.fft.fft of the clongdouble
    samples, the IDFT conj(fft(conj(x))): no Gauss constant, table of roots
    or recurrence shared with the transform.
    """
    require_direction(direction)
    p = params.p
    m = (np.arange(p, dtype=np.int64) + params.ts) % p
    phase = params.u * (m * (m + 1) // 2 % p) % p
    theta = (2 * np.arccos(np.longdouble(-1)) / p) * phase.astype(np.longdouble)
    x = np.cos(theta) - 1j * np.sin(theta)
    return np.fft.fft(x) if direction == DFT else np.conj(np.fft.fft(np.conj(x)))


def brute_gauss_sum(params: ZcParams) -> complex:
    """Direct sum of the unshifted ZC samples, correctly rounded per component.

    Requires ts = 0; the cumulative-sum constant is a property of the base
    sequence (the DC bin of the shifted sequence equals it anyway).
    """
    if params.ts != 0:
        raise ValueError("brute_gauss_sum requires ts=0")
    z = zc_time_direct(params)
    return complex(math.fsum(z.real), math.fsum(z.imag))


def shifted_dft_identity(params: ZcParams, direction: str) -> np.ndarray:
    """Spectrum of x = zc_time_direct(params) by index remapping, in O(p).

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
    x = zc_time_direct(params)
    idx = step * np.arange(p, dtype=np.int64) % p
    return np.conj(x[idx]) * (x[0] * gauss_sum_closed(p, u).value)
