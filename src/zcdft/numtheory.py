"""Exact modular arithmetic over odd prime moduli.

Everything here is exact for any modulus the library accepts (odd primes
below 2**31): scalar routines work on Python integers, and phase_blocks
and power_table work on int64 arrays whose intermediates provably stay
below 2**63. phase_blocks gives the phases phase_k = (k*fs - iu*T(k)) mod p,
T(k) = k(k+1)/2, of a bin range block by block, as the paper accumulates
them: _block_phases seeds the first block from the closed form, and every
later block is the one before plus a per-call vector and a per-block
scalar, reduced by two conditional subtractions. Every reader takes them
a block at a time from one reused buffer: transform._gather, the gather of
execute and zc_time, at a length the transform's store does not keep, and
transform.phase_indices, which copies them into its own array.
primitive_root and power_table give the discrete logs that transform
reads a kept length's twiddle table through.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterator

import numpy as np

PRIME_CAP = 1 << 31


def _sieve(limit: int) -> bytearray:
    """Sieve of Eratosthenes: flags[n] = 1 iff n is prime, for 0 <= n <= limit."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return sieve


def odd_primes(limit: int) -> list[int]:
    """Ascending odd primes in [3, limit], by sieve of Eratosthenes."""
    if limit < 3:
        return []
    sieve = _sieve(limit)
    return [n for n in range(3, limit + 1, 2) if sieve[n]]


# below this, is_prime reads one byte of a flag table that a sieve builds once
# at import (8 KB, about 0.1 ms); a lookup costs less than one trial division
_TABLE_BELOW = 1 << 13
_PRIME_FLAGS = bytes(_sieve(_TABLE_BELOW - 1))
# no odd composite below this is a strong probable prime to bases 2, 7 and
# 61 (G. Jaeschke, On strong pseudoprimes to several bases, Math. Comp. 61,
# 1993); 4759123141 = 48781 * 97561 is the least one
_MILLER_RABIN_BELOW = 4_759_123_141
# nor below psi_13 to the first 13 primes, 2 to 41 (J. Sorenson and J.
# Webster, Strong pseudoprimes to twelve prime bases, Math. Comp. 86, 2017)
_PSI_13 = 3_317_044_064_679_887_385_961_981
_BASES_13 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for every integer n.

    A table lookup below _TABLE_BELOW; from there to _MILLER_RABIN_BELOW,
    the Miller-Rabin test to bases 2, 7 and 61, and from there to _PSI_13
    to the first 13 primes, exact in each range; trial division above. So
    every modulus below 2**31 takes one lookup or three modular
    exponentiations, not up to ~23k divisions, and any n below 2**81 at
    most 13.
    """
    if n < _TABLE_BELOW:
        # n < 2 first: a negative index would read from the table's end
        return n > 1 and _PRIME_FLAGS[n] == 1
    if n % 2 == 0:
        return False
    if n >= _PSI_13:
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    # n - 1 = d * 2**r with d odd
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    for a in (2, 7, 61) if n < _MILLER_RABIN_BELOW else _BASES_13:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def as_int(x, name: str) -> int:
    """x as a Python int, accepting numpy integers; ValueError for bool or non-integers."""
    # an exact int is returned at once; bool and other int subclasses are not
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


def require_odd_prime(p: int) -> int:
    """p as a Python int; raise ValueError unless it is an odd prime in [3, 2**31)."""
    if type(p) is not int:
        p = as_int(p, "modulus")
    if p < 3 or p >= PRIME_CAP or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime in [3, 2**31), got {p}")
    return p


def mod_inverse(a: int, p: int) -> int:
    """Inverse of a modulo the odd prime p, in [1, p-1].

    Raises ValueError when a is divisible by p, in which case no inverse
    exists.
    """
    if a % p == 0:
        raise ValueError(f"no inverse: argument is divisible by modulus {p}")
    return pow(a, -1, p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} via Euler's criterion.

    Python's three-argument pow is square-and-multiply, so this is
    O(log p) multiplications.
    """
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def centered(x: int, p: int) -> int:
    """Representative of x mod p in the symmetric range [-(p-1)/2, (p-1)/2]."""
    half = (p - 1) // 2
    return (x + half) % p - half


_BLOCK = 1 << 14


@functools.cache
def _block_tables() -> tuple[np.ndarray, np.ndarray]:
    """j and T(j) = j(j+1)/2 for j < 2*_BLOCK, int64, read-only, the same for every p.

    Built on _block_phases's first call and kept (512 KB). Every
    phase_blocks call reads them: transform's execute and zc_time at a
    length its store does not keep, and transform.phase_indices at every
    length, so the registry's phase families and zcdft bench's phase_ns
    build them at p <= 199 too. A process that runs only kept execute and
    zc_time never builds them.
    """
    j = np.arange(2 * _BLOCK, dtype=np.int64)
    tj = np.cumsum(j)
    j.setflags(write=False)
    tj.setflags(write=False)
    return j, tj


def _block_bounds(n: int, lo: int = 0) -> Iterator[tuple[int, int]]:
    """Bins [k0, k1) of the blocks of [lo, lo + n): b = max(1, n // _BLOCK) blocks of L = n // b bins, the first also holding the n mod b left over.

    With n = b*_BLOCK + q, q < _BLOCK, L = _BLOCK + q // b and the first
    block holds L + q mod b <= _BLOCK + q bins, so for n >= 2*_BLOCK every
    block holds _BLOCK to 2*_BLOCK - 1 bins; below that one block holds n.
    Callers cut n >= 2, so no block is one bin, which numpy would scale by
    another loop, off in the last bit. Every block after the first holds L
    bins, so phase_blocks advances each from the one before by one fixed
    step. _BLOCK = 2**14 won a sweep of 2**12 to 2**15 (CHANGES.md): fewer
    fixed-cost numpy calls than smaller blocks, and a block's arrays about
    fit a 2 MB L2.
    """
    b = max(1, n // _BLOCK)
    step = n // b
    k0 = lo + n - (b - 1) * step
    yield lo, k0
    for k in range(k0, lo + n, step):
        yield k, k + step


def _block_phases(
    p: int,
    iu: int,
    fs: int,
    k0: int,
    n: int,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """phase_k = (k*fs - iu*T(k)) mod p for the n <= 2*_BLOCK bins k = k0 + j, j < n, into out.

    phase_blocks's seed. T(k0 + j) = T(k0) + k0*j + T(j), so phase_k0+j =
    (base + j*slope - iu*T(j)) mod p with slope = (fs - iu*k0) mod p and
    base = (k0*fs - iu*T(k0)) mod p exact Python ints for any ints fs and
    k0, and j, T(j) from _block_tables. With j < 2*_BLOCK = 2**15 and
    0 <= iu < p < 2**31, iu*T(j) < 2**60 and j*slope < 2**46: the int64 sum
    is exact (up to _BLOCK = 2**15; 2**16 overflows), so one reduction per
    bin gives exact integers. out and tmp, n-element int64 buffers, are
    allocated when not given. The reduction is x - p*(x // p): numpy's //
    by a scalar uses libdivide and % does not, so it costs about a third of
    np.remainder.
    """
    j, tj = _block_tables()
    phases = np.multiply(j[:n], (fs - iu * k0) % p, out=out)
    # iu = 0 only for phase_blocks's step D, a linear term alone
    if iu:
        tmp = np.multiply(tj[:n], iu, out=tmp)
        phases -= tmp
    if k0:
        phases += (k0 * fs - iu * (k0 * (k0 + 1) // 2)) % p
    tmp = np.floor_divide(phases, p, out=tmp)
    tmp *= p
    phases -= tmp
    return phases


def phase_blocks(
    p: int, iu: int, fs: int, lo: int, n: int, tmp: np.ndarray | None = None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield k0, k1 and int64 phase_k = (k*fs - iu*T(k)) mod p, k0 <= k < k1, per block of [lo, lo + n).

    The blocks are _block_bounds(n, lo), n >= 2. Each block's phases are a
    view of one kept buffer that the next block overwrites, so read each
    before asking for the next. tmp, int64 of at least min(n, 2*_BLOCK)
    entries, is allocated when not given; it is free again once a block is
    yielded.

    The first block is seeded by _block_phases, and so is every block of a
    range of at most three blocks: D below costs about one seed, and an
    advanced block saves about a third of one (24 against 39 us at 16384
    bins on a 2-vCPU Xeon), so the recurrence pays from the third advanced
    block on. Every later block holds L bins and follows from the L bins
    before it by additions, the paper's accumulation at block scale:
    T(k + L) = T(k) + L*k + T(L), so for k = k0 + j
        phase_(k0 + L + j) = phase_(k0 + j) + e(k0) + D[j] mod p,
    with D[j] = -iu*L*j mod p for j < L, formed once per call, and
    e(k0) = (L*fs - iu*(T(L) + L*k0)) mod p, one Python int per block. Each
    term is below p, so the sum is below 3p < 2**33, and two conditional
    subtractions x = min(x, x - p), taken on uint64 views where x - p wraps
    to above x for x < p, reduce it exactly. That is six passes of adds,
    subtractions and minima per block in place of _block_phases's seven
    with two multiplies and a floor division.
    """
    bounds = list(_block_bounds(n, lo))
    size = min(n, 2 * _BLOCK)
    if tmp is None:
        tmp = np.empty(size, dtype=np.int64)
    seeded = len(bounds) <= 3
    # the kept block and D share one buffer, of the same length for every
    # n >= 2*_BLOCK, so the heap reuses its space call after call; buffers
    # sized to each n's blocks left large-p's peak RSS 0.4 MB higher
    kept = np.empty(size if seeded else 2 * size, dtype=np.int64)
    if seeded:
        for k0, k1 in bounds:
            yield k0, k1, _block_phases(p, iu, fs, k0, k1 - k0, kept[: k1 - k0], tmp[: k1 - k0])
        return
    k0, k1 = bounds[0]
    cur = _block_phases(p, iu, fs, k0, k1 - k0, kept[: k1 - k0], tmp[: k1 - k0])
    yield k0, k1, cur
    step = n // len(bounds)
    tmp = tmp[:step]
    d = _block_phases(p, 0, -iu * step % p, 0, step, kept[-step:], tmp)
    tl = step * (step + 1) // 2
    pu = np.uint64(p)
    wrap = tmp.view(np.uint64)
    # in place: each block overwrites the L bins it follows from
    cur = cur[-step:]
    x = cur.view(np.uint64)
    for k0, k1 in bounds[1:]:
        cur += d
        cur += (step * fs - iu * (tl + step * (k0 - step))) % p
        np.subtract(x, pu, out=wrap)
        np.minimum(x, wrap, out=x)
        np.subtract(x, pu, out=wrap)
        np.minimum(x, wrap, out=x)
        yield k0, k1, cur


def primitive_root(p: int) -> int:
    """The least primitive root g of the odd prime p: g**e mod p runs over 1..p-1.

    p - 1 is factored by trial division (at most sqrt(p) steps), and g has
    order p - 1 iff g**((p-1)/q) != 1 mod p for every prime q dividing p - 1.
    """
    n, qs, d = p - 1, [], 2
    while d * d <= n:
        if n % d == 0:
            qs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        qs.append(n)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g


def power_table(g: int, p: int) -> np.ndarray:
    """int64 g**e mod p for e < p - 1, by doubling: O(log p) numpy calls.

    Each pass extends the known powers g**0..g**(n-1) by g**n times them.
    Both factors are below p < 2**31, so every product is below 2**62 and
    exact in int64.
    """
    out = np.empty(p - 1, dtype=np.int64)
    out[0] = 1
    n = 1
    while n < p - 1:
        k = min(n, p - 1 - n)
        np.multiply(out[:k], pow(g, n, p), out=out[n : n + k])
        np.remainder(out[n : n + k], p, out=out[n : n + k])
        n += k
    return out
