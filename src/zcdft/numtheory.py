"""Exact modular arithmetic over odd prime moduli.

Everything here is exact for any modulus the library accepts (odd primes
below 2**31): scalar routines work on Python integers, and quadratic_phases
and power_table work on int64 arrays whose intermediates provably stay
below 2**63. quadratic_phases gives transform's phases, and zc_time's at a
length the transform's store does not keep.
primitive_root and power_table give the discrete logs that transform reads
a kept length's twiddle table through.
"""

from __future__ import annotations

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

# j and T(j) = j(j+1)/2 for j < 2*_BLOCK, the same for every p
_J = np.arange(2 * _BLOCK, dtype=np.int64)
_TJ = np.cumsum(_J)
_J.setflags(write=False)
_TJ.setflags(write=False)


def _block_bounds(n: int, lo: int = 0) -> Iterator[tuple[int, int]]:
    """Bins [k0, k1) of the blocks of [lo, lo + n): b = max(1, n // _BLOCK) cuts at lo + i*n//b.

    For n >= 2*_BLOCK every block holds _BLOCK to 2*_BLOCK bins, below that
    one block holds n. Callers cut n >= 2, so no block is one bin, which
    numpy would scale by another loop, off in the last bit. _BLOCK = 2**14
    won a sweep of 2**12 to 2**15 (CHANGES.md): fewer fixed-cost numpy
    calls than smaller blocks, and a block's arrays about fit a 2 MB L2.
    """
    b = max(1, n // _BLOCK)
    for i in range(b):
        yield lo + i * n // b, lo + (i + 1) * n // b


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

    T(k0 + j) = T(k0) + k0*j + T(j), so phase_k0+j = (base + j*slope -
    iu*T(j)) mod p with slope = (fs - iu*k0) mod p and base = (k0*fs -
    iu*T(k0)) mod p exact Python ints for any ints fs and k0, and j, T(j)
    from _J and _TJ. With j < 2*_BLOCK = 2**15 and 0 <= iu < p < 2**31,
    iu*T(j) < 2**60 and j*slope < 2**46: the int64 sum is exact (up to
    _BLOCK = 2**15; 2**16 overflows), so one reduction per bin gives exact
    integers. out and tmp, n-element int64 buffers, are allocated when not
    given. The reduction is x - p*(x // p): numpy's // by a scalar uses
    libdivide and % does not, so it costs about a third of np.remainder.
    """
    phases = np.multiply(_J[:n], (fs - iu * k0) % p, out=out)
    tmp = np.multiply(_TJ[:n], iu, out=tmp)
    phases -= tmp
    if k0:
        phases += (k0 * fs - iu * (k0 * (k0 + 1) // 2)) % p
    np.floor_divide(phases, p, out=tmp)
    tmp *= p
    phases -= tmp
    return phases


def quadratic_phases(p: int, iu: int, fs: int, k0: int) -> np.ndarray:
    """int64 phase_k = (k*fs - iu*T(k)) mod p for the p bins k0 <= k < k0 + p, block by block.

    transform's phase indices start at k0 = 0, zc_time's at k0 = ts: for
    odd p, T(k + p) = T(k) + p*(2k + p + 1)/2 = T(k) mod p. zc_time reads
    them only at a length the transform's store does not keep; a kept one
    gathers its samples through the length's discrete logs instead.
    """
    if p < 2 * _BLOCK:
        return _block_phases(p, iu, fs, k0, p)
    phases = np.empty(p, dtype=np.int64)
    tmp = np.empty(2 * _BLOCK, dtype=np.int64)
    for lo, hi in _block_bounds(p, k0):
        _block_phases(p, iu, fs, lo, hi - lo, phases[lo - k0 : hi - k0], tmp[: hi - lo])
    return phases


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
