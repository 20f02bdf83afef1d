"""Exact modular arithmetic over odd prime moduli.

Everything here is exact for any modulus the library accepts (odd primes
below 2**31): scalar routines work on Python integers, and triangular_mod
works on int64 arrays whose intermediates provably stay below 2**62.
"""

from __future__ import annotations

import operator

import numpy as np

PRIME_CAP = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division.

    Exact for every n >= 0; intended for the gatekeeping range n < 2**31,
    where the sqrt(n) scan is at most ~46k divisions.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def as_int(x, name: str) -> int:
    """x as a Python int, accepting numpy integers; ValueError for bool or non-integers."""
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

    Uses the iterative extended Euclidean algorithm (O(log p) divisions).
    Raises ValueError when a is divisible by p, in which case no inverse
    exists.
    """
    a %= p
    if a == 0:
        raise ValueError(f"no inverse: argument is divisible by modulus {p}")
    r0, r1 = p, a
    t0, t1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return t0 % p


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


def triangular_mod(n: np.ndarray, p: int) -> np.ndarray:
    """T(n) = n(n+1)/2 mod p, exactly, for int64 n in [0, p) and p < 2**31.

    n(n+1) < 2**62, so the product and its halving are exact in int64. The
    result is below p, so a caller may multiply it by another residue below
    p, or add two such products of opposite sign, and still stay below 2**62.
    """
    t = n + 1
    t *= n
    t //= 2
    t %= p
    return t


def odd_primes(limit: int, start: int = 3) -> list[int]:
    """Ascending odd primes in [start, limit], by sieve of Eratosthenes."""
    if limit < 3:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [n for n in range(max(start, 3), limit + 1) if sieve[n] and n % 2 == 1]
