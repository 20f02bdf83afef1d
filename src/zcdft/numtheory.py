"""Exact modular arithmetic over odd prime moduli.

Everything here works on plain Python integers, so results are exact for any
modulus the library accepts (odd primes below 2**31).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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


@dataclass(frozen=True)
class LookupTables:
    """Per-root tables for repeated transforms of the same length.

    Entry u-1 holds the data for root u: ``inverses[u-1] * u == 1 (mod p)``
    and ``legendre2u[u-1] == legendre(2u, p)``. Immutable after construction,
    safe to share between threads.
    """

    p: int
    inverses: tuple[int, ...]
    legendre2u: tuple[int, ...]


def build_tables(p: int) -> LookupTables:
    """Build the inverse / Legendre-of-2u tables for all roots u in [1, p-1]."""
    p = require_odd_prime(p)
    inverses = tuple(mod_inverse(u, p) for u in range(1, p))
    legendre2u = tuple(legendre(2 * u, p) for u in range(1, p))
    return LookupTables(p=p, inverses=inverses, legendre2u=legendre2u)


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
