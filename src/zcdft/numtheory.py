"""Exact modular arithmetic over odd prime moduli.

Everything here is exact for any modulus the library accepts (odd primes
below 2**31): scalar routines work on Python integers, and triangular_mod
and power_table work on int64 arrays whose intermediates provably stay
below 2**62. primitive_root and power_table give the discrete logs that
transform reads a kept length's twiddle table through.
"""

from __future__ import annotations

import operator

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


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for every integer n.

    A table lookup below _TABLE_BELOW; from there to _MILLER_RABIN_BELOW,
    the Miller-Rabin test to bases 2, 7 and 61, which is exact there; trial
    division above. So every modulus below 2**31 takes one lookup or three
    modular exponentiations, not up to ~23k divisions.
    """
    if n < _TABLE_BELOW:
        # n < 2 first: a negative index would read from the table's end
        return n > 1 and _PRIME_FLAGS[n] == 1
    if n % 2 == 0:
        return False
    if n < _MILLER_RABIN_BELOW:
        # n - 1 = d * 2**r with d odd
        r = ((n - 1) & (1 - n)).bit_length() - 1
        d = (n - 1) >> r
        for a in (2, 7, 61):
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
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
