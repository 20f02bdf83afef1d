import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zcdft.numtheory import (
    centered,
    is_prime,
    legendre,
    mod_inverse,
    odd_primes,
    power_table,
    primitive_root,
)
from zcdft.transform import _log_tables, _twiddle_factors

from conftest import ODD_PRIMES_199, ODD_PRIMES_61, trial_division_is_prime


def test_is_prime_examples():
    assert is_prime(13)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2)
    assert not is_prime(4)
    # independent oracle: trial division up to floor(sqrt(839))
    assert trial_division_is_prime(839)
    assert is_prime(839)
    # stays deterministic at the top of the supported range (2**31 - 1 is prime)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)


@given(st.integers(min_value=0, max_value=20000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division_is_prime(n)


def test_is_prime_matches_a_sieve():
    # a table below 2**13 and Miller-Rabin above: both ranges and the cutoff
    # itself, against a sieve of Eratosthenes
    limit = 200_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, 448):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    assert [n for n in range(limit + 1) if is_prime(n)] == [n for n in range(limit + 1) if sieve[n]]
    # the table's edges; a negative n must not index from the table's end
    assert [is_prime(n) for n in (-1, -8191, 8191, 8192, 8193)] == [False, False, True, False, False]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to base 2, each caught by base 7 or 61
    for n in (2047, 3277, 4033, 4681, 8321):
        assert not is_prime(n)
    # 48781 * 97561 passes bases 2, 7 and 61: the least such composite, and
    # where the test to the first 13 primes takes over
    n = 4_759_123_141
    assert n == 48781 * 97561 and not is_prime(n)
    # the primes next below and above it, one from each test
    for n in (4_759_123_129, 4_759_123_151):
        assert is_prime(n) and trial_division_is_prime(n)
    # psi_12 passes bases 2 to 37 and fails 41, the 13th base
    n = 318_665_857_834_031_151_167_461
    assert n == 399_165_290_221 * 798_330_580_441 and not is_prime(n)
    # primes far past trial division's reach, each in well under a second
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)


def test_mod_inverse_examples():
    assert mod_inverse(3, 13) == 9  # 3*9 = 27 = 2*13 + 1
    assert mod_inverse(1, 13) == 1
    assert mod_inverse(12, 13) == 12  # 12*12 = 144 = 143 + 1
    assert mod_inverse(1, 199) == 1


def test_mod_inverse_of_multiple_of_p_fails():
    with pytest.raises(ValueError):
        mod_inverse(0, 13)
    with pytest.raises(ValueError):
        mod_inverse(26, 13)


@given(st.sampled_from(ODD_PRIMES_199), st.integers(min_value=-(10**9), max_value=10**9))
def test_mod_inverse_any_representative(p, a):
    if a % p == 0:
        with pytest.raises(ValueError):
            mod_inverse(a, p)
    else:
        assert a * mod_inverse(a, p) % p == 1


def test_legendre_examples():
    # enumeration oracle: squares mod 13 are {1, 3, 4, 9, 10, 12}; 6 is absent
    squares = {(a * a) % 13 for a in range(1, 13)}
    assert 6 not in squares
    assert legendre(6, 13) == -1
    assert legendre(1, 13) == 1
    assert legendre(1, 199) == 1
    assert legendre(26, 13) == 0


@given(
    st.sampled_from(ODD_PRIMES_199),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_legendre_multiplicative(p, a, b):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


@given(st.sampled_from(ODD_PRIMES_199), st.integers(min_value=-(10**9), max_value=10**9))
def test_legendre_of_square_is_nonnegative(p, a):
    assert legendre(a * a, p) in (0, 1)


def test_centered_examples():
    assert centered(7, 13) == -6
    assert centered(6, 13) == 6
    assert centered(-56, 13) == -4  # -56 + 4*13 = -4


@given(st.sampled_from(ODD_PRIMES_199), st.integers(min_value=-(10**12), max_value=10**12))
def test_centered_properties(p, x):
    c = centered(x, p)
    half = (p - 1) // 2
    assert -half <= c <= half
    assert (c - x) % p == 0


def test_odd_primes_matches_trial_division():
    assert odd_primes(199) == ODD_PRIMES_199
    assert odd_primes(2) == []
    assert odd_primes(61) == ODD_PRIMES_61


def _order(g: int, p: int) -> int:
    e, x = 1, g % p
    while x != 1:
        e, x = e + 1, x * g % p
    return e


@pytest.mark.parametrize("p", ODD_PRIMES_199 + [32749])
def test_primitive_root_powers_and_logs(p):
    g = primitive_root(p)
    if p <= 199:
        # brute force: g has order p - 1 and no smaller candidate does
        assert _order(g, p) == p - 1
        assert all(_order(h, p) < p - 1 for h in range(2, g))
    pw = power_table(g, p)
    assert pw.dtype == np.int64
    assert np.array_equal(np.sort(pw), np.arange(1, p))
    assert pw[1] == g and all(pw[e] == pow(g, e, p) for e in (0, p // 3, p - 2))
    # L inverts the power table, and L2 is L twice
    logs = _log_tables(p, _twiddle_factors(p))[0]
    assert np.array_equal(logs[pw], np.arange(p - 1))
    assert np.array_equal(logs[:p], logs[p:])
    assert 0 <= logs[0] < p - 1
