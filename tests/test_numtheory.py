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
    triangular_mod,
)

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


@pytest.mark.parametrize("p", ODD_PRIMES_61)
def test_mod_inverse_property(p):
    for a in range(1, p):
        inv = mod_inverse(a, p)
        assert 1 <= inv <= p - 1
        assert a * inv % p == 1


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


@pytest.mark.parametrize("p", ODD_PRIMES_199)
def test_legendre_euler_matches_enumeration(p):
    squares = {(a * a) % p for a in range(1, p)}
    for a in range(p):
        expect = 0 if a == 0 else (1 if a in squares else -1)
        assert legendre(a, p) == expect
    assert sum(legendre(a, p) == 1 for a in range(1, p)) == (p - 1) // 2


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


def test_triangular_mod_is_exact_at_the_prime_cap():
    # largest prime below 2**31, largest n: no int64 intermediate may wrap,
    # even after a multiply by another residue as in phase_indices and zc_time
    p = fs = iu = 2**31 - 1
    ns = range(p - 1000, p)
    n = np.asarray(ns, dtype=np.int64)
    t = triangular_mod(n, p)
    assert t.tolist() == [v * (v + 1) // 2 % p for v in ns]
    assert ((n * fs - iu * t) % p).tolist() == [(v * fs - iu * (v * (v + 1) // 2)) % p for v in ns]


def test_odd_primes_matches_trial_division():
    assert odd_primes(199) == ODD_PRIMES_199
    assert odd_primes(2) == []
    assert odd_primes(61) == ODD_PRIMES_61
