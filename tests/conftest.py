import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from zcdft import transform


def trial_division_is_prime(n: int) -> bool:
    """Independent primality oracle for the tests."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def run_in_threads(fn, calls, timeout):
    """[fn(*args) for args in calls] on 4 worker threads that switch every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(fn, *args) for args in calls]
            return [f.result(timeout=timeout) for f in futures]
    finally:
        sys.setswitchinterval(interval)


def twiddle_table(p):
    """exp(-i*2*pi*j/p) for j < p as hi[a] * lo[b], the products every gather forms."""
    m = transform._split(p)
    factors = transform._twiddle_factors(p)
    return np.multiply.outer(factors[m:], factors[:m]).ravel()[:p]


def zc_phases(params):
    """u*T(m) mod p, T(m) = m(m+1)/2, m = (k + ts) mod p for k < p, in int64: the phase of each ZC sample."""
    p = params.p
    m = (np.arange(p, dtype=np.int64) + params.ts) % p
    return params.u * (m * (m + 1) // 2 % p) % p


ODD_PRIMES_61 = [n for n in range(3, 62) if trial_division_is_prime(n) and n % 2]
ODD_PRIMES_199 = [n for n in range(3, 200) if trial_division_is_prime(n) and n % 2]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
