import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest


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


ODD_PRIMES_61 = [n for n in range(3, 62) if trial_division_is_prime(n) and n % 2]
ODD_PRIMES_199 = [n for n in range(3, 200) if trial_division_is_prime(n) and n % 2]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
