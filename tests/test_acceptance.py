"""Acceptance suite: every invariant family of zcdft.verify, plus the speed margin.

The invariants are stated once, in zcdft.verify.ALL_CHECKS. This module and
`zcdft verify --pmax 199 --include-839` run that registry on the same grid
and print the same [PASS]/[FAIL] line per family (visible with pytest -s or
in failure output). The speed margin over the naive DFT is a timing, not an
invariant, so it stays a test of its own.

Run as: pytest tests/test_acceptance.py -v -s
"""

import statistics
import time

import pytest

from zcdft.oracle import naive_dft
from zcdft.sequences import ZcParams
from zcdft.transform import DFT, execute, plan, zc_time
from zcdft.verify import ALL_CHECKS, VerifyConfig, result_line

ACCEPTANCE_GRID = VerifyConfig(pmax=199, include_839=True)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.mark.parametrize(
    "check", ALL_CHECKS, ids=lambda c: c.__name__.removeprefix("check_").replace("_", "-")
)
def test_invariant_family(check):
    result = check(ACCEPTANCE_GRID)
    line = result_line(result)
    print(line)
    assert result.passed, line


def test_criterion_8_fast_path_speedup():
    start = time.perf_counter()
    params = ZcParams(p=839, u=25)
    pl = plan(params, DFT)
    x = zc_time(params)
    reps = 15

    def median_seconds(fn):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    fast = median_seconds(lambda: execute(pl))
    naive = median_seconds(lambda: naive_dft(x))
    elapsed = time.perf_counter() - start
    ratio = naive / fast
    report(
        "criterion 8 desk-scale performance",
        ratio >= 20.0 and elapsed < 30.0,
        f"p=839: naive/fast = {ratio:.1f}x (fast {fast*1e6:.0f}us, naive {naive*1e3:.2f}ms), "
        f"bench took {elapsed:.1f}s",
    )
