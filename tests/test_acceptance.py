"""Acceptance suite: every invariant family of zcdft.verify, plus the speed margin.

The invariants are stated once, in zcdft.verify.ALL_CHECKS. This module and
`zcdft verify --pmax 199 --include-839` run that registry on the same grid
and print the same [PASS]/[FAIL] line per family (visible with pytest -s or
in failure output). The speed margin over the naive DFT is a timing, not an
invariant, so it stays a test of its own. run_check's verdict rule is
tested on three synthetic families and on a spectrum with one NaN bin, and
every family must compare something on the smallest grid.

Run as: pytest tests/test_acceptance.py -v -s
"""

import math
import statistics
import time

import numpy as np
import pytest

from zcdft import transform
from zcdft.oracle import naive_dft
from zcdft.sequences import ZcParams
from zcdft.transform import DFT, IDFT, execute, plan, zc_time
from zcdft.verify import ALL_CHECKS, VerifyConfig, result_line, run_all, run_check

ACCEPTANCE_GRID = VerifyConfig(pmax=199, include_839=True)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.mark.parametrize(
    "check", ALL_CHECKS, ids=lambda c: c.__name__.removeprefix("check_").replace("_", "-")
)
def test_invariant_family(check):
    result = run_check(check, ACCEPTANCE_GRID)
    line = result_line(result)
    print(line)
    assert result.passed, line


def check_at_the_bound(cfg):
    yield "p=5 below", 1e-9, 4e-9
    yield "p=7 at", 3e-9, 3e-9
    yield "p=11 exact match", False, 0


def check_one_mismatch(cfg):
    yield "p=5 float", 5e-10, 1e-9
    yield "p=7 mismatch", True, 0
    yield "p=11 exact match", False, 0


def check_nothing(cfg):
    yield from ()


def test_run_check_judges_every_comparison():
    at = run_check(check_at_the_bound, VerifyConfig())
    assert (at.name, at.passed, at.max_error, at.detail) == ("at-the-bound", True, 1.0, "p=7 at")
    miss = run_check(check_one_mismatch, VerifyConfig())
    assert (miss.passed, miss.max_error, miss.detail) == (False, 1.0, "p=7 mismatch")
    # a family that compares nothing proves nothing
    empty = run_check(check_nothing, VerifyConfig())
    assert (empty.name, empty.passed, empty.detail) == ("nothing", False, "no comparisons")


def test_every_family_compares_on_the_smallest_grid():
    # pmax 5 is the smallest grid zcdft verify accepts
    cfg = VerifyConfig(pmax=5)
    empty = [check.__name__ for check in ALL_CHECKS if next(check(cfg), None) is None]
    assert empty == []


def test_a_nan_bin_fails_every_family_that_reads_it(monkeypatch):
    fast = transform.execute

    def one_nan_bin(pl, counters=None):
        out = fast(pl, counters)
        if (pl.params.p, pl.params.u, pl.params.ts, pl.direction) == (13, 3, 0, IDFT):
            out = out.copy()
            out[5] = np.nan
        return out

    monkeypatch.setattr(transform, "execute", one_nan_bin)
    failed = [r for r in run_all(VerifyConfig(pmax=61)) if not r.passed]
    names = ["fast-idft-vs-naive", "shifted-dft-identity", "spectrum-magnitude"]
    assert [r.name for r in failed] == names
    for r in failed:
        assert math.isnan(r.max_error) and "p=13 u=3 ts=0 idft" in r.detail, result_line(r)


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
