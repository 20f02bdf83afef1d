"""Tests of the benchmark's own logic: inputs, reference, spans and output."""

import json
import math
import shutil
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path
from random import Random

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ops  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    GENERATORS,
    LARGE_P_STRATA,
    LARGE_P_WARMUP,
    Case,
    odd_primes_upto,
    verify_grid,
)

from zcdft import ZcParams, zc_time  # noqa: E402


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_cases(workload):
    first = list(islice(GENERATORS[workload](Random(7)), 3))
    again = list(islice(GENERATORS[workload](Random(7)), 3))
    other = list(islice(GENERATORS[workload](Random(8)), 3))
    assert first == again
    assert first != other


def test_prach_blocks_have_fixed_shares():
    for block in islice(GENERATORS["prach"](Random(1)), 3):
        assert Counter(c.p for c in block) == {139: 50, 571: 50, 839: 100, 1151: 50}
        for case in block:
            assert 1 <= case.u <= case.p - 1 and 0 <= case.ts <= case.p - 1


def test_large_p_distinct_primes_one_per_stratum():
    blocks = list(islice(GENERATORS["large-p"](Random(3)), 40))
    lengths = [c.p for block in blocks for c in block]
    assert len(set(lengths)) == len(lengths)
    assert LARGE_P_WARMUP not in lengths
    for block in blocks:
        strata = sorted(int((math.log2(c.p) - 16) / 4 * LARGE_P_STRATA) for c in block)
        assert strata == list(range(LARGE_P_STRATA))
    for p in lengths[:16]:
        assert is_prime(p) and (1 << 16) <= p <= (1 << 20)


def test_verify_draws_from_the_acceptance_grid_by_weight():
    grid = verify_grid()
    primes = [p for p in range(5, 200) if is_prime(p)]
    assert len(grid) == len(set(grid)) == sum(6 * (p - 1) for p in primes)
    assert {c.p for c in grid} == set(primes)
    total = sum(p - 1 for p in primes)
    for block in islice(GENERATORS["verify"](Random(2)), 20):
        assert set(block) <= set(grid)
        counts = Counter(c.p for c in block)
        for p in primes:  # stratified: each prime within one of its expected count
            assert abs(counts[p] - len(block) * (p - 1) / total) < 1


def test_sieve_matches_trial_division():
    assert odd_primes_upto(300) == [n for n in range(3, 301, 2) if is_prime(n)]


@pytest.mark.parametrize("case", [Case(139, 7, 11, False), Case(139, 7, 11, True), Case(8191, 8190, 4000, True)])
def test_check_accepts_the_fast_spectrum_only(case):
    out, _ = ops.spectrum(case)
    tol = ops.tolerance(case.p)
    assert all(e <= tol for e in ops.check(case, out))
    assert all(e > tol for e in ops.check(case, out * np.exp(1e-6j)))


@pytest.mark.parametrize("inverse", [False, True])
def test_identity_spectrum_is_accurate(inverse):
    case = Case(8191, 77, 5, inverse)
    x = zc_time(ZcParams(case.p, case.u, case.ts))
    err = np.max(np.abs(ops.identity_spectrum(x, case) - ops.fft_reference(x, inverse)))
    assert err < 1e3 * ops.EPS * math.sqrt(case.p)


def test_self_time_subtracts_children():
    tr = Tracer()
    root = tr.add("op", 1, -1, 0, 100)
    child = tr.add("transform.plan", 1, root, 10, 40)
    tr.add("numtheory.mod_inverse", 1, child, 50, 55)
    tr.add("transform.execute", 1, root, 40, 90)
    a = tr.arrays()
    assert list(a["self"]) == [20, 25, 5, 50]
    assert [str(a["names"][i]) for i in a["name"]] == [
        "op",
        "transform.plan",
        "numtheory.mod_inverse",
        "transform.execute",
    ]


@pytest.mark.parametrize(
    "n, q, beyond", [(20000, 99.0, 200), (1100, 99.0, 11), (150, 90.0, 15), (60, 50 / 60 * 100, 10), (5, 20.0, 4)]
)
def test_tail_is_highest_percentile_with_ten_beyond(n, q, beyond):
    got_q, value, got_beyond = run.tail(list(range(n)))
    assert (got_q, got_beyond) == (pytest.approx(q), beyond)
    assert value == (n - 1 - beyond) / 1e3


def test_scales_use_the_passes_nearby():
    w = run.Window()
    nominal = run.calibrate.NOMINAL_NS
    passes = [1, 1, 1, 1, 1, 2, 2, 2, 2, 2]  # host twice as slow from the sixth group on
    w.load_groups = [(3 * (i + 1), [nominal * p] * run.LOAD_PASSES) for i, p in enumerate(passes)]
    factors = w.scales()
    assert len(factors) == 30
    assert factors[:9] == [1.0] * 9 and factors[-9:] == [0.5] * 9
    assert factors[3 * 4] == 1.0 and factors[3 * 5] == 0.5  # median over the five nearest groups


def test_tail_scales_take_the_slower_neighbour():
    w = run.Window()
    nominal = run.calibrate.NOMINAL_NS
    passes = [1, 1, 2, 2, 1, 1]  # the first group comes before any operation
    w.load_groups = [(3 * i, [nominal * p] * run.LOAD_PASSES) for i, p in enumerate(passes)]
    assert w.tail_scales() == [1.0] * 3 + [0.5] * 9 + [1.0] * 3


def test_every_operation_raising_stops_early_and_reports(monkeypatch):
    def broken(case):
        raise RuntimeError("broken")

    monkeypatch.setitem(ops.OPERATIONS, "prach", broken)
    blocks = GENERATORS["prach"](Random(1))
    w = run.run_plain("prach", blocks, seconds=60, deadline=time.monotonic() + 60)
    assert w.attempted == 250 and w.failed == 250 and not w.latency_ns
    m = run.end_to_end(w, 0.1, 30.0)
    assert m["ok_ratio"] == 0 and m["spectra_per_s"] == 0 and m["spectrum_us_tail"] == 0


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def declared(kind):
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_declared_metric(trace, kind):
    done = run_bench(ROOT, "--workload", "verify", "--seed", "5", "--seconds", "0.2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
    if trace == "1":
        detail = json.loads(done.stdout.strip().splitlines()[-2])["detail"]
        m = result["metrics"]
        assert m["transform.execute.additions"]["value"] == detail["expected_counts"]["additions"]
        assert m["transform.execute.exp_evaluations"]["value"] == detail["expected_counts"]["exp_evaluations"]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "prach", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
