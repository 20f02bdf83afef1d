#!/usr/bin/env python3
"""zcdft benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload prach --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. One
process, one caller, a closed loop: the next operation starts when the
previous one and its check have finished. No threads are started. A run
measures for ``--seconds`` of wall time, checks included, and finishes the
block of cases it is in; rates and latencies count operation time only.

``--trace 0`` prints the end-to-end metrics, with times scaled to a nominal
host by the reference load in ``calibrate``. ``--trace 1`` alternates
untraced and traced blocks of cases, prints the per-layer metrics (including
the tracing overhead between the two) and writes the spans to
``perfbench/out/spans-<workload>.npz``. Metric names and units come from
``BENCHMARK.json``. The last line of standard output is the result object;
the line before it holds the environment and the run's details, which are
also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from random import Random
from time import perf_counter_ns as now
from time import process_time_ns as cpu_now

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "zcdft" / "__init__.py").is_file():
    sys.exit(f"no zcdft sources under {SRC}: run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402
import ops  # noqa: E402  (imports zcdft from src/)
from spans import Tracer  # noqa: E402
from workloads import GENERATORS, WARMUP_CASE  # noqa: E402

SETUP_PROBES = 7
# The end-to-end run makes LOAD_PASSES passes of the reference load before
# the first operation and after every LOAD_EVERY_NS of operation time (after
# every operation on large-p). For the rates and the median, operations are
# scaled by the median of the passes that follow them and of LOAD_SMOOTH
# groups of passes on either side. For the tail, each operation is scaled by
# the lower of the factors of the groups just before and just after it (see
# ``Window.tail_scales``).
LOAD_PASSES = 3
LOAD_EVERY_NS = 10_000_000
LOAD_SMOOTH = 2
WARMUP_S = {"prach": 1.0, "large-p": 0.0, "verify": 1.0}
# Percentiles tried for the tail metric, highest first; the first one with at
# least TAIL_BEYOND samples beyond it is reported. With fewer than 100
# samples, the (TAIL_BEYOND + 1)-th largest is reported instead. p99.9 is left
# out: over six 30 s runs of prach and of verify, its scaled CPU time spread
# 10% and 11% (IQR over median), against 5% and 4% for p99, with a bound of
# 25%.
TAIL_LADDER = (99.0, 90.0)
TAIL_BEYOND = 10
# The end-to-end run goes on until it has this many operations, so that
# large-p, which fits the fewest into the window, still reports p90. A run
# that has made this many attempts without a single success stops there.
MIN_OPS = 100
# Stop measuring early rather than miss the 180 s limit on a slow machine.
DEADLINE_S = 140.0


class Window:
    """Tallies of one measuring window."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latency_ns: list[int] = []
        self.cpu_ns: list[int] = []  # process CPU time of each timed operation
        # (timed operations so far, pass times) for each group of load passes
        self.load_groups: list[tuple[int, list[int]]] = []
        self.since_load_ns = 0
        self.bins = 0
        self.worst = 0.0  # max |X - ref| / (eps * sqrt(p)), ref as in ``judge``
        self.first_failure: str | None = None

    def fail(self, case, why: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{case}: {why}"

    def judge(self, case, errs) -> None:
        """Fail the operation unless every error is within the acceptance tolerance.

        ``errs`` is the oracle's error on verify, and (FFT, identity) errors
        elsewhere; the last one is the reported error.
        """
        self.worst = max(self.worst, errs[-1] / (ops.EPS * math.sqrt(case.p)))
        if not all(e <= ops.tolerance(case.p) for e in errs):
            self.fail(case, f"errors {errs} above tolerance")

    def spectra_per_s(self) -> float:
        return len(self.latency_ns) / (sum(self.latency_ns) / 1e9) if self.latency_ns else 0.0

    def time_load(self) -> None:
        self.load_groups.append((len(self.latency_ns), [calibrate.pass_ns() for _ in range(LOAD_PASSES)]))
        self.since_load_ns = 0

    def scales(self) -> list[float]:
        """Each timed operation's factor to the nominal host (see ``calibrate``)."""
        out: list[float] = []
        for i, (end, _) in enumerate(self.load_groups):
            near = self.load_groups[max(i - LOAD_SMOOTH, 0) : i + LOAD_SMOOTH + 1]
            factor = calibrate.NOMINAL_NS / statistics.median(t for _, ts in near for t in ts)
            out += [factor] * (end - len(out))
        return out

    def tail_scales(self) -> list[float]:
        """Each timed operation's factor for the tail metric.

        The host switches between a fast and a slow state (about 1.6x apart)
        for tens of milliseconds to minutes at a time, and the highest
        percentiles gather the operations that ran in the slow state. So
        each operation gets the factor of the groups of passes right next to
        it, not a smoothed or run-wide one; where the state changed between
        those two groups, it gets the lower factor, that of the slow state,
        so that no slow operation is scaled as a fast one.
        """
        factors = [calibrate.NOMINAL_NS / statistics.median(ts) for _, ts in self.load_groups]
        out: list[float] = []
        for i, (end, _) in enumerate(self.load_groups):
            out += [min(factors[max(i - 1, 0)], factors[i])] * (end - len(out))
        return out


def plain_block(w: Window, operation, block, calibrated: bool = False) -> None:
    """Run one block of cases with tracing off, timing the reference load if ``calibrated``."""
    for case in block:
        if calibrated and w.since_load_ns >= LOAD_EVERY_NS:
            w.time_load()
        w.attempted += 1
        c0 = cpu_now()
        t0 = now()
        try:
            out, err = operation(case)
        except Exception:
            w.fail(case, traceback.format_exc())
            continue
        t1 = now()
        w.cpu_ns.append(cpu_now() - c0)
        w.latency_ns.append(t1 - t0)
        w.since_load_ns += t1 - t0
        w.bins += case.p
        try:
            errs = (err,) if err is not None else ops.check(case, out)
        except Exception:
            w.fail(case, traceback.format_exc())
            continue
        w.judge(case, errs)


def traced_block(w: Window, block, tr, verified: bool, extra: dict) -> None:
    """Run one block of cases with spans on every public call.

    Outside each operation span it also re-times the calls inside ``plan``,
    times numpy's FFT, and runs ``execute`` again with ``OpCounters``, which
    must reproduce the spectrum bit for bit and count exactly 2(p-1)
    additions, 2(p-1) reductions and p lookups.
    """
    for case in block:
        w.attempted += 1
        op_id = w.attempted
        try:
            r = ops.traced(case, tr, op_id, verified)
        except Exception:
            w.fail(case, traceback.format_exc())
            continue
        w.latency_ns.append(tr.duration(r["op_span"]))
        w.bins += case.p
        try:
            if verified:
                errs = (r["err"],)
                ops.timed_fft(r["x"], case.inverse, tr, op_id)
            else:
                errs = ops.traced_check(case, r["out"], tr, op_id)
            ops.retime_plan_calls(case, r["plan_span"], tr, op_id)
            counters, same = ops.counted_execute(r["plan"], r["out"])
        except Exception:
            w.fail(case, traceback.format_exc())
            continue
        want = (2 * (case.p - 1), 2 * (case.p - 1), case.p)
        got = (counters.additions, counters.modulo_reductions, counters.exp_evaluations)
        if not same or got != want:
            w.fail(case, f"counted execute: same={same}, counts {got} != {want}")
        else:
            w.judge(case, errs)
        for key, g, e in zip(extra["counts"], got, want):
            extra["counts"][key] += g
            extra["expected"][key] += e
        extra["table_bytes"] = max(extra["table_bytes"], r["plan"].twiddles.nbytes)
        extra["out_bytes"] = max(extra["out_bytes"], r["out"].nbytes)


def run_plain(workload: str, blocks, seconds: float, deadline: float) -> Window:
    """Measure for ``seconds`` (and at least MIN_OPS operations) with tracing off."""
    w = Window()
    operation = ops.OPERATIONS[workload]
    w.time_load()
    end = time.monotonic() + seconds
    while (time.monotonic() < end or len(w.latency_ns) < MIN_OPS) and time.monotonic() < deadline:
        plain_block(w, operation, next(blocks), calibrated=True)
        if w.attempted >= MIN_OPS and not w.latency_ns:
            break
    if w.since_load_ns:
        w.time_load()
    return w


def run_alternating(workload: str, blocks, seconds: float, deadline: float, tr) -> tuple[Window, Window, dict]:
    """Measure for ``seconds``, alternating untraced and traced blocks.

    Alternating lets both halves see the same machine: run one after the
    other, they differed by several percent either way from drift alone.
    """
    plain, traced = Window(), Window()
    operation = ops.OPERATIONS[workload]
    zero = {k: 0 for k in ("additions", "modulo_reductions", "exp_evaluations")}
    extra = {"counts": dict(zero), "expected": dict(zero), "table_bytes": 0, "out_bytes": 0}
    end = time.monotonic() + seconds
    while time.monotonic() < min(end, deadline):
        plain_block(plain, operation, next(blocks))
        traced_block(traced, next(blocks), tr, workload == "verify", extra)
    return plain, traced, extra


def tail(latency_ns: list[int]) -> tuple[float, float, int]:
    """(percentile, value in us, samples beyond it) for the tail metric."""
    ordered = sorted(latency_ns)
    n = len(ordered)
    for q in TAIL_LADDER:
        idx = math.ceil(round(q / 100 * n, 6)) - 1  # round: q / 100 * n can overshoot an integer
        if n - 1 - idx >= TAIL_BEYOND:
            break
    else:
        idx = max(n - 1 - TAIL_BEYOND, 0)
        q = 100 * (idx + 1) / n
    return q, ordered[idx] / 1e3, n - 1 - idx


def probe(*args: str) -> list[float]:
    """Run probe.py in a fresh interpreter and return the numbers it prints."""
    done = subprocess.run(
        [sys.executable, "-I", str(BENCH / "probe.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return [float(v) for v in done.stdout.split()]


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """Fresh-interpreter set-up times: import zcdft plus one warm-up operation.

    Each probe also returns the scale of its own interpreter, from passes of
    the reference load made right after the timed part.
    """
    return [probe(workload, "setup") for _ in range(SETUP_PROBES)]


def warm_up(workload: str, seed: int) -> None:
    """Run the fixed warm-up case, then (prach, verify) a warm-up stream.

    The stream has its own seed-derived generator, so the measured cases are
    the same whatever the warm-up did. large-p gets only its warm-up length,
    which its draws exclude. Exceptions are left for the measured run to
    count.
    """
    ops.attempt(workload, WARMUP_CASE[workload])
    if WARMUP_S[workload] <= 0:
        return
    blocks = GENERATORS[workload](Random(f"warm-up {seed}"))
    end = time.monotonic() + WARMUP_S[workload]
    while time.monotonic() < end:
        for case in next(blocks):
            ops.attempt(workload, case)


def end_to_end(w: Window, setup_s: float, peak_rss_mb: float, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics, with times scaled to the nominal host or not.

    Each operation's wall time is scaled by its own factor from ``scales``,
    and its CPU time, for the tail, by its factor from ``tail_scales``.
    Metrics that need a timed operation are 0 without one.
    """
    m = {
        "setup_s": setup_s,
        "ok_ratio": (w.attempted - w.failed) / w.attempted,
        "max_err_eps_sqrtp": w.worst,
        "peak_rss_mb": peak_rss_mb,
        "spectra_per_s": 0.0,
        "bins_per_s": 0.0,
        "spectrum_us_p50": 0.0,
        "spectrum_us_tail": 0.0,
    }
    if w.latency_ns:
        wall, cpu = w.latency_ns, w.cpu_ns
        if scaled:
            wall = [t * f for t, f in zip(wall, w.scales())]
            cpu = [t * f for t, f in zip(cpu, w.tail_scales())]
        m.update(
            spectra_per_s=len(wall) / (sum(wall) / 1e9),
            bins_per_s=w.bins / (sum(wall) / 1e9),
            spectrum_us_p50=statistics.median(wall) / 1e3,
            spectrum_us_tail=tail(cpu)[1],
        )
    return m


def per_layer(spans: dict, extra: dict, plain: Window, traced: Window) -> dict[str, float]:
    names = [str(n) for n in spans["names"]]
    dur = spans["end"] - spans["start"]
    is_op = spans["name"] == names.index("op")
    in_op = np.zeros_like(is_op)
    has_parent = spans["parent"] >= 0
    in_op[has_parent] = is_op[spans["parent"][has_parent]]
    op_ns = dur[is_op].sum()

    def pick(name: str) -> np.ndarray:
        return spans["name"] == (names.index(name) if name in names else -1)

    def us_p50(name: str, field: np.ndarray = dur) -> float:
        return float(np.median(field[pick(name)])) / 1e3

    def share(name: str) -> float:
        return float(dur[pick(name) & in_op].sum() / op_ns)

    m = {
        "transform.execute.us_p50": us_p50("transform.execute"),
        "transform.execute.share": share("transform.execute"),
        "transform.execute.ns_per_bin": float(dur[pick("transform.execute")].sum() / traced.bins),
        "transform.plan.us_p50": us_p50("transform.plan"),
        "transform.plan.share": share("transform.plan"),
        "transform.plan.self_us_p50": us_p50("transform.plan", spans["self"]),
        "transform.plan.table_bytes": extra["table_bytes"],
        "transform.execute.out_bytes": extra["out_bytes"],
        "sequences.zc_time.us_p50": us_p50("sequences.zc_time"),
        "sequences.zc_time.share": share("sequences.zc_time"),
        "oracle.naive.share": share("oracle.naive"),
        "numpy.fft.us_p50": us_p50("numpy.fft"),
        "trace.overhead_pct": 100 * (1 - traced.spectra_per_s() / plain.spectra_per_s()),
    }
    m["transform.execute_over_fft"] = m["transform.execute.us_p50"] / m["numpy.fft.us_p50"]
    for name in (
        "sequences.ZcParams",
        "numtheory.mod_inverse",
        "numtheory.legendre",
        "gauss.quasi_phase_offset4",
        "gauss.const_from_qpo",
    ):
        m[f"{name}.us_p50"] = us_p50(name)
    for key, value in extra["counts"].items():
        m[f"transform.execute.{key}"] = value
    return m


def environment(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_revision() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S

    if not args.trace:
        setup = setup_seconds(args.workload)
        (peak_rss_mb,) = probe(args.workload, "memory")
    warm_up(args.workload, args.seed)
    blocks = GENERATORS[args.workload](Random(args.seed))
    detail = {"environment": environment(args)}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr = Tracer()
        plain, traced, extra = run_alternating(args.workload, blocks, args.seconds, deadline, tr)
        tr.save(OUT / f"spans-{args.workload}.npz")
        declared_metrics = declared["per_layer"]
        if plain.latency_ns and traced.latency_ns:
            metrics = per_layer(tr.arrays(), extra, plain, traced)
        else:  # nothing to compare; the failures make the run incorrect
            metrics = {m["name"]: 0.0 for m in declared_metrics}
        windows = [plain, traced]
        detail.update(spans=len(tr), expected_counts=extra["expected"])
    else:
        w = run_plain(args.workload, blocks, args.seconds, deadline)
        metrics = end_to_end(w, statistics.median(t * s for t, s in setup), peak_rss_mb)
        windows = [w]
        detail.update(
            unscaled=end_to_end(w, statistics.median(t for t, _ in setup), peak_rss_mb, scaled=False),
            setup_s_probes=setup,
        )
        if w.latency_ns:
            q, _, beyond = tail(w.cpu_ns)
            factors = w.scales()
            detail.update(
                scale_quartiles=statistics.quantiles(factors, n=4) if len(factors) > 1 else factors,
                load_groups=len(w.load_groups),
                tail_percentile=q,
                tail_samples_beyond=beyond,
            )
        declared_metrics = declared["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared_metrics}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    detail.update(
        samples=sum(len(w.latency_ns) for w in windows),
        first_failure=next((w.first_failure for w in windows if w.first_failure), None),
        stopped_by_deadline=time.monotonic() >= deadline,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
