"""Command-line front end.

Subcommands: gen (time-domain sequence), dft / idft (fast, reference or
naive transform), pattern (point-set CSV, optionally flipped), verify (full
invariant suite) and bench (timing + operation counts). Exit codes: 0 ok,
1 verification failure, 2 bad arguments. All data outputs are deterministic
given the flags; only bench timings vary run to run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import __version__, oracle, pattern, transform
from .sequences import ZcParams
from .transform import zc_time
from .verify import VerifyConfig, result_line, run_all

# 17 significant decimal digits round-trip any binary64 value exactly, so
# files can stand in for in-memory arrays in cross-checks.
_FMT = "{:.17g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _sequence_text(args, samples: np.ndarray) -> str:
    if args.format == "json":
        payload = {
            "p": args.p,
            "u": args.u,
            "ts": args.ts,
            "samples": [[float(v.real), float(v.imag)] for v in samples],
        }
        return json.dumps(payload) + "\n"
    lines = ["k,re,im"]
    lines.extend(
        f"{k},{_FMT.format(v.real)},{_FMT.format(v.imag)}" for k, v in enumerate(samples)
    )
    return "\n".join(lines) + "\n"


def _zc_params(parser: argparse.ArgumentParser, p: int, u: int, ts: int) -> ZcParams:
    """ZcParams from --p/--u/--ts; an invalid value is a usage error (exit 2)."""
    try:
        return ZcParams(p=p, u=u, ts=ts)
    except ValueError as exc:
        parser.error(f"invalid --p/--u/--ts: {exc}")


def cmd_gen(parser, args) -> int:
    params = _zc_params(parser, args.p, args.u, args.ts)
    _write_text(args.out, _sequence_text(args, zc_time(params)))
    return 0


def cmd_transform(parser, args) -> int:
    params = _zc_params(parser, args.p, args.u, args.ts)
    direction = transform.DFT if args.command == "dft" else transform.IDFT
    if args.method == "fast":
        out = transform.execute(transform.plan(params, direction))
    elif args.method == "reference":
        out = oracle.shifted_dft_identity(params, direction)
    else:
        if params.p > oracle.PMAX:
            parser.error(f"--method naive takes p <= {oracle.PMAX}, the O(p^2) oracle's limit")
        x = zc_time(params)
        out = oracle.naive_dft(x) if direction == transform.DFT else oracle.naive_idft(x)
    if direction == transform.IDFT and args.normalize:
        out = out / params.p
    _write_text(args.out, _sequence_text(args, out))
    return 0


_FLIPS = {
    "dft": pattern.flip_dft,
    "idft": pattern.flip_idft,
    "conj": pattern.flip_conjugate,
}


def cmd_pattern(parser, args) -> int:
    params = _zc_params(parser, args.p, args.u, args.ts)
    pat = pattern.make_pattern(params.p, -params.u, ts=params.ts)
    for name in [f.strip() for f in args.flip.split(",")]:
        if name == "none":
            continue
        if name not in _FLIPS:
            parser.error(f"--flip entries must be none|dft|idft|conj, got {name!r}")
        pat = _FLIPS[name](pat)
    _write_text(args.out, pattern.export_pattern(pat))
    return 0


def cmd_verify(parser, args) -> int:
    if args.pmax < 5:
        parser.error("--pmax must be at least 5, the smallest grid with both p mod 4 branches")
    if args.pmax > oracle.PMAX:
        parser.error(f"--pmax must be at most {oracle.PMAX}, the O(p^2) oracle's limit")
    cfg = VerifyConfig(
        pmax=args.pmax,
        include_839=args.include_839,
        inject_fault=args.inject_fault,
    )
    results = run_all(cfg)
    failures = sum(not r.passed for r in results)
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results]))
        return 1 if failures else 0
    width = max(len(r.name) for r in results)
    for r in results:
        print(result_line(r, width))
    print(f"{len(results) - failures}/{len(results)} property families passed")
    return 1 if failures else 0


def _median_ns(fn, reps: int) -> int:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


# naive_ns is the median of --reps calls of the O(p^2) oracle, the first of
# which builds p's oracle entry unless p is a grid length already kept, and
# every one of which builds it above the grid: 0.23-0.32 s per call at p = 8209
# and, growing as p^2, some 15 s at 65537, so above this length it,
# naive_build_ns and naive_faults are null
_NAIVE_PMAX = 10_000


def _faults_per_call(fn, reps: int) -> float | None:
    """Minor page faults (getrusage ru_minflt) per call of fn over reps warm calls."""
    if resource is None:
        return None
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(reps):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / reps


def _build_ns(build, p: int, reps: int) -> int:
    """The fastest of reps calls of build(p), which builds p's entry whether or not it is kept.

    One build read 8.6-20.8 ms across three processes at p = 40853 on a
    2-vCPU Xeon, where the fastest of 15 read 8.3 ms: the minimum is the
    build's own cost, without the stalls of the host.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        build(p)
        times.append(time.perf_counter_ns() - t0)
    return min(times)


def _bench_report(params: ZcParams, reps: int) -> dict:
    pl = transform.plan(params, transform.DFT)
    kept = pl.logs is not None
    naive = params.p <= _NAIVE_PMAX
    phases = transform.phase_indices(pl)
    x = zc_time(params)
    counters = transform.OpCounters()
    transform.execute(pl, counters)
    return {
        "p": params.p,
        "u": params.u,
        "reps": reps,
        "params_ns": _median_ns(lambda: ZcParams(params.p, params.u, params.ts), reps),
        "plan_ns": _median_ns(lambda: transform.plan(params, transform.DFT), reps),
        "fast_ns": _median_ns(lambda: transform.execute(pl), reps),
        "phase_ns": _median_ns(lambda: transform.phase_indices(pl), reps),
        "gather_ns": _median_ns(lambda: transform._gather_phases(pl, phases), reps),
        "reference_ns": _median_ns(
            lambda: oracle.shifted_dft_identity(params, transform.DFT), reps
        ),
        "naive_ns": _median_ns(lambda: oracle.naive_dft(x), reps) if naive else None,
        "additions": counters.additions,
        "modulo_reductions": counters.modulo_reductions,
        "exp_evaluations": counters.exp_evaluations,
        "table_bytes": pl.twiddles.nbytes,
        "entry_bytes": transform._entry_bytes(params.p) if kept else None,
        "entry_build_ns": _build_ns(transform._build_entry, params.p, reps) if kept else None,
        "naive_build_ns": _build_ns(oracle._entry, params.p, reps) if naive else None,
        "naive_faults": _faults_per_call(lambda: oracle.naive_dft(x), reps) if naive else None,
        "fast_faults": _faults_per_call(lambda: transform.execute(pl), reps),
        "zc_time_ns": _median_ns(lambda: zc_time(params), reps),
        "fft_ns": _median_ns(lambda: np.fft.fft(x), reps),
    }


def cmd_bench(parser, args) -> int:
    cases = [
        _zc_params(parser, p, min(25, p - 1) if args.u is None else args.u, args.ts)
        for p in args.p or [839]
    ]
    if args.reps < 1:
        parser.error("--reps must be positive")
    for params in cases:
        print(json.dumps(_bench_report(params, args.reps)), flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zcdft",
        description="Zadoff-Chu sequences and their linear-time DFT/IDFT.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_zc_flags(sp, with_format=True):
        sp.add_argument("--p", type=int, required=True, help="prime sequence length")
        sp.add_argument("--u", type=int, required=True, help="root, in [1, p-1]")
        sp.add_argument("--ts", type=int, default=0, help="cyclic shift, in [0, p-1]")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if with_format:
            sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("gen", help="write the time-domain ZC sequence")
    sp.set_defaults(handler=cmd_gen)
    add_zc_flags(sp)

    for name, blurb in (("dft", "forward transform"), ("idft", "inverse transform")):
        sp = sub.add_parser(name, help=f"write the {blurb} of the ZC sequence")
        sp.set_defaults(handler=cmd_transform)
        add_zc_flags(sp)
        sp.add_argument(
            "--method",
            choices=["fast", "reference", "naive"],
            default="fast",
            help="fast (closed form of the accumulation), index-remapping identity, or brute force",
        )
        if name == "idft":
            sp.add_argument(
                "--normalize", action="store_true", help="divide the output by p"
            )

    sp = sub.add_parser("pattern", help="write the lmFH pattern as CSV")
    sp.set_defaults(handler=cmd_pattern)
    add_zc_flags(sp, with_format=False)
    sp.add_argument(
        "--flip",
        default="none",
        help="ordered comma list of flips to apply: none|dft|idft|conj",
    )

    sp = sub.add_parser("verify", help="run the full invariant suite")
    sp.set_defaults(handler=cmd_verify)
    sp.add_argument("--pmax", type=int, default=199, help=f"largest prime in the grids, 5 to {oracle.PMAX}")
    sp.add_argument(
        "--include-839",
        action="store_true",
        help="add p=839 (32 sampled roots) to the transform families",
    )
    sp.add_argument(
        "--inject-fault",
        action="store_true",
        help="sanity check: perturb one frequency shift; verification must fail",
    )
    sp.add_argument(
        "--json",
        action="store_true",
        help="print one JSON list of the families (name, passed, max_error, detail, "
        "seconds) instead of the [PASS]/[FAIL] lines",
    )

    sp = sub.add_parser(
        "bench",
        help="time plan and the fast, reference and naive paths",
        description="Print median timings and the operation counts of the counted "
        "recurrence as one JSON line per --p. params_ns times ZcParams, with "
        "its validation, and fast_ns execute; phase_ns "
        "times the closed-form phase indices, and gather_ns the scaled gather "
        "of all p bins at given phases that the counted path runs: at every p "
        "a blocked gather from the table's two sqrt(p)-length factors. "
        "execute instead reads a kept length's entries through its "
        "discrete-log tables, and for any other length gathers (p+1)/2 bins "
        "and copies the other (p-1)/2 from their mirrors. plan_ns is a "
        "median over reps, so it times a kept entry whenever p fits the "
        "per-length store. exp_evaluations counts the p table lookups of the "
        "gather, not calls to exp. table_bytes is what the plan holds of the "
        "table of roots, its two factors at every p; a kept length's log "
        "tables and root rows are not counted. entry_bytes is what the "
        "per-length store holds for p and entry_build_ns the fastest of reps "
        "builds of that entry; both are null when p is not kept. naive_ns is "
        "the median of reps calls of the O(p^2) oracle, which keeps p's entry "
        f"only for a grid length p <= {oracle._GRID_PMAX}: there the first call "
        "builds it unless it is already kept, above the grid every call does. "
        "naive_build_ns is the fastest of reps builds of that entry, kept or not; "
        "naive_faults is the minor page faults per warm oracle call over reps "
        f"calls. All three are measured only up to p = {_NAIVE_PMAX} and are "
        "null above it. fast_faults is the minor page faults per warm execute "
        "call over reps calls, at every p; both fault keys are null where the "
        "resource module is missing. zc_time_ns is the median of a zc_time call, which gathers "
        "its samples from the transform's table of roots, through a kept "
        "length's discrete logs and any other length's factors, and fft_ns that "
        "of np.fft.fft on the same samples, the baseline the transform is "
        "measured against.",
    )
    sp.set_defaults(handler=cmd_bench)
    sp.add_argument(
        "--p",
        type=int,
        action="append",
        help="prime sequence length; repeat for several (default 839)",
    )
    sp.add_argument(
        "--u", type=int, default=None, help="root, in [1, p-1] (default min(25, p-1) per --p)"
    )
    sp.add_argument("--ts", type=int, default=0, help="cyclic shift, in [0, p-1]")
    sp.add_argument("--reps", type=int, default=100, help="repetitions per path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(parser, args)


if __name__ == "__main__":
    sys.exit(main())
