"""Self-verification: every library invariant checked against brute force.

ALL_CHECKS is the single statement of the library's invariants. pytest
(tests/test_acceptance.py) and `zcdft verify --pmax 199 --include-839` run
the same registry on the same grid, VerifyConfig(pmax=199, include_839=True),
and print the same [PASS]/[FAIL] line per family through result_line.

Each check covers one property family over a grid of primes controlled by
pmax. Checks are pure and independent; run_all executes them in order and
reports the maximum observed error and the wall time of each family. A
deliberate fault can be injected into the fast DFT comparison to prove the
harness is not vacuous.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracle, pattern, transform
from .gauss import const_from_qpo, gauss_sum_closed, quasi_phase_offset4
from .numtheory import centered, legendre, mod_inverse, odd_primes
from .sequences import LmfhParams, OpCounters, ZcParams, accumulate_phases, lmfh_symbol, zc_time


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: float
    detail: str = ""
    seconds: float = 0.0

    def __post_init__(self):
        # checks compute these with numpy; plain types keep the result JSON-ready
        self.passed = bool(self.passed)
        self.max_error = float(self.max_error)


@dataclass(frozen=True)
class VerifyConfig:
    pmax: int = 199
    include_839: bool = False
    inject_fault: bool = False

    def primes(self, cap: int) -> list[int]:
        return odd_primes(min(self.pmax, cap))

    def transform_cases(self):
        """(p, [(u, ts), ...]) for the transform families: _cases(p), then 32 roots of 839."""
        for p in self.primes(self.pmax):
            yield p, _cases(p)
        if self.include_839:
            p = 839
            step = (p - 1) // 32
            yield p, [(1 + j * step, ts) for j in range(32) for ts in (0, 1, (p - 1) // 2)]

    def spot_primes(self, *primes: int) -> list[int]:
        """The given primes up to pmax, then 839 when include_839 is set."""
        return [p for p in primes if p <= self.pmax] + ([839] if self.include_839 else [])


def _cases(p: int) -> list[tuple[int, int]]:
    """(u, ts) for every root u of p, ts in {0, 1, (p-1)/2} and, at p <= 61, ts = u.

    Over the roots, ts = u puts every nonzero shift on every length p <= 61.
    """
    small = p <= 61
    return [(u, ts) for u in range(1, p) for ts in sorted({0, 1, (p - 1) // 2, u if small else 0})]


# Wall-time bound on each fast-vs-naive family over the full grid.
FAST_VS_NAIVE_SECONDS = 120.0


def result_line(r: CheckResult, width: int = 0) -> str:
    """The report line of one family: status, name, worst error, detail."""
    status = "PASS" if r.passed else "FAIL"
    detail = f"  [{r.detail}]" if r.detail else ""
    return f"[{status}] {r.name:<{width}}  max error {r.max_error:.3e}{detail}"


def _tol(p: int) -> float:
    # Naive-oracle rounding grows with p; the fast path is more accurate.
    return 1e-9 * np.sqrt(p)


def check_modular_inverse(cfg: VerifyConfig) -> CheckResult:
    worst = 0
    for p in cfg.primes(199):
        for u in range(1, p):
            inv = mod_inverse(u, p)
            worst = max(worst, abs(u * inv % p - 1))
            if not 1 <= inv <= p - 1:
                return CheckResult("modular-inverse", False, 1.0, f"range p={p} u={u}")
    return CheckResult("modular-inverse", worst == 0, float(worst))


def check_legendre_symbol(cfg: VerifyConfig) -> CheckResult:
    for p in cfg.primes(199):
        squares = {(a * a) % p for a in range(1, p)}
        residues = 0
        for a in range(0, p):
            expect = 0 if a == 0 else (1 if a in squares else -1)
            if legendre(a, p) != expect:
                return CheckResult("legendre-symbol", False, 1.0, f"p={p} a={a}")
            residues += legendre(a, p) == 1
        if residues != (p - 1) // 2:
            return CheckResult("legendre-symbol", False, 1.0, f"residue count p={p}")
        for a in range(1, p):
            for b in (2, 3, a):
                if legendre(a * b, p) != legendre(a, p) * legendre(b, p):
                    return CheckResult("legendre-symbol", False, 1.0, f"multiplicativity p={p}")
    return CheckResult("legendre-symbol", True, 0.0)


def check_centered_residues(cfg: VerifyConfig) -> CheckResult:
    for p in cfg.primes(199):
        half = (p - 1) // 2
        for x in list(range(-2 * p, 2 * p, max(1, p // 7))) + [7, -56, p, -p]:
            c = centered(x, p)
            if not -half <= c <= half or (c - x) % p != 0:
                return CheckResult("centered-residues", False, 1.0, f"p={p} x={x}")
    return CheckResult("centered-residues", True, 0.0)


def check_constant_amplitude(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for p in cfg.primes(61):
        for u, ts in _cases(p):
            z = zc_time(ZcParams(p=p, u=u, ts=ts))
            sym = lmfh_symbol(LmfhParams(p=p, s=-u, fs=ts, po=0.3))
            worst = max(worst, np.abs(np.abs(z) - 1.0).max(), np.abs(np.abs(sym) - 1.0).max())
    return CheckResult("constant-amplitude", worst <= 1e-12, worst)


def check_lmfh_zc_conjugacy(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for p in cfg.primes(61):
        for u in range(1, p):
            z = zc_time(ZcParams(p=p, u=u))
            worst = max(worst, np.abs(lmfh_symbol(LmfhParams(p=p, s=-u)) - z).max())
            worst = max(worst, np.abs(lmfh_symbol(LmfhParams(p=p, s=u)) - np.conj(z)).max())
    return CheckResult("lmfh-zc-conjugacy", worst <= 1e-12, worst)


def check_zc_autocorrelation(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for p in cfg.primes(61):
        # row d - 1 of z[lags] is np.roll(z, -d), d = 1..p-1
        lags = (np.arange(1, p)[:, None] + np.arange(p)) % p
        for u in range(1, p):
            z = zc_time(ZcParams(p=p, u=u))
            worst = max(worst, np.abs(z[lags].conj() @ z).max() / p)
    return CheckResult("zc-autocorrelation", worst <= 1e-9, worst)


def check_cyclic_shift_rotation(cfg: VerifyConfig) -> CheckResult:
    for p in cfg.primes(61):
        for u in range(1, p):
            base = zc_time(ZcParams(p=p, u=u))
            for ts in sorted({0, 1, (p - 1) // 2, u, p - 1}):
                shifted = zc_time(ZcParams(p=p, u=u, ts=ts))
                if not np.array_equal(shifted, np.roll(base, -ts)):
                    return CheckResult("cyclic-shift-rotation", False, 1.0, f"p={p} u={u} ts={ts}")
    return CheckResult("cyclic-shift-rotation", True, 0.0)


def check_gauss_closed_vs_brute(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    branches = set()
    for p in cfg.primes(199):
        tol = _tol(p)
        for u in range(1, p):
            g = gauss_sum_closed(p, u)
            brute = oracle.brute_gauss_sum(ZcParams(p=p, u=u))
            worst = max(worst, abs(g.value - brute) / tol)
            branches.add((p % 4, legendre(2 * u, p)))
    passed = worst <= 1.0 and branches == {(1, 1), (1, -1), (3, 1), (3, -1)}
    return CheckResult(
        "gauss-closed-vs-brute",
        passed,
        worst,
        f"error / (1e-9*sqrt(p)); branches={sorted(branches)}",
    )


def check_gauss_phase_form(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for p in cfg.primes(199):
        for u in range(1, p):
            g = gauss_sum_closed(p, u)
            worst = max(worst, abs(g.value - const_from_qpo(p, g.qpo_times4)))
            worst = max(worst, abs(abs(g.value) - np.sqrt(p)))
            if g.qpo_times4 != quasi_phase_offset4(p, u):
                return CheckResult("gauss-phase-form", False, 1.0, f"p={p} u={u}")
    return CheckResult("gauss-phase-form", worst <= 1e-12 * np.sqrt(199), worst)


def _naive(x: np.ndarray, direction: str) -> np.ndarray:
    return oracle.naive_dft(x) if direction == transform.DFT else oracle.naive_idft(x)


def _fast_vs_naive(cfg: VerifyConfig, direction: str) -> CheckResult:
    name = f"fast-{direction}-vs-naive"
    start = time.perf_counter()
    worst_rel = 0.0
    fault_pending = cfg.inject_fault and direction == transform.DFT
    for p, cases in cfg.transform_cases():
        fast, signals = [], []
        for u, ts in cases:
            params = ZcParams(p=p, u=u, ts=ts)
            pl = transform.plan(params, direction)
            if fault_pending:
                pl = dataclasses.replace(pl, fs=(pl.fs + 1) % p)
                fault_pending = False
            fast.append(transform.execute(pl))
            signals.append(zc_time(params))
        # one oracle call per length, row for row the same as one per case
        ref = _naive(np.stack(signals), direction)
        worst_rel = max(worst_rel, np.abs(np.stack(fast) - ref).max() / _tol(p))
    seconds = time.perf_counter() - start
    return CheckResult(
        name,
        worst_rel <= 1.0 and seconds < FAST_VS_NAIVE_SECONDS,
        worst_rel,
        f"error / (1e-9*sqrt(p)); {seconds:.1f} s of {FAST_VS_NAIVE_SECONDS:.0f} s",
    )


def check_fast_dft_vs_naive(cfg: VerifyConfig) -> CheckResult:
    return _fast_vs_naive(cfg, transform.DFT)


def check_fast_idft_vs_naive(cfg: VerifyConfig) -> CheckResult:
    return _fast_vs_naive(cfg, transform.IDFT)


def check_shifted_dft_identity(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for p in cfg.primes(199):
        for u in range(1, p):
            for ts in sorted({0, 1, 2, (p - 1) // 2}):
                params = ZcParams(p=p, u=u, ts=ts)
                for direction in (transform.DFT, transform.IDFT):
                    identity = oracle.shifted_dft_identity(params, direction)
                    fast = transform.execute(transform.plan(params, direction))
                    worst = max(worst, np.abs(identity - fast).max() / (1e-10 * np.sqrt(p)))
                    if p <= 61:
                        naive = _naive(zc_time(params), direction)
                        worst = max(
                            worst,
                            np.abs(identity - naive).max() / _tol(p),
                            np.abs(fast - naive).max() / _tol(p),
                        )
    detail = "error / (1e-10*sqrt(p)) vs fast, / (1e-9*sqrt(p)) vs naive"
    return CheckResult("shifted-dft-identity", worst <= 1.0, worst, detail)


def check_transform_round_trip(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    cases = [(p, u, ts) for p in cfg.primes(61) for u, ts in _cases(p)]
    cases += [(p, u, 0) for p in cfg.spot_primes(139) for u in (1, 2, 25, p - 2, p - 1)]
    for p, u, ts in cases:
        params = ZcParams(p=p, u=u, ts=ts)
        spectrum = transform.execute(transform.plan(params, transform.DFT))
        back = oracle.naive_idft(spectrum)
        worst = max(worst, np.abs(back - p * zc_time(params)).max() / (1e-8 * p))
    return CheckResult("transform-round-trip", worst <= 1.0, worst, "error / (1e-8*p)")


def check_spectrum_magnitude(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for p, cases in cfg.transform_cases():
        for u, ts in cases:
            for direction in (transform.DFT, transform.IDFT):
                out = transform.execute(transform.plan(ZcParams(p=p, u=u, ts=ts), direction))
                worst = max(worst, np.abs(np.abs(out) - np.sqrt(p)).max())
    return CheckResult("spectrum-magnitude", worst <= 1e-9, worst)


def check_operation_counts(cfg: VerifyConfig) -> CheckResult:
    for p in [13, 29] + cfg.spot_primes(199):
        for u in sorted({2, min(25, p - 1)}):
            for ts in (0, 1):
                for direction in (transform.DFT, transform.IDFT):
                    counters = OpCounters()
                    transform.execute(transform.plan(ZcParams(p, u, ts), direction), counters)
                    expect = (2 * (p - 1), 2 * (p - 1), p)
                    got = (counters.additions, counters.modulo_reductions, counters.exp_evaluations)
                    if got != expect:
                        detail = f"p={p} u={u} ts={ts} {direction}: {got} != {expect}"
                        return CheckResult("operation-counts", False, 1.0, detail)
    return CheckResult("operation-counts", True, 0.0)


def check_phase_closed_form_vs_recurrence(cfg: VerifyConfig) -> CheckResult:
    name = "phase-closed-form-vs-recurrence"
    for p, cases in cfg.transform_cases():
        for u, ts in cases:
            params = ZcParams(p=p, u=u, ts=ts)
            if not np.array_equal(zc_time(params), oracle.zc_time_direct(params)):
                return CheckResult(name, False, 1.0, f"zc_time p={p} u={u} ts={ts}")
            for direction in (transform.DFT, transform.IDFT):
                pl = transform.plan(params, direction)
                ref = accumulate_phases(p, pl.iu, pl.fs, OpCounters())
                if not np.array_equal(transform.phase_indices(pl), ref):
                    return CheckResult(name, False, 1.0, f"p={p} u={u} ts={ts} {direction}")
    return CheckResult(name, True, 0.0, "integer equality")


def check_phase_mirror(cfg: VerifyConfig) -> CheckResult:
    # phase_k = r*k*(k + s) mod p is the same at k and t - k, t = -s mod p;
    # a factored execute copies half its bins on the strength of this
    name = "phase-mirror"
    for p, cases in cfg.transform_cases():
        k = np.arange(p)
        for u, ts in cases:
            for direction in (transform.DFT, transform.IDFT):
                pl = transform.plan(ZcParams(p=p, u=u, ts=ts), direction)
                phases = transform.phase_indices(pl)
                t = (2 * u * pl.fs - 1) % p
                if not np.array_equal(phases, phases[(t - k) % p]):
                    return CheckResult(name, False, 1.0, f"p={p} u={u} ts={ts} {direction}")
    return CheckResult(name, True, 0.0, "integer equality")


def check_dft_idft_shift_gap(cfg: VerifyConfig) -> CheckResult:
    for p in cfg.primes(199):
        half = (p + 1) // 2
        for u in range(1, p):
            iu = mod_inverse(u, p)
            eq_dft_form = (half * (1 - iu)) % p
            eq_idft_form = (((p - 1) // 2) * (iu + 1)) % p
            if (eq_dft_form - eq_idft_form) % p != 1:
                return CheckResult("dft-idft-shift-gap", False, 1.0, f"p={p} u={u}")
            fwd = transform.plan(ZcParams(p=p, u=u), transform.DFT)
            inv = transform.plan(ZcParams(p=p, u=u), transform.IDFT)
            if (inv.fs - fwd.fs) % p != 1:
                return CheckResult("dft-idft-shift-gap", False, 1.0, f"plan gap p={p} u={u}")
            shared = (fwd.iu, fwd.ell, fwd.qpo_times4, fwd.const_factor) == (
                inv.iu,
                inv.ell,
                inv.qpo_times4,
                inv.const_factor,
            )
            if not shared or not np.array_equal(fwd.twiddles, inv.twiddles):
                return CheckResult("dft-idft-shift-gap", False, 1.0, f"plan share p={p} u={u}")
    return CheckResult("dft-idft-shift-gap", True, 0.0)


def check_pattern_flip_involution(cfg: VerifyConfig) -> CheckResult:
    for p in cfg.primes(61):
        for u in range(1, p):
            pat = pattern.make_pattern(p, -u)
            for flip in (pattern.flip_dft, pattern.flip_idft, pattern.flip_conjugate):
                twice = flip(flip(pat))
                once = flip(pat)
                if twice != pat or once.orientation == pat.orientation:
                    return CheckResult("pattern-flip-involution", False, 1.0, f"p={p} u={u}")
            mirrored = sorted((p - 1 - t, -f) for t, f in pattern.flip_dft(pat).points)
            if mirrored != sorted(pattern.flip_idft(pat).points):
                return CheckResult("pattern-flip-involution", False, 1.0, f"mirror p={p} u={u}")
            fs = {f for _, f in pat.points}
            if fs != set(range(-(p - 1) // 2, (p - 1) // 2 + 1)):
                return CheckResult("pattern-flip-involution", False, 1.0, f"bijection p={p}")
    return CheckResult("pattern-flip-involution", True, 0.0)


def check_pattern_slope_inversion(cfg: VerifyConfig) -> CheckResult:
    for p in cfg.primes(61):
        for u in range(1, p):
            got = pattern.read_slope(pattern.flip_dft(pattern.make_pattern(p, -u)))
            if got != (-mod_inverse(u, p)) % p:
                return CheckResult("pattern-slope-inversion", False, 1.0, f"p={p} u={u}")
            generic = pattern.read_slope(pattern.flip_dft(pattern.make_pattern(p, u)))
            if generic != mod_inverse(u, p):
                return CheckResult("pattern-slope-inversion", False, 1.0, f"s-inverse p={p} u={u}")
    return CheckResult("pattern-slope-inversion", True, 0.0)


def check_pattern_shift_extraction(cfg: VerifyConfig) -> CheckResult:
    for p in cfg.primes(61):
        for u in range(1, p):
            iu = mod_inverse(u, p)
            for ts in (0, 1, (p - 1) // 2):
                pat = pattern.make_pattern(p, -u, ts=ts)
                # The classical shifts ((p+1)/2)(1-iu) and ((p-1)/2)(iu+1),
                # moved by +ts and -ts; plan shifts are their negations mod p.
                for direction, flip, classical in (
                    (transform.DFT, pattern.flip_dft, ((p + 1) // 2) * (1 - iu) + ts),
                    (transform.IDFT, pattern.flip_idft, ((p - 1) // 2) * (iu + 1) - ts),
                ):
                    extracted = pattern.read_shift(flip(pat))
                    planned = transform.plan(ZcParams(p=p, u=u, ts=ts), direction).fs
                    if extracted != classical % p or (planned + extracted) % p != 0:
                        return CheckResult(
                            "pattern-shift-extraction",
                            False,
                            1.0,
                            f"p={p} u={u} ts={ts} {direction}: {extracted} vs classical "
                            f"{classical % p}, plan {planned}",
                        )
                base = pattern.read_shift(pattern.flip_dft(pattern.make_pattern(p, -u)))
                with_ts = pattern.read_shift(pattern.flip_dft(pat))
                if (with_ts - base) % p != ts % p:
                    return CheckResult("pattern-shift-extraction", False, 1.0, f"ts offset p={p}")
    return CheckResult("pattern-shift-extraction", True, 0.0)


def check_oracle_adjointness(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for p in [13, 31, 61]:
        x = rng.normal(size=p) + 1j * rng.normal(size=p)
        y = rng.normal(size=p) + 1j * rng.normal(size=p)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        lhs = np.vdot(y, oracle.naive_dft(x))
        rhs = np.vdot(oracle.naive_idft(y), x)
        worst = max(worst, abs(lhs - rhs) / (1e-9 * p))
        rt = np.abs(oracle.naive_idft(oracle.naive_dft(x)) - p * x).max()
        worst = max(worst, rt / (1e-8 * p))
    return CheckResult("oracle-adjointness", worst <= 1.0, worst, "error / tolerance")


ALL_CHECKS: list[Callable[[VerifyConfig], CheckResult]] = [
    check_modular_inverse,
    check_legendre_symbol,
    check_centered_residues,
    check_constant_amplitude,
    check_lmfh_zc_conjugacy,
    check_zc_autocorrelation,
    check_cyclic_shift_rotation,
    check_gauss_closed_vs_brute,
    check_gauss_phase_form,
    check_fast_dft_vs_naive,
    check_fast_idft_vs_naive,
    check_shifted_dft_identity,
    check_transform_round_trip,
    check_spectrum_magnitude,
    check_operation_counts,
    check_phase_closed_form_vs_recurrence,
    check_phase_mirror,
    check_dft_idft_shift_gap,
    check_pattern_flip_involution,
    check_pattern_slope_inversion,
    check_pattern_shift_extraction,
    check_oracle_adjointness,
]


def run_all(cfg: VerifyConfig) -> list[CheckResult]:
    """Every family of ALL_CHECKS in order, each with its wall time in seconds."""
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        result = check(cfg)
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
