"""Self-verification: every library invariant checked against brute force.

ALL_CHECKS is the single statement of the library's invariants. pytest
(tests/test_acceptance.py) and `zcdft verify --pmax 199 --include-839` run
the same registry on the same grid, VerifyConfig(pmax=199, include_839=True),
and print the same [PASS]/[FAIL] line per family through result_line.

Each check covers one property family over a grid of primes controlled by
pmax. It judges nothing itself: it yields its comparisons as (case, error,
bound), a float error against its tolerance or an exact comparison as a
mismatch (False or True) against bound 0, and run_check alone gives the
verdict. A family passes iff it makes at least one comparison and error <=
bound for every one, so a NaN error fails, and so does a family that
compares nothing. Its max_error is the largest error / bound, an exact
comparison counting its mismatch as 0 or 1, and NaN if any error is NaN.
Its detail is the case that reached max_error, the first NaN case, or
"no comparisons". A deliberate fault can be injected into the fast DFT
comparison to prove the harness is not vacuous.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import oracle, pattern, transform
from .gauss import const_from_qpo, gauss_sum_closed, quasi_phase_offset4
from .numtheory import centered, legendre, mod_inverse, odd_primes
from .sequences import LmfhParams, OpCounters, ZcParams, accumulate_phases, lmfh_symbol
from .transform import DFT, IDFT, zc_time


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: float
    detail: str = ""
    seconds: float = 0.0


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

# One comparison of a family: the case it names, its error and the error's bound.
Comparison = tuple[str, float, float]
Check = Callable[[VerifyConfig], Iterator[Comparison]]


def run_check(check: Check, cfg: VerifyConfig) -> CheckResult:
    """One family's verdict from its comparisons, by the rule in the module docstring."""
    start = time.perf_counter()
    passed, worst, detail = True, 0.0, ""
    for case, error, bound in check(cfg):
        ratio = float(error / bound if bound else error)
        passed = passed and bool(error <= bound)
        if not detail or ratio > worst or math.isnan(ratio) > math.isnan(worst):
            worst, detail = ratio, case
    if not detail:
        passed, detail = False, "no comparisons"
    name = check.__name__.removeprefix("check_").replace("_", "-")
    return CheckResult(name, passed, worst, detail, time.perf_counter() - start)


def result_line(r: CheckResult, width: int = 0) -> str:
    """The report line of one family: status, name, worst error / bound, worst case."""
    status = "PASS" if r.passed else "FAIL"
    detail = f"  [{r.detail}]" if r.detail else ""
    return f"[{status}] {r.name:<{width}}  max error/bound {r.max_error:.3e}{detail}"


def _tol(p: int) -> float:
    # Naive-oracle rounding grows with p; the fast path is more accurate.
    return 1e-9 * np.sqrt(p)


def check_modular_inverse(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(199):
        for u in range(1, p):
            inv = mod_inverse(u, p)
            yield f"p={p} u={u}", not 1 <= inv <= p - 1 or u * inv % p != 1, 0


def check_legendre_symbol(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(199):
        squares = {(a * a) % p for a in range(1, p)}
        for a in range(0, p):
            expect = 0 if a == 0 else (1 if a in squares else -1)
            yield f"p={p} a={a}", legendre(a, p) != expect, 0
        residues = sum(legendre(a, p) == 1 for a in range(p))
        yield f"residue count p={p}", residues != (p - 1) // 2, 0
        multiplicative = all(
            legendre(a * b, p) == legendre(a, p) * legendre(b, p)
            for a in range(1, p)
            for b in (2, 3, a)
        )
        yield f"multiplicativity p={p}", not multiplicative, 0


def check_centered_residues(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(199):
        half = (p - 1) // 2
        for x in list(range(-2 * p, 2 * p, max(1, p // 7))) + [7, -56, p, -p]:
            c = centered(x, p)
            yield f"p={p} x={x}", not -half <= c <= half or (c - x) % p != 0, 0


def check_constant_amplitude(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(61):
        for u, ts in _cases(p):
            z = zc_time(ZcParams(p=p, u=u, ts=ts))
            sym = lmfh_symbol(LmfhParams(p=p, s=-u, fs=ts, po=0.3))
            yield f"zc_time p={p} u={u} ts={ts}", np.abs(np.abs(z) - 1.0).max(), 1e-12
            yield f"lmfh_symbol p={p} s={-u} fs={ts}", np.abs(np.abs(sym) - 1.0).max(), 1e-12


def check_lmfh_zc_conjugacy(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(61):
        for u in range(1, p):
            z = zc_time(ZcParams(p=p, u=u))
            yield f"p={p} s={-u}", np.abs(lmfh_symbol(LmfhParams(p=p, s=-u)) - z).max(), 1e-12
            conj = np.abs(lmfh_symbol(LmfhParams(p=p, s=u)) - np.conj(z)).max()
            yield f"p={p} s={u}", conj, 1e-12


def check_zc_autocorrelation(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(61):
        # row d - 1 of z[lags] is np.roll(z, -d), d = 1..p-1
        lags = (np.arange(1, p)[:, None] + np.arange(p)) % p
        for u in range(1, p):
            z = zc_time(ZcParams(p=p, u=u))
            yield f"p={p} u={u}", np.abs(z[lags].conj() @ z).max() / p, 1e-9


def check_cyclic_shift_rotation(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(61):
        for u in range(1, p):
            base = zc_time(ZcParams(p=p, u=u))
            for ts in sorted({0, 1, (p - 1) // 2, u, p - 1}):
                shifted = zc_time(ZcParams(p=p, u=u, ts=ts))
                yield f"p={p} u={u} ts={ts}", not np.array_equal(shifted, np.roll(base, -ts)), 0


def check_gauss_closed_vs_brute(cfg: VerifyConfig) -> Iterator[Comparison]:
    branches = set()
    for p in cfg.primes(199):
        for u in range(1, p):
            g = gauss_sum_closed(p, u)
            yield f"p={p} u={u}", abs(g.value - oracle.brute_gauss_sum(ZcParams(p=p, u=u))), _tol(p)
            branches.add((p % 4, legendre(2 * u, p)))
    yield f"branches={sorted(branches)}", branches != {(1, 1), (1, -1), (3, 1), (3, -1)}, 0


def check_gauss_phase_form(cfg: VerifyConfig) -> Iterator[Comparison]:
    bound = 1e-12 * np.sqrt(199)
    for p in cfg.primes(199):
        for u in range(1, p):
            g = gauss_sum_closed(p, u)
            yield f"phase form p={p} u={u}", abs(g.value - const_from_qpo(p, g.qpo_times4)), bound
            yield f"magnitude p={p} u={u}", abs(abs(g.value) - np.sqrt(p)), bound
            yield f"4*QPo p={p} u={u}", g.qpo_times4 != quasi_phase_offset4(p, u), 0


def _naive(x: np.ndarray, direction: str) -> np.ndarray:
    return oracle.naive_dft(x) if direction == DFT else oracle.naive_idft(x)


def _fast_vs_naive(cfg: VerifyConfig, direction: str) -> Iterator[Comparison]:
    start = time.perf_counter()
    fault_pending = cfg.inject_fault and direction == DFT
    for p, cases in cfg.transform_cases():
        fast, signals = [], []
        for u, ts in cases:
            params = ZcParams(p=p, u=u, ts=ts)
            pl = transform.plan(params, direction)
            if fault_pending:
                pl = dataclasses.replace(pl, fs=(pl.fs + 1) % p)
                fault_pending = False
            fast.append(transform.execute(pl))
            signals.append(oracle.zc_time_direct(params))
        # one oracle call per length, row for row the same as one per case
        errors = np.abs(np.stack(fast) - _naive(np.stack(signals), direction)).max(axis=1)
        for (u, ts), error in zip(cases, errors):
            yield f"p={p} u={u} ts={ts} {direction}", error, _tol(p)
    s = time.perf_counter() - start
    yield f"{s:.1f} s of {FAST_VS_NAIVE_SECONDS:.0f} s", not s < FAST_VS_NAIVE_SECONDS, 0


def check_fast_dft_vs_naive(cfg: VerifyConfig) -> Iterator[Comparison]:
    return _fast_vs_naive(cfg, DFT)


def check_fast_idft_vs_naive(cfg: VerifyConfig) -> Iterator[Comparison]:
    return _fast_vs_naive(cfg, IDFT)


def check_fast_vs_long_double(cfg: VerifyConfig) -> Iterator[Comparison]:
    # 139, or below --pmax 139 the grid's largest prime, so every grid runs it
    spots = cfg.spot_primes(max(cfg.primes(139)))
    for p, cases in cfg.transform_cases():
        for u, ts in cases if p in spots else []:
            for direction in (DFT, IDFT):
                params = ZcParams(p=p, u=u, ts=ts)
                fast = transform.execute(transform.plan(params, direction))
                ref = oracle.long_double_spectrum(params, direction)
                yield f"p={p} u={u} ts={ts} {direction}", np.abs(fast - ref).max(), _tol(p)


def check_shifted_dft_identity(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(199):
        for u in range(1, p):
            for ts in sorted({0, 1, 2, (p - 1) // 2}):
                params = ZcParams(p=p, u=u, ts=ts)
                for direction in (DFT, IDFT):
                    case = f"p={p} u={u} ts={ts} {direction}"
                    identity = oracle.shifted_dft_identity(params, direction)
                    fast = transform.execute(transform.plan(params, direction))
                    yield f"{case} identity/fast", np.abs(identity - fast).max(), 1e-10 * np.sqrt(p)
                    if p <= 61:
                        naive = _naive(oracle.zc_time_direct(params), direction)
                        yield f"{case} identity/naive", np.abs(identity - naive).max(), _tol(p)
                        yield f"{case} fast/naive", np.abs(fast - naive).max(), _tol(p)


def check_transform_round_trip(cfg: VerifyConfig) -> Iterator[Comparison]:
    cases = [(p, u, ts) for p in cfg.primes(61) for u, ts in _cases(p)]
    cases += [(p, u, 0) for p in cfg.spot_primes(139) for u in (1, 2, 25, p - 2, p - 1)]
    for p, u, ts in cases:
        params = ZcParams(p=p, u=u, ts=ts)
        back = oracle.naive_idft(transform.execute(transform.plan(params, DFT)))
        error = np.abs(back - p * oracle.zc_time_direct(params)).max()
        yield f"p={p} u={u} ts={ts}", error, 1e-8 * p


def check_spectrum_magnitude(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p, cases in cfg.transform_cases():
        for u, ts in cases:
            for direction in (DFT, IDFT):
                out = transform.execute(transform.plan(ZcParams(p=p, u=u, ts=ts), direction))
                error = np.abs(np.abs(out) - np.sqrt(p)).max()
                yield f"p={p} u={u} ts={ts} {direction}", error, 1e-9


def check_operation_counts(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in [13, 29] + cfg.spot_primes(199):
        expect = (2 * (p - 1), 2 * (p - 1), p)
        for u in sorted({2, min(25, p - 1)}):
            for ts in (0, 1):
                for direction in (DFT, IDFT):
                    counters = OpCounters()
                    transform.execute(transform.plan(ZcParams(p, u, ts), direction), counters)
                    got = (counters.additions, counters.modulo_reductions, counters.exp_evaluations)
                    yield f"p={p} u={u} ts={ts} {direction}: {got}", got != expect, 0


def check_phase_closed_form_vs_recurrence(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p, cases in cfg.transform_cases():
        # zc_time's samples are the table of roots, hi[a] * lo[b], at phases
        # u*T(m) mod p, m = (k + ts) mod p, formed here in int64, bit for bit
        m, factors = transform._split(p), transform._twiddle_factors(p)
        table = np.multiply.outer(factors[m:], factors[:m]).ravel()[:p]
        k = np.arange(p, dtype=np.int64)
        for u, ts in cases:
            params = ZcParams(p=p, u=u, ts=ts)
            mt = (k + ts) % p
            samples = table[u * (mt * (mt + 1) // 2 % p) % p]
            yield f"zc_time p={p} u={u} ts={ts}", zc_time(params).tobytes() != samples.tobytes(), 0
            for direction in (DFT, IDFT):
                pl = transform.plan(params, direction)
                ref = accumulate_phases(p, pl.iu, pl.fs, OpCounters())
                mismatch = not np.array_equal(transform.phase_indices(pl), ref)
                yield f"p={p} u={u} ts={ts} {direction}", mismatch, 0


def check_phase_mirror(cfg: VerifyConfig) -> Iterator[Comparison]:
    # phase_k = r*k*(k + s) mod p is the same at k and t - k, t = -s mod p;
    # a factored execute copies half its bins on the strength of this
    for p, cases in cfg.transform_cases():
        k = np.arange(p)
        for u, ts in cases:
            for direction in (DFT, IDFT):
                pl = transform.plan(ZcParams(p=p, u=u, ts=ts), direction)
                phases = transform.phase_indices(pl)
                t = (2 * u * pl.fs - 1) % p
                mismatch = not np.array_equal(phases, phases[(t - k) % p])
                yield f"p={p} u={u} ts={ts} {direction}", mismatch, 0


def check_dft_idft_shift_gap(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(199):
        half = (p + 1) // 2
        for u in range(1, p):
            iu = mod_inverse(u, p)
            eq_dft_form = (half * (1 - iu)) % p
            eq_idft_form = (((p - 1) // 2) * (iu + 1)) % p
            yield f"p={p} u={u}", (eq_dft_form - eq_idft_form) % p != 1, 0
            fwd = transform.plan(ZcParams(p=p, u=u), DFT)
            inv = transform.plan(ZcParams(p=p, u=u), IDFT)
            yield f"plan gap p={p} u={u}", (inv.fs - fwd.fs) % p != 1, 0
            fields = [(pl.iu, pl.ell, pl.qpo_times4, pl.const_factor) for pl in (fwd, inv)]
            shared = fields[0] == fields[1] and np.array_equal(fwd.twiddles, inv.twiddles)
            yield f"plan share p={p} u={u}", not shared, 0


def check_pattern_flip_involution(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(61):
        for u in range(1, p):
            pat = pattern.make_pattern(p, -u)
            for flip in (pattern.flip_dft, pattern.flip_idft, pattern.flip_conjugate):
                once = flip(pat)
                mismatch = flip(once) != pat or once.orientation == pat.orientation
                yield f"{flip.__name__} p={p} u={u}", mismatch, 0
            mirrored = sorted((p - 1 - t, -f) for t, f in pattern.flip_dft(pat).points)
            yield f"mirror p={p} u={u}", mirrored != sorted(pattern.flip_idft(pat).points), 0
            fs = {f for _, f in pat.points}
            yield f"bijection p={p}", fs != set(range(-(p - 1) // 2, (p - 1) // 2 + 1)), 0


def check_pattern_slope_inversion(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(61):
        for u in range(1, p):
            got = pattern.read_slope(pattern.flip_dft(pattern.make_pattern(p, -u)))
            yield f"p={p} u={u}", got != (-mod_inverse(u, p)) % p, 0
            generic = pattern.read_slope(pattern.flip_dft(pattern.make_pattern(p, u)))
            yield f"s-inverse p={p} u={u}", generic != mod_inverse(u, p), 0


def check_pattern_shift_extraction(cfg: VerifyConfig) -> Iterator[Comparison]:
    for p in cfg.primes(61):
        for u in range(1, p):
            iu = mod_inverse(u, p)
            for ts in (0, 1, (p - 1) // 2):
                pat = pattern.make_pattern(p, -u, ts=ts)
                # The classical shifts ((p+1)/2)(1-iu) and ((p-1)/2)(iu+1),
                # moved by +ts and -ts; plan shifts are their negations mod p.
                for direction, flip, classical in (
                    (DFT, pattern.flip_dft, ((p + 1) // 2) * (1 - iu) + ts),
                    (IDFT, pattern.flip_idft, ((p - 1) // 2) * (iu + 1) - ts),
                ):
                    extracted = pattern.read_shift(flip(pat))
                    planned = transform.plan(ZcParams(p=p, u=u, ts=ts), direction).fs
                    mismatch = extracted != classical % p or (planned + extracted) % p != 0
                    yield f"p={p} u={u} ts={ts} {direction}", mismatch, 0
                base = pattern.read_shift(pattern.flip_dft(pattern.make_pattern(p, -u)))
                with_ts = pattern.read_shift(pattern.flip_dft(pat))
                yield f"ts offset p={p} u={u} ts={ts}", (with_ts - base) % p != ts % p, 0


def check_oracle_adjointness(cfg: VerifyConfig) -> Iterator[Comparison]:
    rng = np.random.default_rng(20260808)
    for p in [13, 31, 61]:
        x = rng.normal(size=p) + 1j * rng.normal(size=p)
        y = rng.normal(size=p) + 1j * rng.normal(size=p)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        lhs = np.vdot(y, oracle.naive_dft(x))
        rhs = np.vdot(oracle.naive_idft(y), x)
        yield f"adjoint p={p}", abs(lhs - rhs), 1e-9 * p
        round_trip = np.abs(oracle.naive_idft(oracle.naive_dft(x)) - p * x).max()
        yield f"round trip p={p}", round_trip, 1e-8 * p


ALL_CHECKS: list[Check] = [
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
    check_fast_vs_long_double,
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
    """Every family of ALL_CHECKS in order, each judged by run_check."""
    return [run_check(check, cfg) for check in ALL_CHECKS]
