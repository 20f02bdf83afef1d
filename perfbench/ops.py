"""The benchmark operation: parameters to a spectrum, and its reference check.

One operation is ``ZcParams`` -> ``plan`` -> ``execute``. On ``verify`` it
also builds ``zc_time``, runs the O(p^2) oracle and compares, all inside the
timed span. On the other workloads ``check`` runs after the timer stops: it
builds ``zc_time(params)`` once and compares the spectrum with
``np.fft.fft`` of it (unnormalized ``ifft`` for the IDFT) and with the
index-remapping identity on the same samples.

The FFT of a prime length goes through Bluestein's algorithm, whose own
error ranges from about 40 to 450 eps*sqrt(p) from one prime near 2^20 to
the next. Against it, the worst error of a run would measure which primes
the seed drew, not the library. So the error that is reported on these two
workloads is taken against the identity, which is accurate to a few
eps*sqrt(p). Every spectrum must match both within the tolerance.

The traced variants make exactly the same library calls and add spans
around each public call; they are kept next to the untraced ones so the two
cannot drift apart.
"""

from __future__ import annotations

import math
from time import perf_counter_ns as now

import numpy as np

from zcdft import (
    DFT,
    IDFT,
    OpCounters,
    ZcParams,
    execute,
    gauss_sum_closed,
    legendre,
    mod_inverse,
    naive_dft,
    naive_idft,
    plan,
    quasi_phase_offset4,
    zc_time,
)
from zcdft.gauss import const_from_qpo

EPS = float(np.finfo(np.float64).eps)


def tolerance(p: int) -> float:
    """Acceptance tolerance on max |X - ref|, as in the acceptance suite."""
    return 1e-9 * math.sqrt(p)


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def fft_reference(x: np.ndarray, inverse: bool) -> np.ndarray:
    return np.fft.ifft(x, norm="forward") if inverse else np.fft.fft(x)


def spectrum(case):
    """Timed operation of prach and large-p. Returns (spectrum, None)."""
    params = ZcParams(case.p, case.u, case.ts)
    return execute(plan(params, IDFT if case.inverse else DFT)), None


def spectrum_verified(case):
    """Timed operation of verify. Returns (spectrum, max error vs the oracle)."""
    params = ZcParams(case.p, case.u, case.ts)
    out = execute(plan(params, IDFT if case.inverse else DFT))
    ref = (naive_idft if case.inverse else naive_dft)(zc_time(params))
    return out, _max_abs_diff(out, ref)


def identity_spectrum(x: np.ndarray, case) -> np.ndarray:
    """The spectrum of ``x = zc_time(params)`` from the index-remapping identity.

    DFT: F(k) = conj(x[iu*k mod p]) * x[0] * G(u), with iu the inverse of u
    mod p and G(u) the Gauss sum, that is F(0), in closed form. The
    unnormalized IDFT is the conjugated DFT of conj(x), the sequence of root
    p - u: F(k) = conj(x[-iu*k mod p]) * x[0] * conj(G(p - u)). Summing the
    samples for F(0) instead would add their rounding errors coherently:
    about 440 eps*sqrt(p) at p = 786433.
    """
    p, u = case.p, case.u
    step = -mod_inverse(u, p) if case.inverse else mod_inverse(u, p)
    g = gauss_sum_closed(p, p - u if case.inverse else u).value
    idx = step * np.arange(p, dtype=np.int64) % p
    return np.conj(x[idx]) * (x[0] * (np.conj(g) if case.inverse else g))


def _errors(case, out: np.ndarray, x: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    return _max_abs_diff(out, ref), _max_abs_diff(out, identity_spectrum(x, case))


def check(case, out: np.ndarray) -> tuple[float, float]:
    """Max errors of a prach/large-p spectrum: (vs numpy's FFT, vs the identity)."""
    x = zc_time(ZcParams(case.p, case.u, case.ts))
    return _errors(case, out, x, fft_reference(x, case.inverse))


OPERATIONS = {"prach": spectrum, "large-p": spectrum, "verify": spectrum_verified}


def attempt(workload: str, case) -> None:
    """Run one operation untimed and unchecked, for warm-up and the probes.

    An exception is dropped: the measured run counts it as a failure.
    """
    try:
        OPERATIONS[workload](case)
    except Exception:
        pass


def traced(case, tr, op_id: int, verified: bool) -> dict:
    """The operation with a span around every public call.

    Returns the spectrum, the plan and its span index, the error when the
    check runs inside the operation, and the time-domain sequence when the
    operation built one.
    """
    op = tr.open("op", op_id)
    t0 = now()
    params = ZcParams(case.p, case.u, case.ts)
    t1 = now()
    pl = plan(params, IDFT if case.inverse else DFT)
    t2 = now()
    out = execute(pl)
    t3 = now()
    tr.add("sequences.ZcParams", op_id, op, t0, t1)
    plan_span = tr.add("transform.plan", op_id, op, t1, t2)
    tr.add("transform.execute", op_id, op, t2, t3)
    err = x = None
    if verified:
        x = zc_time(params)
        t4 = now()
        ref = (naive_idft if case.inverse else naive_dft)(x)
        t5 = now()
        err = _max_abs_diff(out, ref)
        t6 = now()
        tr.add("sequences.zc_time", op_id, op, t3, t4)
        tr.add("oracle.naive", op_id, op, t4, t5)
        tr.add("compare", op_id, op, t5, t6)
    tr.close(op)
    return {"op_span": op, "out": out, "plan": pl, "plan_span": plan_span, "err": err, "x": x}


def traced_check(case, out: np.ndarray, tr, op_id: int) -> tuple[float, float]:
    """``check`` on the library's ``zc_time``, with spans, outside the operation."""
    span = tr.open("check", op_id)
    t0 = now()
    x = zc_time(ZcParams(case.p, case.u, case.ts))
    t1 = now()
    ref = fft_reference(x, case.inverse)
    t2 = now()
    tr.add("sequences.zc_time", op_id, span, t0, t1)
    tr.add("numpy.fft", op_id, span, t1, t2)
    tr.close(span)
    return _errors(case, out, x, ref)


def timed_fft(x: np.ndarray, inverse: bool, tr, op_id: int) -> None:
    """The numpy comparator on a precomputed sequence, outside the operation."""
    t0 = now()
    fft_reference(x, inverse)
    tr.add("numpy.fft", op_id, -1, t0, now())


def retime_plan_calls(case, plan_span: int, tr, op_id: int) -> None:
    """Call again, on this operation's inputs, the public functions plan uses.

    Their spans are recorded as children of the plan span, so the plan's self
    time is what is left: mostly the twiddle table. Spans inside the library
    would need changes to it, which this benchmark does not make.
    """
    p, u = case.p, case.u
    t0 = now()
    mod_inverse(u, p)
    t1 = now()
    legendre(2 * u, p)
    t2 = now()
    q4 = quasi_phase_offset4(p, u)
    t3 = now()
    const_from_qpo(p, q4)
    t4 = now()
    tr.add("numtheory.mod_inverse", op_id, plan_span, t0, t1)
    tr.add("numtheory.legendre", op_id, plan_span, t1, t2)
    tr.add("gauss.quasi_phase_offset4", op_id, plan_span, t2, t3)
    tr.add("gauss.const_from_qpo", op_id, plan_span, t3, t4)


def counted_execute(pl, out: np.ndarray) -> tuple[OpCounters, bool]:
    """Run ``execute`` with counters; True if it reproduces ``out`` exactly."""
    counters = OpCounters()
    return counters, bool(np.array_equal(execute(pl, counters), out))
