"""O(p) DFT and IDFT of ZC sequences from integer phase indices.

The spectrum of a prime-length ZC sequence is itself a constant-amplitude
chirp: a scaled lmFH symbol whose slope is the negated modular inverse of
the root and whose frequency shift encodes direction and cyclic shift.
The paper accumulates its frequency points fs - iu*k into phase indices:
2(p-1) integer additions, 2(p-1) modulo reductions and p table lookups. The
points form an arithmetic progression, so the phase has the closed form
phase_k = (k*fs - iu*T(k)) mod p, T(k) = k(k+1)/2. The fast path evaluates
it (phase_indices); the counted recurrence (phase_indices_recurrence) is the
reference the exactness checks compare against.

The phases stay purely integer: the quasi phase offset takes quarter-integer
values, so instead of seeding the phase with it, sqrt(p)*exp(i*2*pi*QPo/p)
is folded into one precomputed complex constant multiplied into every
output. Algebraically identical, and it keeps the twiddle table at size p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauss import _qpo_times4, const_from_qpo
from .numtheory import legendre, mod_inverse, triangular_mod
from .sequences import ZcParams

DFT = "dft"
IDFT = "idft"


@dataclass
class OpCounters:
    """Tallies of the work done by the counted recurrence; owned by the caller.

    exp_evaluations counts the p table lookups of the gather, one per output,
    not calls to exp: plan builds the table with 2*ceil(sqrt(p)) exps. The
    name stays because the bench reports (zcdft bench, perfbench) use it as
    a key.
    """

    additions: int = 0
    modulo_reductions: int = 0
    exp_evaluations: int = 0


@dataclass(frozen=True)
class TransformPlan:
    """Precomputed state for one (p, u, ts, direction).

    Immutable after construction; a plan may be shared freely across threads
    and executed concurrently. twiddles[j] = exp(-i*2*pi*j/p) and
    const_factor = sqrt(p) * exp(i*2*pi*QPo/p). The frequency shift fs is
    (p+1)/2*(iu-1) - ts for the DFT and (p+1)/2*(iu+1) + ts for the IDFT,
    reduced into [0, p-1]; the two directions differ by nothing else.

    The table is read-only and so is its base. It is built from two
    sqrt(p)-length tables: with m = isqrt(p-1) + 1 and j = a*m + b,
    twiddles[j] = hi[a] * lo[b], where lo[b] = exp(-i*2*pi*b/p) for b < m
    and hi[a] = exp(-i*2*pi*a*m/p) for a < ceil(p/m). That is
    2*ceil(sqrt(p)) complex exps and p complex multiplies, not p exps.

    Error of each entry, with eps the float64 epsilon and u = eps/2:
    - argument: each factor's angle 2*pi*n/p takes three roundings (fl(2*pi),
      the division by p, the product with n), so it is off by at most
      gamma_3 = 3u/(1-3u) of itself. The two angles add up to 2*pi*j/p < 2*pi,
      so the phase of the product is off by at most 2*pi*gamma_3 ~ 3*pi*eps;
    - exp: libm's cos and sin are within one ulp, at most eps/2 for values
      of magnitude at most 1, so each factor is off by at most eps/sqrt(2);
    - product: one complex multiply adds sqrt(2)*gamma_2 ~ sqrt(2)*eps
      (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.5).
    In all, |twiddles[j] - exp(-i*2*pi*j/p)| <= (3*pi + 2*sqrt(2)) * eps,
    about 12.3 eps, to first order in eps.
    """

    params: ZcParams
    direction: str
    iu: int
    ell: int
    fs: int
    qpo_times4: int
    twiddles: np.ndarray
    const_factor: complex


def plan(params: ZcParams, direction: str) -> TransformPlan:
    """Build the immutable plan: inverse, Legendre sign, shift, constant, table."""
    if direction not in (DFT, IDFT):
        raise ValueError(f"direction must be {DFT!r} or {IDFT!r}, got {direction!r}")
    p, u, ts = params.p, params.u, params.ts
    iu = mod_inverse(u, p)
    ell = legendre(2 * u, p)
    half = (p + 1) // 2
    if direction == DFT:
        fs = (half * (iu - 1) - ts) % p
    else:
        fs = (half * (iu + 1) + ts) % p
    qpo4 = _qpo_times4(p, u, ell)
    return TransformPlan(
        params=params,
        direction=direction,
        iu=iu,
        ell=ell,
        fs=fs,
        qpo_times4=qpo4,
        twiddles=_twiddle_table(p),
        const_factor=const_from_qpo(p, qpo4),
    )


def _twiddle_table(p: int) -> np.ndarray:
    """exp(-i*2*pi*j/p) for j < p as hi[a] * lo[b], j = a*m + b (see TransformPlan).

    The product is made read-only before it is sliced, so neither the table
    nor its base can be written.
    """
    m = math.isqrt(p - 1) + 1
    w = -2j * np.pi / p
    lo = np.exp(w * np.arange(m))
    hi = np.exp(w * np.arange(0, p, m))
    full = np.multiply.outer(hi, lo)
    full.setflags(write=False)
    return full.ravel()[:p]


def phase_indices(pl: TransformPlan) -> np.ndarray:
    """int64 phase indices phase_k = (k*fs - iu*T(k)) mod p, k = 0..p-1.

    The closed form of the accumulation that phase_indices_recurrence runs;
    triangular_mod keeps every intermediate below 2**62.
    """
    p = pl.params.p
    k = np.arange(p, dtype=np.int64)
    t = triangular_mod(k, p)
    t *= -pl.iu
    k *= pl.fs
    k += t
    np.remainder(k, p, out=k)
    return k


def phase_indices_recurrence(pl: TransformPlan, counters: OpCounters) -> np.ndarray:
    """The paper's accumulation, one step per output, tallied in counters.

    phase starts at 0 and freq at fs; after emitting index k the updates are
    freq <- (freq - iu) mod p, phase <- (phase + freq) mod p. The updates are
    skipped on the final iteration, so exactly 2(p-1) additions and 2(p-1)
    reductions happen per call; the p table lookups of the gather that
    follows are tallied here too.
    """
    p = pl.params.p
    iu = pl.iu
    phases = [0] * p
    phase = 0
    freq = pl.fs
    for k in range(1, p):
        freq = (freq - iu) % p
        phase = (phase + freq) % p
        counters.additions += 2
        counters.modulo_reductions += 2
        phases[k] = phase
    counters.exp_evaluations += p
    return np.asarray(phases, dtype=np.int64)


def execute(pl: TransformPlan, counters: OpCounters | None = None) -> np.ndarray:
    """out[k] = const_factor * twiddles[phase_k], with closed-form phases.

    With counters, the phases come from the counted recurrence instead, which
    gives the same integers and so the same output.
    """
    if counters is None:
        phases = phase_indices(pl)
    else:
        phases = phase_indices_recurrence(pl, counters)
    out = pl.twiddles[phases]
    out *= pl.const_factor
    return out
