"""O(p) DFT and IDFT of ZC sequences by integer frequency/phase accumulation.

The spectrum of a prime-length ZC sequence is itself a constant-amplitude
chirp: a scaled lmFH symbol whose slope is the negated modular inverse of
the root and whose frequency shift encodes direction and cyclic shift.
Running the hopping accumulation therefore computes the whole transform in
2(p-1) integer additions, 2(p-1) modulo reductions and p complex-exponential
table lookups.

The loop state stays purely integer: the quasi phase offset takes
quarter-integer values, so instead of seeding the phase accumulator with it,
sqrt(p)*exp(i*2*pi*QPo/p) is folded into one precomputed complex constant
multiplied into every output. Algebraically identical, and it keeps the
twiddle table at size p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import const_from_qpo, quasi_phase_offset4
from .numtheory import legendre, mod_inverse
from .sequences import ZcParams

DFT = "dft"
IDFT = "idft"


@dataclass
class OpCounters:
    """Tallies of the integer work done by execute(); owned by the caller."""

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
    qpo4 = quasi_phase_offset4(p, u)
    twiddles = np.exp(-2j * np.pi * np.arange(p) / p)
    twiddles.setflags(write=False)
    return TransformPlan(
        params=params,
        direction=direction,
        iu=iu,
        ell=ell,
        fs=fs,
        qpo_times4=qpo4,
        twiddles=twiddles,
        const_factor=const_from_qpo(p, qpo4),
    )


def execute(
    pl: TransformPlan,
    counters: OpCounters | None = None,
    normalize: bool = False,
) -> np.ndarray:
    """Run the accumulation loop: out[k] = const_factor * twiddles[phase_k].

    phase starts at 0 and freq at fs; after emitting output k the updates are
    freq <- (freq - iu) mod p, phase <- (phase + freq) mod p. The updates are
    skipped on the final iteration, so exactly 2(p-1) additions and 2(p-1)
    reductions happen per call, plus p table lookups. normalize divides the
    output by p (only meaningful for the IDFT).
    """
    p = pl.params.p
    iu = pl.iu
    phases = [0] * p
    phase = 0
    freq = pl.fs
    if counters is None:
        for k in range(1, p):
            freq = (freq - iu) % p
            phase = (phase + freq) % p
            phases[k] = phase
    else:
        for k in range(1, p):
            freq = (freq - iu) % p
            phase = (phase + freq) % p
            counters.additions += 2
            counters.modulo_reductions += 2
            phases[k] = phase
        counters.exp_evaluations += p
    out = pl.const_factor * pl.twiddles[np.asarray(phases, dtype=np.intp)]
    if normalize:
        out = out / p
    return out
