"""O(p) DFT and IDFT of ZC sequences from integer phase indices.

The paper accumulates the frequency points fs - iu*k into phase indices
(2(p-1) additions, 2(p-1) reductions, p table lookups); their closed form
phase_k = (k*fs - iu*T(k)) mod p, T(k) = k(k+1)/2, is the fast path
(phase_indices), checked against the counted recurrence. The quasi phase
offset is folded into one complex constant, sqrt(p)*exp(i*2*pi*QPo/p), so
the phases stay integer and the table of roots has p entries. Every plan
holds that table as two sqrt(p)-length factors (_twiddle_factors).
execute reads it through discrete-log tables for a length the store keeps
(_LengthStore), else by _gather's blocked, mirrored gather; each output is
the same product hi[a] * lo[b], so the spectra are bit-identical.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .gauss import _qpo_times4, const_from_qpo
from .numtheory import legendre, mod_inverse, power_table, primitive_root
from .sequences import ZcParams

DFT = "dft"
IDFT = "idft"


@dataclass
class OpCounters:
    """Tallies of the work done by the counted recurrence; owned by the caller.

    exp_evaluations counts the paper's p table lookups, not calls to exp
    (see _twiddle_factors); the name stays because zcdft bench and
    perfbench report it as a key.
    """

    additions: int = 0
    modulo_reductions: int = 0
    exp_evaluations: int = 0


@dataclass(frozen=True)
class TransformPlan:
    """Precomputed state for one (p, u, ts, direction).

    Immutable and read-only; a plan may be shared across threads. fs is
    (p+1)/2*(iu-1) - ts for the DFT and (p+1)/2*(iu+1) + ts for the IDFT,
    mod p; the directions differ by nothing else. twiddles is the table's
    factors, lo then hi (_twiddle_factors): 16*(m + ceil(p/m)) bytes, 10 KB
    at 65537. logs is (L2, E3) for a length the store keeps, shared with
    twiddles by all its plans, else None (_LengthStore). Both depend on
    params.p alone, so equality and the hash leave them out.
    """

    params: ZcParams
    direction: str
    iu: int
    ell: int
    fs: int
    qpo_times4: int
    twiddles: np.ndarray = field(compare=False)
    const_factor: complex
    logs: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False)


def require_direction(direction: str) -> None:
    """Raise ValueError unless direction is DFT or IDFT."""
    if direction not in (DFT, IDFT):
        raise ValueError(f"direction must be {DFT!r} or {IDFT!r}, got {direction!r}")


def plan(params: ZcParams, direction: str) -> TransformPlan:
    """Build the immutable plan: inverse, Legendre sign, shift, constant, twiddles."""
    require_direction(direction)
    p, u, ts = params.p, params.u, params.ts
    iu = mod_inverse(u, p)
    ell = legendre(2 * u, p)
    half = (p + 1) // 2
    if direction == DFT:
        fs = (half * (iu - 1) - ts) % p
    else:
        fs = (half * (iu + 1) + ts) % p
    qpo4 = _qpo_times4(p, u, ell)
    entry = _STORE.entry(p)
    if entry is None:
        twiddles, logs = _twiddle_factors(p), None
    else:
        twiddles, logs = entry[0], entry[1:]
    # one dict update, not the frozen __init__'s object.__setattr__ per field
    pl = object.__new__(TransformPlan)
    pl.__dict__.update(
        params=params,
        direction=direction,
        iu=iu,
        ell=ell,
        fs=fs,
        qpo_times4=qpo4,
        twiddles=twiddles,
        const_factor=const_from_qpo(p, qpo4),
        logs=logs,
    )
    return pl


def _split(p: int) -> int:
    """m, the least power of two with m*m >= p: the table is hi[a] * lo[b] at a*m + b."""
    return 1 << math.isqrt(p - 1).bit_length()


def _twiddle_factors(p: int) -> np.ndarray:
    """lo followed by hi, read-only: exp(-i*2*pi*b/p) for b < m, then exp(-i*2*pi*a*m/p).

    With m = 2**s = _split(p) and j = a*m + b, exp(-i*2*pi*j/p) is
    hi[a] * lo[b]: m + ceil(p/m) < 2.5*sqrt(p) + 1 complex exps. A power of
    two splits a phase into a = r >> s, b = r & (m - 1). Every reader forms
    an entry as hi[a] * lo[b], in that order, which numpy rounds the same
    way whether one operand is broadcast (_twiddle_table) or both are
    arrays (_gather, _log_tables): the same bits everywhere.

    To first order in eps, the float64 epsilon, each entry is within
    (3*pi + 2*sqrt(2)) * eps ~ 12.3 eps of the root, for any m: each
    factor's angle 2*pi*n/p, n < p, takes three roundings (fl(2*pi), /p,
    *n), and the two add up to less than 2*pi, so the product's phase is
    off by at most 2*pi*gamma_3 ~ 3*pi*eps; libm's cos and sin, within one
    ulp, put each factor off by at most eps/sqrt(2); the complex multiply
    adds sqrt(2)*gamma_2 (Higham, Accuracy and Stability, Lemma 3.5).
    """
    m = _split(p)
    w = -2j * np.pi / p
    factors = np.concatenate((np.exp(w * np.arange(m)), np.exp(w * np.arange(0, p, m))))
    factors.setflags(write=False)
    return factors


def _twiddle_table(p: int) -> np.ndarray:
    """exp(-i*2*pi*j/p) for j < p as hi[a] * lo[b], read-only with its base.

    No library path builds it; it is the reference the tests gather from.
    """
    m = _split(p)
    factors = _twiddle_factors(p)
    full = np.multiply.outer(factors[m:], factors[:m])
    full.setflags(write=False)
    return full.ravel()[:p]


def _log_tables(p: int, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2 and E3 of p for the log-domain gather, read-only, each its own base.

    With g the least primitive root of p, L2 = [L, L], L[g**e mod p] = e and
    L[0] = 0, and E3[e] = hi[a] * lo[b] at a*m + b = g**(e mod (p-1)) mod p
    for e < 3(p - 1), the product _gather forms (see execute).
    """
    m = _split(p)
    pw = power_table(primitive_root(p), p)
    logs = np.empty(2 * p, dtype=np.intp)
    logs[0] = 0
    logs[pw] = np.arange(p - 1)
    logs[p:] = logs[:p]
    w = factors[m:][pw >> (m.bit_length() - 1)] * factors[:m][pw & (m - 1)]
    exps = np.concatenate((w, w, w))
    logs.setflags(write=False)
    exps.setflags(write=False)
    return logs, exps


def _entry_bytes(p: int) -> int:
    """Bytes of p's kept entry: its factors, L2 and E3 (see _LengthStore)."""
    m = _split(p)
    return 16 * (m + -(-p // m)) + 2 * p * np.dtype(np.intp).itemsize + 48 * (p - 1)


_STORE_BYTES = 5 << 19

_Entry = tuple[np.ndarray, np.ndarray, np.ndarray]


class _LengthStore:
    """LRU of read-only per-length entries by p, bounded in total bytes.

    An entry is (factors, L2, E3) (_twiddle_factors, _log_tables):
    16*(m + ceil(p/m)) + 16*p + 48*(p-1) bytes, about 64*p (_entry_bytes).
    It is kept whole iff it fits the bound, which decides whether p's plans
    get logs: every plan of a kept p reads its E3, while a larger p would
    build log tables for one plan. Building is outside the lock; if two
    threads build one p, the first insert wins.

    The bound, 5*2**19 = 2.5 MiB, holds the PRACH lengths (139, 571, 839,
    1151: 176 KB) and the grid 5 <= p <= 199 (282 KB), small next to
    numpy's ~27 MB import. The longest length kept is 40853 (2,621,200
    bytes; 40867 needs 2,622,096), so no large p, where lengths rarely
    repeat, is ever held.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict[int, _Entry] = OrderedDict()
        self._lock = threading.Lock()

    def peek(self, p: int) -> _Entry | None:
        """p's kept entry, marked as recently used, or None; builds nothing."""
        with self._lock:
            entry = self._entries.get(p)
            if entry is not None:
                self._entries.move_to_end(p)
            return entry

    def entry(self, p: int) -> _Entry | None:
        """p's entry (factors, L2, E3), built and kept if it fits the bound, else None."""
        entry = self.peek(p)
        if entry is not None:
            return entry
        size = _entry_bytes(p)
        if size > self.budget:
            return None
        factors = _twiddle_factors(p)
        entry = (factors, *_log_tables(p, factors))
        with self._lock:
            kept = self._entries.get(p)
            if kept is not None:
                self._entries.move_to_end(p)
                return kept
            while self.nbytes + size > self.budget:
                old, _ = self._entries.popitem(last=False)
                self.nbytes -= _entry_bytes(old)
            self._entries[p] = entry
            self.nbytes += size
        return entry


_STORE = _LengthStore(_STORE_BYTES)

_BLOCK = 1 << 14

# j and T(j) = j(j+1)/2 for j < 2*_BLOCK, the same for every p
_J = np.arange(2 * _BLOCK, dtype=np.int64)
_TJ = np.cumsum(_J)
_J.setflags(write=False)
_TJ.setflags(write=False)


def _block_bounds(n: int, lo: int = 0) -> Iterator[tuple[int, int]]:
    """Bins [k0, k1) of the blocks of [lo, lo + n): b = max(1, n // _BLOCK) cuts at lo + i*n//b.

    For n >= 2*_BLOCK every block holds _BLOCK to 2*_BLOCK bins, below that
    one block holds n. Callers cut n >= 2, so no block is one bin, which
    numpy would scale by another loop, off in the last bit. _BLOCK = 2**14
    won a sweep of 2**12 to 2**15 (CHANGES.md): fewer fixed-cost numpy
    calls than smaller blocks, and a block's arrays about fit a 2 MB L2.
    """
    b = max(1, n // _BLOCK)
    for i in range(b):
        yield lo + i * n // b, lo + (i + 1) * n // b


def _block_phases(
    p: int,
    iu: int,
    fs: int,
    k0: int,
    n: int,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """phase_k for the n <= 2*_BLOCK bins k = k0 + j, j < n, into out.

    T(k0 + j) = T(k0) + k0*j + T(j), so phase_k0+j = (base + j*slope -
    iu*T(j)) mod p with slope = (fs - iu*k0) mod p and base = (k0*fs -
    iu*T(k0)) mod p exact Python ints, and j, T(j) from _J and _TJ. With
    j < 2*_BLOCK = 2**15 and iu, slope, base < p < 2**31, iu*T(j) < 2**60
    and j*slope < 2**46: the int64 sum is exact (up to _BLOCK = 2**15;
    2**16 overflows), so one reduction per bin gives the recurrence's
    integers. out and tmp, n-element int64 buffers, are allocated when not
    given. The reduction is x - p*(x // p): numpy's // by a scalar uses
    libdivide and % does not, so it costs about a third of np.remainder.
    """
    phases = np.multiply(_J[:n], (fs - iu * k0) % p, out=out)
    tmp = np.multiply(_TJ[:n], iu, out=tmp)
    phases -= tmp
    if k0:
        phases += (k0 * fs - iu * (k0 * (k0 + 1) // 2)) % p
    np.floor_divide(phases, p, out=tmp)
    tmp *= p
    phases -= tmp
    return phases


def phase_indices(pl: TransformPlan) -> np.ndarray:
    """int64 phase indices phase_k = (k*fs - iu*T(k)) mod p, k = 0..p-1.

    The closed form of phase_indices_recurrence, block by block
    (_block_phases); it factors as r*k*(k + s) mod p (see execute).
    """
    p = pl.params.p
    if p < 2 * _BLOCK:
        return _block_phases(p, pl.iu, pl.fs, 0, p)
    phases = np.empty(p, dtype=np.int64)
    tmp = np.empty(2 * _BLOCK, dtype=np.int64)
    for lo, hi in _block_bounds(p):
        _block_phases(p, pl.iu, pl.fs, lo, hi - lo, phases[lo:hi], tmp[: hi - lo])
    return phases


def phase_indices_recurrence(pl: TransformPlan, counters: OpCounters) -> np.ndarray:
    """The paper's accumulation, one step per output, tallied in counters.

    phase starts at 0 and freq at fs; after emitting index k < p - 1,
    freq <- (freq - iu) mod p and phase <- (phase + freq) mod p: exactly
    2(p-1) additions and 2(p-1) reductions, plus the gather's p lookups.
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
    """out[k] = const_factor * table[phase_k], through the logs or in blocks.

    With r = -iu*(p+1)/2 and s = 1 - 2*u*fs mod p, phase_k = r*k*(k + s)
    mod p. A kept plan (logs set) adds discrete logs instead of multiplying
    (the primitive-root reindexing of Rader's prime-length DFT, Proc. IEEE
    56(6), 1968): for k != 0, -s,
        table[phase_k] = E3[L(r) + L(k) + L(k + s)],
    one add of two slices of L2, one gather from E3 and the scale. E3 holds
    _gather's products, so the output is _gather's bit for bit. At k = 0
    and k = -s (one bin when ts = (p-1)/2) phase_k = 0 and L(0) means
    nothing, so those bins are set to const_factor = const_factor * table[0].
    r and s come from the plan's fields, so dataclasses.replace works.

    A factored plan (logs None) runs _gather. With counters, at every p,
    _gather takes the counted recurrence's phases: the same output.
    """
    if counters is not None:
        return _gather(pl, phase_indices_recurrence(pl, counters))
    if pl.logs is None:
        return _gather(pl)
    p = pl.params.p
    logs, exps = pl.logs
    s = (1 - 2 * pl.params.u * pl.fs) % p
    lr = logs[(-pl.iu * (p + 1) // 2) % p]
    # method and operator: np.take and np.add pay __array_function__ dispatch
    out = exps[lr:].take(logs[:p] + logs[s : s + p])
    out *= pl.const_factor
    out[0] = out[-s] = pl.const_factor
    return out


def _gather(pl: TransformPlan, phases: np.ndarray | None = None) -> np.ndarray:
    """const_factor * table[phase_k] for k < p, from the given phases or the closed form.

    Block by block (_block_bounds), each block's phases (phases[k0:k1] or
    _block_phases), gather hi[phase >> s] * lo[phase & (m - 1)] and scale
    are done before the next starts. Given phases, not written to, are
    gathered over all p bins. Without them, only the h = (p+1)/2 bins
    [first, first + h) are formed and gathered, and the other two ranges
    are reversed copies of their mirrors. Proof: with t = 2*u*fs - 1 = -s,
        phase_(t-k) = r*(t - k)*(t - k + s) = r*(-(k + s))*(-k) = phase_k,
    and equal phases give equal outputs bit for bit, so out[k] ==
    out[(t - k) mod p]. As 2 is invertible mod p, k -> t - k has the one
    fixed point c = t*(p+1)/2 mod p, and it pairs every other bin c + d
    with c - d, 0 < d <= (p-1)/2. So c, c + 1, ..., c + (p-1)/2 hold one
    bin of each pair, and so do c - (p-1)/2, ..., c. first = c if c <=
    (p-1)/2, else c - (p-1)/2 >= 1; either way the range ends at or before
    p - 1 and never wraps.
    """
    p = pl.params.p
    m = _split(p)
    lo, hi = pl.twiddles[:m], pl.twiddles[m:]
    s = m.bit_length() - 1
    out = np.empty(p, dtype=np.complex128)
    # no larger than p: above glibc's mmap threshold an unused buffer can
    # make the output fault in afresh on every call
    size = min(p, 2 * _BLOCK)
    tmp = np.empty(size, dtype=np.int64)
    scratch = np.empty(size, dtype=np.complex128)
    if phases is None:
        buf = np.empty(size, dtype=np.int64)
        half = (p + 1) // 2
        t = (2 * pl.params.u * pl.fs - 1) % p
        c = t * half % p
        first = c if c < half else c - half + 1
        bounds = _block_bounds(half, first)
    else:
        bounds = _block_bounds(p)
    for k0, k1 in bounds:
        n = k1 - k0
        block = out[k0:k1]
        if phases is None:
            r = _block_phases(p, pl.iu, pl.fs, k0, n, buf[:n], tmp[:n])
        else:
            r = phases[k0:k1]
        # every index is in range, so "clip" never clips; unlike "raise" it
        # writes into the output directly instead of through a buffer
        np.take(hi, np.right_shift(r, s, out=tmp[:n]), out=block, mode="clip")
        block *= np.take(lo, np.bitwise_and(r, m - 1, out=tmp[:n]), out=scratch[:n], mode="clip")
        block *= pl.const_factor
    if phases is None:
        # out[a + i] = out[top - i], top = (t - a) mod p: source and target
        # are disjoint slices, so the copy needs no temporary
        for a, b in ((first + half, p), (0, first)):
            top = (t - a) % p
            out[a:b] = out[top - (b - a) + 1 : top + 1][::-1]
    return out
