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

execute runs that closed form in blocks of _BLOCK to 2*_BLOCK bins
(_block_phases): a block's phases, its gather from the table and its scale
are done while its arrays stay in L2, instead of as whole-length passes.
Within a block the closed form needs only j and T(j) for j < 2*_BLOCK, two
read-only module arrays that do not depend on p.

The root enters only through iu and fs. The twiddle table depends on p
alone, so it is kept per length in one bounded store (_LengthStore) and
shared by every root, shift and direction of p. A length whose table the
store does not keep (p > 32749) would use its p entries once, so its plan
holds only the two sqrt(p)-length factors of the table, and execute gathers
hi[a] * lo[b] per block: p bins cost 2*ceil(sqrt(p)) exps and no p-entry
table, and the spectra stay bit-identical to a gather from the whole table.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .gauss import _qpo_times4, const_from_qpo
from .numtheory import legendre, mod_inverse
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
    and executed concurrently. The table of roots is
    twiddles[j] = exp(-i*2*pi*j/p), held whole or as two factors (split,
    below), and const_factor = sqrt(p) * exp(i*2*pi*QPo/p). The frequency
    shift fs is (p+1)/2*(iu-1) - ts for the DFT and (p+1)/2*(iu+1) + ts for
    the IDFT, reduced into [0, p-1]; the two directions differ by nothing
    else.

    The table is built from two sqrt(p)-length tables: with
    m = isqrt(p-1) + 1 and j = a*m + b, twiddles[j] = hi[a] * lo[b], where
    lo[b] = exp(-i*2*pi*b/p) for b < m and hi[a] = exp(-i*2*pi*a*m/p) for
    a < ceil(p/m). That is 2*ceil(sqrt(p)) complex exps and p complex
    multiplies, not p exps.

    split says which form the plan holds, and the store's keep rule decides
    it (_LengthStore). split = 0: twiddles is the whole p-entry table, shared
    by every plan of p while the store keeps it. split = m: p's table is too
    large to keep, so twiddles is lo followed by hi, m + ceil(p/m) entries,
    and the table is never formed; the gather reads hi[phase // m] and
    lo[phase % m] and multiplies them. Each product is one complex multiply
    of the same two complex128 values that np.multiply.outer(hi, lo)
    multiplies for entry a*m + b, and numpy rounds it the same way whether
    one operand is broadcast (the outer product) or both are arrays (the
    gather). So it is the table entry bit for bit, and so are the spectra.
    Either form is read-only, and so is its base.

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

    execute cuts the p bins into n = max(1, p // _BLOCK) blocks at i*p//n,
    so for p >= 2*_BLOCK each block holds between _BLOCK and 2*_BLOCK bins.
    For the bins k0 + j of a block, T(k0 + j) = T(k0) + k0*j + T(j), so
        phase_k0+j = (base + j*slope - iu*T(j)) mod p,
        slope = (fs - iu*k0) mod p,  base = (k0*fs - iu*T(k0)) mod p,
    with slope and base taken exactly as Python ints. With j < 2*_BLOCK =
    2**13, T(j) < 2**26, so iu*T(j) < 2**57 and j*slope < 2**44: the int64
    sum stays exact, and one reduction per bin gives the same integers as
    the counted recurrence. Below 2*_BLOCK there is one block, k0 = 0, and
    the phases take two multiplies, a subtract and a reduction.

    _BLOCK = 2**12 bins: a block's int64 phases and scratch (64 KB each at
    most), its output slice (128 KB) and the j and T(j) arrays (64 KB each),
    and for a factored plan its complex scratch (128 KB) and the factors
    (32 KB at p = 10**6), stay in L2 from the phases to the scale, while
    per-block interpreter work stays a few microseconds against the block's
    tens. No block is shorter than _BLOCK, so every block's scale runs the
    same numpy complex-multiply loop as one whole-length multiply and the
    spectra are bit-identical to it; with fixed blocks of _BLOCK, the 1-bin
    last block at p = 65537 took the other loop and changed that bin in its
    last bit.
    """

    params: ZcParams
    direction: str
    iu: int
    ell: int
    fs: int
    qpo_times4: int
    twiddles: np.ndarray
    const_factor: complex
    split: int = 0


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
    twiddles, split = _STORE.twiddles(p)
    return TransformPlan(
        params=params,
        direction=direction,
        iu=iu,
        ell=ell,
        fs=fs,
        qpo_times4=qpo4,
        twiddles=twiddles,
        const_factor=const_from_qpo(p, qpo4),
        split=split,
    )


def _split(p: int) -> int:
    """m = isqrt(p-1) + 1: the table is hi[a] * lo[b] at a*m + b (see TransformPlan)."""
    return math.isqrt(p - 1) + 1


def _twiddle_factors(p: int) -> np.ndarray:
    """lo followed by hi, read-only: exp(-i*2*pi*b/p) for b < m, then exp(-i*2*pi*a*m/p)."""
    m = _split(p)
    w = -2j * np.pi / p
    factors = np.concatenate((np.exp(w * np.arange(m)), np.exp(w * np.arange(0, p, m))))
    factors.setflags(write=False)
    return factors


def _twiddle_table(p: int) -> np.ndarray:
    """exp(-i*2*pi*j/p) for j < p as hi[a] * lo[b], j = a*m + b (see TransformPlan).

    The product is made read-only before it is sliced, so neither the table
    nor its base can be written.
    """
    m = _split(p)
    factors = _twiddle_factors(p)
    full = np.multiply.outer(factors[m:], factors[:m])
    full.setflags(write=False)
    return full.ravel()[:p]


def _entry_bytes(p: int) -> int:
    """Bytes of p's kept table, counting its base of m*ceil(p/m) entries."""
    m = _split(p)
    return 16 * m * -(-p // m)


_STORE_BYTES = 1 << 19


class _LengthStore:
    """LRU of read-only twiddle tables by p, bounded in total bytes.

    A table is kept whole or not at all, and the keep rule also picks the
    form of a plan's twiddles. A length whose table is larger than the bound
    is never kept, and its plans hold the table's two factors (split = m,
    see TransformPlan) instead of a p-entry table each: such a table would be
    built for one plan and read once, so forming it costs more than the
    second gather of the factored path. A kept table is read by every plan
    of p, and there one gather from it is the faster path. Bookkeeping is
    under a lock, building is outside it: two threads may build the same p,
    and the first to insert it wins, so every plan of a kept p shares one
    table.

    The bound, _STORE_BYTES = 512 KiB, holds every PRACH length (139, 571,
    839, 1151: 43 KB) and the whole acceptance grid (5 <= p <= 199: 71 KB)
    several times over, and it is small next to the ~27 MB peak RSS of
    importing numpy. A table takes 16*m*ceil(p/m) bytes, about 16*p; the
    longest length it can keep is 32749 (524176 bytes; 32771 would need
    527072), so no large p is ever held (65537 would need 1.05 MB): there
    lengths rarely repeat, and a plan holds 16*(m + ceil(p/m)) bytes of
    factors, 8 KB at 65537 and 1.5 MB at 2**31-1.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict[int, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def peek(self, p: int) -> np.ndarray | None:
        """p's kept table, marked as recently used, or None; builds nothing."""
        with self._lock:
            table = self._entries.get(p)
            if table is not None:
                self._entries.move_to_end(p)
            return table

    def twiddles(self, p: int) -> tuple[np.ndarray, int]:
        """p's twiddles and split: the kept table and 0, or p's factors and m.

        A table that fits the bound is kept; a length whose table does not
        fit gets new factors per call and no table.
        """
        table = self.peek(p)
        if table is not None:
            return table, 0
        size = _entry_bytes(p)
        if size > self.budget:
            return _twiddle_factors(p), _split(p)
        table = _twiddle_table(p)
        with self._lock:
            kept = self._entries.get(p)
            if kept is not None:
                self._entries.move_to_end(p)
                return kept, 0
            while self.nbytes + size > self.budget:
                old, _ = self._entries.popitem(last=False)
                self.nbytes -= _entry_bytes(old)
            self._entries[p] = table
            self.nbytes += size
        return table, 0


_STORE = _LengthStore(_STORE_BYTES)

_BLOCK = 1 << 12

# j and T(j) = j(j+1)/2 for j < 2*_BLOCK, the same for every p
_J = np.arange(2 * _BLOCK, dtype=np.int64)
_TJ = np.cumsum(_J)
_J.setflags(write=False)
_TJ.setflags(write=False)


def _block_bounds(p: int) -> Iterator[tuple[int, int]]:
    """Bins [lo, hi) of execute's blocks: n = max(1, p // _BLOCK) cuts at i*p//n.

    For p >= 2*_BLOCK every block holds between _BLOCK and 2*_BLOCK bins;
    below that there is one block of p bins.
    """
    n = max(1, p // _BLOCK)
    for i in range(n):
        yield i * p // n, (i + 1) * p // n


def _block_phases(
    pl: TransformPlan,
    k0: int,
    n: int,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """phase_k for the n <= 2*_BLOCK bins k = k0 + j, j < n, into out.

    (base + j*slope - iu*T(j)) mod p from _J and _TJ, exact in int64 (see
    TransformPlan). out and tmp, n-element int64 buffers, are allocated when
    not given; tmp is left holding scratch. It reads no table, so any block
    of any p can be checked against Python ints without building one.

    With several blocks the reduction is x - p*(x // p): numpy divides an
    int64 array by a scalar through libdivide for // but not for %, so on
    an 8192-bin block the three passes cost about a third of one
    np.remainder. Below 2*_BLOCK, one block, the reduction is np.remainder:
    at p <= 571 the two extra numpy calls cost more than they save.
    """
    p, iu, fs = pl.params.p, pl.iu, pl.fs
    phases = np.multiply(_J[:n], (fs - iu * k0) % p, out=out)
    tmp = np.multiply(_TJ[:n], iu, out=tmp)
    phases -= tmp
    if k0:
        phases += (k0 * fs - iu * (k0 * (k0 + 1) // 2)) % p
    if p < 2 * _BLOCK:
        return np.remainder(phases, p, out=phases)
    np.floor_divide(phases, p, out=tmp)
    tmp *= p
    phases -= tmp
    return phases


def phase_indices(pl: TransformPlan) -> np.ndarray:
    """int64 phase indices phase_k = (k*fs - iu*T(k)) mod p, k = 0..p-1.

    The closed form of the accumulation that phase_indices_recurrence runs,
    computed block by block as execute does.
    """
    p = pl.params.p
    if p < 2 * _BLOCK:
        return _block_phases(pl, 0, p)
    phases = np.empty(p, dtype=np.int64)
    tmp = np.empty(2 * _BLOCK, dtype=np.int64)
    for lo, hi in _block_bounds(p):
        _block_phases(pl, lo, hi - lo, phases[lo:hi], tmp[: hi - lo])
    return phases


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

    Each block's phases, gather and scale run before the next block starts;
    a factored plan's gather is hi[phase // m] * lo[phase % m] (see
    TransformPlan). With counters, the phases come from the counted
    recurrence instead, which gives the same integers and so the same output.
    """
    if counters is not None:
        return _gather(pl, phase_indices_recurrence(pl, counters))
    p = pl.params.p
    if p < 2 * _BLOCK:
        return _gather(pl, _block_phases(pl, 0, p))
    m = pl.split
    out = np.empty(p, dtype=np.complex128)
    phases = np.empty(2 * _BLOCK, dtype=np.int64)
    tmp = np.empty(2 * _BLOCK, dtype=np.int64)
    if m:
        lo, hi = pl.twiddles[:m], pl.twiddles[m:]
        scratch = np.empty(2 * _BLOCK, dtype=np.complex128)
    for k0, k1 in _block_bounds(p):
        n = k1 - k0
        block = out[k0:k1]
        r = _block_phases(pl, k0, n, phases[:n], tmp[:n])
        # every index is in range, so "clip" never clips; unlike "raise" it
        # writes into the output directly instead of through a buffer
        if m:
            a = np.floor_divide(r, m, out=tmp[:n])
            np.take(hi, a, out=block, mode="clip")
            r -= np.multiply(a, m, out=a)
            block *= np.take(lo, r, out=scratch[:n], mode="clip")
        else:
            np.take(pl.twiddles, r, out=block, mode="clip")
        block *= pl.const_factor
    return out


def _gather(pl: TransformPlan, phases: np.ndarray) -> np.ndarray:
    """const_factor * twiddles[phases], scaled in place; hi[a] * lo[b] if factored.

    A factored plan's phases split as execute's blocks split them, a =
    phases // m and b = phases - a*m: the same integers as np.divmod, whose
    int64 remainder does not go through libdivide.
    """
    m = pl.split
    if m:
        a = phases // m
        b = phases - a * m
        out = pl.twiddles[m:][a]
        out *= pl.twiddles[b]
    else:
        out = pl.twiddles[phases]
    out *= pl.const_factor
    return out
