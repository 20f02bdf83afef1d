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

The phase is also a product of two linear factors: with r = -iu*(p+1)/2
and s = 1 - 2*u*fs mod p, phase_k = r*k*(k + s) mod p, zero only at k = 0
and k = -s. In the multiplicative group mod p a product is a sum of
discrete logs (the primitive-root reindexing of Rader's prime-length DFT,
Proc. IEEE 56(6), 1968), so for a length it keeps, execute reads
twiddles[phase_k] as E3[L(r) + L(k) + L(k + s)]: two reads from a
per-length log table, one add, one gather, and no multiply or reduction.
E3 is gathered from the table, so the spectra are the table gather's bit
for bit. Such an entry (table, L2 and E3) takes about 80*p bytes, and the
store's bound of 2.5 MiB keeps every p <= 32749.

The root enters only through iu and fs. The twiddle table and its log
tables depend on p alone, so they are kept per length in one bounded store
(_LengthStore) and shared by every root, shift and direction of p. A length
whose entry the store does not keep (p > 32749) would use its p entries
once, so its plan holds only the table's two sqrt(p)-length factors, hi and
lo, and _gather forms the phases and gathers hi[a] * lo[b] in blocks of
_BLOCK to 2*_BLOCK bins whose arrays stay in L2. The spectra stay
bit-identical to a gather from the whole table (see TransformPlan).

The product r*k*(k + s) is a quadratic in k, symmetric about its vertex:
bins k and -s - k mod p carry the same phase, and so the same output. So
for a factored plan _gather forms and gathers only the (p+1)/2 bins of one
mirror half and copies each other bin from its mirror (see _gather).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .gauss import _qpo_times4, const_from_qpo
from .numtheory import legendre, mod_inverse, power_table, primitive_root
from .sequences import ZcParams

DFT = "dft"
IDFT = "idft"


@dataclass
class OpCounters:
    """Tallies of the work done by the counted recurrence; owned by the caller.

    exp_evaluations counts the p table lookups of the gather, one per output,
    not calls to exp: plan builds the table with m + ceil(p/m) exps, m ~
    sqrt(p) (see TransformPlan). The name stays because the bench reports
    (zcdft bench, perfbench) use it as a key. The counted path makes the
    paper's p lookups; a factored execute without counters makes (p+1)/2
    and fills the other (p-1)/2 bins by copies from their mirrors (see
    _gather).
    """

    additions: int = 0
    modulo_reductions: int = 0
    exp_evaluations: int = 0


@dataclass(frozen=True)
class TransformPlan:
    """Precomputed state for one (p, u, ts, direction).

    Immutable after construction; a plan may be shared freely across threads
    and executed concurrently. The table of roots is
    twiddles[j] = exp(-i*2*pi*j/p), held whole or as two factors (logs,
    below), and const_factor = sqrt(p) * exp(i*2*pi*QPo/p). The frequency
    shift fs is (p+1)/2*(iu-1) - ts for the DFT and (p+1)/2*(iu+1) + ts for
    the IDFT, reduced into [0, p-1]; the two directions differ by nothing
    else.

    The table is built from two sqrt(p)-length tables: with m = 2**s the
    least power of two with m*m >= p (_split) and j = a*m + b,
    twiddles[j] = hi[a] * lo[b], where lo[b] = exp(-i*2*pi*b/p) for b < m
    and hi[a] = exp(-i*2*pi*a*m/p) for a < ceil(p/m). With sqrt(p) <= m <
    2*sqrt(p), that is m + ceil(p/m) < 2.5*sqrt(p) + 1 complex exps and p
    complex multiplies, not p exps. A power of two splits a phase r into
    a = r >> s and b = r & (m - 1), two cheap integer passes, where r // m
    and r - m*(r // m) take three; kept tables use the same m, so both
    forms hold the same products.

    logs says which form the plan holds, and the store's keep rule decides
    it (_LengthStore). With logs = (L2, E3), twiddles is the whole p-entry
    table, shared by every plan of p while the store keeps it, and L2 and E3
    are the length's log tables that execute reads it through (see execute).
    With logs None, p's entry is too large to keep: twiddles is lo followed
    by hi, m + ceil(p/m) entries with m = _split(p), and the table is never
    formed; _gather reads hi[phase >> s] and lo[phase & (m - 1)] and
    multiplies them. Each product is one complex multiply of the same two
    complex128 values that np.multiply.outer(hi, lo) multiplies for entry
    a*m + b, and numpy rounds it the same way whether one operand is
    broadcast (the outer product) or both are arrays (the gather). So it is
    the table entry bit for bit, and so are the spectra. Every array a plan
    holds is read-only, and so is its base. A kept entry (table, L2, E3)
    takes about 80*p bytes, 2.6 MB at 32749; a factored plan holds
    16*(m + ceil(p/m)) bytes (_LengthStore).

    Error of each entry, with eps the float64 epsilon and u = eps/2:
    - argument: each factor's angle 2*pi*n/p takes three roundings (fl(2*pi),
      the division by p, the product with n), so it is off by at most
      gamma_3 = 3u/(1-3u) of itself. The two angles add up to 2*pi*j/p < 2*pi,
      so the phase of the product is off by at most 2*pi*gamma_3 ~ 3*pi*eps.
      This holds for any m: every hi angle is 2*pi*a*m/p with a*m < p and
      every lo angle 2*pi*b/p with b < m < p, so the power-of-two split
      changes the last bits of entries but not the bound;
    - exp: libm's cos and sin are within one ulp, at most eps/2 for values
      of magnitude at most 1, so each factor is off by at most eps/sqrt(2);
    - product: one complex multiply adds sqrt(2)*gamma_2 ~ sqrt(2)*eps
      (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.5).
    In all, |twiddles[j] - exp(-i*2*pi*j/p)| <= (3*pi + 2*sqrt(2)) * eps,
    about 12.3 eps, to first order in eps.

    _block_bounds cuts a range of n bins into max(1, n // _BLOCK) blocks, so
    for n >= 2*_BLOCK each block holds between _BLOCK and 2*_BLOCK bins.
    phase_indices and _gather at given phases cut all p bins; a factored
    execute cuts the (p+1)/2 bins of one mirror half, which start at any
    k0 and never wrap (see _gather). Every p the default store does not
    keep is above 32749, so the half holds at least 16385 bins and every
    such block holds _BLOCK to 2*_BLOCK bins. For the bins k0 + j of a
    block, T(k0 + j) = T(k0) + k0*j + T(j), so
        phase_k0+j = (base + j*slope - iu*T(j)) mod p,
        slope = (fs - iu*k0) mod p,  base = (k0*fs - iu*T(k0)) mod p,
    with slope and base taken exactly as Python ints. With j < 2*_BLOCK =
    2**15 and iu, slope, base < p < 2**31, T(j) < 2**29, so iu*T(j) < 2**60
    and j*slope < 2**46: the int64 sum stays exact, and one reduction per
    bin gives the same integers as the counted recurrence. _BLOCK = 2**15
    would still fit (iu*T(j) < 2**62); at 2**16, iu*T(j) reaches 2**64. A
    range below 2*_BLOCK bins is one block, and with k0 = 0 its phases take
    two multiplies, a subtract and a reduction; every length the store keeps
    is below 2*_BLOCK, and execute reads it through its logs instead.

    _BLOCK = 2**14 bins won a sweep of 2**12 to 2**15 (CHANGES.md). Each
    block makes about 14 numpy calls of fixed cost, which smaller blocks
    pay more often, and a block's arrays still about fit a 2 MB L2. No
    block is shorter than _BLOCK, so every block's scale runs
    the same numpy complex-multiply loop as one whole-length multiply and
    the spectra are bit-identical to it; with fixed blocks of _BLOCK, the
    1-bin last block at p = 65537 took the other loop and changed that bin
    in its last bit. A mirror half is never one bin ((p+1)/2 >= 2), so
    under a smaller store bound too its blocks take the array loop.
    """

    params: ZcParams
    direction: str
    iu: int
    ell: int
    fs: int
    qpo_times4: int
    twiddles: np.ndarray
    const_factor: complex
    logs: tuple[np.ndarray, np.ndarray] | None = None


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


def _log_tables(p: int, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2 and E3 of p for the log-domain gather, read-only, each its own base.

    With g the least primitive root of p, L2 = [L, L] where L[g**e mod p] = e
    for e < p - 1 and L[0] = 0, and E3[e] = table[g**(e mod (p-1)) mod p] for
    e < 3(p - 1), gathered from the table, so each entry is a table entry
    bit for bit (see execute).
    """
    pw = power_table(primitive_root(p), p)
    logs = np.empty(2 * p, dtype=np.intp)
    logs[0] = 0
    logs[pw] = np.arange(p - 1)
    logs[p:] = logs[:p]
    w = table[pw]
    exps = np.concatenate((w, w, w))
    logs.setflags(write=False)
    exps.setflags(write=False)
    return logs, exps


def _entry_bytes(p: int) -> int:
    """Bytes of p's kept entry: the table's base of m*ceil(p/m) entries, L2 and E3."""
    m = _split(p)
    return 16 * m * -(-p // m) + 2 * p * np.dtype(np.intp).itemsize + 48 * (p - 1)


_STORE_BYTES = 5 << 19

# a kept length's (table, L2, E3)
_Entry = tuple[np.ndarray, np.ndarray, np.ndarray]


class _LengthStore:
    """LRU of read-only per-length entries by p, bounded in total bytes.

    An entry is (table, L2, E3): the whole twiddle table and the two
    discrete-log tables that execute gathers it through (_log_tables). It is
    kept whole or not at all, and the keep rule also picks the form of a
    plan's twiddles. A length whose entry is larger than the bound is never
    kept, and its plans hold the table's two factors (logs None, see
    TransformPlan) instead of a p-entry table each: such a table would be
    built for one plan and read once, so forming it costs more than the
    second gather of the factored path. A kept entry is read by every plan
    of p, and there one gather from it is the faster path. Bookkeeping is
    under a lock, building is outside it: two threads may build the same p,
    and the first to insert it wins, so every plan of a kept p shares one
    entry.

    An entry takes 16*m*ceil(p/m) bytes of table (about 16*p, with m the
    power of two of _split), 16*p of intp L2 and 48*(p-1) of complex E3:
    about 80*p in all. The bound, _STORE_BYTES = 5*2**19 = 2.5 MiB, holds
    every PRACH length (139, 571, 839, 1151: 216 KB) and the whole acceptance
    grid (5 <= p <= 199: 340 KB) several times over, and it is small next to
    the ~27 MB peak RSS of importing numpy. The longest length it can keep
    is 32749 (2,620,176 bytes; 32771 would need 2,625,680), so no large p is
    ever held (65537 would need 5.2 MB): there lengths rarely repeat, and a
    plan holds 16*(m + ceil(p/m)) bytes of factors, 10 KB at 65537 and
    1.5 MB at 2**31-1. Every kept length is below 2*_BLOCK, so it is a
    single block.
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
        """p's entry (table, L2, E3), built and kept if it fits the bound, else None."""
        entry = self.peek(p)
        if entry is not None:
            return entry
        size = _entry_bytes(p)
        if size > self.budget:
            return None
        table = _twiddle_table(p)
        entry = (table, *_log_tables(p, table))
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

    For n >= 2*_BLOCK every block holds between _BLOCK and 2*_BLOCK bins;
    below that there is one block of n bins.
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

    (base + j*slope - iu*T(j)) mod p from _J and _TJ, exact in int64 (see
    TransformPlan). out and tmp, n-element int64 buffers, are allocated when
    not given; tmp is left holding scratch. It takes plain ints and reads no
    table, so any block of any p can be checked against Python ints without
    building one.

    The reduction is x - p*(x // p): numpy divides an int64 array by a
    scalar through libdivide for // but not for %, so on an 8192-bin block
    the three passes cost about a third of one np.remainder. _gather runs
    this kernel only on plans whose entry the store does not keep, that is
    for p > 32749 (or under a smaller bound); phase_indices runs it at
    every p.
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

    The closed form of the accumulation that phase_indices_recurrence runs,
    computed block by block over all p bins. It equals r*k*(k + s) mod p
    with r = -iu*(p+1)/2 and s = 1 - 2*u*fs mod p, the product whose
    discrete logs a kept plan's execute adds instead, so
    phase_k == phase_(t-k) with t = -s mod p; a factored execute forms only
    one mirror half of them (see _gather).
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
    """out[k] = const_factor * twiddles[phase_k], through the logs or in blocks.

    A kept plan (logs set) reads the table through its discrete logs. With
    r = -iu*(p+1)/2 and s = 1 - 2*u*fs mod p, phase_k = r*k*(k + s) mod p
    (the closed form with 1/2 = (p+1)/2 mod p), so for k != 0, -s
        twiddles[phase_k] = E3[L(r) + L(k) + L(k + s)],
    each index below 3(p - 1): one add of two slices of L2, one gather from
    E3 and the scale. E3's entries are the table's own, so the output is the
    gather from the table bit for bit. phase_k = 0 at k = 0 and k = -s mod p
    (one bin when s = 0, that is ts = (p-1)/2), where L(0) means nothing;
    those bins are set to const_factor = const_factor * twiddles[0]. r and
    s are read from the plan's fields, so a plan changed by
    dataclasses.replace gives the spectrum of its new fields.

    A factored plan (logs None) runs _gather, which forms and gathers the
    (p+1)/2 bins of one mirror half in blocks and copies the other (p-1)/2
    from them: phase_k == phase_(t-k) with t = -s mod p. With counters, the
    phases come from the counted recurrence instead and go through _gather
    over all p bins; they are the same integers, so the output is the same.
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
    """const_factor * twiddles[phase_k] for k < p, from the given phases or the closed form.

    A kept plan gathers its whole table at the given phases; every kept p
    is a single block. A factored plan runs block by block: each block's
    phases (phases[k0:k1], or _block_phases when none are given), gather
    and scale are done before the next block starts, and the gather is
    hi[phase >> s] * lo[phase & (m - 1)], m = 2**s = _split(p) (see
    TransformPlan). Given phases are not written to.

    Given phases are gathered over all p bins. Without them, only the h =
    (p+1)/2 bins [first, first + h) are formed and gathered, and each of
    the other two ranges is one reversed copy of its mirror among them.
    Proof: with t = 2*u*fs - 1 = -s mod p,
        phase_(t-k) = r*(t - k)*(t - k + s) = r*(-(k + s))*(-k) = phase_k,
    and equal phases give equal outputs bit for bit, so out[k] ==
    out[(t - k) mod p]. As 2 is invertible mod p, k -> t - k has the one
    fixed point c = t*(p+1)/2 mod p, and it pairs every other bin c + d
    with c - d, 0 < d <= (p-1)/2. So c, c + 1, ..., c + (p-1)/2 hold one
    bin of each pair, and so do c - (p-1)/2, ..., c. first = c if c <=
    (p-1)/2, else c - (p-1)/2 >= 1; either way the range ends at or before
    p - 1 and never wraps.
    """
    if pl.logs is not None:
        out = pl.twiddles[phases]
        out *= pl.const_factor
        return out
    p = pl.params.p
    m = _split(p)
    lo, hi = pl.twiddles[:m], pl.twiddles[m:]
    s = m.bit_length() - 1
    out = np.empty(p, dtype=np.complex128)
    tmp = np.empty(2 * _BLOCK, dtype=np.int64)
    scratch = np.empty(2 * _BLOCK, dtype=np.complex128)
    if phases is None:
        # the closed form's buffer only when it runs: an unused 256 KB array
        # can make the output fault in afresh on every call (glibc mmap)
        buf = np.empty(2 * _BLOCK, dtype=np.int64)
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
