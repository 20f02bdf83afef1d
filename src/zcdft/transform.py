"""O(p) DFT and IDFT of ZC sequences from integer phase indices.

The paper accumulates the frequency points fs - iu*k into phase indices
(2(p-1) additions, 2(p-1) reductions, p table lookups), checked here as
the counted path (sequences.accumulate_phases). The fast path does the
same accumulation a block at a time (numtheory.phase_blocks): the closed
form phase_k = (k*fs - iu*T(k)) mod p, T(k) = k(k+1)/2, seeds the first
block, and as T(k + L) = T(k) + L*k + T(L), each later block of L bins is
the one before plus D[j] = -iu*L*j mod p and one scalar per block, every
sum below 3p and reduced by two conditional subtractions. The quasi phase
offset is folded into one complex constant, sqrt(p)*exp(i*2*pi*QPo/p), so
the phases stay integer and the table of roots has p entries. Every plan
holds that table as two sqrt(p)-length factors (_twiddle_factors). execute
reads it through discrete-log tables for a length the store keeps
(_LengthStore), else by _gather's mirrored half; the counted path gathers
all p bins at its phases (_gather_phases). Both run one blocked gather
(_gather_blocks), and a kept entry holds the same product hi[a] * lo[b],
so the spectra are bit-identical. A kept length's entry
also holds every root's inverse, Legendre sign, 4*QPo and constant as one
structured row per root (_root_scalars), which plan reads with one .item(u)
instead of deriving them; both branches of plan take 4*QPo and the constant
from gauss. The bins at phase 0 read their value from the gather itself
(_log_tables).

zc_time, the time-domain sequence, lives here, next to the table it reads.
By the paper's third result the sequence and its spectra are one lmFH
gather from one table of roots, and differ only in slope, start and scale:
zc_time is execute's gather with iu = -u mod p, fs = 0, a start at ts and
no scale, from E3 through the discrete logs at a kept length, else by
_gather. Both routes give the same bits, and every sample is a table
entry, within the table's derived bound (_twiddle_factors).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .gauss import _qpo_times4, const_from_qpo
from .numtheory import _BLOCK, _block_bounds, phase_blocks
from .numtheory import legendre, mod_inverse, power_table, primitive_root
from .sequences import OpCounters, ZcParams, accumulate_phases

DFT = "dft"
IDFT = "idft"


@dataclass(frozen=True)
class TransformPlan:
    """Precomputed state for one (p, u, ts, direction).

    Immutable and read-only; a plan may be shared across threads. fs is
    (p+1)/2*(iu-1) - ts for the DFT and (p+1)/2*(iu+1) + ts for the IDFT,
    mod p; the directions differ by nothing else. twiddles is the table's
    factors, lo then hi (_twiddle_factors): 16*(m + ceil(p/m)) bytes, 10 KB
    at 65537. logs is (L2, E3) for a length the store keeps, one tuple of
    its entry that all its plans share with twiddles, else None
    (_LengthStore, _log_tables). Both depend on params.p alone, so equality
    and the hash leave them out.
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
    """Build the immutable plan: inverse, Legendre sign, shift, constant, twiddles.

    For a length the store keeps, iu, ell, 4*QPo and the constant are the
    entry's row for u (_root_scalars), read with one .item(u), which gives
    exact Python ints and a complex. Otherwise they are mod_inverse(u, p),
    legendre(2u, p) (Euler's criterion), and gauss's _qpo_times4 and
    const_from_qpo, which the rows call too: the same values, bit for bit.
    A direction other than DFT or IDFT raises ValueError, before the store
    builds an entry for p.
    """
    p, u, ts = params.p, params.u, params.ts
    half = (p + 1) // 2
    # fs = (half*iu + shift) mod p
    if direction == DFT:
        shift = -half - ts
    elif direction == IDFT:
        shift = half + ts
    else:
        require_direction(direction)  # raises
    entry = _STORE.entry(p)
    if entry is None:
        twiddles, logs = _twiddle_factors(p), None
        iu = mod_inverse(u, p)
        ell = legendre(2 * u, p)
        qpo4 = _qpo_times4(p, u, ell)
        const = const_from_qpo(p, qpo4)
    else:
        twiddles, logs, rows = entry
        iu, ell, qpo4, const = rows.item(u)
    fs = (half * iu + shift) % p
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
        const_factor=const,
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
    way whether one operand is broadcast or both are arrays (_gather,
    _log_tables): the same bits everywhere.

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


def _log_tables(p: int, factors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L2 and E3 of p for the log-domain gather, read-only, each its own base, and pw.

    With g the least primitive root of p, pw[e] = g**e mod p for e < p - 1,
    L2 = [L, L], L[g**e mod p] = e and L[0] = 3(p - 1), a sentinel, and
    E3[e] = hi[a] * lo[b] at a*m + b = pw[e mod (p-1)] for e < 3(p - 1), the
    product _gather forms, then one pad, table[0] = 1 + 0j, at 3(p - 1):
    hi[0] * lo[0] bit for bit. pw, writable, is what _root_scalars inverts
    through.

    execute and zc_time gather E3[lr:] at L2[x] + L2[y], lr = L(r), r != 0,
    with take(mode="clip"), which reads any index at or past the end as the
    last entry: the pad, at 3(p - 1) - lr. An index that holds the sentinel,
    once or twice, is at least 3(p - 1), so it reads the pad: the phase-0
    bins need no fix-up. Any other index is at most 2(p - 2) < 3(p - 1) -
    lr, as lr <= p - 2, so it never clips.
    """
    m = _split(p)
    pw = power_table(primitive_root(p), p)
    logs = np.empty(2 * p, dtype=np.intp)
    logs[0] = 3 * (p - 1)
    logs[pw] = np.arange(p - 1)
    logs[p:] = logs[:p]
    w = factors[m:][pw >> (m.bit_length() - 1)] * factors[:m][pw & (m - 1)]
    exps = np.concatenate((w, w, w, [1 + 0j]))
    logs.setflags(write=False)
    exps.setflags(write=False)
    return logs, exps, pw


# _qpo_times4 forms (3 - 2*l_2u - p mod 4)*p + u*(p+1)**3 <= (p-1)*(p+1)**3 + 4p
# in int64, below 2**63 for p <= 55108 (under 0.31*2**63 at 40853), so a row is
# exact up to this length; no store keeps a longer one, whatever its bound
_ROW_PMAX = 55108


# a root's plan scalars, packed in 33 bytes: .item(u) on a row array gives
# (iu, ell, 4*QPo, constant) as Python int, int, int and complex
_ROOT_ROW = np.dtype([("iu", np.int64), ("ell", np.int8), ("qpo4", np.int64), ("const", np.complex128)])


def _root_scalars(p: int, logs: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """One _ROOT_ROW per root u of p, read-only, indexed by u: iu, ell, 4*QPo and the constant.

    Slot 0 is unused; p <= _ROW_PMAX. With L(x) = L2[x] mod (p-1), which
    maps the sentinel L2[0] = 3(p - 1) to 0, and pw[L(x)] = x (_log_tables),
    iu = g**(-L(u)) = pw[-L(u) mod (p-1)]. ell = l_2u is +1 iff L(2u mod p)
    is even: g**e is a square iff e is even, and p - 1 is even, so L2[2u]
    has the parity of L(2u mod p). 4*QPo and the constant are gauss's, as
    on plan's other branch.
    """
    rows = np.empty(p, dtype=_ROOT_ROW)
    # numpy reads the index -e as p-1-e, so -L(u) mod (p-1) needs no more reduction
    rows["iu"] = pw[-(logs[:p] % (p - 1))]
    ell = 1 - 2 * (logs[: 2 * p : 2] & 1)
    rows["ell"] = ell
    rows["qpo4"] = qpo4 = _qpo_times4(p, np.arange(p, dtype=np.int64), ell)
    rows["const"] = const_from_qpo(p, qpo4)
    rows.setflags(write=False)
    return rows


def _entry_bytes(p: int) -> int:
    """Bytes of p's kept entry, about 97*p: factors, L2, E3 with its pad, root rows (see _build_entry)."""
    m = _split(p)
    return 16 * (m + -(-p // m)) + 2 * p * np.dtype(np.intp).itemsize + 48 * (p - 1) + 16 + _ROOT_ROW.itemsize * p


def _kept_bytes(p: int) -> float:
    """The transform's size rule: _entry_bytes(p), or inf past _ROW_PMAX, which no bound keeps."""
    return _entry_bytes(p) if p <= _ROW_PMAX else math.inf


def _build_entry(p: int) -> tuple:
    """p's entry (factors, (L2, E3), rows), read-only, built from p alone.

    _twiddle_factors, _log_tables and _root_scalars make it in
    16*(m + ceil(p/m)) + 16*p + (48*(p-1) + 16) + 33*p bytes, about 97*p
    (_entry_bytes): E3 is 3(p - 1) entries in log order and one pad
    (_log_tables). rows holds one _ROOT_ROW per root: iu (int64), ell
    (int8), 4*QPo (int64) and the constant (complex128). (L2, E3) is one
    tuple, every plan's logs. Every plan and zc_time of a kept p reads its
    E3, and every plan its row, while a length not kept would build all of
    them for one call, so plan and zc_time take their other routes there
    instead.
    """
    factors = _twiddle_factors(p)
    logs, exps, pw = _log_tables(p, factors)
    return factors, (logs, exps), _root_scalars(p, logs, pw)


# _entry_bytes grows with p, so this bound (3,969,365 bytes, about 97 per
# bin) keeps exactly the lengths p <= 40853 (40867 would need 3,970,723):
# the PRACH lengths (139, 571, 839, 1151: 265,228 bytes) and the grid
# 5 <= p <= 199 (422,238 bytes), small next to numpy's ~27 MB import, and
# no large p, where lengths rarely repeat
_STORE_BYTES = _entry_bytes(40853)


class _LengthStore:
    """Read-only per-length entries by p, bounded in total bytes, oldest out first.

    _build_entry(p) makes p's entry and _kept_bytes(p) gives its bytes. An
    entry is kept whole iff it fits the bound, so a length whose size
    exceeds the bound, or is inf, is never built here.

    A hit is one dict.get, without the lock and without reordering: an
    entry is a tuple of read-only arrays, inserted whole, so a reader sees
    all of it or nothing. Building is outside the lock; inserting and
    evicting are under it, and if two threads build one p, the first insert
    wins. Entries leave in insertion order once a new one would pass the
    bound. The order matters only when the lengths in use overflow it, and
    there least-recently-used order would thrash as well.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: dict[int, tuple] = {}
        self._lock = threading.Lock()

    def entry(self, p: int) -> tuple | None:
        """p's entry, built and kept if it fits the bound, else None."""
        entry = self._entries.get(p)
        if entry is not None:
            return entry
        size = _kept_bytes(p)
        if size > self.budget:
            return None
        entry = _build_entry(p)
        with self._lock:
            kept = self._entries.get(p)
            if kept is not None:
                return kept
            while self.nbytes + size > self.budget:
                old = next(iter(self._entries))
                del self._entries[old]
                self.nbytes -= _kept_bytes(old)
            self._entries[p] = entry
            self.nbytes += size
        return entry


_STORE = _LengthStore(_STORE_BYTES)


def phase_indices(pl: TransformPlan) -> np.ndarray:
    """int64 phase indices phase_k = (k*fs - iu*T(k)) mod p, k = 0..p-1.

    numtheory.phase_blocks from k0 = 0, each block copied into the output;
    it factors as r*k*(k + s) mod p (see execute).
    """
    p = pl.params.p
    out = np.empty(p, dtype=np.int64)
    for k0, k1, r in phase_blocks(p, pl.iu, pl.fs, 0, p):
        out[k0:k1] = r
    return out


def execute(pl: TransformPlan, counters: OpCounters | None = None) -> np.ndarray:
    """out[k] = const_factor * table[phase_k], through the logs or in blocks.

    With r = -iu*(p+1)/2 and s = 1 - 2*u*fs mod p, phase_k = r*k*(k + s)
    mod p. A kept plan (logs set) adds discrete logs instead of multiplying
    (the primitive-root reindexing of Rader's prime-length DFT, Proc. IEEE
    56(6), 1968): for k != 0, -s,
        table[phase_k] = E3[L(r) + L(k) + L(k + s)],
    one add of two slices of L2, one gather from E3 and the scale. E3 holds
    _gather's products, so the output is _gather's bit for bit. At k = 0
    and k = -s (one bin when s = 0) phase_k = 0 and the gather reads E3's
    pad, 1 + 0j (_log_tables). const_factor * (1 + 0j) is const_factor bit
    for bit, since neither of its components is zero (gauss._qpo_times4).
    r and s come from the plan's fields, so dataclasses.replace works.

    A factored plan (logs None) runs _gather from k = 0. With counters, at
    every p, _gather_phases gathers the counted accumulation's phases: the
    same output.
    """
    if counters is not None:
        return _gather_phases(pl, accumulate_phases(pl.params.p, pl.iu, pl.fs, counters))
    p = pl.params.p
    s = (1 - 2 * pl.params.u * pl.fs) % p
    if pl.logs is None:
        return _gather(p, pl.twiddles, pl.iu, pl.fs, s, 0, pl.const_factor)
    logs, exps = pl.logs
    lr = logs[(-pl.iu * (p + 1) // 2) % p]
    # method and operator: np.take and np.add pay __array_function__ dispatch
    out = exps[lr:].take(logs[:p] + logs[s : s + p], mode="clip")
    out *= pl.const_factor
    return out


def _gather_phases(pl: TransformPlan, phases: np.ndarray) -> np.ndarray:
    """const_factor * table[phase_k] for given phases, all p bins, by _gather_blocks.

    The blocks are _block_bounds(p), slices of phases, so no block is one
    bin and no buffer is longer than p.
    """
    p = pl.params.p
    out = np.empty(p, dtype=np.complex128)
    tmp = np.empty(min(p, 2 * _BLOCK), dtype=np.int64)
    blocks = ((k0, k1, phases[k0:k1]) for k0, k1 in _block_bounds(p))
    _gather_blocks(p, pl.twiddles, pl.const_factor, out, 0, blocks, tmp)
    return out


def _gather_blocks(
    p: int, twiddles: np.ndarray, scale: complex | None, out: np.ndarray, first: int, blocks, tmp: np.ndarray
) -> None:
    """out[k - first] = hi[phase_k >> s] * lo[phase_k & (m - 1)], times scale unless None, per block (k0, k1, phases).

    The gather of every factored output, a block at a time while its
    phases stay in L2: _gather's mirrored half from numtheory.phase_blocks
    and _gather_phases's given phases. tmp, int64 of at least the longest
    block, holds the split indices; a complex scratch of its length holds
    the lo factors. Every output is the same product in the same order, and
    zc_time's, with no scale, skips the multiply.
    """
    m = _split(p)
    lo, hi = twiddles[:m], twiddles[m:]
    s = m.bit_length() - 1
    # out, tmp, this scratch, then phase_blocks's kept buffer at the first
    # block: allocated after the output, the buffers reuse their heap space
    # call after call, and none is longer than the range: above glibc's
    # mmap threshold an unused buffer can make the output fault in afresh
    # on every call
    scratch = np.empty(tmp.size, dtype=np.complex128)
    for k0, k1, r in blocks:
        n = k1 - k0
        block = out[k0 - first : k1 - first]
        # every index is in range, so "clip" never clips; unlike "raise"
        # it writes into the output directly instead of through a buffer
        np.take(hi, np.right_shift(r, s, out=tmp[:n]), out=block, mode="clip")
        block *= np.take(lo, np.bitwise_and(r, m - 1, out=tmp[:n]), out=scratch[:n], mode="clip")
        if scale is not None:
            block *= scale


def _mirrored(p: int, t: int, form) -> np.ndarray:
    """complex out[k], k < p, equal to out[(t - k) mod p]: form(half, first) fills half = out[first : first + h].

    h = (p+1)/2; the other two ranges are reversed copies of their mirrors.
    As 2 is invertible mod p, k -> t - k has the one fixed point c =
    t*h mod p, and it pairs every other bin c + d with c - d, 0 < d <=
    (p-1)/2. So c, c + 1, ..., c + (p-1)/2 hold one bin of each pair, and
    so do c - (p-1)/2, ..., c. first = c if c <= (p-1)/2, else c - (p-1)/2
    >= 1; either way the range ends at or before p - 1 and never wraps.
    """
    h = (p + 1) // 2
    c = t * h % p
    first = c if c < h else c - h + 1
    out = np.empty(p, dtype=np.complex128)
    form(out[first : first + h], first)
    # out[a + i] = out[top - i], top = (t - a) mod p: source and target
    # are disjoint slices, so the copy needs no temporary
    for a, b in ((first + h, p), (0, first)):
        top = (t - a) % p
        out[a:b] = out[top - (b - a) + 1 : top + 1][::-1]
    return out


def _gather(
    p: int, twiddles: np.ndarray, iu: int, fs: int, s: int, start: int, scale: complex | None
) -> np.ndarray:
    """scale * table[phase_(start + k)] for k < p, or no multiply if scale is None, mirrored.

    phase_j = (j*fs - iu*T(j)) mod p, which is r*j*(j + s) mod p for the
    s the caller passes (see execute and zc_time). Only the h = (p+1)/2
    bins [first, first + h) are formed and gathered (_mirrored), block by
    block: numtheory.phase_blocks gives each block's phases from j = start
    + first on, seeded or advanced from the block before by additions, and
    _gather_blocks gathers them before the next block starts. With j =
    start + k and t = -s - 2*start, bin t - k is at j' = -(j + s), and
        phase_j' = r*(-(j + s))*(-j) = phase_j,
    and equal phases give equal outputs bit for bit, so out[k] ==
    out[(t - k) mod p] and the other (p-1)/2 bins are copies.
    """

    def form(half: np.ndarray, first: int) -> None:
        tmp = np.empty(min(half.size, 2 * _BLOCK), dtype=np.int64)
        lo = start + first
        _gather_blocks(p, twiddles, scale, half, lo, phase_blocks(p, iu, fs, lo, half.size, tmp), tmp)

    return _mirrored(p, (-s - 2 * start) % p, form)


def zc_time(params: ZcParams) -> np.ndarray:
    """Time-domain ZC sequence Z(k) = exp(-i*pi*u*(k+ts)(k+ts+1)/p), k = 0..p-1.

    With m = k + ts and T(m) = m(m+1)/2, Z(k) = table[u*T(m) mod p]: the
    transform's table of roots at execute's phase with iu = -u mod p, fs =
    0, a start at ts and no scale, r*m*(m + 1) mod p with r = u*(p+1)/2,
    so s = 1. A length the store keeps gathers E3 through its discrete
    logs, as execute does: for m != 0, -1 mod p,
        Z(k) = E3[L(r) + L(m) + L(m + 1)],
    one add of two slices of L2, from ts on, and one gather. At m = 0 and
    m = -1 (k = -ts mod p and k = p - 1 - ts) the phase is 0 and the
    gather reads E3's pad, 1 + 0j, hi[0] * lo[0] bit for bit (_log_tables).
    Any other length runs _gather from start ts (m may pass p, as T(m + p)
    = T(m) mod p for odd p). Both routes give the same bits. Each sample is
    a table entry, so it is within (3*pi + 2*sqrt(2))*eps of the root
    (_twiddle_factors), and the samples are exactly periodic in the index:
    a cyclic shift is a bit-exact rotation.
    """
    p, u, ts = params.p, params.u, params.ts
    entry = _STORE.entry(p)
    if entry is None:
        return _gather(p, _twiddle_factors(p), -u % p, 0, 1, ts, None)
    logs, exps = entry[1]
    lr = logs[u * (p + 1) // 2 % p]
    return exps[lr:].take(logs[ts : ts + p] + logs[ts + 1 : ts + 1 + p], mode="clip")
