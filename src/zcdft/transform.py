"""O(p) DFT and IDFT of ZC sequences from integer phase indices.

The paper accumulates the frequency points fs - iu*k into phase indices
(2(p-1) additions, 2(p-1) reductions, p table lookups); their closed form
phase_k = (k*fs - iu*T(k)) mod p, T(k) = k(k+1)/2, is the fast path
(phase_indices, numtheory.quadratic_phases), checked against the counted
one (sequences.accumulate_phases). The quasi phase offset is folded into
one complex constant, sqrt(p)*exp(i*2*pi*QPo/p), so the phases stay integer
and the table of roots has p entries. Every plan holds that table as two
sqrt(p)-length factors (_twiddle_factors). execute reads it through
discrete-log tables for a length the store keeps (_LengthStore), else by
_gather's blocked, mirrored gather; the counted path gathers all p bins
at once (_gather_phases). Each output is the same product hi[a] * lo[b],
so the spectra are bit-identical. A kept length's entry also holds every
root's inverse, Legendre sign, 4*QPo and constant (_root_scalars), which
plan reads instead of deriving them; both branches of plan take 4*QPo and
the constant from gauss.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .gauss import _qpo_times4, const_from_qpo
from .numtheory import _BLOCK, _block_bounds, _block_phases, quadratic_phases
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
    """Build the immutable plan: inverse, Legendre sign, shift, constant, twiddles.

    For a length the store keeps, iu, ell, 4*QPo and the constant are read
    off the entry's row for u (_root_scalars), each with one .item(u), which
    gives an exact int or complex. Otherwise they are mod_inverse(u, p),
    legendre(2u, p) (Euler's criterion), and gauss's _qpo_times4 and
    const_from_qpo, which the rows call too: the same values, bit for bit.
    """
    require_direction(direction)
    p, u, ts = params.p, params.u, params.ts
    entry = _STORE.entry(p)
    if entry is None:
        twiddles, logs = _twiddle_factors(p), None
        iu = mod_inverse(u, p)
        ell = legendre(2 * u, p)
        qpo4 = _qpo_times4(p, u, ell)
        const = const_from_qpo(p, qpo4)
    else:
        twiddles, logs = entry[0], entry[1:3]
        ius, ells, qpo4s, consts = entry[3]
        iu, ell, qpo4, const = ius.item(u), ells.item(u), qpo4s.item(u), consts.item(u)
    half = (p + 1) // 2
    if direction == DFT:
        fs = (half * (iu - 1) - ts) % p
    else:
        fs = (half * (iu + 1) + ts) % p
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
    L2 = [L, L], L[g**e mod p] = e and L[0] = 0, and E3[e] = hi[a] * lo[b]
    at a*m + b = pw[e mod (p-1)] for e < 3(p - 1), the product _gather forms
    (see execute). pw, writable, is what _root_scalars inverts through.
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
    return logs, exps, pw


# _qpo_times4 forms (3 - 2*l_2u - p mod 4)*p + u*(p+1)**3 <= (p-1)*(p+1)**3 + 4p
# in int64, below 2**63 for p <= 55108 (under 0.31*2**63 at 40853), so a row is
# exact up to this length; no store keeps a longer one, whatever its bound
_ROW_PMAX = 55108


def _root_scalars(p: int, logs: np.ndarray, pw: np.ndarray) -> tuple[np.ndarray, ...]:
    """iu, ell, 4*QPo and the constant of every root u of p, read-only, indexed by u.

    Slot 0 is unused; p <= _ROW_PMAX. With L = L2[:p] and pw[L(x)] = x
    (_log_tables), iu[u] = g**(-L(u)) = pw[-L(u) mod (p-1)]. ell[u] = l_2u
    is +1 iff L2[2u] = L(2u mod p) is even: g**e is a square iff e is even.
    4*QPo and the constant are gauss's, as on plan's other branch.
    """
    # numpy reads the index -e as p-1-e, so -L(u) mod (p-1) needs no reduction
    iu = pw[-logs[:p]]
    ell = 1 - 2 * (logs[: 2 * p : 2] & 1)
    qpo4 = _qpo_times4(p, np.arange(p, dtype=np.int64), ell)
    roots = (iu, ell.astype(np.int8), qpo4, const_from_qpo(p, qpo4))
    for array in roots:
        array.setflags(write=False)
    return roots


def _entry_bytes(p: int) -> int:
    """Bytes of p's kept entry: its factors, L2, E3 and root rows (see _build_entry)."""
    m = _split(p)
    return 16 * (m + -(-p // m)) + 2 * p * np.dtype(np.intp).itemsize + 48 * (p - 1) + 33 * p


def _kept_bytes(p: int) -> float:
    """The transform's size rule: _entry_bytes(p), or inf past _ROW_PMAX, which no bound keeps."""
    return _entry_bytes(p) if p <= _ROW_PMAX else math.inf


def _build_entry(p: int) -> tuple:
    """p's entry (factors, L2, E3, roots): _twiddle_factors, _log_tables, _root_scalars.

    16*(m + ceil(p/m)) + 16*p + 48*(p-1) + 33*p bytes, about 97*p
    (_entry_bytes). roots is iu (int64), ell (int8), 4*QPo (int64) and the
    constant (complex128) of every root. Every plan of a kept p reads its E3
    and its row of roots, while a length not kept would build all of them
    for one plan, so plan takes the factored path there instead.
    """
    factors = _twiddle_factors(p)
    logs, exps, pw = _log_tables(p, factors)
    return factors, logs, exps, _root_scalars(p, logs, pw)


# _entry_bytes grows with p, so this keeps exactly the lengths p <= 40853:
# the PRACH lengths (139, 571, 839, 1151: 265,164 bytes) and the grid
# 5 <= p <= 199 (421,534 bytes), small next to numpy's ~27 MB import, and no
# large p, where lengths rarely repeat
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

    numtheory.quadratic_phases from k0 = 0; it factors as r*k*(k + s) mod p
    (see execute).
    """
    return quadratic_phases(pl.params.p, pl.iu, pl.fs, 0)


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
    _gather_phases gathers the counted accumulation's phases: the same output.
    """
    if counters is not None:
        return _gather_phases(pl, accumulate_phases(pl.params.p, pl.iu, pl.fs, counters))
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


def _gather_phases(pl: TransformPlan, phases: np.ndarray) -> np.ndarray:
    """const_factor * table[phase_k] for given phases, all p bins at once.

    hi[phase >> s] * lo[phase & (m - 1)] * const_factor: _gather's product.
    """
    m = _split(pl.params.p)
    lo, hi = pl.twiddles[:m], pl.twiddles[m:]
    return hi[phases >> (m.bit_length() - 1)] * lo[phases & (m - 1)] * pl.const_factor


def _gather(pl: TransformPlan) -> np.ndarray:
    """const_factor * table[phase_k] for k < p, from the closed form, mirrored.

    Only the h = (p+1)/2 bins [first, first + h) are formed and gathered,
    block by block (_block_bounds): each block's phases (_block_phases),
    gather hi[phase >> s] * lo[phase & (m - 1)] and scale are done before
    the next starts. The other two ranges are reversed copies of their
    mirrors. Proof: with t = 2*u*fs - 1 = -s,
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
    buf = np.empty(size, dtype=np.int64)
    tmp = np.empty(size, dtype=np.int64)
    scratch = np.empty(size, dtype=np.complex128)
    half = (p + 1) // 2
    t = (2 * pl.params.u * pl.fs - 1) % p
    c = t * half % p
    first = c if c < half else c - half + 1
    for k0, k1 in _block_bounds(half, first):
        n = k1 - k0
        block = out[k0:k1]
        r = _block_phases(p, pl.iu, pl.fs, k0, n, buf[:n], tmp[:n])
        # every index is in range, so "clip" never clips; unlike "raise" it
        # writes into the output directly instead of through a buffer
        np.take(hi, np.right_shift(r, s, out=tmp[:n]), out=block, mode="clip")
        block *= np.take(lo, np.bitwise_and(r, m - 1, out=tmp[:n]), out=scratch[:n], mode="clip")
        block *= pl.const_factor
    # out[a + i] = out[top - i], top = (t - a) mod p: source and target
    # are disjoint slices, so the copy needs no temporary
    for a, b in ((first + half, p), (0, first)):
        top = (t - a) % p
        out[a:b] = out[top - (b - a) + 1 : top + 1][::-1]
    return out
