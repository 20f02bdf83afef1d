import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zcdft import numtheory, transform
from zcdft.gauss import const_from_qpo, quasi_phase_offset4
from zcdft.numtheory import PRIME_CAP, legendre, mod_inverse
from zcdft.oracle import naive_dft, naive_idft, shifted_dft_identity
from zcdft.sequences import ZcParams, accumulate_phases, zc_time
from zcdft.transform import (
    DFT,
    IDFT,
    OpCounters,
    execute,
    phase_indices,
    plan,
)

from conftest import ODD_PRIMES_61, ODD_PRIMES_199, run_in_threads
from test_gauss import BRUTE_13_3

cases = st.builds(
    lambda p, u_seed, ts_seed: ZcParams(p=p, u=1 + u_seed % (p - 1), ts=ts_seed % p),
    st.sampled_from(ODD_PRIMES_61),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


def test_plan_examples():
    pl = plan(ZcParams(p=13, u=3), DFT)
    assert pl.iu == 9
    assert pl.fs == 4  # 7*8 mod 13
    assert pl.ell == -1
    assert pl.qpo_times4 == 4142
    assert plan(ZcParams(p=13, u=3), IDFT).fs == 5  # 7*10 mod 13
    assert plan(ZcParams(p=13, u=3, ts=2), DFT).fs == 2  # (56 - 2) mod 13


def test_plan_rejects_bad_direction():
    with pytest.raises(ValueError):
        plan(ZcParams(p=13, u=3), "fft")


def test_plan_is_immutable():
    pl = plan(ZcParams(p=13, u=3), DFT)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pl.fs = 0
    with pytest.raises(ValueError):
        pl.twiddles[0] = 0


def test_plan_record_keeps_the_dataclass_contract():
    names = ["params", "direction", "iu", "ell", "fs", "qpo_times4", "twiddles", "const_factor", "logs"]
    assert [f.name for f in dataclasses.fields(transform.TransformPlan)] == names
    for p in (13, 65537):  # a kept plan and a factored one
        pl = plan(ZcParams(p, 3, 1), IDFT)
        assert type(pl) is transform.TransformPlan and list(vars(pl)) == names
        assert dataclasses.replace(pl) == pl
        assert plan(ZcParams(p, 3, 1), DFT) != pl


def test_equal_plans_compare_and_hash_equal():
    # twiddles and logs depend on p alone and are left out of == and hash,
    # so a factored length's plans, each with its own factors, compare too
    for p in (139, 65537):
        a, b = plan(ZcParams(p, 3, 1), DFT), plan(ZcParams(p, 3, 1), DFT)
        assert a == b and hash(a) == hash(b)
        assert dataclasses.replace(a, fs=(a.fs + 1) % p) != a


# SHA-1 of phase_indices as little-endian int64, DFT then IDFT. The phases are
# exact integers and read no libm, so these pin the transform across numpy
# versions; 139, 839 and 32749 are kept lengths, 65537 a factored one
GOLDEN_PHASES = {
    (139, 25, 7): (
        "b3c69ad721e574012d7c0fdb9c95e925bf90e0db",
        "8961f4781ea053628cae2c62f1726b5bf0db6143",
    ),
    (839, 1, 0): (
        "a6dab3919dec765a42fda3b5d914b67cd42654a3",
        "48cc2f9646736dcaf1a43d606c178e3d41745883",
    ),
    (32749, 12345, 7): (
        "ceaa09a78185336996d9adae07c81187e67b10d0",
        "05c3842287074f5ea5d13faef7960a9a27e458aa",
    ),
    (65537, 25, 1000): (
        "2e9355cb8d3b1d1a76ab9d37a1ed5bae4fedd7ac",
        "a2fb9f4791dce1bd9e0c11fc059464be64aeffa6",
    ),
}


@pytest.mark.parametrize("p, u, ts", list(GOLDEN_PHASES))
def test_phase_indices_match_golden_hashes(p, u, ts):
    params = ZcParams(p, u, ts)
    digests = tuple(
        hashlib.sha1(phase_indices(plan(params, d)).astype("<i8").tobytes()).hexdigest()
        for d in (DFT, IDFT)
    )
    assert digests == GOLDEN_PHASES[p, u, ts]


PRACH_LENGTHS = [139, 571, 839, 1151]


def _mirror_plans(p):
    """Plans of p, both directions, whose mirror fixed point c (see
    transform._gather) is 0, inside [1, (p-1)/2] or at its end, or above it,
    from (p+1)/2 to p - 1; c = 0 is ts = (p-1)/2."""
    u = 25
    iu = mod_inverse(u, p)
    for direction, sign in ((DFT, 1), (IDFT, -1)):
        for c in (0, (p - 1) // 4, (p - 1) // 2, (p + 1) // 2, 3 * (p // 4), p - 1):
            # t = -s = -sign*u*(1 + 2*ts) = 2c, solved for ts
            ts = (-sign * 2 * c * iu - 1) * (p + 1) // 2 % p
            pl = plan(ZcParams(p=p, u=u, ts=ts), direction)
            assert (2 * u * pl.fs - 1) * (p + 1) // 2 % p == c
            yield pl


@pytest.fixture
def fresh_store(monkeypatch):
    """Swap in an empty store with the module's bound; returns it."""
    store = transform._LengthStore(transform._STORE_BYTES)
    monkeypatch.setattr(transform, "_STORE", store)
    return store


def _entry_nbytes(entry):
    """Bytes held by a store entry: factors, L2, E3 and the four root rows."""
    factors, logs, exps, roots = entry
    return factors.nbytes + logs.nbytes + exps.nbytes + sum(row.nbytes for row in roots)


def test_kept_length_shares_one_read_only_table(fresh_store):
    a = plan(ZcParams(p=839, u=25), DFT)
    b = plan(ZcParams(p=839, u=3, ts=7), IDFT)
    factors, logs, exps, roots = fresh_store._entries[839]
    assert a.twiddles is b.twiddles is factors
    assert a.logs[0] is b.logs[0] is logs and a.logs[1] is b.logs[1] is exps
    for array in (factors, logs, exps, *roots):
        with pytest.raises(ValueError):
            array[0] = 1
    assert factors.base is None and logs.base is None and exps.base is None
    assert all(row.base is None and row.shape == (839,) for row in roots)
    m = transform._split(839)
    assert factors.size == m + -(-839 // m)
    assert fresh_store.nbytes == _entry_nbytes(fresh_store._entries[839]) == transform._entry_bytes(839)


def test_store_keeps_within_its_bound_and_never_a_large_p(fresh_store):
    budget = transform._STORE_BYTES
    # 40853 is the longest length whose entry fits and 40867 the first that
    # does not; 16381 fills 40% of the bound, so it and 32749 or 40853
    # cannot be kept together
    for p in PRACH_LENGTHS + ODD_PRIMES_199 + [65537, 16381, 32749, 40853, 40867, 16411]:
        before = fresh_store.nbytes
        pl = plan(ZcParams(p=p, u=1), DFT)
        assert (p in fresh_store._entries) == (transform._entry_bytes(p) <= budget)
        if p in (65537, 40867):
            assert fresh_store.nbytes == before
            assert pl.logs is None
        else:
            factors, logs, exps, roots = fresh_store._entries[p]
            assert pl.twiddles is factors
            assert pl.logs[0] is logs and pl.logs[1] is exps
            assert pl.iu == roots[0].item(1) == 1
        held = sum(_entry_nbytes(entry) for entry in fresh_store._entries.values())
        assert fresh_store.nbytes == held <= budget
    assert list(fresh_store._entries) == [16411]


# with nothing kept, 839's mirror half (420 bins) is a single block shorter
# than _BLOCK; its spectra equal the full-range gather and the kept path's
@pytest.mark.parametrize("p", [839, 65537])
def test_kept_entry_gives_the_same_phases_and_spectra(p, monkeypatch):
    results = {}
    # nothing kept, the module's store, every length up to _ROW_PMAX kept
    for budget in (0, transform._STORE_BYTES, 1 << 23):
        store = transform._LengthStore(budget)
        monkeypatch.setattr(transform, "_STORE", store)
        for i, pl in enumerate(_mirror_plans(p)):
            fits = transform._entry_bytes(p) <= budget and p <= transform._ROW_PMAX
            assert (p in store._entries) == fits
            phases, out = phase_indices(pl), execute(pl)
            assert np.array_equal(out, transform._gather_phases(pl, phases))
            results[budget, i] = (phases, out)
    for (_, i), (phases, out) in results.items():
        ref_phases, ref_out = results[0, i]
        assert np.array_equal(phases, ref_phases)
        assert np.array_equal(out, ref_out)


def test_threads_match_serial_results(monkeypatch):
    cases = [
        (ZcParams(p=p, u=u, ts=u % p), direction)
        for p in PRACH_LENGTHS
        for u in (1, 25, 138)
        for direction in (DFT, IDFT)
    ]
    serial = [execute(plan(params, direction)) for params, direction in cases]
    store = transform._LengthStore(transform._STORE_BYTES)
    monkeypatch.setattr(transform, "_STORE", store)

    def run(params, direction):
        pl = plan(params, direction)
        return (pl.twiddles, *pl.logs), execute(pl)

    got = run_in_threads(run, cases * 4, timeout=60)
    tables = {}
    for (params, _), ref, (entry, out) in zip(cases * 4, serial * 4, got):
        assert np.array_equal(out, ref)
        tables.setdefault(params.p, set()).add(tuple(map(id, entry)))
    assert all(len(ids) == 1 for ids in tables.values())
    assert store.nbytes == sum(transform._entry_bytes(p) for p in PRACH_LENGTHS)


def test_threads_match_serial_results_while_the_store_evicts(monkeypatch):
    cases = [(ZcParams(p=p, u=25, ts=7), direction) for p in PRACH_LENGTHS for direction in (DFT, IDFT)]
    serial = {case: execute(plan(*case)) for case in cases}
    # any two of the four entries fit and all four do not, so inserts keep
    # evicting entries that other threads are reading without the lock
    budget = transform._entry_bytes(839) + transform._entry_bytes(1151)
    store = transform._LengthStore(budget)
    monkeypatch.setattr(transform, "_STORE", store)

    def run(seed):
        order = cases * 40
        random.Random(seed).shuffle(order)
        return [case for case in order if not np.array_equal(execute(plan(*case)), serial[case])]

    mismatches = run_in_threads(run, [(seed,) for seed in range(4)], timeout=120)
    assert mismatches == [[]] * 4
    held = sum(_entry_nbytes(entry) for entry in store._entries.values())
    assert store.nbytes == held <= budget


def test_kept_plan_fields_equal_factored_plans(fresh_store, monkeypatch):
    # a kept length takes ell from the parity of L2[2u mod p], any other from
    # legendre; every field must agree at every root, in both directions
    cases = [
        (ZcParams(p=p, u=u, ts=u * u % p), direction)
        for p in PRACH_LENGTHS + ODD_PRIMES_199
        for u in range(1, p)
        for direction in (DFT, IDFT)
    ]
    kept = [plan(*case) for case in cases]
    monkeypatch.setattr(transform, "_STORE", transform._LengthStore(0))
    factored = [plan(*case) for case in cases]
    assert all(pl.logs is not None for pl in kept) and all(pl.logs is None for pl in factored)
    assert kept == factored


def test_kept_root_rows_match_the_scalar_routines(monkeypatch):
    # every root of the PRACH lengths and p <= 199, and at 8191, 32749 and
    # 40853 four edge roots and 64 seeded ones
    store = transform._LengthStore(transform._STORE_BYTES)
    monkeypatch.setattr(transform, "_STORE", store)
    rng = random.Random(2020)
    lengths = [(p, range(1, p)) for p in PRACH_LENGTHS + ODD_PRIMES_199]
    for p in (8191, 32749, 40853):
        lengths.append((p, [1, 2, (p - 1) // 2, p - 1] + [rng.randrange(1, p) for _ in range(64)]))
    for p, roots in lengths:
        rows = store.entry(p)[3]
        assert not any(row.flags.writeable for row in rows)
        ius, ells, qpo4s, consts = rows
        for u in roots:
            assert ius.item(u) == mod_inverse(u, p)
            assert ells.item(u) == legendre(2 * u, p)
            qpo4 = qpo4s.item(u)
            assert type(qpo4) is int and qpo4 == quasi_phase_offset4(p, u)
            got = np.array([consts.item(u), const_from_qpo(p, qpo4)])
            assert got[:1].view(np.uint64).tolist() == got[1:].view(np.uint64).tolist()
            pl = plan(ZcParams(p, u), DFT)
            assert pl.logs is not None
            fields = (pl.iu, pl.ell, pl.qpo_times4, pl.const_factor)
            assert tuple(map(type, fields)) == (int, int, int, complex)
    # _ROW_PMAX is the last length whose bound (p-1)*(p+1)**3 + 4p on the int64
    # numerator of 4*QPo is below 2**63; 65537, past it, fits a bound of 2**23
    # and is still not kept
    pmax = transform._ROW_PMAX
    bound = [(q - 1) * (q + 1) ** 3 + 4 * q for q in (pmax, pmax + 1)]
    assert bound[0] < 1 << 63 <= bound[1]
    monkeypatch.setattr(transform, "_STORE", transform._LengthStore(1 << 23))
    assert transform._entry_bytes(65537) <= 1 << 23
    for u in (1, 2, 32768, 65536):
        pl = plan(ZcParams(65537, u), DFT)
        assert pl.logs is None and transform._STORE.nbytes == 0
        scalars = (mod_inverse(u, 65537), legendre(2 * u, 65537), quasi_phase_offset4(65537, u))
        assert (pl.iu, pl.ell, pl.qpo_times4) == scalars


EPS = np.finfo(np.float64).eps
EPS_LD = np.finfo(np.longdouble).eps


@pytest.mark.skipif(EPS_LD == EPS, reason="np.longdouble is float64 here: no more precise reference")
@pytest.mark.parametrize("p", [5, 17, 139, 839, 65537, 1000003])
def test_twiddle_table_error_within_derived_bound(p):
    pl = plan(ZcParams(p=p, u=1), DFT)
    held = pl.twiddles
    assert not held.flags.writeable
    assert held.base is None or not held.base.flags.writeable
    # every plan holds lo and hi, and the entries are the products the
    # gather and the log tables form
    m = transform._split(p)
    assert held.shape == (m + -(-p // m),)
    table = np.multiply.outer(held[m:], held[:m]).ravel()[:p]
    assert table.shape == (p,)
    # the long-double reference errs by at most ~(3*pi + sqrt(2)) EPS_LD;
    # 16 EPS_LD covers that and the second-order terms of the bound
    theta = 2 * (4 * np.arctan(np.longdouble(1))) * np.arange(p, dtype=np.longdouble) / p
    ref = np.cos(theta) - 1j * np.sin(theta)
    err = np.abs(table - ref).max()
    assert err <= (3 * np.pi + 2 * np.sqrt(2)) * EPS + 16 * EPS_LD


@given(cases, st.sampled_from([DFT, IDFT]))
@settings(max_examples=60)
def test_plan_invariants(params, direction):
    p = params.p
    pl = plan(params, direction)
    assert params.u * pl.iu % p == 1
    half = (p + 1) // 2
    if direction == DFT:
        assert pl.fs == (half * (pl.iu - 1) - params.ts) % p
    else:
        assert pl.fs == (half * (pl.iu + 1) + params.ts) % p
    assert 0 <= pl.fs <= p - 1
    assert abs(abs(pl.const_factor) - np.sqrt(p)) <= 1e-12 * np.sqrt(p)
    assert np.abs(pl.twiddles * np.conj(pl.twiddles) - 1).max() <= 1e-12


def test_directions_share_everything_but_fs():
    params = ZcParams(p=13, u=3, ts=2)
    a, b = plan(params, DFT), plan(params, IDFT)
    assert (a.iu, a.ell, a.qpo_times4, a.const_factor) == (b.iu, b.ell, b.qpo_times4, b.const_factor)
    assert np.array_equal(a.twiddles, b.twiddles)
    assert a.fs != b.fs


def test_execute_bin0_is_gauss_constant():
    out = execute(plan(ZcParams(p=13, u=3), DFT))
    assert out[0] == pytest.approx(BRUTE_13_3, abs=1e-12)
    assert out[0] == pytest.approx(naive_dft(zc_time(ZcParams(p=13, u=3)))[0], abs=1e-12)


def test_execute_bin1_single_loop_step():
    pl = plan(ZcParams(p=13, u=3), DFT)
    out = execute(pl)
    # one update: freq = (4 - 9) mod 13 = 8, phase = 8
    assert out[1] == pytest.approx(pl.const_factor * np.exp(-2j * np.pi * 8 / 13), abs=1e-12)
    naive = naive_dft(zc_time(ZcParams(p=13, u=3)))
    assert out[1] == pytest.approx(naive[1], abs=1e-12)


def test_counters_accumulate_across_calls():
    counters = OpCounters()
    pl = plan(ZcParams(p=13, u=3), DFT)
    execute(pl, counters)
    execute(pl, counters)
    assert counters.additions == 4 * 12
    assert counters.exp_evaluations == 26


def test_counters_do_not_change_output():
    pl = plan(ZcParams(p=13, u=3), DFT)
    assert np.array_equal(execute(pl), execute(pl, OpCounters()))


@pytest.mark.parametrize("p", [8191, 65537, 1000003])
def test_closed_form_phases_equal_recurrence_at_large_p(p):
    u, ts = 25, (p - 1) // 2
    phases = {}
    for direction in (DFT, IDFT):
        pl = plan(ZcParams(p=p, u=u, ts=ts), direction)
        phases[direction] = phase_indices(pl)
        assert np.array_equal(phases[direction], accumulate_phases(p, pl.iu, pl.fs, OpCounters()))
    # the index-remapping identity F(k) = conj(Z(iu*k + ts)) * Z(ts) * F(0) on
    # phase integers, which does not read the plan's frequency shift. With
    # idx < p < 2**20 every int64 intermediate stays below 2**40
    k = np.arange(p, dtype=np.int64)
    idx = (mod_inverse(u, p) * k + ts) % p
    t_ts, t_idx = ts * (ts + 1) // 2 % p, idx * (idx + 1) // 2 % p
    expect = u * (t_ts - t_idx) % p
    assert np.array_equal(phases[DFT], expect)
    assert np.array_equal(phases[IDFT], phases[DFT][(-k) % p])
    # the mirror by which a factored execute copies half its bins, also
    # checked by the phase-mirror family: phase_k == phase_(t-k), t = 2*u*fs - 1
    for direction in (DFT, IDFT):
        pl = plan(ZcParams(p=p, u=u, ts=7), direction)
        mirrored = phase_indices(pl)
        t = (2 * u * pl.fs - 1) % p
        assert t != 0 and np.array_equal(mirrored, mirrored[(t - k) % p])


# 8209 and 12289 had two and three blocks at _BLOCK = 2**12 and are one block
# now, reduced by floor division like 32749, the longest one-block length;
# 32771 is the first prime >= 2 * _BLOCK, the first with two blocks, 40853 the
# longest length the store keeps, and 49157, the first prime >= 3 * _BLOCK,
# has three of unequal length
BLOCK_LENGTHS = {
    8209: [8209],
    12289: [12289],
    32749: [32749],
    32771: [16385, 16386],
    40853: [20426, 20427],
    49157: [16385, 16386, 16386],
}
BLOCKED_PRIMES = [p for p, lengths in BLOCK_LENGTHS.items() if len(lengths) > 1]


def test_block_kernel_stays_within_int64():
    # |base + j*slope - iu*T(j)| is at most the sum of its terms' magnitudes,
    # here at the largest p, iu, slope, base and j the library accepts
    p, j = PRIME_CAP - 1, 2 * numtheory._BLOCK - 1
    assert j == numtheory._J[-1] and numtheory._TJ[-1] == j * (j + 1) // 2
    assert p * numtheory._TJ[-1].item() + j * p + PRIME_CAP < 2**63


@pytest.mark.parametrize("p", list(BLOCK_LENGTHS))
def test_blocked_phases_equal_recurrence(p):
    assert [hi - lo for lo, hi in numtheory._block_bounds(p)] == BLOCK_LENGTHS[p]
    for u, ts, direction in ((25, 7, DFT), (p - 2, (p - 1) // 2, IDFT)):
        pl = plan(ZcParams(p=p, u=u, ts=ts), direction)
        assert np.array_equal(phase_indices(pl), accumulate_phases(p, pl.iu, pl.fs, OpCounters()))


@pytest.mark.parametrize("p", PRACH_LENGTHS + [32771, 65537, PRIME_CAP - 1])
def test_split_is_a_power_of_two_at_least_sqrt_p(p):
    m = transform._split(p)
    assert m & (m - 1) == 0 and m * m >= p > (m // 2) ** 2


# execute, the log gather at the kept 32771 and 40853 and mirrored half-range
# blocks above, against _gather_phases's one unblocked gather at given phases,
# for each placement of the mirror, and at the multi-block lengths the counted
# path, which gathers the recurrence's phases the same way
@pytest.mark.parametrize("p", BLOCKED_PRIMES + [65537, 1000003])
def test_blocked_execute_equals_whole_length_gather(p):
    for pl in _mirror_plans(p):
        assert (pl.logs is None) == (p > 40853)
        phases = phase_indices(pl)
        out = execute(pl)
        assert np.array_equal(out, transform._gather_phases(pl, phases))
        assert np.array_equal(phases, phase_indices(pl))
        if p in BLOCKED_PRIMES:
            assert np.array_equal(execute(pl, OpCounters()), out)


def test_block_kernel_is_exact_at_the_prime_cap():
    # the largest p the library accepts: the largest iu and fs from k0 = 0,
    # and zc_time's arguments iu = -u mod p, fs = 0 from k0 = ts = p - 1,
    # whose bins reach 2p - 2, for u = 1 and u = p - 1
    p = 2**31 - 1
    n = p // numtheory._BLOCK
    for iu, fs, k0 in ((p - 1, p - 1, 0), (p - 1, 0, p - 1), (1, 0, p - 1)):
        picked = {0: None, n // 2: None, n - 1: None}
        end = k0
        for i, (lo, hi) in enumerate(numtheory._block_bounds(p, k0)):
            assert lo == end and numtheory._BLOCK <= hi - lo <= 2 * numtheory._BLOCK
            end = hi
            if i in picked:
                picked[i] = lo, hi
        assert end == k0 + p
        for lo, hi in picked.values():
            expect = [(k * fs - iu * (k * (k + 1) // 2)) % p for k in range(lo, hi)]
            assert numtheory._block_phases(p, iu, fs, lo, hi - lo).tolist() == expect


def _kept_plans():
    """Plans of lengths the store keeps, with ts = (p-1)/2 (s = 0) among them."""
    rng = np.random.default_rng(1301)
    cases = [(p, u, ts) for p in ODD_PRIMES_61 for u in range(1, p) for ts in {0, 1, (p - 1) // 2}]
    for p in PRACH_LENGTHS:
        roots = rng.choice(range(1, p), 8, replace=False)
        cases += [(p, int(u), int(rng.integers(p))) for u in roots]
    for p in (3, 8191, 32749):
        cases += [(p, u, ts) for u in {1, p - 1, 25 % p or 1} for ts in {0, 1, (p - 1) // 2}]
    for p, u, ts in cases:
        for direction in (DFT, IDFT):
            yield plan(ZcParams(p=p, u=u, ts=ts), direction)


def _twiddle_table(p):
    """exp(-i*2*pi*j/p) for j < p as hi[a] * lo[b], the products every gather forms."""
    m = transform._split(p)
    factors = transform._twiddle_factors(p)
    return np.multiply.outer(factors[m:], factors[:m]).ravel()[:p]


def test_kept_execute_equals_table_gather():
    # the log-domain gather reads E3, products of the factors: bit-identical
    # to gathering the whole table at the closed-form phases and scaling,
    # also for a plan whose shift was changed after planning
    tables = {}
    for pl in _kept_plans():
        assert pl.logs is not None
        p = pl.params.p
        if p not in tables:
            tables[p] = _twiddle_table(p)
        table = tables[p]
        for q in (pl, dataclasses.replace(pl, fs=(pl.fs + 1) % p)):
            assert np.array_equal(execute(q), table[phase_indices(q)] * q.const_factor)


@pytest.mark.parametrize("p", ODD_PRIMES_61 + PRACH_LENGTHS + [32749, 65537])
def test_phases_are_a_product_of_two_linear_factors(p):
    # phase_k = r*k*(k + s) mod p, r = -iu/2 and s = +-u(1 + 2ts) (+ for the
    # DFT), both factors reduced before the product so int64 stays exact
    k = np.arange(p, dtype=np.int64)
    for u in {1, 2, p - 1, 25 % p or 1}:
        for ts in {0, 1, (p - 1) // 2}:
            for direction, sign in ((DFT, 1), (IDFT, -1)):
                pl = plan(ZcParams(p=p, u=u, ts=ts), direction)
                r = -pl.iu * (p + 1) // 2 % p
                s = sign * u * (1 + 2 * ts) % p
                assert s == (1 - 2 * u * pl.fs) % p
                assert np.array_equal(phase_indices(pl), r * k % p * ((k + s) % p) % p)


# 40867 is the first length whose entry the store does not keep
@pytest.mark.parametrize("p", [40867, 65537, 131071, 1000003])
def test_factored_execute_equals_table_gather(p):
    table = _twiddle_table(p)
    for pl in _mirror_plans(p):
        assert pl.logs is None
        assert np.array_equal(execute(pl), table[phase_indices(pl)] * pl.const_factor)


def test_plan_at_the_prime_cap_holds_only_factors():
    # ~1.5 MB of factors instead of a 34 GB table; execute is not called
    p = 2**31 - 1
    pl = plan(ZcParams(p=p, u=p - 1, ts=7), DFT)
    m = transform._split(p)
    assert pl.logs is None
    assert pl.twiddles.nbytes == 16 * (m + -(-p // m))
    assert not pl.twiddles.flags.writeable
    lo, hi = pl.twiddles[:m], pl.twiddles[m:]
    s = m.bit_length() - 1
    bounds = list(numtheory._block_bounds(p))
    for k0, k1 in (bounds[0], bounds[-1]):
        phases = [(k * pl.fs - pl.iu * (k * (k + 1) // 2)) % p for k in range(k0, k1)]
        a, b = [r // m for r in phases], [r % m for r in phases]
        r = numtheory._block_phases(p, pl.iu, pl.fs, k0, k1 - k0)
        # _gather splits by shift and mask, and its take(mode="clip") relies
        # on every index being in range
        assert (r >> s).tolist() == a and (r & (m - 1)).tolist() == b
        assert max(a) < hi.size and max(b) < lo.size


@pytest.mark.parametrize("direction", [DFT, IDFT])
def test_identity_examples(direction):
    naive = naive_dft if direction == DFT else naive_idft
    for params in (ZcParams(p=13, u=3), ZcParams(p=13, u=3, ts=5)):
        ref = shifted_dft_identity(params, direction)
        assert np.abs(ref - execute(plan(params, direction))).max() <= 1e-10 * np.sqrt(13)
        assert np.abs(ref - naive(zc_time(params))).max() <= 1e-9 * np.sqrt(13)


def test_conjugate_form_equivalence():
    # conj(Z with root iu) equals Z with root -iu: ties the conjugate and
    # conjugate-free reference forms together
    p = 13
    for u in range(1, p):
        iu = mod_inverse(u, p)
        a = np.conj(zc_time(ZcParams(p=p, u=iu)))
        b = zc_time(ZcParams(p=p, u=p - iu))
        assert np.abs(a - b).max() <= 1e-15
