import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zcdft
from zcdft import numtheory, oracle, transform
from zcdft.oracle import _SCALE, brute_gauss_sum, naive_dft, naive_idft, shifted_dft_identity
from zcdft.sequences import ZcParams
from zcdft.transform import DFT, IDFT, zc_time

from conftest import ODD_PRIMES_199, run_in_threads
from test_gauss import BRUTE_13_3, BRUTE_7_1


def test_dft_of_constant_is_delta():
    out = naive_dft(np.ones(5))
    assert out == pytest.approx([5, 0, 0, 0, 0], abs=1e-12)


def test_dft_of_delta_is_flat():
    x = np.zeros(7, complex)
    x[0] = 1.0
    assert naive_dft(x) == pytest.approx(np.ones(7), abs=1e-12)
    assert naive_idft(x) == pytest.approx(np.ones(7), abs=1e-12)


def test_kernel_sign_convention():
    # forward kernel exp(-2i*pi*nk/p): a pure +m tone lands in bin m
    p, m = 11, 4
    tone = np.exp(2j * np.pi * m * np.arange(p) / p)
    out = naive_dft(tone)
    expect = np.zeros(p, complex)
    expect[m] = p
    assert out == pytest.approx(expect, abs=1e-9)


def test_matches_numpy_fft(rng):
    x = rng.normal(size=19) + 1j * rng.normal(size=19)
    assert np.abs(naive_dft(x) - np.fft.fft(x)).max() <= 1e-10
    assert np.abs(naive_idft(x) - 19 * np.fft.ifft(x)).max() <= 1e-10


def test_zc_spectrum_bin0_matches_gauss_constant():
    out = naive_dft(zc_time(ZcParams(p=13, u=3)))
    assert out[0] == pytest.approx(BRUTE_13_3, abs=1e-12)


def _per_sample_exact(x, sign):
    # the sum the chunked kernel must reproduce, one n at a time: each term
    # times 2**s rounded to an integer, the integers added as Python ints,
    # and the exact sum rounded to float64 once
    p = len(x)
    table = np.exp(sign * 2j * np.pi * np.arange(p) / p)
    k = np.arange(p)
    s = _SCALE - math.frexp(np.abs(x.view(np.float64)).max())[1]
    to_int = np.frompyfunc(int, 1, 1)
    acc = np.zeros(2 * p, dtype=object)
    for n in range(p):
        term = (x[n] * table[(n * k) % p]).view(np.float64)
        acc += to_int(np.rint(np.ldexp(term, s)))
    return np.array([math.ldexp(float(v), -s) for v in acc]).view(np.complex128)


# 2, 3, 5, 61 and 199 are one block each, 199 its full 198 rows, summed in
# one int64 word; 257 and 263 take two blocks (153 + 103 and 149 + 113 rows),
# a window each, and 839 19 blocks of up to 46 rows in windows of four, each
# window's sums added into a high and a low word split at bit 32. Random
# cases at both ends of the exponent range and a row of negative zeros, then
# two ZC cases where p is odd
@pytest.mark.parametrize("p", [2, 3, 5, 61, 199, 257, 263, 839])
def test_chunked_sum_equals_per_sample_loop(p):
    x = np.random.default_rng(p).normal(size=(p, 2)) @ [1, 1j]
    cases = [x * 1e300, x * 1e-300, np.full(p, complex(-0.0, -0.0))]
    if p > 2:
        cases += [zc_time(ZcParams(p=p, u=u, ts=ts)) for u, ts in ((1, 0), (p - 1, (p - 1) // 2))]
    for x in cases:
        assert np.array_equal(naive_dft(x), _per_sample_exact(x, -1))
        assert np.array_equal(naive_idft(x), _per_sample_exact(x, +1))


def _zc_and_random(p, rng):
    # a ZC case and a random one, stacked
    x = rng.normal(size=p) + 1j * rng.normal(size=p)
    return np.stack([zc_time(ZcParams(p=p, u=p - 1, ts=(p - 1) // 2)), x])


def test_cold_call_equals_warm_call_and_only_the_grid_is_kept(rng):
    # a sweep of the grid 5 <= p <= 199 keeps each of its lengths, 336,352
    # bytes in all; 839 and 4099 build their entries for each call
    oracle._kept_entry.cache_clear()
    grid = [p for p in ODD_PRIMES_199 if p >= 5]
    cases = {p: _zc_and_random(p, rng) for p in grid + [839]}
    cases[4099] = zc_time(ZcParams(p=4099, u=25, ts=7))
    for p, x in cases.items():
        cold = naive_dft(x), naive_idft(x)
        warm = naive_dft(x), naive_idft(x)
        assert all(np.array_equal(a, b) for a, b in zip(cold, warm))
    info = oracle._kept_entry.cache_info()
    assert info.misses == info.currsize == len(grid)
    assert sum(array.nbytes for p in grid for array in oracle._kept_entry(p)) == 336_352
    assert oracle._kept_entry.cache_info().misses == len(grid)


def test_kept_entry_is_read_only_and_holds_the_set_up():
    p = 199
    naive_dft(np.ones(p))
    entry = oracle._kept_entry(p)
    for array in entry:
        assert array.base is None
        with pytest.raises(ValueError):
            array[0] = 1
    order, inverse, dft_table, idft_table = entry
    # order is 0, then the powers of one generator g, a permutation of 0..p-1
    k = np.arange(p)
    g = int(order[2])
    assert order[0] == 0 and order[1] == 1
    assert np.array_equal(order[2:], order[1:-1] * g % p)
    assert np.array_equal(np.sort(order), k)
    assert np.array_equal(inverse[order], k)
    for table, sign in ((dft_table, -1), (idft_table, +1)):
        w = np.exp(sign * 2j * np.pi * k / p)
        assert np.array_equal(table, np.concatenate((w[order], w[order[1:]])))


def test_threads_on_a_cold_cache_match_serial_results():
    # every thread makes its own block buffers, builds or finds the grid
    # lengths' entries while the others read them, and builds 839's per call
    lengths = [p for p in ODD_PRIMES_199 if p > 133] + [839]
    cases = [(p, naive) for p in lengths for naive in (naive_dft, naive_idft)]
    xs = {p: zc_time(ZcParams(p=p, u=25, ts=7)) for p in lengths}
    serial = {case: case[1](xs[case[0]]) for case in cases}
    oracle._kept_entry.cache_clear()

    def run(seed):
        order = cases * 3
        random.Random(seed).shuffle(order)
        return [(p, naive) for p, naive in order if not np.array_equal(naive(xs[p]), serial[p, naive])]

    mismatches = run_in_threads(run, [(seed,) for seed in range(4)], timeout=120)
    assert mismatches == [[]] * 4
    assert oracle._kept_entry.cache_info().currsize == len(lengths) - 1


def test_warm_calls_allocate_o_p_bytes():
    # a warm call finds p's entry kept and this thread's block buffer made,
    # so it allocates O(p) temporaries and one ufunc buffer of at most
    # np.getbufsize() terms, for the strided Hankel operand of the in-place
    # multiply; per-call chunks of terms peaked at 471,036 bytes here, and
    # the multiply into a second buffer, which buffered both operands, at
    # 271,224
    p = 199
    x = zc_time(ZcParams(p=p, u=25, ts=7))
    ufunc_buffer = 16 * np.getbufsize()
    for naive in (naive_dft, naive_idft):
        for case in (x, np.stack([x, x[::-1]])):
            naive(case)
            tracemalloc.start()
            try:
                naive(case)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * case.nbytes + ufunc_buffer


# run in a fresh interpreter, from the tree this suite imports zcdft from
RESIDENT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from zcdft import numtheory, oracle
from zcdft.sequences import ZcParams
from zcdft.transform import DFT, execute, plan, zc_time

for p in (139, 839):
    execute(plan(ZcParams(p=p, u=25, ts=7), DFT))
    zc_time(ZcParams(p=p, u=25, ts=7))
x = zc_time(ZcParams(p=199, u=25, ts=7))
oracle.naive_dft(x)
oracle.naive_idft(x)
assert numtheory._block_tables.cache_info().currsize == 0
kept = list(vars(oracle._LOCAL).values())
assert len(kept) == 1 and kept[0] is oracle._buffers()
assert kept[0].dtype == np.complex128 and kept[0].shape == (oracle._BLOCK,) and kept[0].flags.c_contiguous
execute(plan(ZcParams(p=40867, u=25, ts=7), DFT))
assert numtheory._block_tables.cache_info().currsize == 1
"""


def test_kept_lengths_and_the_oracle_hold_only_what_they_read():
    # kept spectra and samples read their length's entry and the grid oracle
    # its one block buffer; the factored phases' block tables wait for the
    # first phase_blocks call, here a length the store does not keep
    src = Path(zcdft.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-I", "-c", RESIDENT, str(src)], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_oracle_does_not_call_the_transforms_log_tables(monkeypatch):
    # with the cache cleared, every entry is built under the patch, with the
    # oracle's own generator loop
    cases = {p: _zc_and_random(p, np.random.default_rng(p)) for p in (5, 199, 839)}
    expected = {p: (naive_dft(x), naive_idft(x)) for p, x in cases.items()}

    def fail(*args):
        raise AssertionError("the oracle called the transform's log tables")

    for module in (numtheory, transform, oracle):
        monkeypatch.setattr(module, "primitive_root", fail, raising=module is not oracle)
        monkeypatch.setattr(module, "power_table", fail, raising=module is not oracle)
    oracle._kept_entry.cache_clear()
    for p, x in cases.items():
        dft, idft = expected[p]
        assert np.array_equal(naive_dft(x), dft) and np.array_equal(naive_idft(x), idft)
    assert oracle._kept_entry.cache_info().currsize == 2


# 9999 = 3**2 * 11 * 101 is rejected by trial division, before any power is taken
@pytest.mark.parametrize("p", [1, 4, 9, 15, 9999])
def test_composite_length_is_rejected(p):
    for naive in (naive_dft, naive_idft):
        for shape in (p, (0, p)):
            with pytest.raises(ValueError, match="prime length"):
                naive(np.ones(shape))


def test_sum_past_the_int64_range_is_exact():
    # x = 0.75 + 0.75j is scaled to 0.75 * 2**54 per component, so bin 0 adds
    # 1031 such terms, past 2**63: each window's part (five blocks of up to
    # 38 rows) stays below it, and only the split of those parts into a high
    # and a low word keeps the sum exact
    p = 1031
    for naive in (naive_dft, naive_idft):
        out = naive(np.full(p, 0.75 + 0.75j))
        assert out[0] == 773.25 + 773.25j
        assert np.abs(out[1:]).max() <= 1e-12


def test_length_past_the_kept_buffer_is_rejected_before_its_entry(monkeypatch):
    # 39209, the first prime past PMAX = 39205: one row of its 39208 terms
    # would not fit the kept buffer of 198**2
    def fail(p):
        raise AssertionError(f"an entry was built for p = {p}")

    monkeypatch.setattr(oracle, "_log_order", fail)
    for naive in (naive_dft, naive_idft):
        with pytest.raises(ValueError, match=f"p <= {oracle.PMAX}"):
            naive(np.zeros(39209))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(bad):
    x = np.ones((3, 7), dtype=np.complex128)
    x[1, 4] = complex(0.5, bad)
    for naive in (naive_dft, naive_idft):
        for case in (x, x[1], x[1].imag):
            with pytest.raises(ValueError, match="finite"):
                naive(case)


def test_zero_and_extreme_scale_inputs(rng):
    for naive in (naive_dft, naive_idft):
        assert np.array_equal(naive(np.zeros(7)), np.zeros(7, dtype=np.complex128))
    x = rng.normal(size=61) + 1j * rng.normal(size=61)
    for scale in (1e300, 1e-300):
        y = x * scale
        for out, ref in ((naive_dft(y), np.fft.fft(y)), (naive_idft(y), 61 * np.fft.ifft(y))):
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def _long_double_transform(x, sign, bins):
    # sum_n x[n] * exp(sign*2*pi*i*n*k/p) in long double, n*k reduced exactly
    p = len(x)
    pi = 4 * np.arctan(np.longdouble(1))
    theta = (2 * pi / p) * (np.multiply.outer(bins, np.arange(p)) % p).astype(np.longdouble)
    w = np.cos(theta) + 1j * (sign * np.sin(theta))
    return (x.astype(np.clongdouble) * w).sum(axis=-1)


def _derived_bound(x):
    # the oracle module's bound, plus the long-double reference's own error:
    # its table as the oracle's, and at most p roundings of its sum
    p = len(x)
    eps, eps_ld = np.finfo(np.float64).eps, np.finfo(np.longdouble).eps
    sum_abs = np.abs(x).sum()
    grid = 2.0 ** (math.frexp(np.abs(x.view(np.float64)).max())[1] - _SCALE)
    table_and_product = 3 * np.pi + 1 / np.sqrt(2) + np.sqrt(2)
    return (
        (table_and_product + 0.5) * eps * sum_abs
        + p * grid / np.sqrt(2)
        + (table_and_product + p) * float(eps_ld) * sum_abs
    )


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is float64 on this platform",
)
@pytest.mark.parametrize("p", [61, 199, 839, 2503])
def test_error_against_long_double_within_derived_bound(p, rng):
    # every bin at 61 and 199, 48 of them at 839 and 2503
    bins = np.arange(p) if p <= 199 else np.unique(np.r_[0, rng.integers(1, p, 47)])
    cases = (
        zc_time(ZcParams(p=p, u=1)),
        zc_time(ZcParams(p=p, u=p - 1, ts=(p - 1) // 2)),
        1e-3 * (rng.normal(size=p) + 1j * rng.normal(size=p)),
    )
    for x in cases:
        bound = _derived_bound(x)
        for naive, sign in ((naive_dft, -1), (naive_idft, +1)):
            ref = _long_double_transform(x, sign, bins)
            err = np.abs(naive(x)[bins].astype(np.clongdouble) - ref).max()
            assert err <= bound


@pytest.mark.parametrize("p", [5, 31, 199, 839])
def test_stacked_cases_equal_one_case_calls(p):
    # every root with ts in {0, 1}, or 4 roots at 839, where both the stacked
    # and the one-case call sum over several chunks of terms
    if p < 839:
        cases = [(u, ts) for u in range(1, p) for ts in (0, 1)]
    else:
        cases = [(1, 0), (2, 1), (419, 0), (838, 1)]
    x = np.stack([zc_time(ZcParams(p=p, u=u, ts=ts)) for u, ts in cases])
    for naive in (naive_dft, naive_idft):
        out = naive(x)
        assert out.shape == x.shape
        for row, case in zip(out, x):
            assert np.array_equal(row, naive(case))
        assert np.array_equal(naive(x.reshape(2, -1, p)), out.reshape(2, -1, p))


def test_real_and_one_dimensional_inputs_keep_shape(rng):
    x = rng.normal(size=13)
    for naive in (naive_dft, naive_idft):
        out = naive(x)
        assert out.shape == (13,) and out.dtype == np.complex128
        assert np.array_equal(out, naive(x.astype(np.complex128)))
        assert np.array_equal(naive(x.tolist()), out)
        # an empty stack gives an empty output of its shape
        for shape in ((0, 7), (2, 0, 7)):
            empty = naive(np.zeros(shape))
            assert empty.shape == shape and empty.dtype == np.complex128


def test_brute_gauss_sum_frozen_values():
    assert brute_gauss_sum(ZcParams(p=13, u=3)) == pytest.approx(BRUTE_13_3, abs=1e-14)
    assert brute_gauss_sum(ZcParams(p=7, u=1)) == pytest.approx(BRUTE_7_1, abs=1e-14)


@pytest.mark.parametrize("p", [5, 13, 31])
def test_brute_gauss_sum_magnitude(p):
    for u in range(1, p):
        assert abs(abs(brute_gauss_sum(ZcParams(p=p, u=u))) - np.sqrt(p)) <= 1e-9


def test_brute_gauss_sum_requires_unshifted():
    with pytest.raises(ValueError):
        brute_gauss_sum(ZcParams(p=13, u=3, ts=1))


def test_shifted_identity_idft_is_dft_at_negated_bins():
    # both directions gather the same indices, so this holds bit for bit
    params = ZcParams(p=13, u=3, ts=5)
    k = np.arange(13)
    dft = shifted_dft_identity(params, DFT)
    assert np.array_equal(shifted_dft_identity(params, IDFT), dft[(-k) % 13])
    with pytest.raises(ValueError, match="direction"):
        shifted_dft_identity(params, "fft")


@pytest.mark.parametrize("p", [5, 7, 13])
def test_shifted_identity_bin0_is_gauss_constant(p):
    # conj(Z(ts)) * Z(ts) cancels to 1, so bin 0 never depends on the shift
    for u in range(1, p):
        f0 = brute_gauss_sum(ZcParams(p=p, u=u))
        for ts in range(p):
            out = shifted_dft_identity(ZcParams(p=p, u=u, ts=ts), DFT)
            assert out[0] == pytest.approx(f0, abs=1e-12)

