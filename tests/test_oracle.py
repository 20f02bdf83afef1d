import numpy as np
import pytest

from zcdft.oracle import brute_gauss_sum, naive_dft, naive_idft, shifted_dft_identity
from zcdft.sequences import ZcParams, zc_time
from zcdft.transform import DFT, IDFT

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


def test_round_trip_on_random_input(rng):
    p = 13
    x = rng.normal(size=p) + 1j * rng.normal(size=p)
    back = naive_idft(naive_dft(x))
    assert np.abs(back - p * x).max() <= 1e-8 * p


def test_matches_numpy_fft(rng):
    x = rng.normal(size=19) + 1j * rng.normal(size=19)
    assert np.abs(naive_dft(x) - np.fft.fft(x)).max() <= 1e-10
    assert np.abs(naive_idft(x) - 19 * np.fft.ifft(x)).max() <= 1e-10


def test_zc_spectrum_bin0_matches_gauss_constant():
    out = naive_dft(zc_time(ZcParams(p=13, u=3)))
    assert out[0] == pytest.approx(BRUTE_13_3, abs=1e-12)


def _per_sample_kahan(x, sign):
    # the summation loop the chunked kernel must reproduce, one n at a time
    p = len(x)
    table = np.exp(sign * 2j * np.pi * np.arange(p) / p)
    k = np.arange(p)
    acc = np.zeros(p, dtype=np.complex128)
    comp = np.zeros(p, dtype=np.complex128)
    for n in range(p):
        y = x[n] * table[(n * k) % p] - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc


@pytest.mark.parametrize("p", [5, 61, 839])
def test_chunked_sum_equals_per_sample_loop(p):
    for u, ts in ((1, 0), (p - 1, (p - 1) // 2)):
        x = zc_time(ZcParams(p=p, u=u, ts=ts))
        assert np.array_equal(naive_dft(x), _per_sample_kahan(x, -1))
        assert np.array_equal(naive_idft(x), _per_sample_kahan(x, +1))


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


def test_dft_idft_adjointness(rng):
    for p in (13, 31):
        x = rng.normal(size=p) + 1j * rng.normal(size=p)
        y = rng.normal(size=p) + 1j * rng.normal(size=p)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        lhs = np.vdot(y, naive_dft(x))
        rhs = np.vdot(naive_idft(y), x)
        assert abs(lhs - rhs) <= 1e-9 * p
