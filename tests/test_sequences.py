import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zcdft.oracle import zc_time_direct
from zcdft.sequences import LmfhParams, ZcParams, frequency_track, lmfh_symbol, zc_time

from conftest import ODD_PRIMES_61

small_zc = st.builds(
    lambda p, u_seed, ts_seed: ZcParams(p=p, u=1 + u_seed % (p - 1), ts=ts_seed % p),
    st.sampled_from(ODD_PRIMES_61),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


def test_param_validation():
    with pytest.raises(ValueError):
        ZcParams(p=4, u=1)
    with pytest.raises(ValueError):
        ZcParams(p=9, u=1)
    with pytest.raises(ValueError):
        ZcParams(p=13, u=0)
    with pytest.raises(ValueError):
        ZcParams(p=13, u=13)
    with pytest.raises(ValueError):
        ZcParams(p=13, u=3, ts=13)
    with pytest.raises(ValueError):
        LmfhParams(p=13, s=0)
    with pytest.raises(ValueError):
        LmfhParams(p=13, s=26)
    LmfhParams(p=13, s=-3)  # negative slopes are fine
    for bad in (True, 13.0, np.bool_(True), np.float64(13)):
        with pytest.raises(ValueError):
            ZcParams(p=bad, u=1)
    with pytest.raises(ValueError):
        ZcParams(p=13, u=1.5)
    # numpy integers are accepted and stored as Python ints
    params = ZcParams(p=np.int64(13), u=np.int32(3), ts=np.uint8(2))
    assert params == ZcParams(p=13, u=3, ts=2)
    assert all(type(v) is int for v in (params.p, params.u, params.ts))
    with pytest.raises(ValueError):
        ZcParams(p=np.int64(13), u=np.int64(13))
    sym = LmfhParams(p=np.int64(13), s=np.int64(-3), fs=np.int16(2))
    assert all(type(v) is int for v in (sym.p, sym.s, sym.fs))


def test_zc_time_first_samples():
    z = zc_time(ZcParams(p=13, u=3))
    assert z[0] == 1.0 + 0.0j
    assert z[1] == pytest.approx(np.exp(-6j * np.pi / 13), abs=1e-15)


def test_zc_time_equals_direct_integer_route_at_large_p():
    # the registry checks p <= 199; 65537 exercises the int64 reduction
    for u, ts in ((1, 0), (25, 1), (65536, 32768)):
        params = ZcParams(p=65537, u=u, ts=ts)
        assert np.array_equal(zc_time(params), zc_time_direct(params))


def test_zc_cyclic_shift_is_exact_rotation():
    base = zc_time(ZcParams(p=13, u=3))
    shifted = zc_time(ZcParams(p=13, u=3, ts=5))
    # same floating-point values, not merely close
    assert np.array_equal(shifted, np.roll(base, -5))


@given(small_zc)
def test_zc_rotation_property(params):
    base = zc_time(ZcParams(p=params.p, u=params.u))
    assert np.array_equal(zc_time(params), np.roll(base, -params.ts))


def test_lmfh_first_samples():
    sym = lmfh_symbol(LmfhParams(p=13, s=-3))
    assert sym[0] == 1.0 + 0.0j
    assert sym[1] == pytest.approx(np.exp(-2j * np.pi * 3 / 13), abs=1e-15)


@pytest.mark.parametrize("p", ODD_PRIMES_61[:10])
def test_lmfh_zc_conjugacy(p):
    # slope -u accumulates to the ZC sequence itself; slope +u to its conjugate
    for u in range(1, p):
        z = zc_time(ZcParams(p=p, u=u))
        assert np.abs(lmfh_symbol(LmfhParams(p=p, s=-u)) - z).max() <= 1e-12
        assert np.abs(lmfh_symbol(LmfhParams(p=p, s=u)) - np.conj(z)).max() <= 1e-12


def test_lmfh_phase_offset_is_global():
    flat = lmfh_symbol(LmfhParams(p=13, s=-3))
    tilted = lmfh_symbol(LmfhParams(p=13, s=-3, po=0.7))
    assert np.abs(tilted - flat * np.exp(0.7j)).max() <= 1e-12


def test_lmfh_frequency_shift_suppressed_at_t0():
    # fs enters from t=1 on, so sample 0 carries no extra phase
    shifted = lmfh_symbol(LmfhParams(p=13, s=-3, fs=5))
    assert shifted[0] == 1.0 + 0.0j
    flat = lmfh_symbol(LmfhParams(p=13, s=-3))
    ramp = np.exp(2j * np.pi * 5 * np.arange(13) / 13)
    assert np.abs(shifted - flat * ramp).max() <= 1e-12


@given(small_zc)
@settings(max_examples=50)
def test_constant_amplitude(params):
    z = zc_time(params)
    assert np.abs(np.abs(z) - 1.0).max() <= 1e-12
    sym = lmfh_symbol(LmfhParams(p=params.p, s=-params.u, fs=params.ts, po=0.1))
    assert np.abs(np.abs(sym) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("p", [13, 61])
def test_perfect_periodic_autocorrelation(p):
    for u in range(1, p):
        z = zc_time(ZcParams(p=p, u=u))
        for d in range(1, p):
            assert abs(np.vdot(np.roll(z, -d), z)) < 1e-9 * p


def test_frequency_track_examples():
    f = frequency_track(ZcParams(p=13, u=3))
    assert list(f[:3]) == [0, -3, -6]
    assert f[5] == -2  # centered(-15, 13)


@given(small_zc)
def test_frequency_track_is_permutation(params):
    f = frequency_track(params)
    half = (params.p - 1) // 2
    assert sorted(f) == list(range(-half, half + 1))
