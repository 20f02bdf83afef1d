import dataclasses

import numpy as np
import pytest
from hypothesis import given
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
    # po is a finite real, not a bool, stored as a Python float
    for po in (np.nan, np.inf, -np.inf, 1j, True, np.bool_(False), "0.3", None):
        with pytest.raises(ValueError, match="phase offset"):
            LmfhParams(p=13, s=-3, po=po)
    assert all(type(LmfhParams(13, -3, 0, po).po) is float for po in (0, np.float32(0.3)))


def test_params_record_is_frozen_and_revalidated():
    params = ZcParams(13, np.int64(3), ts=np.uint8(2))
    assert params == ZcParams(p=13, u=3, ts=2) == ZcParams(13, 3, 2)
    assert hash(params) == hash(ZcParams(p=13, u=3, ts=2))
    assert all(type(v) is int for v in (params.p, params.u, params.ts))
    assert repr(params) == "ZcParams(p=13, u=3, ts=2)"
    assert ZcParams(13, 3).ts == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.u = 5
    for bad in ({"u": True}, {"ts": True}, {"ts": np.bool_(False)}):
        with pytest.raises(ValueError):
            ZcParams(**{"p": 13, "u": 3, **bad})
    # replace goes through __init__, so it validates again
    assert dataclasses.replace(params, u=np.int32(5)) == ZcParams(13, 5, 2)
    with pytest.raises(ValueError, match="root must satisfy"):
        dataclasses.replace(params, u=0)
    with pytest.raises(ValueError, match="odd prime"):
        dataclasses.replace(params, p=15)


def test_zc_time_first_samples():
    z = zc_time(ZcParams(p=13, u=3))
    assert z[0] == 1.0 + 0.0j
    assert z[1] == pytest.approx(np.exp(-6j * np.pi / 13), abs=1e-15)


def test_zc_time_equals_direct_integer_route_at_large_p():
    # the registry checks p <= 199; 65537 exercises the int64 reduction
    for u, ts in ((1, 0), (25, 1), (65536, 32768)):
        params = ZcParams(p=65537, u=u, ts=ts)
        assert np.array_equal(zc_time(params), zc_time_direct(params))


def test_zc_time_direct_refuses_p_past_its_int64_limit():
    # u*m*(m+1) < 4*p**3 with m < 2p stays in int64 at the largest prime below
    # 2**20; 1048583 is the first prime above. Unchecked, u = ts = p - 1 read
    # 0.52 off zc_time at 1400017 and 1.99 at 2000003, where the product wraps
    params = ZcParams(p=1048573, u=1048572, ts=1048572)
    assert np.array_equal(zc_time(params), zc_time_direct(params))
    with pytest.raises(ValueError, match=r"p < 2\*\*20"):
        zc_time_direct(ZcParams(p=1048583, u=1048582, ts=1048582))


def _lmfh_reference(params):
    """lmfh_symbol by a Python-int loop over the frequency points s*t + fs, t >= 1."""
    p, s, fs, po = params.p, params.s, params.fs, params.po
    phases = [0] * p
    acc = 0
    for t in range(1, p):
        acc = (acc + s * t + fs) % p
        phases[t] = acc
    ang = (2.0 * np.pi / p) * np.asarray(phases, dtype=np.float64) + po
    return np.exp(1j * ang)


def test_lmfh_symbol_equals_python_int_loop_bit_for_bit():
    # lmfh_symbol runs the counted accumulation with iu = -s mod p from the
    # start frequency fs; a wrong sign of iu or a shifted start changes bits
    for p in ODD_PRIMES_61:
        for s in (1, -1, 2, -2, 3, -3, p - 1, 2 * p + 5):
            if s % p == 0:
                continue
            for fs in (0, 1, -7, p + 3):
                for po in (0.0, 0.3):
                    params = LmfhParams(p, s, fs, po)
                    assert lmfh_symbol(params).tobytes() == _lmfh_reference(params).tobytes()


def test_lmfh_first_samples():
    sym = lmfh_symbol(LmfhParams(p=13, s=-3))
    assert sym[0] == 1.0 + 0.0j
    assert sym[1] == pytest.approx(np.exp(-2j * np.pi * 3 / 13), abs=1e-15)


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


def test_frequency_track_examples():
    f = frequency_track(ZcParams(p=13, u=3))
    assert list(f[:3]) == [0, -3, -6]
    assert f[5] == -2  # centered(-15, 13)


@given(small_zc)
def test_frequency_track_is_permutation(params):
    f = frequency_track(params)
    half = (params.p - 1) // 2
    assert sorted(f) == list(range(-half, half + 1))
