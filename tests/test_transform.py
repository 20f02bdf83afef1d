import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zcdft.numtheory import mod_inverse, triangular_mod
from zcdft.oracle import dft_reference, idft_reference, naive_dft, naive_idft
from zcdft.sequences import ZcParams, zc_time
from zcdft.transform import (
    DFT,
    IDFT,
    OpCounters,
    execute,
    phase_indices,
    phase_indices_recurrence,
    plan,
)

from conftest import ODD_PRIMES_61
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


EPS = np.finfo(np.float64).eps
EPS_LD = np.finfo(np.longdouble).eps


@pytest.mark.skipif(EPS_LD == EPS, reason="np.longdouble is float64 here: no more precise reference")
@pytest.mark.parametrize("p", [5, 17, 139, 839, 65537, 1000003])
def test_twiddle_table_error_within_derived_bound(p):
    table = plan(ZcParams(p=p, u=1), DFT).twiddles
    assert table.shape == (p,)
    assert not table.flags.writeable
    assert table.base is None or not table.base.flags.writeable
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


@pytest.mark.parametrize("p", [13, 29])
@pytest.mark.parametrize("direction", [DFT, IDFT])
def test_operation_counts_exact(p, direction):
    counters = OpCounters()
    execute(plan(ZcParams(p=p, u=2, ts=1), direction), counters)
    assert counters.additions == 2 * (p - 1)
    assert counters.modulo_reductions == 2 * (p - 1)
    assert counters.exp_evaluations == p


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
        assert np.array_equal(phases[direction], phase_indices_recurrence(pl, OpCounters()))
    # the index-remapping identity F(k) = conj(Z(iu*k + ts)) * Z(ts) * F(0) on
    # phase integers, which does not read the plan's frequency shift; every
    # int64 intermediate stays below 2**62 (see triangular_mod)
    k = np.arange(p, dtype=np.int64)
    idx = (mod_inverse(u, p) * k + ts) % p
    expect = u * (triangular_mod(np.int64(ts), p) - triangular_mod(idx, p)) % p
    assert np.array_equal(phases[DFT], expect)
    assert np.array_equal(phases[IDFT], phases[DFT][(-k) % p])


@given(cases, st.sampled_from([DFT, IDFT]))
@settings(max_examples=60, deadline=None)
def test_fast_path_matches_oracle(params, direction):
    fast = execute(plan(params, direction))
    x = zc_time(params)
    oracle = naive_dft(x) if direction == DFT else naive_idft(x)
    assert np.abs(fast - oracle).max() <= 1e-9 * np.sqrt(params.p)


def test_dft_reference_examples():
    params = ZcParams(p=13, u=3)
    tol_ref = 1e-10 * np.sqrt(13)
    tol_naive = 1e-9 * np.sqrt(13)
    assert np.abs(dft_reference(params) - execute(plan(params, DFT))).max() <= tol_ref
    assert np.abs(dft_reference(params) - naive_dft(zc_time(params))).max() <= tol_naive
    shifted = ZcParams(p=13, u=3, ts=5)
    assert np.abs(dft_reference(shifted) - naive_dft(zc_time(shifted))).max() <= tol_naive


def test_idft_reference_examples():
    params = ZcParams(p=13, u=3)
    assert np.abs(idft_reference(params) - execute(plan(params, IDFT))).max() <= 1e-10 * np.sqrt(13)
    assert np.abs(idft_reference(params) - naive_idft(zc_time(params))).max() <= 1e-9 * np.sqrt(13)


def test_conjugate_form_equivalence():
    # conj(Z with root iu) equals Z with root -iu: ties the conjugate and
    # conjugate-free reference forms together
    p = 13
    for u in range(1, p):
        iu = mod_inverse(u, p)
        a = np.conj(zc_time(ZcParams(p=p, u=iu)))
        b = zc_time(ZcParams(p=p, u=p - iu))
        assert np.abs(a - b).max() <= 1e-15


@given(cases)
@settings(max_examples=40, deadline=None)
def test_round_trip(params):
    spectrum = execute(plan(params, DFT))
    back = naive_idft(spectrum)
    assert np.abs(back - params.p * zc_time(params)).max() <= 1e-8 * params.p


@given(cases, st.sampled_from([DFT, IDFT]))
@settings(max_examples=40)
def test_spectrum_is_cazac(params, direction):
    out = execute(plan(params, direction))
    assert np.abs(np.abs(out) - np.sqrt(params.p)).max() <= 1e-9
