import numpy as np
import pytest

import zcdft.numtheory
from zcdft.gauss import _qpo_times4, const_from_qpo, gauss_sum_closed, quasi_phase_offset4
from zcdft.numtheory import legendre
from zcdft.oracle import brute_gauss_sum
from zcdft.sequences import ZcParams
from zcdft.transform import DFT, plan

from conftest import ODD_PRIMES_61

# Direct summation of the p=13, u=3 and p=7, u=1 sequences, frozen as
# regression constants (sum computed with correctly-rounded fsum).
BRUTE_13_3 = -2.048186572122646 - 2.967310527359159j
BRUTE_7_1 = 2.0685316697713625 - 1.649598960703146j


def test_closed_form_p13_u3():
    # l_2u = legendre(6,13) = -1, eta = 1, inv2 = 7, 7^3 = 343 = 5 (mod 13),
    # 3*5 = 2 (mod 13): value = -sqrt(13) * exp(4j*pi/13)
    g = gauss_sum_closed(13, 3)
    expect = -np.sqrt(13) * np.exp(4j * np.pi / 13)
    assert g.value == pytest.approx(expect, abs=1e-14)
    assert g.value == pytest.approx(BRUTE_13_3, abs=1e-12)
    assert g.magnitude == pytest.approx(np.sqrt(13), abs=1e-12)


def test_closed_form_p7_u1():
    # l_2 = +1, eta = -i, inv2 = 4, 4^3 = 1 (mod 7)
    g = gauss_sum_closed(7, 1)
    expect = np.sqrt(7) * -1j * np.exp(2j * np.pi / 7)
    assert g.value == pytest.approx(expect, abs=1e-14)
    assert g.value == pytest.approx(BRUTE_7_1, abs=1e-12)


def test_quasi_phase_offset_examples():
    # (4*13 + 3*2744)/8 = 1035.5, stored exactly as 4142
    assert quasi_phase_offset4(13, 3) == 4142
    assert 4142 % (4 * 13) == 34  # QPo = 8.5 (mod 13)
    # (-2*7 + 512)/8 = 62.25, stored as 249
    assert quasi_phase_offset4(7, 1) == 249


def test_qpo_reproduces_brute_value():
    assert const_from_qpo(13, 4142) == pytest.approx(BRUTE_13_3, abs=1e-12)
    assert const_from_qpo(7, 249) == pytest.approx(BRUTE_7_1, abs=1e-12)


@pytest.mark.parametrize("p", ODD_PRIMES_61)
def test_qpo_integrality_and_coefficient_ranges(p):
    for u in range(1, p):
        ell = legendre(2 * u, p)
        coeff = 3 - 2 * ell - (p % 4)
        if p % 4 == 1:
            assert coeff in (0, 4)
        else:
            assert coeff in (-2, 2)
        num = coeff * p + u * (p + 1) ** 3
        assert num % 2 == 0
        assert quasi_phase_offset4(p, u) == num // 2


@pytest.mark.parametrize("p", ODD_PRIMES_61)
def test_closed_form_matches_brute_sum(p):
    tol = 1e-9 * np.sqrt(p)
    for u in range(1, p):
        g = gauss_sum_closed(p, u)
        brute = brute_gauss_sum(ZcParams(p=p, u=u))
        assert abs(g.value - brute) <= tol
        assert abs(abs(g.value) - np.sqrt(p)) <= 1e-12


@pytest.mark.parametrize("p", ODD_PRIMES_61)
def test_two_phase_forms_agree(p):
    # the Legendre/eta product form and the single rational angle from 4*QPo
    # are algebraically identical; assert it numerically
    for u in range(1, p):
        g = gauss_sum_closed(p, u)
        assert abs(g.value - const_from_qpo(p, g.qpo_times4)) <= 1e-12


def test_array_calls_equal_scalar_calls_bit_for_bit():
    # a kept length's root rows call the routines on int64 arrays, plan at any
    # other length on Python ints; u = p - 1 at 55103 is the int64 edge
    for p, roots in ((139, range(1, 139)), (40853, range(1, 40853)), (55103, [1, 2, 55102])):
        ells = [legendre(2 * u, p) for u in roots]
        q4 = _qpo_times4(p, np.array(roots, dtype=np.int64), np.array(ells, dtype=np.int64))
        scalar_q4 = [_qpo_times4(p, u, ell) for u, ell in zip(roots, ells)]
        assert q4.dtype == np.int64 and q4.tolist() == scalar_q4
        consts = const_from_qpo(p, q4)
        scalar_consts = np.array([const_from_qpo(p, q) for q in scalar_q4])
        assert consts.view(np.uint64).tolist() == scalar_consts.view(np.uint64).tolist()


def test_scalar_calls_stay_exact_past_int64():
    # at the prime cap 4*QPo is about 2**123: a scalar routed through int64
    # would overflow
    p, u = 2**31 - 1, 2**31 - 2
    coeff = 3 - 2 * legendre(2 * u, p) - p % 4
    q4 = quasi_phase_offset4(p, u)
    assert type(q4) is int and q4 > 1 << 122 and 2 * q4 == coeff * p + u * (p + 1) ** 3
    const = const_from_qpo(p, q4)
    assert type(const) is complex
    assert abs(const - gauss_sum_closed(p, u).value) <= 1e-9 * np.sqrt(p)


def test_root_validation():
    with pytest.raises(ValueError):
        gauss_sum_closed(13, 0)
    with pytest.raises(ValueError):
        gauss_sum_closed(13, 13)
    with pytest.raises(ValueError):
        quasi_phase_offset4(10, 1)
    with pytest.raises(ValueError):
        gauss_sum_closed(True, 1)
    # numpy integers are validated like Python ints, and give the same result
    assert gauss_sum_closed(np.int64(13), np.int32(3)) == gauss_sum_closed(13, 3)
    assert quasi_phase_offset4(np.int64(2147483647), np.int64(5)) == quasi_phase_offset4(
        2147483647, 5
    )
    with pytest.raises(ValueError):
        gauss_sum_closed(np.int64(13), np.int64(13))


def test_validated_inputs_are_not_validated_again(monkeypatch):
    calls = []
    real = zcdft.numtheory.is_prime
    monkeypatch.setattr(zcdft.numtheory, "is_prime", lambda n: calls.append(n) or real(n))
    params = ZcParams(p=786433, u=25)
    calls.clear()
    plan(params, DFT)
    assert calls == []
    gauss_sum_closed(786433, 25)
    assert calls == [786433]
