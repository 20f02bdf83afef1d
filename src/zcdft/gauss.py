"""Closed-form cumulative sum of a ZC sequence (generalized quadratic Gauss sum).

The sum F(0) = sum_n Z(n) of a prime-length ZC sequence has magnitude
sqrt(p) and a phase determined exactly by the root and the residue class of
p mod 4:

    F(0) = sqrt(p) * l_2u * eta_p * exp(i*2*pi*u*(inv2**3 mod p)/p)

where inv2 = (p+1)/2 is the inverse of 2 mod p, l_2u the Legendre symbol of
2u, and eta_p = 1 for p = 1 (mod 4), -i for p = 3 (mod 4). Folding the three
phase factors into one rational angle gives the quasi phase offset QPo with
F(0) = sqrt(p) * exp(i*2*pi*QPo/p); QPo takes quarter-integer values, so it
is stored exactly as the integer 4*QPo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import legendre
from .sequences import ZcParams


@dataclass(frozen=True)
class GaussSumResult:
    """Exact description of the cumulative-sum constant.

    magnitude is always sqrt(p); qpo_times4 is the exact integer 4*QPo; value
    is the complex constant itself.
    """

    magnitude: float
    qpo_times4: int
    value: complex


def _qpo_times4(p: int, u: int | np.ndarray, ell: int | np.ndarray) -> int | np.ndarray:
    """4*QPo for a validated (p, u) whose Legendre sign l_2u = ell is known, elementwise.

    Exact for Python ints; an int64 numerator must stay below 2**63 (transform._ROW_PMAX).
    The numerator is u mod p, as (p+1)**3 = 1 mod p, so 4*QPo = u/2 != 0
    mod p for 1 <= u <= p-1: the constant's angle 2*pi*4QPo/(4p) is no
    multiple of pi/2, and neither of its components is zero.
    """
    num = (3 - 2 * ell - (p % 4)) * p + u * (p + 1) ** 3
    if np.count_nonzero(num % 2):
        raise AssertionError(f"4*QPo not integral for p={p}, u={u}")
    return num // 2


def quasi_phase_offset4(p: int, u: int) -> int:
    """4*QPo = ((3 - 2*l_2u - (p mod 4))*p + u*(p+1)**3) / 2, an exact integer.

    (p+1)**3 is divisible by 8 and the leading coefficient is even for every
    odd prime, so the division by 2 is exact; this is asserted rather than
    assumed. Python integers are arbitrary precision, so u*(p+1)**3 needs no
    widening tricks even at p near 2**31. (p, u) are validated, and numpy
    integers converted to Python ints, by ZcParams.
    """
    params = ZcParams(p=p, u=u)
    return _qpo_times4(params.p, params.u, legendre(2 * params.u, params.p))


def gauss_sum_closed(p: int, u: int) -> GaussSumResult:
    """Closed-form evaluation of sum_n exp(-i*pi*u*n*(n+1)/p).

    The phase integer u*inv2**3 is reduced mod p before conversion, so the
    only floating-point steps are one sqrt and one complex exponential of a
    small angle. (p, u) are validated as in ZcParams.
    """
    params = ZcParams(p=p, u=u)
    p, u = params.p, params.u
    ell = legendre(2 * u, p)
    eta = 1.0 if p % 4 == 1 else -1.0j
    inv2 = (p + 1) // 2
    phase = (u * pow(inv2, 3, p)) % p
    magnitude = float(np.sqrt(p))
    value = magnitude * ell * eta * np.exp(2j * np.pi * phase / p)
    return GaussSumResult(
        magnitude=magnitude,
        qpo_times4=_qpo_times4(p, u, ell),
        value=complex(value),
    )


def const_from_qpo(p: int, qpo_times4: int | np.ndarray) -> complex | np.ndarray:
    """sqrt(p) * exp(i*2*pi*QPo/p) from the exact integer 4*QPo, elementwise.

    A Python int gives a Python complex, an int64 array a complex128 array,
    by the same roundings: q4 = 4*QPo mod 4p, reduced before any int64
    conversion (4*QPo is about 2**123 near p = 2**31), the angle
    (2*pi*q4)/(4p) times 1j (a real part of exactly 0), np.exp, then the
    scale. plan and transform._root_scalars both call this: the same bits.
    """
    angle = 2 * np.pi * (qpo_times4 % (4 * p)) / (4 * p)
    const = np.exp(1j * angle) * math.sqrt(p)
    return const if np.ndim(const) else complex(const)
