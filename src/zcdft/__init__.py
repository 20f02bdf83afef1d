"""Prime-length Zadoff-Chu sequences and their linear-time DFT/IDFT.

The transform of a ZC sequence is computed in O(p) from the closed form of
the paper's accumulation of integer frequency points mod p, looking the
phases up in a table of p-th roots of unity, with the first-bin constant
supplied in closed form by a generalized quadratic Gauss sum. Quadratic-time
oracles and the O(p) index-remapping identity are included for verification.
"""

from .gauss import GaussSumResult, gauss_sum_closed, quasi_phase_offset4
from .numtheory import centered, is_prime, legendre, mod_inverse, odd_primes
from .oracle import (
    brute_gauss_sum,
    naive_dft,
    naive_idft,
    shifted_dft_identity,
)
from .pattern import (
    OBVERSE,
    REVERSE,
    LmfhPattern,
    export_pattern,
    flip_conjugate,
    flip_dft,
    flip_idft,
    make_pattern,
    read_shift,
    read_slope,
)
from .sequences import LmfhParams, OpCounters, ZcParams, frequency_track, lmfh_symbol
from .transform import DFT, IDFT, TransformPlan, execute, plan, zc_time

__version__ = "0.1.0"

__all__ = [
    "DFT",
    "IDFT",
    "OBVERSE",
    "REVERSE",
    "GaussSumResult",
    "LmfhParams",
    "LmfhPattern",
    "OpCounters",
    "TransformPlan",
    "ZcParams",
    "brute_gauss_sum",
    "centered",
    "execute",
    "export_pattern",
    "flip_conjugate",
    "flip_dft",
    "flip_idft",
    "frequency_track",
    "gauss_sum_closed",
    "is_prime",
    "legendre",
    "lmfh_symbol",
    "make_pattern",
    "mod_inverse",
    "naive_dft",
    "naive_idft",
    "odd_primes",
    "plan",
    "quasi_phase_offset4",
    "read_shift",
    "read_slope",
    "shifted_dft_identity",
    "zc_time",
]
