import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zcdft.numtheory import centered, mod_inverse
from zcdft.pattern import (
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
from zcdft.sequences import ZcParams
from zcdft.transform import DFT, IDFT, plan

from conftest import ODD_PRIMES_61

pattern_cases = st.builds(
    lambda p, s_seed, ts_seed: (p, 1 + s_seed % (p - 1), ts_seed % p),
    st.sampled_from(ODD_PRIMES_61),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


def test_make_pattern_p13_u3():
    pat = make_pattern(13, -3)
    assert pat.points[:4] == ((0, 0), (1, -3), (2, -6), (3, 4))
    assert pat.orientation == OBVERSE


def test_make_pattern_cyclic_time_shift():
    base = make_pattern(13, -3)
    shifted = make_pattern(13, -3, ts=2)
    # the graph is translated along t: frequencies rotate by two time steps
    expect = {(t, dict(base.points)[(t - 2) % 13]) for t in range(13)}
    assert set(shifted.points) == expect


def test_make_pattern_rejects_zero_slope():
    with pytest.raises(ValueError):
        make_pattern(13, 0)
    with pytest.raises(ValueError):
        make_pattern(13, 26)
    # the points are integers, so a float or bool slope is not a slope
    with pytest.raises(ValueError):
        make_pattern(13, 1.5)
    with pytest.raises(ValueError):
        make_pattern(13, True)
    # so is the shift, which must lie in [0, p-1] as a ZcParams shift does
    for ts in (1.5, True, -1, 13):
        with pytest.raises(ValueError, match="cyclic shift"):
            make_pattern(13, -3, ts=ts)


@given(pattern_cases)
def test_frequencies_are_a_permutation(case):
    p, s, ts = case
    pat = make_pattern(p, -s, ts=ts)
    half = (p - 1) // 2
    assert sorted(f for _, f in pat.points) == list(range(-half, half + 1))


def test_flip_dft_slope_and_first_frequency():
    flipped = flip_dft(make_pattern(13, -3))
    # slope becomes -(3^-1) = -9 = 4 (mod 13)
    assert read_slope(flipped) == 4
    assert read_slope(flipped) == (-mod_inverse(3, 13)) % 13
    # the point on the frequency axis sits at the transform's shift,
    # 7*(1-9) = 9 (mod 13), i.e. centered -4
    assert read_shift(flipped) == 9
    assert flipped.points[0] == (0, -4)
    assert flipped.orientation == REVERSE


def test_flip_idft_slope_and_shift():
    flipped = flip_idft(make_pattern(13, -3))
    assert read_slope(flipped) == 4  # still -u^-1
    assert read_shift(flipped) == 8  # 6*10 mod 13
    assert flipped.orientation == REVERSE
    # the two flips differ by a frequency shift of exactly 1 mod p
    assert (read_shift(flip_dft(make_pattern(13, -3))) - read_shift(flipped)) % 13 == 1


def test_flip_idft_is_involution():
    pat = make_pattern(13, -3, ts=4)
    assert flip_idft(flip_idft(pat)) == pat


def test_flip_conjugate_basics():
    pat = flip_dft(make_pattern(13, -3))
    conj = flip_conjugate(pat)
    assert conj.orientation == OBVERSE
    assert conj.points[0] == pat.points[0]  # t=0 point is fixed
    assert flip_conjugate(conj) == pat
    # after eliminating conjugation the slope reads +u^-1 = 9 (centered -4)
    assert read_slope(conj) == 9
    assert centered(read_slope(conj), 13) == -4


@given(pattern_cases)
@settings(max_examples=60)
def test_flips_toggle_orientation_and_invert(case):
    p, s, ts = case
    pat = make_pattern(p, -s, ts=ts)
    for flip in (flip_dft, flip_idft, flip_conjugate):
        once = flip(pat)
        assert once.orientation == REVERSE
        assert flip(once) == pat


@given(pattern_cases)
@settings(max_examples=60)
def test_idft_flip_is_mirrored_dft_flip(case):
    p, s, ts = case
    pat = make_pattern(p, -s, ts=ts)
    mirrored = sorted((p - 1 - t, -f) for t, f in flip_dft(pat).points)
    assert mirrored == sorted(flip_idft(pat).points)


def test_time_shift_becomes_frequency_shift():
    base = flip_dft(make_pattern(13, -3))
    for ts in range(13):
        shifted = flip_dft(make_pattern(13, -3, ts=ts))
        expect = {(t, centered(f + ts, 13)) for t, f in base.points}
        assert set(shifted.points) == expect


@pytest.mark.parametrize("ts", [0, 1, 5, 12])
@pytest.mark.parametrize("u", range(1, 13))
def test_extracted_shift_is_negated_plan_shift(u, ts):
    # pinned congruence: pattern shift + plan shift = 0 (mod p), both
    # directions, any cyclic shift
    pat = make_pattern(13, -u, ts=ts)
    params = ZcParams(p=13, u=u, ts=ts)
    assert (read_shift(flip_dft(pat)) + plan(params, DFT).fs) % 13 == 0
    assert (read_shift(flip_idft(pat)) + plan(params, IDFT).fs) % 13 == 0


def test_read_slope_rejects_non_affine():
    pat = make_pattern(13, -3)
    points = list(pat.points)
    t, f = points[7]
    points[7] = (t, centered(f + 1, 13))
    broken = LmfhPattern(p=13, points=tuple(points), orientation=OBVERSE)
    with pytest.raises(ValueError):
        read_slope(broken)
    with pytest.raises(ValueError):
        read_shift(broken)


def test_export_pattern_csv():
    text = export_pattern(make_pattern(13, -3))
    lines = text.strip().split("\n")
    assert lines[0] == "t,f,orientation"
    assert lines[1] == "0,0,obverse"
    assert lines[2] == "1,-3,obverse"
    assert len(lines) == 14
    flipped = export_pattern(flip_dft(make_pattern(13, -3)))
    assert flipped.strip().split("\n")[1] == "0,-4,reverse"
