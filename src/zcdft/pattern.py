"""lmFH patterns: point sets on the time / centered-frequency grid.

A pattern is the visual object behind a ZC sequence: p points (t, f) with t
a time index in [0, p-1] and f a centered residue, plus an orientation flag.
Transforms act on it geometrically:

  * flip_dft       - reflection across the line f = t,
  * flip_idft      - reflection across the line f = -t,
  * flip_conjugate - reflection across the frequency axis.

The first two swap the roles of the axes, which inverts the pattern's slope
mod p; reading the slope of a flipped pattern is therefore a visual route to
modular inverses. Both axis-swapping flips have determinant -1 and toggle
the orientation (the pattern's "side", which stands for complex
conjugation); so does the conjugation flip. Orientation is metadata only and
never changes coordinates.

Reflections are realized on the canonical drawing window
[0, p-1] x [-(p-1)/2, (p-1)/2]: the raw reflection maps the window off
itself, so the image is translated rigidly back. That choice of
representative is what places the flipped pattern's t = 0 frequency at the
transform's true frequency shift instead of at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numtheory import centered, mod_inverse
from .sequences import LmfhParams, ZcParams

OBVERSE = "obverse"
REVERSE = "reverse"


@dataclass(frozen=True)
class LmfhPattern:
    """p points (t, f), sorted by t, with an obverse/reverse orientation."""

    p: int
    points: tuple[tuple[int, int], ...]
    orientation: str


def _as_pattern(p: int, raw_points, orientation: str) -> LmfhPattern:
    pts = tuple(sorted(raw_points))
    if len(pts) != p or [t for t, _ in pts] != list(range(p)):
        raise AssertionError("pattern must contain exactly one point per time index")
    return LmfhPattern(p=p, points=pts, orientation=orientation)


def _toggled(orientation: str) -> str:
    return REVERSE if orientation == OBVERSE else OBVERSE


def make_pattern(p: int, slope: int, *, ts: int = 0) -> LmfhPattern:
    """Linear pattern f(t) = centered(slope*(t - ts), p), obverse side.

    p and slope are validated as LmfhParams, ts as the cyclic shift of
    ZcParams. ts translates the graph by +ts along the time axis, which is
    how the cyclic shift enters the figures; under flip_dft it comes out as a
    +ts cyclic frequency shift, matching the transform identities.
    """
    params = LmfhParams(p=p, s=slope)
    p, slope = params.p, params.s
    ts = ZcParams(p=p, u=1, ts=ts).ts
    pts = ((t, centered(slope * (t - ts), p)) for t in range(p))
    return _as_pattern(p, pts, OBVERSE)


def flip_dft(pattern: LmfhPattern) -> LmfhPattern:
    """Reflect across f = t (the DFT flip); orientation toggles.

    On the canonical window the reflection plus rigid translation is
    (t, f) -> (f + (p-1)/2, t - (p-1)/2); both images land exactly in range,
    so no modular wrap occurs and the map is an involution.
    """
    half = (pattern.p - 1) // 2
    pts = ((f + half, t - half) for t, f in pattern.points)
    return _as_pattern(pattern.p, pts, _toggled(pattern.orientation))


def flip_idft(pattern: LmfhPattern) -> LmfhPattern:
    """Reflect across f = -t (the IDFT flip); orientation toggles.

    Canonical-window form: (t, f) -> ((p-1)/2 - f, (p-1)/2 - t). Equals
    flip_dft followed by mirroring the window in both axes, which is why the
    slope after either flip is the same inverse while the extracted
    frequency shifts differ by exactly 1 mod p.
    """
    half = (pattern.p - 1) // 2
    pts = ((half - f, half - t) for t, f in pattern.points)
    return _as_pattern(pattern.p, pts, _toggled(pattern.orientation))


def flip_conjugate(pattern: LmfhPattern) -> LmfhPattern:
    """Reflect across the frequency axis: (t, f) -> (-t mod p, f).

    Toggles the orientation back after an axis-swapping flip, eliminating
    conjugation; the point on the frequency axis (t = 0) stays fixed.
    """
    p = pattern.p
    pts = (((-t) % p, f) for t, f in pattern.points)
    return _as_pattern(p, pts, _toggled(pattern.orientation))


def _affine_read(pattern: LmfhPattern) -> tuple[int, int]:
    """(slope, offset) mod p of an affine pattern, or ValueError."""
    p = pattern.p
    (t0, f0), (t1, f1) = pattern.points[0], pattern.points[1]
    slope = ((f1 - f0) * mod_inverse(t1 - t0, p)) % p
    offset = (f0 - slope * t0) % p
    for t, f in pattern.points:
        if (f - slope * t - offset) % p != 0:
            raise ValueError("pattern is not affine modulo p")
    return slope, offset


def read_slope(pattern: LmfhPattern) -> int:
    """Slope of an affine pattern, in [0, p-1].

    Uses the two smallest time indices and then checks affinity across all p
    points. Reading the slope after flip_dft inverts the original slope
    mod p, which makes the flip a visual mod-inverse computer.
    """
    return _affine_read(pattern)[0]


def read_shift(pattern: LmfhPattern) -> int:
    """Frequency offset at t = 0 of an affine pattern, in [0, p-1].

    After flip_dft / flip_idft this is the transform's frequency shift; it
    equals the negation mod p of the corresponding plan's fs field.
    """
    return _affine_read(pattern)[1]


def export_pattern(pattern: LmfhPattern) -> str:
    """CSV rendering: header "t,f,orientation", one row per point, sorted by t."""
    lines = ["t,f,orientation"]
    lines.extend(f"{t},{f},{pattern.orientation}" for t, f in pattern.points)
    return "\n".join(lines) + "\n"
