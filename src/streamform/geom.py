"""Planar geometry primitives shared by the whole simulator.

Everything here is a pure function of its inputs: 2-D vectors, angle
wrapping into (-pi, pi], the circumcenter of a triangle given as (x, y)
pairs (used to fit virtual cylinders to lidar returns), and the one rule
every scalar of the package is checked by (``_real``, ``_finite``, ``_count``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Radians in (-pi, pi]; plain float, kept wrapped via wrap_angle().
Angle = float


# Twice-signed-area threshold below which a triangle is treated as a line.
# Smaller values risk catastrophic cancellation in the bisector solve.
COLLINEAR_AREA_EPS = 1e-9


def _as_float(value) -> float:
    """A real ``value``, not a bool, as a plain float; else NaN, for 10**400 too."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        return float(value) if real else math.nan
    except OverflowError:
        return math.nan


def _real(name: str, value, zero_ok: bool = False) -> float:
    """``value`` as a plain float if it is a real number but not a bool, and
    positive (nonnegative with ``zero_ok``) and finite; else ValueError
    naming it. A NaN, a str, a one-element array and an int past the float
    range all fail. A plain float skips the slow ``numbers.Real`` test."""
    x = value if type(value) is float else _as_float(value)
    if 0.0 <= x < math.inf if zero_ok else 0.0 < x < math.inf:
        return x
    bound = "nonnegative" if zero_ok else "positive"
    raise ValueError(f"{name} must be {bound} and finite, got {value!r}")


def _finite(name: str, value) -> float:
    """``value`` as a plain float if it is a finite real number of either
    sign but not a bool; else ValueError naming it. It checks every agent
    step's pose and controls, so a plain float takes a path of its own."""
    if type(value) is float and math.isfinite(value):
        return value
    if math.isfinite(x := _as_float(value)):
        return x
    raise ValueError(f"{name} must be finite, got {value!r}")


def _count(name: str, value, zero_ok: bool = False) -> int:
    """``value`` as a plain int if it is an integer but not a bool, and
    positive (nonnegative with ``zero_ok``); else ValueError naming it. An
    int skips the slow ``numbers.Integral`` test."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if value >= 0 if zero_ok else value >= 1:
            return int(value)
    bound = "nonnegative" if zero_ok else "positive"
    raise ValueError(f"{name} must be a {bound} int, got {value!r}")


@dataclass(frozen=True)
class Vec2:
    """Immutable 2-D vector in meters; each coordinate a finite real, else ValueError."""

    x: float
    y: float

    def __post_init__(self):
        _finite("Vec2.x", self.x)
        _finite("Vec2.y", self.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)


def wrap_angle(angle: float) -> Angle:
    """Wrap an angle into (-pi, pi]; pi maps to itself, -pi maps to pi.
    Exactly idempotent: fmod returns an angle already in range unchanged."""
    angle = _finite("angle", angle)
    # fmod is exact; the +-2pi correction is exact by Sterbenz's lemma.
    a = math.fmod(angle, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


def circumcenter(
    p1: tuple[float, float], p2: tuple[float, float], p3: tuple[float, float]
) -> tuple[tuple[float, float], float] | None:
    """Center and radius of the circle through three (x, y) points, as
    ((x, y), radius).

    Solved relative to p1 to limit cancellation. Returns None when the
    twice-signed area falls below COLLINEAR_AREA_EPS.
    """
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    bx, by = x2 - x1, y2 - y1
    cx, cy = x3 - x1, y3 - y1
    cross = bx * cy - by * cx  # twice the signed triangle area
    if abs(cross) < COLLINEAR_AREA_EPS:
        return None
    b_sq = bx * bx + by * by
    c_sq = cx * cx + cy * cy
    d = 2.0 * cross
    ux = (cy * b_sq - by * c_sq) / d
    uy = (bx * c_sq - cx * b_sq) / d
    radius = math.hypot(ux, uy)
    return (x1 + ux, y1 + uy), radius
