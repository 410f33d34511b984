"""Planar geometry primitives shared by the whole simulator.

Everything here is a pure function of its inputs: 2-D vectors, angle
wrapping into (-pi, pi], and the circumcenter of a triangle (used to fit
virtual cylinders to lidar returns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Radians in (-pi, pi]; plain float, kept wrapped via wrap_angle().
Angle = float


class DegenerateTriangle(ValueError):
    """Raised when three points are too close to collinear to circumscribe."""


# Twice-signed-area threshold below which a triangle is treated as a line.
# Smaller values risk catastrophic cancellation in the bisector solve.
COLLINEAR_AREA_EPS = 1e-9


@dataclass(frozen=True)
class Vec2:
    """Immutable 2-D vector in meters."""

    x: float
    y: float

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


def wrap_angle(raw: float) -> Angle:
    """Wrap an angle into (-pi, pi]; pi maps to itself, -pi maps to pi.

    Exactly idempotent: values already in range are returned unchanged.
    """
    if not math.isfinite(raw):
        raise ValueError(f"cannot wrap non-finite angle {raw!r}")
    if -math.pi < raw <= math.pi:
        return raw
    # fmod is exact; the +-2pi correction is exact by Sterbenz's lemma.
    a = math.fmod(raw, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


def circumcenter(p1: Vec2, p2: Vec2, p3: Vec2) -> tuple[Vec2, float]:
    """Center and radius of the circle through three points.

    Solved relative to p1 to limit cancellation. Raises DegenerateTriangle
    when the twice-signed area falls below COLLINEAR_AREA_EPS.
    """
    bx, by = p2.x - p1.x, p2.y - p1.y
    cx, cy = p3.x - p1.x, p3.y - p1.y
    cross = bx * cy - by * cx  # twice the signed triangle area
    if abs(cross) < COLLINEAR_AREA_EPS:
        raise DegenerateTriangle(
            f"points {p1}, {p2}, {p3} are collinear within area eps {COLLINEAR_AREA_EPS}"
        )
    b_sq = bx * bx + by * by
    c_sq = cx * cx + cy * cy
    d = 2.0 * cross
    ux = (cy * b_sq - by * c_sq) / d
    uy = (bx * c_sq - cx * b_sq) / d
    radius = math.hypot(ux, uy)
    return Vec2(p1.x + ux, p1.y + uy), radius
