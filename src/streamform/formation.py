"""Formation bookkeeping: desired offsets and the quadratic tracking cost."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import Angle, Vec2, _count, _finite, _real


@dataclass(frozen=True)
class FormationSpec:
    """World-frame offsets the followers hold relative to the navigator."""

    offsets: tuple[Vec2, ...]

    def __post_init__(self):
        seen = {(o.x, o.y) for o in self.offsets}
        if len(seen) != len(self.offsets):
            raise ValueError("follower offsets must be distinct")

    @classmethod
    def circle(cls, n_followers: int, radius: float) -> "FormationSpec":
        """Followers evenly spaced on a circle around the navigator;
        ``n_followers`` and ``radius`` are positive settings by
        ``geom._count`` and ``geom._real``."""
        n_followers, radius = _count("n_followers", n_followers), _real("radius", radius)
        offsets = tuple(
            Vec2(radius * math.cos(2 * math.pi * k / n_followers),
                 radius * math.sin(2 * math.pi * k / n_followers))
            for k in range(n_followers)
        )
        return cls(offsets)


class TrackingWeight:
    """The identity weight of the tracking cost, the only one a run uses."""

    @classmethod
    def identity(cls) -> "TrackingWeight":
        return cls()


def relative_displacement(d_0i: float, theta_0i: Angle) -> Vec2:
    """Follower displacement from the navigator, rebuilt from the broadcast
    distance and world-frame bearing, each of which must be finite (and the
    distance nonnegative), or ValueError names it."""
    d_0i, theta_0i = _real("d_0i", d_0i, zero_ok=True), _finite("theta_0i", theta_0i)
    return Vec2(d_0i * math.cos(theta_0i), d_0i * math.sin(theta_0i))


def tracking_error(z_i: Vec2, eta_i: Vec2) -> Vec2:
    """Deviation of the observed displacement from the assigned offset."""
    return z_i - eta_i


def tracking_cost(e_i: Vec2, weight: TrackingWeight) -> float:
    """Quadratic form e^T I e = |e|^2; ``weight`` is the identity and not read."""
    return e_i.x * e_i.x + e_i.y * e_i.y
