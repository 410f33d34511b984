"""Repulsive artificial-potential-field cost, the comparison baseline.

It stands in for the stream-value avoidance cost but is not a drop-in
replacement. The stream cost is ``StreamAvoider.update(scan).cost``: the
avoider reads the scan itself, keeps each side's desired stream value
across steps and scores streamline deviation on the active sides.
``apf_cost(side_distances)`` takes only the per-side shortest distances
(None where a side sees nothing) and scores raw proximity, so a caller
swapping one for the other must also change what it passes.

Each side closer than the cutoff d0 adds (1/2) * (1/d - 1/d0)^2 (Khatib's
potential with unit gain). The gain is not a setting: it would only
multiply the cost, whose scale the caller's avoidance weight already sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .geom import _real


@dataclass(frozen=True)
class ApfParams:
    """The influence distance d0, a positive setting by ``geom._real``."""

    cutoff: float

    def __post_init__(self):
        object.__setattr__(self, "cutoff", _real("cutoff", self.cutoff))


def apf_cost(side_distances: Iterable[float | None], params: ApfParams) -> float:
    """Sum over sides of (1/2) * (1/d - 1/d0)^2 inside the cutoff.

    Sides without a detection pass None and contribute nothing; a side
    distance that is not positive and finite raises ValueError.
    """
    total = 0.0
    for d in side_distances:
        if d is None:
            continue
        d = _real("side distance", d)
        if d < params.cutoff:
            diff = 1.0 / d - 1.0 / params.cutoff
            total += 0.5 * diff * diff
    return total
