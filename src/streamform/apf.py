"""Repulsive artificial-potential-field cost, the comparison baseline.

It stands in for the stream-value avoidance cost but is not a drop-in
replacement. The stream cost is ``StreamAvoider.update(scan).cost``: the
avoider reads the scan itself, keeps each side's desired stream value
across steps and scores streamline deviation on the active sides.
``apf_cost(side_distances)`` takes only the per-side shortest distances
(None where a side sees nothing) and scores raw proximity, so a caller
swapping one for the other must also change what it passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class ApfParams:
    cutoff: float  # influence distance d0
    gain: float = 1.0

    def __post_init__(self):
        if self.cutoff <= 0.0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if self.gain <= 0.0:
            raise ValueError(f"gain must be positive, got {self.gain}")


def apf_cost(side_distances: Iterable[float | None], params: ApfParams) -> float:
    """Sum over sides of (gain/2) * (1/d - 1/d0)^2 inside the cutoff.

    Sides without a detection pass None and contribute nothing.
    """
    total = 0.0
    for d in side_distances:
        if d is None:
            continue
        if d <= 0.0:
            raise ValueError(f"distance must be positive, got {d}")
        if d < params.cutoff:
            diff = 1.0 / d - 1.0 / params.cutoff
            total += 0.5 * params.gain * diff * diff
    return total
