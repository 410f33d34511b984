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

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class ApfParams:
    cutoff: float  # influence distance d0, positive and finite and not a bool

    def __post_init__(self):
        if isinstance(self.cutoff, (bool, np.bool_)) or not 0.0 < self.cutoff < math.inf:
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff!r}")


def apf_cost(side_distances: Iterable[float | None], params: ApfParams) -> float:
    """Sum over sides of (1/2) * (1/d - 1/d0)^2 inside the cutoff.

    Sides without a detection pass None and contribute nothing; a side
    distance that is not positive and finite raises ValueError.
    """
    total = 0.0
    for d in side_distances:
        if d is None:
            continue
        if not 0.0 < d < math.inf:
            raise ValueError(f"side distance must be positive and finite, got {d}")
        if d < params.cutoff:
            diff = 1.0 / d - 1.0 / params.cutoff
            total += 0.5 * diff * diff
    return total
