"""Stream-function collision avoidance built from local lidar detections.

Each detected obstacle interval is summarized by a virtual cylinder fitted
through three ray endpoints (circumcenter construction). The scalar stream
value of a uniform flow plus doublet around that cylinder, with the flow
strength U = 1,

    psi(x, y) = y - r^2 * y / (x^2 + y^2),

is zero exactly on the cylinder boundary and on the flow axis; its level
sets are smooth evasion paths around the obstacle. The avoider keeps, per
half-field (left/right of the heading axis), a desired stream value locked
in when avoidance engages, and scores deviation from it weighted by a
repulsive proximity factor so the penalty fades at the engagement range.

U is not a setting. It would scale the current stream value, the desired
one and the bound alike, so the hold and relock decisions do not depend on
it; the cost would scale by U^2, and the caller's avoidance weight already
sets the cost's scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .geom import Angle, circumcenter
from .sensing import LidarScan, detect_intervals, shortest_ray, split_sides

# doublet singularity guard: points closer than this to the cylinder
# center have no usable stream value
SINGULARITY_EPS = 1e-9

# fallback cylinder when the three endpoints are collinear or circumscribe a
# circle centred on the agent: a circle of the minimum obstacle size pushed
# just past the shortest ray endpoint
DEFAULT_CYL_PAD = 0.1
DEFAULT_CYL_RADIUS = 0.1

# shortest-ray distances are floored here before entering the proximity
# factor so a touching return cannot produce an infinite cost
MIN_M_DISTANCE = 1e-3


@dataclass(frozen=True)
class StreamParams:
    """The avoider's two ranges, both fixed: it engages an obstacle closer
    than ``d_risk`` and keeps a stopping clearance ``d_stop``. The avoider
    needs 0 < d_stop < d_risk < LidarConfig.d_max: with d_risk at or past the
    lidar's 2 m range, every ray of an empty scan reads closer than d_risk
    and the free fan looks like one obstacle. No caller varies them, and a
    test pins the condition."""

    d_risk: ClassVar[float] = 0.7
    d_stop: ClassVar[float] = 0.4


@dataclass(frozen=True)
class AvoidanceState:
    """Per-side memory carried across steps: the desired stream value held
    and the inner angle of the side's interval last step, both None while
    the side is clear."""

    c_desired: float | None = None
    prev_inner_angle: Angle | None = None

    @property
    def avoid(self) -> bool:
        """The side is avoiding: it holds both memories."""
        return self.c_desired is not None and self.prev_inner_angle is not None


_CLEAR = AvoidanceState()  # every clear side's memory: frozen, so one record serves all


@dataclass(frozen=True)
class SideReading:
    """What one half-field saw this step: ``center``, an (x, y) pair, and
    ``radius`` are the virtual cylinder in the agent frame."""

    interval: tuple[int, int]
    m_index: int
    center: tuple[float, float]
    radius: float
    degenerate: bool
    c_current: float
    m_distance: float
    inner_angle: Angle


@dataclass(frozen=True)
class AvoidanceOutcome:
    states: tuple[AvoidanceState, AvoidanceState]
    readings: tuple[SideReading | None, SideReading | None]
    cost: float


def stream_value(x: float, y: float, radius: float) -> float:
    """Stream value at the point (x, y) relative to the cylinder center."""
    rho_sq = x * x + y * y
    if rho_sq < SINGULARITY_EPS**2:
        raise ValueError(f"point ({x}, {y}) is at the doublet singularity")
    return y * (1.0 - radius * radius / rho_sq)


def stream_bound(center: tuple[float, float], radius: float, side: int) -> float:
    """Stream value of the minimum-clearance evasion path for one side.

    ``center`` is the cylinder's agent-frame (x, y), ``side`` an index of
    ``split_sides``' result. Evaluated at the agent-frame point the clearance
    ``StreamParams.d_stop`` to the side the agent will swerve toward: (0,
    -d_stop) for the left field (0), (0, +d_stop) for the right one (1). At
    the cylinder center the far-field fallback, that point's y, is returned.
    """
    d_stop = StreamParams.d_stop
    sign = -1.0 if side == 0 else 1.0
    x, y = -center[0], sign * d_stop - center[1]
    if math.hypot(x, y) < SINGULARITY_EPS:
        return sign * d_stop
    return stream_value(x, y, radius)


def _ray_point(angle: float, d: float) -> tuple[float, float]:
    """Agent-frame point ``d`` along the ray at ``angle``."""
    return d * math.cos(angle), d * math.sin(angle)


def _read_side(scan: LidarScan, interval: tuple[int, int], side: int) -> SideReading:
    start, end = interval
    # the shortest ray strictly inside; detect_intervals keeps no interval
    # of fewer than MIN_INTERVAL_RAYS (3) rays, so there is one
    m = shortest_ray(scan, start + 1, end)
    dist, ang = scan.distances, scan.angles
    fit = circumcenter(*(_ray_point(ang[i], float(dist[i])) for i in (start, m, end)))
    # a cylinder centred on the agent itself is as unusable as no triangle
    degenerate = fit is None or math.hypot(*fit[0]) < SINGULARITY_EPS
    if degenerate:
        fit = _ray_point(ang[m], float(dist[m]) + DEFAULT_CYL_PAD), DEFAULT_CYL_RADIUS
    center, radius = fit
    # the agent sits at -center in the cylinder frame
    c_current = stream_value(-center[0], -center[1], radius)
    m_distance = max(float(scan.distances[m]), MIN_M_DISTANCE)
    return SideReading(
        interval=interval,
        m_index=m,
        center=center,
        radius=radius,
        degenerate=degenerate,
        c_current=c_current,
        m_distance=m_distance,
        inner_angle=float(scan.angles[interval[side]]),
    )


class StreamAvoider:
    """One agent's avoider: ``update`` runs the per-side decision on a scan
    and carries ``states``, the per-side memory, to the next step.
    ``params`` is not read: ``StreamParams`` has no field."""

    def __init__(self, params: StreamParams):
        self.reset()

    def reset(self) -> None:
        self.states: tuple[AvoidanceState, AvoidanceState] = (_CLEAR, _CLEAR)

    def update(self, scan: LidarScan) -> AvoidanceOutcome:
        """One step of the per-side avoidance decision policy.

        Per side, indexed as in ``split_sides``' result (0 left, 1 right): the
        avoid flag tracks whether a detection interval exists. On a rising
        edge the desired stream value locks to the agent's current stream
        value, floored in magnitude to the side's bound (the minimum-clearance
        streamline). While avoiding, the desired value is held as long as the
        interval's inner angle keeps growing in magnitude (the same obstacle
        sliding outward as it is passed); a new obstacle in front re-locks it
        to the current value. A side with no detection resets its memory.

        The cost is the squared stream-value error times the repulsive
        proximity factor, summed over the active sides:
        (c_current - c_desired)^2 * (1/m_distance - 1/StreamParams.d_risk).
        """
        d_risk = StreamParams.d_risk
        new_states = [_CLEAR, _CLEAR]
        readings: list[SideReading | None] = [None, None]
        cost = 0.0
        for side, interval in enumerate(split_sides(detect_intervals(scan, d_risk), scan)):
            if interval is None:
                continue
            prev = self.states[side]
            rd = _read_side(scan, interval, side)
            # same obstacle sliding outward: hold the desired value; otherwise
            # (a rising edge, or a new obstacle in front) lock to the current one
            if prev.avoid and abs(rd.inner_angle) > abs(prev.prev_inner_angle):
                c_desired = prev.c_desired
            else:
                bound = stream_bound(rd.center, rd.radius, side)
                c_desired = bound if abs(rd.c_current) < abs(bound) else rd.c_current
            new_states[side] = AvoidanceState(c_desired, rd.inner_angle)
            readings[side] = rd
            err = rd.c_current - c_desired
            cost += err * err * (1.0 / rd.m_distance - 1.0 / d_risk)
        self.states = tuple(new_states)
        return AvoidanceOutcome(self.states, tuple(readings), cost)
