"""Stream-function collision avoidance built from local lidar detections.

Each detected obstacle interval is summarized by a virtual cylinder fitted
through three ray endpoints (circumcenter construction). The scalar stream
value of a uniform flow plus doublet around that cylinder,

    psi(x, y) = U*y - U * r^2 * y / (x^2 + y^2),

is zero exactly on the cylinder boundary and on the flow axis; its level
sets are smooth evasion paths around the obstacle. The avoider keeps, per
half-field (left/right of the heading axis), a desired stream value locked
in when avoidance engages, and scores deviation from it weighted by a
repulsive proximity factor so the penalty fades at the engagement range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum


from .geom import Angle, DegenerateTriangle, Vec2, circumcenter
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


class Side(IntEnum):
    LHS = 0
    RHS = 1


class StreamSingularity(ValueError):
    """Raised when a stream value is requested at the doublet singularity."""


@dataclass(frozen=True)
class VirtualCylinder:
    """Estimated obstacle in the agent frame: center and radius."""

    center: Vec2
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius) and self.center.is_finite()):
            raise ValueError(f"invalid cylinder {self}")


@dataclass(frozen=True)
class StreamParams:
    flow_strength: float = 1.0
    d_risk: float = 0.7
    d_stop: float = 0.4

    def __post_init__(self):
        if not 0.0 < self.d_stop < self.d_risk:
            raise ValueError(
                f"require 0 < d_stop < d_risk, got d_stop={self.d_stop}, d_risk={self.d_risk}"
            )
        if self.flow_strength <= 0.0:
            raise ValueError("flow_strength must be positive")


@dataclass(frozen=True)
class AvoidanceState:
    """Per-side memory carried across steps."""

    avoid: bool = False
    c_desired: float | None = None
    prev_inner_angle: Angle | None = None


@dataclass(frozen=True)
class SideReading:
    """What one half-field saw this step."""

    interval: tuple[int, int]
    m_index: int
    cylinder: VirtualCylinder
    degenerate: bool
    c_current: float
    m_distance: float
    inner_angle: Angle


@dataclass(frozen=True)
class AvoidanceOutcome:
    states: tuple[AvoidanceState, AvoidanceState]
    readings: tuple[SideReading | None, SideReading | None]
    cost: float


def stream_value(p_rel: Vec2, radius: float, flow_strength: float = 1.0) -> float:
    """Stream value at a point given relative to the cylinder center."""
    rho_sq = p_rel.norm_sq()
    if rho_sq < SINGULARITY_EPS**2:
        raise StreamSingularity(f"point {p_rel} is at the doublet singularity")
    return flow_strength * p_rel.y * (1.0 - radius * radius / rho_sq)


def default_cylinder(scan: LidarScan, m_index: int) -> VirtualCylinder:
    """Fallback when the endpoints fit no usable cylinder: minimum-size circle
    pushed DEFAULT_CYL_PAD past the shortest ray endpoint along that ray."""
    d = float(scan.distances[m_index]) + DEFAULT_CYL_PAD
    a = float(scan.angles[m_index])
    return VirtualCylinder(Vec2(d * math.cos(a), d * math.sin(a)), DEFAULT_CYL_RADIUS)


def shortest_interior_ray(interval: tuple[int, int], scan: LidarScan) -> int:
    """Index of the shortest ray strictly inside the interval; ties follow
    ``sensing.shortest_ray``."""
    start, end = interval
    if end - start + 1 < 3:
        raise ValueError(f"interval {interval} must span at least 3 rays")
    return shortest_ray(scan, start + 1, end)


def stream_bound(
    cyl: VirtualCylinder, d_stop: float, flow_strength: float, side: Side
) -> float:
    """Stream value of the minimum-clearance evasion path for one side.

    Evaluated at the agent-frame point a stopping distance to the side the
    agent will swerve toward: (0, -d_stop) for the left field, (0, +d_stop)
    for the right one. If that point coincides with the cylinder center the
    far-field fallback sign(side)*U*d_stop is returned.
    """
    sign = -1.0 if side == Side.LHS else 1.0
    point = Vec2(0.0, sign * d_stop)
    rel = point - cyl.center
    if rel.norm() < SINGULARITY_EPS:
        return sign * flow_strength * d_stop
    return stream_value(rel, cyl.radius, flow_strength)


def _read_side(
    scan: LidarScan, interval: tuple[int, int], side: Side, params: StreamParams
) -> SideReading:
    start, end = interval
    inner = start if side == Side.LHS else end
    m = shortest_interior_ray(interval, scan)
    try:
        center, radius = circumcenter(scan.endpoint(start), scan.endpoint(m), scan.endpoint(end))
        # a cylinder centred on the agent itself is as unusable as no triangle
        degenerate = center.norm() < SINGULARITY_EPS
    except DegenerateTriangle:
        degenerate = True
    cyl = default_cylinder(scan, m) if degenerate else VirtualCylinder(center, radius)
    # the agent sits at -center in the cylinder frame
    c_current = stream_value(Vec2(-cyl.center.x, -cyl.center.y), cyl.radius, params.flow_strength)
    m_distance = max(float(scan.distances[m]), MIN_M_DISTANCE)
    return SideReading(
        interval=interval,
        m_index=m,
        cylinder=cyl,
        degenerate=degenerate,
        c_current=c_current,
        m_distance=m_distance,
        inner_angle=float(scan.angles[inner]),
    )


def avoidance_update(
    scan: LidarScan,
    states: tuple[AvoidanceState, AvoidanceState],
    params: StreamParams,
) -> AvoidanceOutcome:
    """One step of the per-side avoidance decision policy.

    Per side: the avoid flag tracks whether a detection interval exists. On
    a rising edge the desired stream value locks to the agent's current
    stream value, floored in magnitude to the side's bound (the
    minimum-clearance streamline). While avoiding, the desired value is held
    as long as the interval's inner angle keeps growing in magnitude (the
    same obstacle sliding outward as it is passed); if a new obstacle appears
    in front the desired value re-locks to the current one. A side with no
    detection resets its memory.

    The cost is the squared stream-value error times the repulsive proximity
    factor, summed over the active sides:
    (c_current - c_desired)^2 * (1/m_distance - 1/d_risk).
    """
    per_side = split_sides(detect_intervals(scan, params.d_risk), scan)
    new_states = [AvoidanceState(), AvoidanceState()]
    readings: list[SideReading | None] = [None, None]
    cost = 0.0
    for side in (Side.LHS, Side.RHS):
        interval = per_side[side]
        if interval is None:
            continue
        prev = states[side]
        rd = _read_side(scan, interval, side, params)
        # same obstacle sliding outward: hold the desired value; otherwise
        # (a rising edge, or a new obstacle in front) lock to the current one
        remembered = prev.avoid and prev.c_desired is not None and prev.prev_inner_angle is not None
        if remembered and abs(rd.inner_angle) > abs(prev.prev_inner_angle):
            c_desired = prev.c_desired
        else:
            bound = stream_bound(rd.cylinder, params.d_stop, params.flow_strength, side)
            c_desired = bound if abs(rd.c_current) < abs(bound) else rd.c_current
        new_states[side] = AvoidanceState(
            avoid=True, c_desired=c_desired, prev_inner_angle=rd.inner_angle
        )
        readings[side] = rd
        err = rd.c_current - c_desired
        cost += err * err * (1.0 / rd.m_distance - 1.0 / params.d_risk)
    return AvoidanceOutcome(tuple(new_states), tuple(readings), cost)


class StreamAvoider:
    """Stateful per-agent wrapper around avoidance_update."""

    def __init__(self, params: StreamParams):
        self.params = params
        self.reset()

    def reset(self) -> None:
        self.states: tuple[AvoidanceState, AvoidanceState] = (AvoidanceState(), AvoidanceState())

    def update(self, scan: LidarScan) -> AvoidanceOutcome:
        outcome = avoidance_update(scan, self.states, self.params)
        self.states = outcome.states
        return outcome
