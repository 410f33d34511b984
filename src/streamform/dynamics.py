"""Unicycle kinematics with speed and turn-rate saturation.

The state is [x, y, v, alpha, omega]; controls are acceleration and angular
acceleration. One step advances the position along the exact circular arc
swept during dt, then integrates v, alpha, omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import Angle, Vec2, wrap_angle

# Below this |omega| the arc displacement switches to its second-order
# Taylor form to avoid dividing by a vanishing turn rate.
OMEGA_SINGULARITY = 1e-6


@dataclass(frozen=True)
class Limits:
    """Per-role saturation bounds."""

    v_max: float = 0.5
    omega_max: float = 0.2
    a_max: float = 0.5
    beta_max: float = 0.5


@dataclass(frozen=True)
class AgentState:
    position: Vec2 = Vec2(0.0, 0.0)
    v: float = 0.0
    alpha: Angle = 0.0
    omega: float = 0.0


@dataclass(frozen=True)
class ControlInput:
    accel: float = 0.0
    angular_accel: float = 0.0


def arc_displacement(v: float, alpha: float, omega: float, dt: float) -> tuple[float, float]:
    """Displacement of a unicycle moving at constant (v, omega) for dt."""
    if abs(omega) < OMEGA_SINGULARITY:
        # second-order Taylor expansion of the exact arc in omega*dt
        half = 0.5 * omega * dt
        dx = v * dt * (math.cos(alpha) - half * math.sin(alpha))
        dy = v * dt * (math.sin(alpha) + half * math.cos(alpha))
    else:
        turned = alpha + omega * dt
        dx = (v / omega) * (math.sin(turned) - math.sin(alpha))
        dy = (v / omega) * (math.cos(alpha) - math.cos(turned))
    return dx, dy


def clamp_controls(accel: float, angular_accel: float, limits: Limits) -> ControlInput:
    """Saturate raw controls component-wise; never rejects."""
    a = min(max(accel, -limits.a_max), limits.a_max)
    b = min(max(angular_accel, -limits.beta_max), limits.beta_max)
    return ControlInput(a, b)


def step(state: AgentState, u: ControlInput, dt: float, limits: Limits) -> AgentState:
    """Advance one agent by dt.

    The position moves along the arc defined by the current (v, alpha,
    omega); v, alpha, omega then integrate the controls with saturation.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    dx, dy = arc_displacement(state.v, state.alpha, state.omega, dt)
    x = state.position.x + dx
    y = state.position.y + dy
    v = min(max(state.v + dt * u.accel, 0.0), limits.v_max)
    alpha = wrap_angle(state.alpha + dt * state.omega)
    omega = min(max(state.omega + dt * u.angular_accel, -limits.omega_max), limits.omega_max)
    return AgentState(Vec2(x, y), v, alpha, omega)
