"""Unicycle kinematics with control, speed and turn-rate saturation.

The state is [x, y, v, alpha, omega]; the controls are the raw pair
(acceleration, angular acceleration), which only ``step`` saturates, to
+-``a_max`` / +-``beta_max``. One step advances the position along the exact
circular arc swept during dt, then integrates v, alpha, omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .geom import Angle, Vec2, _finite, _real, wrap_angle

# Below this |omega| the arc displacement switches to its second-order
# Taylor form to avoid dividing by a vanishing turn rate.
OMEGA_SINGULARITY = 1e-6


@dataclass(frozen=True)
class Limits:
    """Per-role saturation bounds, each a positive setting by ``geom._real``,
    stored as a plain float: ``step``'s clamps would pass a NaN bound
    through, and a bool or an array one as the state's value."""

    v_max: float
    omega_max: float
    a_max: float
    beta_max: float

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, _real(field.name, getattr(self, field.name)))


@dataclass(frozen=True)
class AgentState:
    """One agent's pose and rates, stored as given; a ``v``, ``alpha`` or
    ``omega`` that is not finite raises ValueError naming it, as Vec2 does."""

    position: Vec2
    v: float
    alpha: Angle
    omega: float

    def __post_init__(self):
        _finite("AgentState.v", self.v)
        _finite("AgentState.alpha", self.alpha)
        _finite("AgentState.omega", self.omega)


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


def step(state: AgentState, u: tuple[float, float], dt: float, limits: Limits) -> AgentState:
    """Advance one agent by dt under the raw controls ``u = (accel,
    angular_accel)``.

    The position moves along the arc defined by the current (v, alpha,
    omega); v, alpha, omega then integrate the controls, each saturated to
    its bound in ``limits``. A dt that is not positive and finite, or a
    control value that is not finite, raises ValueError naming it.
    """
    accel, angular_accel = u
    dt = _real("dt", dt)
    accel, angular_accel = _finite("u.accel", accel), _finite("u.angular_accel", angular_accel)
    accel = min(max(accel, -limits.a_max), limits.a_max)
    angular_accel = min(max(angular_accel, -limits.beta_max), limits.beta_max)
    dx, dy = arc_displacement(state.v, state.alpha, state.omega, dt)
    x = state.position.x + dx
    y = state.position.y + dy
    v = min(max(state.v + dt * accel, 0.0), limits.v_max)
    alpha = wrap_angle(state.alpha + dt * state.omega)
    omega = min(max(state.omega + dt * angular_accel, -limits.omega_max), limits.omega_max)
    return AgentState(Vec2(x, y), v, alpha, omega)
