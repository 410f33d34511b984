"""Stochastic unicycle kinematics with speed and turn-rate saturation.

The state is [x, y, v, alpha, omega]; controls are acceleration and angular
acceleration. One step advances the position along the exact circular arc
swept during dt, then integrates v, alpha, omega, then adds Gaussian state
noise whose position components are expressed in the agent's local frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


class StateNoise:
    """Zero-mean Gaussian noise with a 5x5 PSD covariance.

    Component order matches the state: [x, y, v, alpha, omega]; the x/y
    entries are interpreted in the agent's local frame.
    """

    def __init__(self, covariance: np.ndarray):
        cov = np.asarray(covariance, dtype=float)
        if cov.shape != (5, 5):
            raise ValueError(f"covariance must be 5x5, got {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.min() < -1e-12:
            raise ValueError(f"covariance must be PSD, min eigenvalue {eigvals.min()}")
        self.covariance = cov
        offdiag = cov - np.diag(np.diag(cov))
        if not offdiag.any():
            # keep component alignment for the common diagonal case
            self._factor = np.diag(np.sqrt(np.clip(np.diag(cov), 0.0, None)))
        else:
            vals, vecs = np.linalg.eigh(cov)
            self._factor = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))

    @classmethod
    def from_diagonal(cls, diag) -> "StateNoise":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    @classmethod
    def zero(cls) -> "StateNoise":
        return cls(np.zeros((5, 5)))

    @property
    def is_zero(self) -> bool:
        return not self.covariance.any()

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self._factor @ rng.standard_normal(5)


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


def step(
    state: AgentState,
    u: ControlInput,
    dt: float,
    limits: Limits,
    noise: StateNoise | None = None,
    rng: np.random.Generator | None = None,
) -> AgentState:
    """Advance one agent by dt.

    The position moves along the arc defined by the current (v, alpha,
    omega); v, alpha, omega then integrate the controls with saturation.
    Gaussian noise, if given, is added last: position noise is drawn in the
    local frame and rotated by the new heading into world coordinates.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    dx, dy = arc_displacement(state.v, state.alpha, state.omega, dt)
    x = state.position.x + dx
    y = state.position.y + dy
    v = min(max(state.v + dt * u.accel, 0.0), limits.v_max)
    alpha = wrap_angle(state.alpha + dt * state.omega)
    omega = min(max(state.omega + dt * u.angular_accel, -limits.omega_max), limits.omega_max)

    if noise is not None and rng is not None and not noise.is_zero:
        w = noise.draw(rng)
        c, s = math.cos(alpha), math.sin(alpha)
        x += c * w[0] - s * w[1]
        y += s * w[0] + c * w[1]
        v = min(max(v + w[2], 0.0), limits.v_max)
        alpha = wrap_angle(alpha + w[3])
        omega = min(max(omega + w[4], -limits.omega_max), limits.omega_max)

    return AgentState(Vec2(x, y), v, alpha, omega)
