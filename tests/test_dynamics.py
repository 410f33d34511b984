import math

import numpy as np
import pytest

from streamform.dynamics import (
    AgentState,
    ControlInput,
    Limits,
    arc_displacement,
    clamp_controls,
    step,
)
from streamform.geom import Vec2

LIM = Limits(v_max=0.5, omega_max=0.2, a_max=0.5, beta_max=0.5)
NO_U = ControlInput(0.0, 0.0)


def test_straight_line_step():
    s = AgentState(Vec2(0, 0), v=1.0, alpha=0.0, omega=0.0)
    out = step(s, NO_U, 0.1, Limits(v_max=1.0))
    assert out.position.x == pytest.approx(0.1, abs=1e-15)
    assert out.position.y == pytest.approx(0.0, abs=1e-15)


def test_tiny_omega_matches_zero_omega():
    s0 = AgentState(Vec2(0, 0), v=1.0, alpha=0.3, omega=0.0)
    s1 = AgentState(Vec2(0, 0), v=1.0, alpha=0.3, omega=1e-9)
    lim = Limits(v_max=1.0)
    p0 = step(s0, NO_U, 0.1, lim).position
    p1 = step(s1, NO_U, 0.1, lim).position
    assert (p0 - p1).norm() < 1e-6


def test_pure_rotation():
    s = AgentState(Vec2(1, 2), v=0.0, alpha=0.5, omega=0.2)
    out = step(s, NO_U, 0.1, LIM)
    assert (out.position - Vec2(1, 2)).norm() == 0.0
    assert out.alpha == pytest.approx(0.52, abs=1e-15)


def test_forward_at_half_pi_increases_y():
    s = AgentState(Vec2(0, 0), v=1.0, alpha=math.pi / 2, omega=0.05)
    out = step(s, NO_U, 0.1, Limits(v_max=1.0))
    assert out.position.y > 0.09


class TestClampControls:
    def test_zero(self):
        u = clamp_controls(0.0, 0.0, LIM)
        assert (u.accel, u.angular_accel) == (0.0, 0.0)

    def test_saturation(self):
        u = clamp_controls(10.0, 0.0, LIM)
        assert (u.accel, u.angular_accel) == (0.5, 0.0)

    def test_mixed(self):
        u = clamp_controls(-0.3, 0.7, LIM)
        assert (u.accel, u.angular_accel) == (-0.3, 0.5)


def test_omega_continuity_near_zero():
    rng = np.random.default_rng(42)
    lim = Limits(v_max=10.0)
    for _ in range(1000):
        v = rng.uniform(0, 5)
        alpha = rng.uniform(-math.pi, math.pi)
        dt = rng.uniform(0.01, 0.5)
        dx, dy = arc_displacement(v, alpha, 1e-8, dt)
        # closed-form straight-line limit
        ex, ey = v * dt * math.cos(alpha), v * dt * math.sin(alpha)
        assert math.hypot(dx - ex, dy - ey) < 1e-5


def test_arc_taylor_agrees_with_exact_at_threshold():
    # at |omega| just below the branch switch, the Taylor form must match
    # the exact arc expressions evaluated at the same omega
    v, alpha, dt = 1.0, 0.7, 0.1
    for omega in (9e-7, -9e-7):
        dx, dy = arc_displacement(v, alpha, omega, dt)
        turned = alpha + omega * dt
        ex = (v / omega) * (math.sin(turned) - math.sin(alpha))
        ey = (v / omega) * (math.cos(alpha) - math.cos(turned))
        assert math.hypot(dx - ex, dy - ey) < 1e-10


def test_speed_stays_nonnegative_and_bounded():
    rng = np.random.default_rng(0)
    s = AgentState()
    for _ in range(500):
        u = clamp_controls(rng.uniform(-2, 2), rng.uniform(-2, 2), LIM)
        s = step(s, u, 0.1, LIM)
        assert 0.0 <= s.v <= LIM.v_max
        assert abs(s.omega) <= LIM.omega_max
        assert -math.pi < s.alpha <= math.pi


def test_noiseless_determinism():
    s = AgentState(Vec2(0.3, -0.2), v=0.4, alpha=1.1, omega=-0.1)
    u = ControlInput(0.2, -0.3)
    a = step(s, u, 0.1, LIM)
    b = step(s, u, 0.1, LIM)
    assert a == b


def test_nonpositive_dt_rejected():
    with pytest.raises(ValueError):
        step(AgentState(), NO_U, 0.0, LIM)
