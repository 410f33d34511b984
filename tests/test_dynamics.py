import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamform.dynamics import AgentState, Limits, arc_displacement, step
from streamform.geom import Vec2

LIM = Limits(v_max=0.5, omega_max=0.2, a_max=0.5, beta_max=0.5)
# LIM with room for the 1 m/s the straight-line cases start at
FAST = replace(LIM, v_max=1.0)
REST = AgentState(Vec2(0.0, 0.0), v=0.0, alpha=0.0, omega=0.0)
NO_U = (0.0, 0.0)


def test_straight_line_step():
    s = AgentState(Vec2(0, 0), v=1.0, alpha=0.0, omega=0.0)
    out = step(s, NO_U, 0.1, FAST)
    assert out.position.x == pytest.approx(0.1, abs=1e-15)
    assert out.position.y == pytest.approx(0.0, abs=1e-15)


def test_tiny_omega_matches_zero_omega():
    s0 = AgentState(Vec2(0, 0), v=1.0, alpha=0.3, omega=0.0)
    s1 = AgentState(Vec2(0, 0), v=1.0, alpha=0.3, omega=1e-9)
    p0 = step(s0, NO_U, 0.1, FAST).position
    p1 = step(s1, NO_U, 0.1, FAST).position
    assert math.hypot(p0.x - p1.x, p0.y - p1.y) < 1e-6


def test_pure_rotation():
    s = AgentState(Vec2(1, 2), v=0.0, alpha=0.5, omega=0.2)
    out = step(s, NO_U, 0.1, LIM)
    assert out.position == Vec2(1, 2)
    assert out.alpha == pytest.approx(0.52, abs=1e-15)


def test_forward_at_half_pi_increases_y():
    s = AgentState(Vec2(0, 0), v=1.0, alpha=math.pi / 2, omega=0.05)
    out = step(s, NO_U, 0.1, FAST)
    assert out.position.y > 0.09


def clip(value, bound):
    return float(np.clip(value, -bound, bound))


class TestClampControls:
    """``step`` clamps the raw controls; a roomy v_max and omega_max let the
    clamped values show in v and omega."""

    ROOMY = Limits(v_max=10.0, omega_max=10.0, a_max=0.5, beta_max=0.5)
    START = AgentState(Vec2(0.3, -0.2), v=1.0, alpha=0.4, omega=0.1)

    def controls_seen(self, u, dt=0.1):
        out = step(self.START, u, dt, self.ROOMY)
        return (out.v - self.START.v) / dt, (out.omega - self.START.omega) / dt

    def test_zero(self):
        assert self.controls_seen((0.0, 0.0)) == (0.0, 0.0)

    def test_saturation(self):
        accel, turn = self.controls_seen((10.0, 0.0))
        assert accel == pytest.approx(0.5, rel=1e-12) and turn == 0.0

    def test_mixed(self):
        accel, turn = self.controls_seen((-0.3, 0.7))
        assert accel == pytest.approx(-0.3, rel=1e-12)
        assert turn == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("u", [(0.5, -0.5), (-0.5, 0.5), (0.49, -0.2)])
    def test_controls_at_or_inside_the_bounds_pass_unchanged(self, u):
        assert self.controls_seen(u) == pytest.approx(u, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
        st.floats(0.0, 0.5),
        st.floats(-math.pi, math.pi),
        st.floats(-0.2, 0.2),
    )
    def test_raw_controls_step_as_their_clipped_pair(self, accel, turn, v, alpha, omega):
        # raw controls up to 10x the bounds give the same state, bit for bit,
        # as the controls clipped to +-a_max / +-beta_max
        state = AgentState(Vec2(0.3, -0.2), v, alpha, omega)
        clipped = (clip(accel, LIM.a_max), clip(turn, LIM.beta_max))
        assert step(state, (accel, turn), 0.1, LIM) == step(state, clipped, 0.1, LIM)


def test_omega_continuity_near_zero():
    rng = np.random.default_rng(42)
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
    s = REST
    for _ in range(500):
        s = step(s, (rng.uniform(-2, 2), rng.uniform(-2, 2)), 0.1, LIM)
        assert 0.0 <= s.v <= LIM.v_max
        assert abs(s.omega) <= LIM.omega_max
        assert -math.pi < s.alpha <= math.pi


def test_noiseless_determinism():
    s = AgentState(Vec2(0.3, -0.2), v=0.4, alpha=1.1, omega=-0.1)
    u = (0.2, -0.3)
    a = step(s, u, 0.1, LIM)
    b = step(s, u, 0.1, LIM)
    assert a == b


def test_nonpositive_dt_rejected():
    with pytest.raises(ValueError):
        step(REST, NO_U, 0.0, LIM)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_non_finite_dt_rejected(dt):
    # used to raise "cannot wrap non-finite angle" from deep inside the step
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        step(replace(REST, v=0.1, omega=0.1), NO_U, dt, LIM)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["accel", "angular_accel"])
def test_non_finite_control_rejected(field, bad):
    # a NaN accel used to come back as v = nan; an infinite one is refused
    # too, not saturated
    u = {"accel": (bad, 0.0), "angular_accel": (0.0, bad)}[field]
    with pytest.raises(ValueError, match=f"u.{field} must be finite"):
        step(REST, u, 0.1, LIM)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["position.x", "position.y", "v", "alpha", "omega"])
def test_non_finite_state_rejected(field, bad):
    # v = nan used to step to an all-NaN state, alpha = inf to a bare "math
    # domain error"; such a state is now refused as it is built
    values = {"position.x": 0.3, "position.y": -0.2, "v": 0.4, "alpha": 1.1, "omega": -0.1}
    values[field] = bad
    x, y = values.pop("position.x"), values.pop("position.y")
    name = {"position.x": "Vec2.x", "position.y": "Vec2.y"}.get(field, f"AgentState.{field}")
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite")):
        AgentState(Vec2(x, y), **values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("field", ["v_max", "omega_max", "a_max", "beta_max"])
def test_limits_reject_a_bound_not_positive_and_finite(field, bad):
    # with v_max=nan a step from v = 0.3 at accel 0.5 used to return v = 0.35
    # past the cap, and with v_max=-1.0 a negative speed
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        replace(LIM, **{field: bad})
