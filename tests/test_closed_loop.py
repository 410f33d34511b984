"""The stream avoider in closed loop: sense, read the sides, act, step.

One follower cruises at 0.3 m/s along +x toward one noiseless cylinder at
(2, delta). Each step casts the lidar (``raycast``), reads the sides through
``env.StreamSides``, applies the avoidance branch of ``Env.scripted_actions``
(turn at ``-STREAM_GAIN`` times the summed stream error while a side is
active, else steer back to heading 0) and moves with ``dynamics.step`` at
the follower limits. Every piece has its own oracle elsewhere, and
``TestStreamlineFollowing`` steers a bare kinematic particle; this checks that
the env's reading and ``dynamics.step`` together clear the cylinder, and do
so the same way on either side of it.
"""

import math

import numpy as np
import pytest

from streamform import env
from streamform.dynamics import AgentState, step
from streamform.geom import Vec2
from streamform.sensing import LidarConfig, ObstacleSet, raycast

LIDAR = LidarConfig(noise_std=0.0)
RNG = np.random.default_rng(0)  # LIDAR draws no noise from it
STEPS = 120
OFFSETS = (0.0, 0.05, 0.15, 0.3)
RADII = (0.1, 0.25)


def min_clearance(delta: float, radius: float) -> float:
    """Smallest distance from the follower's centre to the cylinder's edge
    over STEPS steps; fails if a scan reports the follower inside it."""
    world = ObstacleSet(np.array([[2.0, delta]]), np.array([radius]))
    sides = env.StreamSides()
    a = AgentState(Vec2(0.0, 0.0), 0.3, 0.0, 0.0)
    clearance = math.inf
    for _ in range(STEPS):
        scan = raycast(a.position, a.alpha, world, LIDAR, RNG)
        assert not scan.agent_inside, f"collided at {a.position}"
        feats, _ = sides.read(scan)
        if feats[0] or feats[4]:  # a side is active; feats[1] and feats[5] are the stream errors
            omega = -env.STREAM_GAIN * (feats[1] + feats[5])
        else:
            omega = -env.HEADING_GAIN * math.remainder(a.alpha, 2 * math.pi)
        omega = min(max(omega, -env.LIMITS.omega_max), env.LIMITS.omega_max)
        a = step(a, (0.0, (omega - a.omega) / env.DT), env.DT, env.LIMITS)
        clearance = min(clearance, math.hypot(a.position.x - 2.0, a.position.y - delta) - radius)
    return clearance


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("delta", OFFSETS)
def test_the_stream_law_clears_one_cylinder_the_same_on_either_side(delta, radius):
    left, right = min_clearance(delta, radius), min_clearance(-delta, radius)
    assert left >= 0.25
    assert left == pytest.approx(right, abs=1e-9)
