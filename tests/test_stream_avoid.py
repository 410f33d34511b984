import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from streamform.geom import Vec2, circumcenter
from streamform.sensing import (
    LidarConfig,
    LidarScan,
    ObstacleSet,
    detect_intervals,
    raycast,
    shortest_ray,
)
from streamform.stream_avoid import (
    DEFAULT_CYL_PAD,
    DEFAULT_CYL_RADIUS,
    SINGULARITY_EPS,
    AvoidanceState,
    StreamAvoider,
    StreamParams,
    stream_bound,
    stream_value,
)

CFG = LidarConfig(noise_std=0.0)
RNG = np.random.default_rng(0)  # CFG draws no noise from it
PARAMS = StreamParams()
LEFT, RIGHT = 0, 1  # side indices, in split_sides' order


def scan_of(world_obstacles, pos=Vec2(0, 0), heading=0.0):
    """Noise-free scan of a world given as (center, radius) pairs."""
    centers = np.reshape([[c.x, c.y] for c, _ in world_obstacles], (-1, 2))
    radii = np.array([r for _, r in world_obstacles])
    return raycast(pos, heading, ObstacleSet(centers, radii), CFG, RNG)


def endpoint(scan, i):
    """Agent-frame (x, y) endpoint of ray i."""
    d, a = float(scan.distances[i]), float(scan.angles[i])
    return d * math.cos(a), d * math.sin(a)


def fallback_cylinder(scan, m):
    """((x, y), radius) of the minimum-size circle pushed DEFAULT_CYL_PAD
    past ray m's endpoint along that ray."""
    d = scan.distances[m] + DEFAULT_CYL_PAD
    return (d * math.cos(scan.angles[m]), d * math.sin(scan.angles[m])), DEFAULT_CYL_RADIUS


def update(scan, states):
    """``StreamAvoider.update`` on ``scan`` from the per-side memory ``states``."""
    avoider = StreamAvoider(PARAMS)
    avoider.states = states
    return avoider.update(scan)


def make_scan(distances):
    d = np.full(CFG.n_rays, CFG.d_max)
    for idx, val in distances.items():
        d[idx] = val
    return LidarScan(d)


class TestStreamParams:
    def test_fixed_ranges_meet_their_conditions(self):
        # a d_risk at or past the lidar's range would make an empty world
        # read as one obstacle across the fan
        assert 0.0 < StreamParams.d_stop < StreamParams.d_risk < LidarConfig.d_max

    @pytest.mark.parametrize("field", ["d_risk", "d_stop"])
    def test_ranges_are_not_settable(self, field):
        # StreamParams(d_risk=5.0) used to be accepted
        with pytest.raises(TypeError):
            StreamParams(**{field: 5.0})


class TestStreamValue:
    def test_zero_on_boundary(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            r = rng.uniform(0.1, 5.0)
            phi = rng.uniform(-math.pi, math.pi)
            assert abs(stream_value(r * math.cos(phi), r * math.sin(phi), r)) < 1e-12 * r

    def test_zero_on_axis(self):
        for x in (-3.0, -0.5, 0.7, 10.0):
            assert stream_value(x, 0.0, 0.3) == 0.0

    def test_point_above_cylinder(self):
        # direct substitution: psi(0, 2r) = 2r*(1 - r^2/4r^2) = 1.5*r
        r = 0.4
        assert stream_value(0.0, 2 * r, r) == pytest.approx(1.5 * r, rel=1e-12)

    def test_singularity_raises(self):
        with pytest.raises(ValueError, match="doublet singularity"):
            stream_value(0.0, 0.0, 0.3)
        with pytest.raises(ValueError, match="doublet singularity"):
            stream_value(1e-10, 0.0, 0.3)


class TestEstimateCylinder:
    """The cylinder fit: the circumcenter of an interval's three endpoints."""

    def test_symmetric_endpoints_center_on_axis(self):
        (_, y), _ = circumcenter((1, 0.25), (0.7, 0.0), (1, -0.25))
        assert y == pytest.approx(0.0, abs=1e-12)

    def test_three_points_on_circle_recover_it(self):
        (x, y), r = (1.2, -0.4), 0.35
        pts = [(x + r * math.cos(a), y + r * math.sin(a)) for a in (2.6, 3.1, 3.7)]
        (gx, gy), radius = circumcenter(*pts)
        assert math.hypot(gx - x, gy - y) < 1e-12
        assert radius == pytest.approx(r, abs=1e-12)

    def test_noisy_circle_monte_carlo(self):
        # known circle r=0.3 sampled with Gaussian endpoint noise; the
        # fitted radius must stay centered on the truth within the
        # Monte-Carlo propagated spread of the construction
        rng = np.random.default_rng(17)
        (x, y), r, sigma = (1.0, 0.0), 0.3, 0.005

        def sample(angles):
            pts = [
                (
                    x + r * math.cos(a) + rng.normal(0, sigma),
                    y + r * math.sin(a) + rng.normal(0, sigma),
                )
                for a in angles
            ]
            return circumcenter(*pts)[1]

        wide = np.array(
            [sample((math.radians(120), math.radians(180), math.radians(240))) for _ in range(1000)]
        )
        # well-conditioned arc: nearly unbiased, tight spread
        assert abs(wide.mean() - r) < 0.005
        assert wide.std() < 0.05
        shallow = np.array(
            [sample((math.radians(160), math.radians(180), math.radians(200))) for _ in range(1000)]
        )
        # shallow arc: heavy-tailed, so only the median is trustworthy
        assert abs(np.median(shallow) - r) < 0.05


class TestShortestInteriorRay:
    """The ray a side reading measures from: shortest_ray over the rays
    strictly inside its interval, start + 1 to end - 1."""

    def test_simple(self):
        scan = make_scan({4: 0.9, 5: 0.5, 6: 0.8})
        assert shortest_ray(scan, 5, 6) == 5

    def test_tie_breaks_low(self):
        scan = make_scan({4: 0.9, 5: 0.5, 6: 0.5, 7: 0.9})
        assert shortest_ray(scan, 5, 7) == 5

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(23)
        fresh = (AvoidanceState(), AvoidanceState())
        for _ in range(300):
            start = int(rng.integers(0, 40))
            end = start + int(rng.integers(2, 15))
            d = np.full(CFG.n_rays, CFG.d_max)
            d[start : end + 1] = rng.uniform(0.1, 0.69, end - start + 1)
            scan = LidarScan(d)
            interior = list(range(start + 1, end))
            want = min(interior, key=lambda i: (d[i], i))
            assert shortest_ray(scan, start + 1, end) == want
            # the one interval's reading, on whichever side, measures from it
            (rd,) = [r for r in update(scan, fresh).readings if r is not None]
            assert rd.interval == (start, end) and rd.m_index == want


class TestStreamBound:
    def test_far_field_limit(self):
        got = stream_bound((100.0, 50.0), 0.3, LEFT)
        # far from the doublet the field is just y_point - y_center
        assert got == pytest.approx(-0.4 - 50.0, rel=1e-4)

    def test_singular_guard_default(self):
        assert stream_bound((0.0, -0.4), 0.2, LEFT) == -0.4
        assert stream_bound((0.0, 0.4), 0.2, RIGHT) == 0.4

    def test_odd_symmetry_between_sides(self):
        bl = stream_bound((0.8, 0.3), 0.25, LEFT)
        br = stream_bound((0.8, -0.3), 0.25, RIGHT)
        assert bl == pytest.approx(-br, rel=1e-12)


class TestAvoidanceCost:
    """The cost StreamAvoider.update returns for a side that holds a given
    desired stream value: an arc of returns at 0.35 m on the right side,
    whose inner angle is larger in magnitude than the held 0.0."""

    @staticmethod
    def held(c_desired):
        scan = make_scan({i: 0.35 for i in range(20, 25)})
        fresh = (AvoidanceState(), AvoidanceState())
        rd = update(scan, fresh).readings[RIGHT]
        held = AvoidanceState(c_desired=c_desired(rd.c_current), prev_inner_angle=0.0)
        out = update(scan, (AvoidanceState(), held))
        # the side held its desired value rather than re-locking
        assert out.states[RIGHT] == AvoidanceState(held.c_desired, rd.inner_angle)
        return out

    def test_zero_when_on_desired_streamline(self):
        assert self.held(lambda c: c).cost == 0.0

    def test_arithmetic(self):
        # (0.5)^2 * (1/0.35 - 1/0.7) = 0.25 * 10/7 = 5/14
        assert self.held(lambda c: c - 0.5).cost == pytest.approx(5.0 / 14.0, rel=1e-12)

    def test_nonnegative_within_risk_range(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            world = [
                (Vec2(rng.uniform(-0.5, 2.0), rng.uniform(-1.5, 1.5)), rng.uniform(0.05, 0.6))
                for _ in range(n)
            ]
            held = tuple(
                AvoidanceState(c_desired=float(rng.normal()), prev_inner_angle=0.0)
                for _ in range(2)
            )
            assert update(scan_of(world), held).cost >= 0.0


class TestAvoidanceUpdate:
    def test_empty_world(self):
        scan = scan_of([])
        out = update(scan, (AvoidanceState(), AvoidanceState()))
        assert not out.states[0].avoid and not out.states[1].avoid
        assert out.cost == 0.0
        assert out.readings == (None, None)

    def test_rising_edge_locks_floored_stream_value(self):
        scan = scan_of([(Vec2(0.8, 0.35), 0.25)])
        out = update(scan, (AvoidanceState(), AvoidanceState()))
        st, rd = out.states[LEFT], out.readings[LEFT]
        assert st.avoid and rd is not None
        assert not out.states[RIGHT].avoid
        bound = stream_bound(rd.center, rd.radius, LEFT)
        if abs(rd.c_current) >= abs(bound):
            assert st.c_desired == rd.c_current
            assert out.cost == 0.0
        else:
            assert st.c_desired == bound
        # cost always matches the closed form
        expected = (rd.c_current - st.c_desired) ** 2 * (1 / rd.m_distance - 1 / PARAMS.d_risk)
        assert out.cost == pytest.approx(expected, rel=1e-12)

    def test_identity_hold_keeps_desired_bitwise(self):
        world = [(Vec2(0.8, 0.3), 0.25)]
        s1 = scan_of(world, pos=Vec2(0, 0))
        out1 = update(s1, (AvoidanceState(), AvoidanceState()))
        # agent advances, obstacle slides outward: inner angle magnitude grows
        s2 = scan_of(world, pos=Vec2(0.25, -0.1))
        out2 = update(s2, out1.states)
        rd1, rd2 = out1.readings[LEFT], out2.readings[LEFT]
        assert abs(rd2.inner_angle) > abs(rd1.inner_angle)
        assert out2.states[LEFT].c_desired == out1.states[LEFT].c_desired

    def test_avoider_carries_its_memory_between_updates(self):
        world = [(Vec2(0.8, 0.3), 0.25)]
        s1, s2 = scan_of(world), scan_of(world, pos=Vec2(0.25, -0.1))
        avoider = StreamAvoider(PARAMS)
        out1 = avoider.update(s1)
        assert avoider.states == out1.states and out1.states[LEFT].avoid
        assert avoider.update(s2) == update(s2, out1.states)
        avoider.reset()
        assert avoider.states == (AvoidanceState(), AvoidanceState())

    def test_cost_matches_hand_formula_when_displaced(self):
        world = [(Vec2(0.8, 0.3), 0.25)]
        out1 = update(scan_of(world), (AvoidanceState(), AvoidanceState()))
        pos2 = Vec2(0.25, -0.1)
        s2 = scan_of(world, pos=pos2)
        out2 = update(s2, out1.states)
        rd2 = out2.readings[LEFT]
        # independent recomputation of the cost pieces from the raw scan
        start, end = rd2.interval
        m = rd2.m_index
        (cx, cy), radius = circumcenter(endpoint(s2, start), endpoint(s2, m), endpoint(s2, end))
        c_now = 1.0 * (-cy) * (1 - radius**2 / (cx * cx + cy * cy))
        d_m = float(s2.distances[m])
        expected = (c_now - out1.states[LEFT].c_desired) ** 2 * (1 / d_m - 1 / 0.7)
        assert out2.cost == pytest.approx(expected, rel=1e-12)

    def test_new_obstacle_relocks(self):
        # first a wide-angle obstacle, then one closer to the axis
        s1 = scan_of([(Vec2(0.5, 0.45), 0.2)])
        out1 = update(s1, (AvoidanceState(), AvoidanceState()))
        s2 = scan_of([(Vec2(0.65, 0.15), 0.2)])
        out2 = update(s2, out1.states)
        rd2 = out2.readings[LEFT]
        assert abs(rd2.inner_angle) <= abs(out1.readings[LEFT].inner_angle)
        bound = stream_bound(rd2.center, rd2.radius, LEFT)
        expected = rd2.c_current if abs(rd2.c_current) >= abs(bound) else bound
        assert out2.states[LEFT].c_desired == expected

    def test_side_resets_when_clear(self):
        out1 = update(scan_of([(Vec2(0.6, 0.3), 0.2)]), (AvoidanceState(), AvoidanceState()))
        assert out1.states[LEFT].avoid
        out2 = update(scan_of([]), out1.states)
        assert out2.states[LEFT] == AvoidanceState()
        assert out2.cost == 0.0

    def test_degenerate_triangle_uses_the_fallback_cylinder(self):
        # vertical wall at x=0.5: all endpoints share an x coordinate
        idx = range(28, 33)
        scan = make_scan({i: 0.5 / math.cos(CFG.angles[i]) for i in idx})
        out = update(scan, (AvoidanceState(), AvoidanceState()))
        active = [s for s in (LEFT, RIGHT) if out.readings[s] is not None]
        assert len(active) == 1
        rd = out.readings[active[0]]
        assert rd.degenerate
        assert (rd.center, rd.radius) == fallback_cylinder(scan, rd.m_index)

    def test_agent_centred_cylinder_uses_the_fallback_cylinder(self):
        # a concentric arc: the circumcenter of its endpoints is the agent
        scan = make_scan({i: 0.5 for i in range(26, 31)})
        out = update(scan, (AvoidanceState(), AvoidanceState()))
        active = [s for s in (LEFT, RIGHT) if out.readings[s] is not None]
        assert len(active) == 1
        rd = out.readings[active[0]]
        start, end = rd.interval
        ends = (endpoint(scan, start), endpoint(scan, rd.m_index), endpoint(scan, end))
        center, _ = circumcenter(*ends)
        assert math.hypot(*center) < SINGULARITY_EPS
        assert rd.degenerate
        assert (rd.center, rd.radius) == fallback_cylinder(scan, rd.m_index)

    def test_missing_memory_treated_as_rising_edge(self):
        # a state holding one memory but not the other is not avoiding, so
        # the side re-locks, even where holding 5.0 would have applied
        scan = scan_of([(Vec2(0.8, 0.35), 0.25)])
        for half_set in (AvoidanceState(c_desired=5.0), AvoidanceState(prev_inner_angle=0.0)):
            assert not half_set.avoid
            out = update(scan, (half_set, AvoidanceState()))
            rd = out.readings[LEFT]
            bound = stream_bound(rd.center, rd.radius, LEFT)
            expected = rd.c_current if abs(rd.c_current) >= abs(bound) else bound
            assert out.states[LEFT] == AvoidanceState(expected, rd.inner_angle)

    def test_two_obstacles_one_each_side(self):
        scan = scan_of([(Vec2(0.7, 0.35), 0.2), (Vec2(0.7, -0.35), 0.2)])
        out = update(scan, (AvoidanceState(), AvoidanceState()))
        assert out.states[LEFT].avoid and out.states[RIGHT].avoid
        assert out.readings[LEFT] is not None
        assert out.readings[RIGHT] is not None
        expected = sum(
            (rd.c_current - st.c_desired) ** 2 * (1 / rd.m_distance - 1 / PARAMS.d_risk)
            for st, rd in zip(out.states, out.readings)
        )
        assert out.cost == pytest.approx(expected, rel=1e-12)



def decided_by_a_tie_rule(scan):
    """True when a tie rule, which the mirrored scan does not mirror, picks
    a side or a shortest ray: an interval whose shortest ray is not unique
    (shortest_ray keeps the lower index), or one crossing the heading axis
    whose shortest ray is dead ahead (split_sides sends it left)."""
    for start, end in detect_intervals(scan, PARAMS.d_risk):
        for d in (scan.distances[start : end + 1], scan.distances[start + 1 : end]):
            if np.count_nonzero(d == d.min()) > 1:
                return True
        if scan.angles[start] <= 0.0 <= scan.angles[end]:
            if scan.angles[shortest_ray(scan, start, end + 1)] == 0.0:
                return True
    return False


class TestMirrorProperty:
    """Sensing to avoidance on noise-free scans from a fresh avoider state."""

    obstacle = st.tuples(st.floats(-0.5, 2.5), st.floats(-2.0, 2.0), st.floats(0.05, 0.6))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(obstacle, min_size=1, max_size=6))
    def test_mirror_in_y_swaps_sides_and_keeps_cost(self, obstacles):
        scan = scan_of([(Vec2(x, y), r) for x, y, r in obstacles])
        mirrored = scan_of([(Vec2(x, -y), r) for x, y, r in obstacles])
        assume(not decided_by_a_tie_rule(scan))
        fresh = (AvoidanceState(), AvoidanceState())
        out = update(scan, fresh)
        out_m = update(mirrored, fresh)
        flags = [s.avoid for s in out.states]
        assert flags == [s.avoid for s in reversed(out_m.states)]
        assert out.cost >= 0.0
        assert out_m.cost == pytest.approx(out.cost, rel=1e-9)


def steer_along_streamlines(obstacle_y, steps=140, gain=3.0):
    """Kinematic particle steered by a proportional law on the stream error."""
    center, r = Vec2(1.5, obstacle_y), 0.3
    world = ObstacleSet(np.array([[center.x, center.y]]), np.array([r]))
    pos, heading, v, dt = Vec2(0.0, 0.0), 0.0, 0.3, 0.1
    avoider = StreamAvoider(PARAMS)
    headings = [heading]
    clearances = []
    for _ in range(steps):
        scan = raycast(pos, heading, world, CFG, RNG)
        out = avoider.update(scan)
        err = sum(
            rd.c_current - st.c_desired
            for st, rd in zip(out.states, out.readings)
            if st.avoid and rd is not None
        )
        if out.states[0].avoid or out.states[1].avoid:
            omega = -gain * err
        else:
            omega = -2.0 * heading  # settle back onto the original course
        omega = max(-1.5, min(1.5, omega))
        heading += omega * dt
        pos = Vec2(pos.x + v * dt * math.cos(heading), pos.y + v * dt * math.sin(heading))
        headings.append(heading)
        clearances.append(math.hypot(pos.x - center.x, pos.y - center.y) - r)
    return np.array(headings), np.array(clearances)


class TestStreamlineFollowing:
    @pytest.mark.parametrize("obstacle_y", [0.2, 0.0, -0.15])
    def test_never_enters_cylinder_and_turns_smoothly(self, obstacle_y):
        headings, clearances = steer_along_streamlines(obstacle_y)
        assert clearances.min() > 0.1
        # one-sided swerve: monotone turn-out toward the extreme heading,
        # never overshooting past it afterwards, then recovery
        extreme = int(np.argmax(np.abs(headings)))
        sign = math.copysign(1.0, headings[extreme])
        turn_out = np.diff(headings[: extreme + 1]) * sign
        assert np.all(turn_out >= -1e-12)
        assert np.all(headings[extreme:] * sign <= abs(headings[extreme]) + 1e-12)
        assert abs(headings[-1]) < 0.05
