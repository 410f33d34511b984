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
    SINGULARITY_EPS,
    AvoidanceState,
    Side,
    StreamAvoider,
    StreamParams,
    StreamSingularity,
    VirtualCylinder,
    avoidance_update,
    default_cylinder,
    shortest_interior_ray,
    stream_bound,
    stream_value,
)

CFG = LidarConfig(noise_std=0.0)
PARAMS = StreamParams()


def scan_of(world_obstacles, pos=Vec2(0, 0), heading=0.0):
    """Noise-free scan of a world given as (center, radius) pairs."""
    centers = [[c.x, c.y] for c, _ in world_obstacles]
    radii = [r for _, r in world_obstacles]
    return raycast(pos, heading, ObstacleSet(centers, radii), CFG)


def make_scan(distances):
    d = np.full(CFG.n_rays, CFG.d_max)
    for idx, val in distances.items():
        d[idx] = val
    return LidarScan(CFG.angles.copy(), d)


class TestStreamValue:
    def test_zero_on_boundary(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            r = rng.uniform(0.1, 5.0)
            phi = rng.uniform(-math.pi, math.pi)
            p = Vec2(r * math.cos(phi), r * math.sin(phi))
            assert abs(stream_value(p, r)) < 1e-12 * r

    def test_zero_on_axis(self):
        for x in (-3.0, -0.5, 0.7, 10.0):
            assert stream_value(Vec2(x, 0.0), 0.3) == 0.0

    def test_point_above_cylinder(self):
        # direct substitution: psi(0, 2r) = U*2r*(1 - r^2/4r^2) = 1.5*U*r
        r = 0.4
        assert stream_value(Vec2(0.0, 2 * r), r, 1.0) == pytest.approx(1.5 * r, rel=1e-12)

    def test_singularity_raises(self):
        with pytest.raises(StreamSingularity):
            stream_value(Vec2(0.0, 0.0), 0.3)
        with pytest.raises(StreamSingularity):
            stream_value(Vec2(1e-10, 0.0), 0.3)

    def test_scales_with_flow_strength(self):
        p = Vec2(0.5, 0.8)
        assert stream_value(p, 0.3, 2.5) == pytest.approx(2.5 * stream_value(p, 0.3), rel=1e-12)


class TestEstimateCylinder:
    """The cylinder fit: the circumcenter of an interval's three endpoints."""

    def test_symmetric_endpoints_center_on_axis(self):
        center, _ = circumcenter(Vec2(1, 0.25), Vec2(0.7, 0.0), Vec2(1, -0.25))
        assert center.y == pytest.approx(0.0, abs=1e-12)

    def test_three_points_on_circle_recover_it(self):
        center, r = Vec2(1.2, -0.4), 0.35
        pts = [
            Vec2(center.x + r * math.cos(a), center.y + r * math.sin(a))
            for a in (2.6, 3.1, 3.7)
        ]
        got, radius = circumcenter(*pts)
        assert (got - center).norm() < 1e-12
        assert radius == pytest.approx(r, abs=1e-12)

    def test_noisy_circle_monte_carlo(self):
        # known circle r=0.3 sampled with Gaussian endpoint noise; the
        # fitted radius must stay centered on the truth within the
        # Monte-Carlo propagated spread of the construction
        rng = np.random.default_rng(17)
        center, r, sigma = Vec2(1.0, 0.0), 0.3, 0.005

        def sample(angles):
            pts = [
                Vec2(
                    center.x + r * math.cos(a) + rng.normal(0, sigma),
                    center.y + r * math.sin(a) + rng.normal(0, sigma),
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
    def test_simple(self):
        scan = make_scan({4: 0.9, 5: 0.5, 6: 0.8})
        assert shortest_interior_ray((4, 6), scan) == 5

    def test_tie_breaks_low(self):
        scan = make_scan({4: 0.9, 5: 0.5, 6: 0.5, 7: 0.9})
        assert shortest_interior_ray((4, 7), scan) == 5

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            start = int(rng.integers(0, 40))
            end = start + int(rng.integers(2, 15))
            d = np.full(CFG.n_rays, CFG.d_max)
            d[start : end + 1] = rng.uniform(0.1, 0.69, end - start + 1)
            scan = LidarScan(CFG.angles.copy(), d)
            got = shortest_interior_ray((start, end), scan)
            interior = list(range(start + 1, end))
            want = min(interior, key=lambda i: (d[i], i))
            assert got == want

    def test_too_small_interval_rejected(self):
        scan = make_scan({4: 0.5, 5: 0.5})
        with pytest.raises(ValueError):
            shortest_interior_ray((4, 5), scan)


class TestStreamBound:
    def test_far_field_limit(self):
        cyl = VirtualCylinder(Vec2(100.0, 50.0), 0.3)
        got = stream_bound(cyl, 0.4, 1.0, Side.LHS)
        # far from the doublet the field is just U*(y_point - y_center)
        assert got == pytest.approx(-0.4 - 50.0, rel=1e-4)

    def test_singular_guard_default(self):
        lhs_cyl = VirtualCylinder(Vec2(0.0, -0.4), 0.2)
        assert stream_bound(lhs_cyl, 0.4, 1.0, Side.LHS) == -0.4
        rhs_cyl = VirtualCylinder(Vec2(0.0, 0.4), 0.2)
        assert stream_bound(rhs_cyl, 0.4, 1.0, Side.RHS) == 0.4

    def test_odd_symmetry_between_sides(self):
        cyl_l = VirtualCylinder(Vec2(0.8, 0.3), 0.25)
        cyl_r = VirtualCylinder(Vec2(0.8, -0.3), 0.25)
        bl = stream_bound(cyl_l, 0.4, 1.0, Side.LHS)
        br = stream_bound(cyl_r, 0.4, 1.0, Side.RHS)
        assert bl == pytest.approx(-br, rel=1e-12)


class TestAvoidanceCost:
    """The cost avoidance_update returns for a side that holds a given
    desired stream value: an arc of returns at 0.35 m on the right side,
    whose inner angle is larger in magnitude than the held 0.0."""

    @staticmethod
    def held(c_desired):
        scan = make_scan({i: 0.35 for i in range(20, 25)})
        fresh = (AvoidanceState(), AvoidanceState())
        rd = avoidance_update(scan, fresh, PARAMS).readings[Side.RHS]
        held = AvoidanceState(avoid=True, c_desired=c_desired(rd.c_current), prev_inner_angle=0.0)
        out = avoidance_update(scan, (AvoidanceState(), held), PARAMS)
        # the side held its desired value rather than re-locking
        assert out.states[Side.RHS] == AvoidanceState(True, held.c_desired, rd.inner_angle)
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
                AvoidanceState(avoid=True, c_desired=float(rng.normal()), prev_inner_angle=0.0)
                for _ in range(2)
            )
            assert avoidance_update(scan_of(world), held, PARAMS).cost >= 0.0


class TestAvoidanceUpdate:
    def test_empty_world(self):
        scan = scan_of([])
        out = avoidance_update(scan, (AvoidanceState(), AvoidanceState()), PARAMS)
        assert not out.states[0].avoid and not out.states[1].avoid
        assert out.cost == 0.0
        assert out.readings == (None, None)

    def test_rising_edge_locks_floored_stream_value(self):
        scan = scan_of([(Vec2(0.8, 0.35), 0.25)])
        out = avoidance_update(scan, (AvoidanceState(), AvoidanceState()), PARAMS)
        st, rd = out.states[Side.LHS], out.readings[Side.LHS]
        assert st.avoid and rd is not None
        assert not out.states[Side.RHS].avoid
        bound = stream_bound(rd.cylinder, PARAMS.d_stop, PARAMS.flow_strength, Side.LHS)
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
        out1 = avoidance_update(s1, (AvoidanceState(), AvoidanceState()), PARAMS)
        # agent advances, obstacle slides outward: inner angle magnitude grows
        s2 = scan_of(world, pos=Vec2(0.25, -0.1))
        out2 = avoidance_update(s2, out1.states, PARAMS)
        rd1, rd2 = out1.readings[Side.LHS], out2.readings[Side.LHS]
        assert abs(rd2.inner_angle) > abs(rd1.inner_angle)
        assert out2.states[Side.LHS].c_desired == out1.states[Side.LHS].c_desired

    def test_cost_matches_hand_formula_when_displaced(self):
        world = [(Vec2(0.8, 0.3), 0.25)]
        out1 = avoidance_update(scan_of(world), (AvoidanceState(), AvoidanceState()), PARAMS)
        pos2 = Vec2(0.25, -0.1)
        s2 = scan_of(world, pos=pos2)
        out2 = avoidance_update(s2, out1.states, PARAMS)
        rd2 = out2.readings[Side.LHS]
        # independent recomputation of the cost pieces from the raw scan
        start, end = rd2.interval
        m = rd2.m_index
        center, radius = circumcenter(s2.endpoint(start), s2.endpoint(m), s2.endpoint(end))
        c_now = 1.0 * (-center.y) * (1 - radius**2 / center.norm_sq())
        d_m = float(s2.distances[m])
        expected = (c_now - out1.states[Side.LHS].c_desired) ** 2 * (1 / d_m - 1 / 0.7)
        assert out2.cost == pytest.approx(expected, rel=1e-12)

    def test_new_obstacle_relocks(self):
        # first a wide-angle obstacle, then one closer to the axis
        s1 = scan_of([(Vec2(0.5, 0.45), 0.2)])
        out1 = avoidance_update(s1, (AvoidanceState(), AvoidanceState()), PARAMS)
        s2 = scan_of([(Vec2(0.65, 0.15), 0.2)])
        out2 = avoidance_update(s2, out1.states, PARAMS)
        rd2 = out2.readings[Side.LHS]
        assert abs(rd2.inner_angle) <= abs(out1.readings[Side.LHS].inner_angle)
        bound = stream_bound(rd2.cylinder, PARAMS.d_stop, PARAMS.flow_strength, Side.LHS)
        expected = rd2.c_current if abs(rd2.c_current) >= abs(bound) else bound
        assert out2.states[Side.LHS].c_desired == expected

    def test_side_resets_when_clear(self):
        out1 = avoidance_update(
            scan_of([(Vec2(0.6, 0.3), 0.2)]), (AvoidanceState(), AvoidanceState()), PARAMS
        )
        assert out1.states[Side.LHS].avoid
        out2 = avoidance_update(scan_of([]), out1.states, PARAMS)
        assert out2.states[Side.LHS] == AvoidanceState()
        assert out2.cost == 0.0

    def test_degenerate_triangle_uses_default_cylinder(self):
        # vertical wall at x=0.5: all endpoints share an x coordinate
        idx = range(28, 33)
        scan = make_scan({i: 0.5 / math.cos(CFG.angles[i]) for i in idx})
        out = avoidance_update(scan, (AvoidanceState(), AvoidanceState()), PARAMS)
        active = [s for s in (Side.LHS, Side.RHS) if out.readings[s] is not None]
        assert len(active) == 1
        rd = out.readings[active[0]]
        assert rd.degenerate
        assert rd.cylinder.radius == 0.1
        expected_center = default_cylinder(scan, rd.m_index).center
        assert rd.cylinder.center == expected_center

    def test_cylinder_centred_on_agent_uses_default_cylinder(self):
        # a concentric arc: the circumcenter of its endpoints is the agent
        scan = make_scan({i: 0.5 for i in range(26, 31)})
        out = avoidance_update(scan, (AvoidanceState(), AvoidanceState()), PARAMS)
        active = [s for s in (Side.LHS, Side.RHS) if out.readings[s] is not None]
        assert len(active) == 1
        rd = out.readings[active[0]]
        start, end = rd.interval
        ends = (scan.endpoint(start), scan.endpoint(rd.m_index), scan.endpoint(end))
        center, _ = circumcenter(*ends)
        assert center.norm() < SINGULARITY_EPS
        assert rd.degenerate
        assert rd.cylinder == default_cylinder(scan, rd.m_index)

    def test_missing_memory_treated_as_rising_edge(self):
        scan = scan_of([(Vec2(0.8, 0.35), 0.25)])
        broken = (AvoidanceState(avoid=True, c_desired=None), AvoidanceState())
        out = avoidance_update(scan, broken, PARAMS)
        rd = out.readings[Side.LHS]
        bound = stream_bound(rd.cylinder, PARAMS.d_stop, PARAMS.flow_strength, Side.LHS)
        expected = rd.c_current if abs(rd.c_current) >= abs(bound) else bound
        assert out.states[Side.LHS].c_desired == expected

    def test_two_obstacles_one_each_side(self):
        scan = scan_of([(Vec2(0.7, 0.35), 0.2), (Vec2(0.7, -0.35), 0.2)])
        out = avoidance_update(scan, (AvoidanceState(), AvoidanceState()), PARAMS)
        assert out.states[Side.LHS].avoid and out.states[Side.RHS].avoid
        assert out.readings[Side.LHS] is not None
        assert out.readings[Side.RHS] is not None
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
        out = avoidance_update(scan, fresh, PARAMS)
        out_m = avoidance_update(mirrored, fresh, PARAMS)
        flags = [s.avoid for s in out.states]
        assert flags == [s.avoid for s in reversed(out_m.states)]
        assert out.cost >= 0.0
        assert out_m.cost == pytest.approx(out.cost, rel=1e-9)


def steer_along_streamlines(obstacle_y, steps=140, gain=3.0):
    """Kinematic particle steered by a proportional law on the stream error."""
    center, r = Vec2(1.5, obstacle_y), 0.3
    world = ObstacleSet([[center.x, center.y]], [r])
    pos, heading, v, dt = Vec2(0.0, 0.0), 0.0, 0.3, 0.1
    avoider = StreamAvoider(PARAMS)
    headings = [heading]
    clearances = []
    for _ in range(steps):
        scan = raycast(pos, heading, world, CFG)
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
        clearances.append((pos - center).norm() - r)
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
