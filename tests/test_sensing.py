import math

import numpy as np
import pytest

from streamform.geom import Vec2
from streamform.sensing import (
    REACH_MARGIN,
    CommsView,
    LidarConfig,
    LidarScan,
    ObstacleSet,
    detect_intervals,
    neighbor_observations,
    raycast,
    shortest_ray,
    split_sides,
)

CFG = LidarConfig(noise_std=0.0)


def scalar_neighbor_observations(positions, connection_zone):
    """Per-pair loop and set-based flood: the oracle for the array version."""
    n = len(positions)
    pts = np.array([[p.x, p.y] for p in positions])
    diff = pts[None, :, :] - pts[:, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    adjacency = (dist <= connection_zone) & ~np.eye(n, dtype=bool)

    neighbors = []
    for i in range(n):
        obs = {}
        for j in range(n):
            if not adjacency[i, j]:
                continue
            obs[j] = (float(dist[i, j]), math.atan2(diff[i, j, 1], diff[i, j, 0]))
        neighbors.append(obs)

    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if adjacency[i, j] and j not in reached:
                reached.add(j)
                frontier.append(j)
    broadcast = [None] * n
    for i in range(1, n):
        if i in reached:
            broadcast[i] = (float(dist[0, i]), math.atan2(diff[0, i, 1], diff[0, i, 0]))
    return CommsView(adjacency, neighbors, broadcast)


def reference_raycast(position, heading, obstacles, cfg, rng=None):
    """Every ray against every circle, no culling: the oracle for ``raycast``."""
    n = cfg.n_rays
    if len(obstacles) == 0:
        true_d = np.full(n, cfg.d_max)
        inside = False
    else:
        rel = obstacles.centers - np.array([position.x, position.y])
        cc = np.einsum("ij,ij->i", rel, rel)
        inside = bool(np.any(cc < obstacles.radii**2))
        if inside:
            return LidarScan(cfg.angles.copy(), np.full(n, cfg.d_min), agent_inside=True)
        world_angles = heading + cfg.angles
        dirs = np.stack([np.cos(world_angles), np.sin(world_angles)], axis=1)
        b = dirs @ rel.T  # (n_rays, n_obs) projections of centers on rays
        disc = b * b - (cc - obstacles.radii**2)
        hit = disc >= 0.0
        t = np.where(hit, b - np.sqrt(np.where(hit, disc, 0.0)), np.inf)
        t = np.where(t >= 0.0, t, np.inf)
        true_d = t.min(axis=1)
        true_d = np.where(np.isfinite(true_d), true_d, cfg.d_max)
    d = np.clip(true_d, cfg.d_min, cfg.d_max)
    if rng is not None and cfg.noise_std > 0.0:
        d = d + rng.normal(0.0, cfg.noise_std, size=n)
        d = np.clip(d, cfg.d_min, cfg.d_max)
    return LidarScan(cfg.angles.copy(), d, agent_inside=inside)


def random_world(gen):
    """Agent pose and a circle world around it; some empty, some around the agent."""
    position = Vec2(*gen.uniform(-5.0, 5.0, 2))
    heading = float(gen.uniform(-math.pi, math.pi))
    kind = int(gen.integers(10))
    n = 0 if kind == 0 else int(gen.integers(1, 40))
    centers = np.array([position.x, position.y]) + gen.uniform(-4.0, 4.0, (n, 2))
    radii = gen.uniform(0.05, 1.0, n)
    if kind == 1:
        # the agent inside a circle
        radii[0] = float(np.hypot(*(centers[0] - [position.x, position.y]))) + 0.01
    return position, heading, ObstacleSet(centers, radii)


def far_circles(gen, position, cfg, radii):
    """Centers that put every circle beyond the cull radius of ``raycast``."""
    n = len(radii)
    # half just past the cull radius, half well beyond it
    extra = np.where(gen.random(n) < 0.5, 1e-9, gen.uniform(0.0, 10.0, n))
    dist = (cfg.d_max + radii + REACH_MARGIN) * (1.0 + 1e-12) + extra
    angle = gen.uniform(-math.pi, math.pi, n)
    centers = np.column_stack(
        [position.x + dist * np.cos(angle), position.y + dist * np.sin(angle)]
    )
    return centers


def make_scan(distances, cfg=CFG):
    d = np.full(cfg.n_rays, cfg.d_max)
    for idx, val in distances.items():
        d[idx] = val
    return LidarScan(cfg.angles.copy(), d)


class TestRaycast:
    def test_obstacle_dead_ahead(self):
        obs = ObstacleSet([[1.0, 0.0]], [0.3])
        scan = raycast(Vec2(0, 0), 0.0, obs, CFG)
        center_ray = CFG.n_rays // 2
        assert scan.angles[center_ray] == pytest.approx(0.0, abs=1e-12)
        assert scan.distances[center_ray] == pytest.approx(0.7, abs=1e-12)

    def test_empty_world_reads_d_max(self):
        scan = raycast(Vec2(0, 0), 0.4, ObstacleSet(np.empty((0, 2)), np.empty(0)), CFG)
        assert np.all(scan.distances == CFG.d_max)
        assert not scan.agent_inside

    def test_oblique_ray_matches_quadratic_oracle(self):
        # oracle: smallest positive root of |t*u - c|^2 = r^2 along the
        # 30-degree ray, solved with the quadratic formula
        center, r = Vec2(1.2, 0.5), 0.25
        ray = math.radians(30)
        ux, uy = math.cos(ray), math.sin(ray)
        b = ux * center.x + uy * center.y
        disc = b * b - (center.norm_sq() - r * r)
        expected = b - math.sqrt(disc)
        idx = CFG.n_rays // 2 + 10  # 0 deg + 10 * 3 deg
        assert CFG.angles[idx] == pytest.approx(ray, abs=1e-12)
        scan = raycast(Vec2(0, 0), 0.0, ObstacleSet([[center.x, center.y]], [r]), CFG)
        assert scan.distances[idx] == pytest.approx(expected, abs=1e-12)

    def test_heading_rotates_the_fan(self):
        obs = ObstacleSet([[0.0, 1.0]], [0.3])
        scan = raycast(Vec2(0, 0), math.pi / 2, obs, CFG)
        center_ray = CFG.n_rays // 2
        assert scan.distances[center_ray] == pytest.approx(0.7, abs=1e-12)

    def test_agent_inside_obstacle(self):
        obs = ObstacleSet([[0.05, 0.0]], [0.3])
        scan = raycast(Vec2(0, 0), 0.0, obs, CFG)
        assert scan.agent_inside
        assert np.all(scan.distances == CFG.d_min)

    def test_mirror_symmetry(self):
        centers, radii = np.array([[1.0, 0.4], [0.8, -0.9]]), np.array([0.2, 0.3])
        mirrored = centers * [1.0, -1.0]
        a = raycast(Vec2(0, 0), 0.0, ObstacleSet(centers, radii), CFG)
        b = raycast(Vec2(0, 0), 0.0, ObstacleSet(mirrored, radii), CFG)
        np.testing.assert_array_equal(a.distances, b.distances[::-1])

    def test_noise_clamped_to_range(self):
        cfg = LidarConfig(noise_std=5.0)
        rng = np.random.default_rng(9)
        obs = ObstacleSet([[1.0, 0.0]], [0.3])
        for _ in range(50):
            scan = raycast(Vec2(0, 0), 0.0, obs, cfg, rng)
            assert np.all(scan.distances >= cfg.d_min)
            assert np.all(scan.distances <= cfg.d_max)

    def test_behind_obstacle_not_seen(self):
        obs = ObstacleSet([[-1.0, 0.0]], [0.3])
        scan = raycast(Vec2(0, 0), 0.0, obs, CFG)
        assert np.all(scan.distances == CFG.d_max)

    @pytest.mark.parametrize("noise_std", [0.0, 0.2])
    def test_matches_reference_on_random_worlds(self, noise_std):
        cfg = LidarConfig(noise_std=noise_std)
        gen = np.random.default_rng(int(noise_std * 10) + 60)
        for _ in range(1500):
            position, heading, world = random_world(gen)
            seed = int(gen.integers(2**32))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = raycast(position, heading, world, cfg, rng_a)
            want = reference_raycast(position, heading, world, cfg, rng_b)
            assert got.agent_inside == want.agent_inside
            np.testing.assert_array_equal(got.angles, want.angles)
            np.testing.assert_allclose(got.distances, want.distances, rtol=0.0, atol=1e-9)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_circles_out_of_range_never_change_a_scan(self):
        cfg = LidarConfig(noise_std=0.2)
        gen = np.random.default_rng(61)
        for _ in range(2000):
            position, heading, world = random_world(gen)
            radii = gen.uniform(0.05, 2.0, int(gen.integers(1, 20)))
            centers = far_circles(gen, position, cfg, radii)
            seed = int(gen.integers(2**32))
            base = raycast(position, heading, world, cfg, np.random.default_rng(seed))
            more = world.extended(centers, radii)
            scan = raycast(position, heading, more, cfg, np.random.default_rng(seed))
            assert scan.agent_inside == base.agent_inside
            np.testing.assert_array_equal(scan.distances, base.distances)

    def test_uncut_cast_clips_culled_circles_to_d_max(self):
        # culling is exact: without it, the same circles would read d_max on
        # every ray. The worst case is a ray grazing a tiny circle, where the
        # hit distance is nearly the center distance and rounds the most.
        gen = np.random.default_rng(62)
        for _ in range(500):
            position = Vec2(*gen.uniform(-5.0, 5.0, 2))
            radii = 10.0 ** gen.uniform(-9.0, 0.0, 5)
            centers = far_circles(gen, position, CFG, radii)
            world = ObstacleSet(centers, radii)
            rel = centers - [position.x, position.y]
            # point ray k of the fan just inside the tangent of circle 0
            graze = math.asin(radii[0] / float(np.hypot(*rel[0]))) * (1.0 - 1e-12)
            k = int(gen.integers(CFG.n_rays))
            heading = math.atan2(rel[0, 1], rel[0, 0]) + graze - float(CFG.angles[k])
            scan = reference_raycast(position, heading, world, CFG)
            assert np.all(scan.distances == CFG.d_max)


class TestObstacleSetExtended:
    BASE = ObstacleSet(np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([0.3, 0.5]))

    def test_appends_like_vstack_and_concatenate(self):
        gen = np.random.default_rng(63)
        centers, radii = gen.normal(size=(4, 2)), gen.uniform(0.1, 1.0, 4)
        base_centers, base_radii = self.BASE.centers.copy(), self.BASE.radii.copy()
        out = self.BASE.extended(centers, radii)
        want_centers = np.vstack([self.BASE.centers, centers])
        assert out.centers.tobytes() == want_centers.tobytes()
        assert out.centers.shape == want_centers.shape
        assert out.radii.tobytes() == np.concatenate([self.BASE.radii, radii]).tobytes()
        assert out.centers.dtype == out.radii.dtype == np.float64
        assert self.BASE.centers.tobytes() == base_centers.tobytes()
        assert self.BASE.radii.tobytes() == base_radii.tobytes()
        out.centers[0] = 99.0
        assert self.BASE.centers[0, 0] == 1.0

    def test_nothing_appended_returns_the_same_set(self):
        assert self.BASE.extended(np.empty((0, 2)), np.empty(0)) is self.BASE

    @pytest.mark.parametrize("radius", [0.0, -0.2])
    def test_non_positive_radius_raises(self, radius):
        with pytest.raises(ValueError, match="positive"):
            self.BASE.extended(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.2, radius]))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="matching length"):
            self.BASE.extended(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.2]))

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError, match="shape"):
            self.BASE.extended(np.array([[0.0, 0.0, 1.0]]), np.array([0.2]))


# a circle no ray can hit would silently vanish from every scan
NON_FINITE_CIRCLES = {
    "nan-center": ([[np.nan, 0.0]], [0.3]),
    "nan-radius": ([[1.0, 0.0]], [np.nan]),
    "inf-radius": ([[1.0, 0.0]], [np.inf]),
}


@pytest.mark.parametrize("circle", NON_FINITE_CIRCLES.values(), ids=NON_FINITE_CIRCLES.keys())
class TestObstacleSetRejectsNonFinite:
    def test_constructor(self, circle):
        centers, radii = circle
        with pytest.raises(ValueError, match="finite"):
            ObstacleSet(np.array(centers), np.array(radii))

    def test_extended(self, circle):
        centers, radii = circle
        base = TestObstacleSetExtended.BASE
        with pytest.raises(ValueError, match="finite"):
            base.extended(np.array(centers), np.array(radii))


class TestLidarConfig:
    def test_default_ray_fan(self):
        assert CFG.n_rays == 61
        assert CFG.angles[0] == pytest.approx(-math.pi / 2)
        assert CFG.angles[-1] == pytest.approx(math.pi / 2)

    def test_resolution_must_divide_fov(self):
        with pytest.raises(ValueError):
            LidarConfig(resolution=math.radians(7.0))

    def test_range_ordering_validated(self):
        with pytest.raises(ValueError):
            LidarConfig(d_min=2.0, d_max=1.0)


class TestDetectIntervals:
    def test_all_clear(self):
        scan = make_scan({})
        assert detect_intervals(scan, 0.7) == []

    def test_single_run(self):
        scan = make_scan({i: 0.5 for i in range(10, 15)})
        assert detect_intervals(scan, 0.7) == [(10, 14)]

    def test_short_run_discarded(self):
        scan = make_scan({i: 0.5 for i in (3, 4, 10, 11, 12, 13)})
        # oracle: runs are {3,4} (too short) and {10..13}
        assert detect_intervals(scan, 0.7) == [(10, 13)]

    def test_run_at_scan_edge(self):
        scan = make_scan({i: 0.5 for i in (58, 59, 60)})
        assert detect_intervals(scan, 0.7) == [(58, 60)]

    def test_interval_soundness_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = rng.uniform(0.1, 2.0, CFG.n_rays)
            scan = LidarScan(CFG.angles.copy(), d)
            for start, end in detect_intervals(scan, 0.7):
                assert end - start + 1 >= 3
                assert np.all(d[start : end + 1] < 0.7)
                if start > 0:
                    assert d[start - 1] >= 0.7
                if end < CFG.n_rays - 1:
                    assert d[end + 1] >= 0.7


class TestSplitSides:
    def test_single_positive_interval(self):
        scan = make_scan({i: 0.5 for i in range(40, 45)})
        lhs, rhs = split_sides([(40, 44)], scan)
        assert lhs == (40, 44)
        assert rhs is None

    def test_foremost_of_two_left_intervals(self):
        scan = make_scan({**{i: 0.5 for i in range(35, 39)}, **{i: 0.5 for i in range(50, 54)}})
        lhs, _ = split_sides([(35, 38), (50, 53)], scan)
        assert lhs == (35, 38)

    def test_foremost_of_two_right_intervals(self):
        # mirrored: the right-side interval nearest the heading axis wins
        scan = make_scan({**{i: 0.5 for i in range(5, 9)}, **{i: 0.5 for i in range(20, 24)}})
        _, rhs = split_sides([(5, 8), (20, 23)], scan)
        assert rhs == (20, 23)

    def test_straddling_goes_to_shortest_ray_side(self):
        scan = make_scan({28: 0.6, 29: 0.6, 30: 0.6, 31: 0.4, 32: 0.6})
        lhs, rhs = split_sides([(28, 32)], scan)
        assert lhs == (28, 32)
        assert rhs is None

        scan2 = make_scan({28: 0.4, 29: 0.6, 30: 0.6, 31: 0.6, 32: 0.6})
        lhs2, rhs2 = split_sides([(28, 32)], scan2)
        assert lhs2 is None
        assert rhs2 == (28, 32)

    def test_straddle_tie_takes_larger_side(self):
        scan = make_scan({28: 0.6, 29: 0.6, 30: 0.4, 31: 0.6, 32: 0.6, 33: 0.6})
        lhs, rhs = split_sides([(28, 33)], scan)
        assert lhs == (28, 33)
        assert rhs is None

    def test_straddle_with_tied_shortest_rays_follows_shortest_ray(self):
        # rays 29 (right of the heading) and 31 (left) tie exactly. Today's
        # rule, shortest_ray, takes the lower index, so the interval goes
        # right in a scan and in its mirror image alike: the rule is not
        # mirror-symmetric
        for tied in ({28: 0.6, 29: 0.4, 30: 0.6, 31: 0.4, 32: 0.6},
                     {28: 0.6, 29: 0.4, 30: 0.5, 31: 0.4, 32: 0.7}):
            for distances in (tied, {60 - i: d for i, d in tied.items()}):
                scan = make_scan(distances)
                assert shortest_ray(scan, 28, 33) == 29
                assert split_sides([(28, 32)], scan) == (None, (28, 32))


class TestNeighborObservations:
    def test_edge_inside_zone(self):
        view = neighbor_observations([Vec2(0, 0), Vec2(3, 0)], 7.0)
        assert view.adjacency[0, 1] and view.adjacency[1, 0]
        d, theta = view.neighbors[0][1]
        assert d == pytest.approx(3.0)
        assert theta == pytest.approx(0.0)

    def test_no_edge_outside_zone(self):
        view = neighbor_observations([Vec2(0, 0), Vec2(8, 0)], 7.0)
        assert not view.adjacency[0, 1]
        assert view.neighbors[0] == {}
        assert view.broadcast[1] is None

    def test_bearing(self):
        view = neighbor_observations([Vec2(0, 0), Vec2(1, 1)], 7.0)
        _, theta = view.neighbors[0][1]
        assert theta == pytest.approx(math.pi / 4)

    def test_adjacency_symmetric(self):
        rng = np.random.default_rng(2)
        pts = [Vec2(*xy) for xy in rng.uniform(-10, 10, size=(6, 2))]
        view = neighbor_observations(pts, 7.0)
        np.testing.assert_array_equal(view.adjacency, view.adjacency.T)

    def test_broadcast_relayed_through_chain(self):
        # follower 2 is out of the navigator's zone but linked via follower 1
        view = neighbor_observations([Vec2(0, 0), Vec2(6, 0), Vec2(12, 0)], 7.0)
        assert not view.adjacency[0, 2]
        assert view.broadcast[2] is not None
        d, theta = view.broadcast[2]
        assert d == pytest.approx(12.0)
        assert theta == pytest.approx(0.0)

    def test_broadcast_is_nav_to_follower_bearing(self):
        view = neighbor_observations([Vec2(0, 0), Vec2(0, 2)], 7.0)
        d, theta = view.broadcast[1]
        assert d == pytest.approx(2.0)
        assert theta == pytest.approx(math.pi / 2)

    def test_matches_scalar_oracle_on_random_worlds(self):
        world = np.random.default_rng(40)
        for _ in range(100):
            n = int(world.integers(1, 60))
            side = world.uniform(2.0, 60.0)
            pts = [Vec2(*xy) for xy in world.uniform(0.0, side, size=(n, 2))]
            got = neighbor_observations(pts, 7.0)
            want = scalar_neighbor_observations(pts, 7.0)
            np.testing.assert_array_equal(got.adjacency, want.adjacency)
            # same links, bit for bit, in the same insertion order
            assert [list(d.items()) for d in got.neighbors] == [
                list(d.items()) for d in want.neighbors
            ]
            assert got.broadcast == want.broadcast
