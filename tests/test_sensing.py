import copy
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
RNG = np.random.default_rng(0)  # CFG draws zeros from it


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


def reference_raycast(position, heading, obstacles, cfg, rng):
    """Every ray against every circle, no culling: the oracle for ``raycast``.
    Every scan draws n_rays values, zeros at noise 0.0, an inside one too."""
    n = cfg.n_rays
    noise = rng.normal(0.0, cfg.noise_std, size=n)
    if len(obstacles) == 0:
        true_d = np.full(n, cfg.d_max)
        inside = False
    else:
        rel = obstacles.centers - np.array([position.x, position.y])
        cc = np.einsum("ij,ij->i", rel, rel)
        inside = bool(np.any(cc < obstacles.radii**2))
        if inside:
            return LidarScan(np.full(n, cfg.d_min), agent_inside=True)
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
    d = np.clip(d + noise, cfg.d_min, cfg.d_max)
    return LidarScan(d, agent_inside=inside)


def one_circle(x, y, r):
    return ObstacleSet(np.array([[x, y]]), np.array([r]))


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
    return LidarScan(d)


class TestRaycast:
    def test_obstacle_dead_ahead(self):
        obs = one_circle(1.0, 0.0, 0.3)
        scan = raycast(Vec2(0, 0), 0.0, obs, CFG, RNG)
        center_ray = CFG.n_rays // 2
        assert scan.angles[center_ray] == pytest.approx(0.0, abs=1e-12)
        assert scan.distances[center_ray] == pytest.approx(0.7, abs=1e-12)

    def test_empty_world_reads_d_max(self):
        scan = raycast(Vec2(0, 0), 0.4, ObstacleSet(np.empty((0, 2)), np.empty(0)), CFG, RNG)
        assert np.all(scan.distances == CFG.d_max)
        assert not scan.agent_inside

    def test_oblique_ray_matches_quadratic_oracle(self):
        # oracle: smallest positive root of |t*u - c|^2 = r^2 along the
        # 30-degree ray, solved with the quadratic formula
        center, r = Vec2(1.2, 0.5), 0.25
        ray = math.radians(30)
        ux, uy = math.cos(ray), math.sin(ray)
        b = ux * center.x + uy * center.y
        disc = b * b - (center.x * center.x + center.y * center.y - r * r)
        expected = b - math.sqrt(disc)
        idx = CFG.n_rays // 2 + 10  # 0 deg + 10 * 3 deg
        assert CFG.angles[idx] == pytest.approx(ray, abs=1e-12)
        scan = raycast(Vec2(0, 0), 0.0, one_circle(center.x, center.y, r), CFG, RNG)
        assert scan.distances[idx] == pytest.approx(expected, abs=1e-12)

    def test_heading_rotates_the_fan(self):
        obs = one_circle(0.0, 1.0, 0.3)
        scan = raycast(Vec2(0, 0), math.pi / 2, obs, CFG, RNG)
        center_ray = CFG.n_rays // 2
        assert scan.distances[center_ray] == pytest.approx(0.7, abs=1e-12)

    def test_agent_inside_obstacle(self):
        obs = one_circle(0.05, 0.0, 0.3)
        scan = raycast(Vec2(0, 0), 0.0, obs, CFG, RNG)
        assert scan.agent_inside
        assert np.all(scan.distances == CFG.d_min)

    def test_mirror_symmetry(self):
        centers, radii = np.array([[1.0, 0.4], [0.8, -0.9]]), np.array([0.2, 0.3])
        mirrored = centers * [1.0, -1.0]
        a = raycast(Vec2(0, 0), 0.0, ObstacleSet(centers, radii), CFG, RNG)
        b = raycast(Vec2(0, 0), 0.0, ObstacleSet(mirrored, radii), CFG, RNG)
        np.testing.assert_array_equal(a.distances, b.distances[::-1])

    def test_noise_clamped_to_range(self):
        cfg = LidarConfig(noise_std=5.0)
        rng = np.random.default_rng(9)
        obs = one_circle(1.0, 0.0, 0.3)
        for _ in range(50):
            scan = raycast(Vec2(0, 0), 0.0, obs, cfg, rng)
            assert np.all(scan.distances >= cfg.d_min)
            assert np.all(scan.distances <= cfg.d_max)

    @pytest.mark.parametrize(
        "position, heading, name",
        [((math.nan, 0.0), 0.0, "position"), ((0.0, math.inf), 0.0, "position"),
         ((0.0, 0.0), math.nan, "heading")],
    )
    def test_non_finite_position_or_nan_heading_raises(self, position, heading, name):
        # a NaN pose used to give a blind scan: every ray at d_max, not inside.
        # The position is refused as a Vec2 is built, the heading by raycast
        obs = one_circle(1.0, 0.0, 0.3)
        match = {"position": r"Vec2\.[xy] must be finite", "heading": "heading must be finite"}[name]
        with pytest.raises(ValueError, match=match):
            raycast(Vec2(*position), heading, obs, CFG, RNG)

    @pytest.mark.parametrize("heading", [math.inf, -math.inf])
    def test_infinite_heading_is_named(self, heading):
        # math.cos raised a bare "math domain error" here
        obs = one_circle(1.0, 0.0, 0.3)
        with pytest.raises(ValueError, match="heading must be finite"):
            raycast(Vec2(0.0, 0.0), heading, obs, CFG, RNG)

    def test_behind_obstacle_not_seen(self):
        obs = one_circle(-1.0, 0.0, 0.3)
        scan = raycast(Vec2(0, 0), 0.0, obs, CFG, RNG)
        assert np.all(scan.distances == CFG.d_max)

    def test_rng_is_required(self):
        # a scan under LidarConfig() (noise 0.2) with no rng used to come
        # back noiseless, bit for bit the scan with noise_std=0.0
        obs = one_circle(1.0, 0.0, 0.3)
        with pytest.raises(TypeError):
            raycast(Vec2(0, 0), 0.0, obs, LidarConfig())

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

    @pytest.mark.parametrize("noise_std", [0.0, 0.2])
    @pytest.mark.parametrize("center, inside", [((-1.0, 0.0), False), ((0.1, 0.0), True)],
                             ids=["clear", "inside"])
    def test_each_cast_draws_n_rays_normals(self, noise_std, center, inside):
        # a noiseless cast used to leave rng as it was, so the draw count
        # hung on the setting
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        scan = raycast(Vec2(0, 0), 0.0, one_circle(*center, 0.3), LidarConfig(noise_std), rng)
        assert scan.agent_inside == inside
        twin.standard_normal(LidarConfig.n_rays)
        assert rng.bit_generator.state == twin.bit_generator.state

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
            scan = reference_raycast(position, heading, world, CFG, RNG)
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
        assert not np.shares_memory(out.centers, self.BASE.centers)

    def test_nothing_appended_gives_an_equal_set(self):
        out = self.BASE.extended(np.empty((0, 2)), np.empty(0))
        assert out.centers.tobytes() == self.BASE.centers.tobytes()
        assert out.centers.shape == self.BASE.centers.shape
        assert out.radii.tobytes() == self.BASE.radii.tobytes()

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

    def test_no_centers_with_radii_raises(self):
        # empty centers used to return the set unchecked, whatever the radii
        with pytest.raises(ValueError, match="matching length"):
            self.BASE.extended(np.zeros((0, 2)), np.ones(3))


@pytest.mark.parametrize("build", ["constructor", "extended"])
class TestObstacleSetOwnsItsArrays:
    @staticmethod
    def make(build, centers, radii):
        if build == "constructor":
            return ObstacleSet(centers, radii)
        return ObstacleSet(np.empty((0, 2)), np.empty(0)).extended(centers, radii)

    def test_scan_ignores_later_writes_by_the_caller(self, build):
        # the constructor used to keep the caller's arrays: a NaN written
        # into them afterwards got past the checks, and every ray missed it
        centers, radii = np.array([[1.0, 0.0]]), np.array([0.3])
        world = self.make(build, centers, radii)
        want = raycast(Vec2(0, 0), 0.0, world, CFG, RNG).distances
        assert want.min() == pytest.approx(0.7, abs=1e-12)
        centers[0] = np.nan
        radii[0] = np.nan
        got = raycast(Vec2(0, 0), 0.0, world, CFG, RNG).distances
        assert got.tobytes() == want.tobytes()

    def test_arrays_are_read_only(self, build):
        world = self.make(build, np.array([[1.0, 0.0]]), np.array([0.3]))
        with pytest.raises(ValueError, match="read-only"):
            world.centers[0, 0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            world.radii[0] = np.nan


# the constructor used to reshape the first three into other circles: the
# first two into (1, 2) and (3, 4), and (0, 0), (0, 0), (0, 0) with six zeros
# read row-major, the third into the one circle (1, 2). Both constructors
# used to read other forms as floats: a True radius as a 1 m circle, a "0.3"
# one as 0.3 m and a bool in a list of floats as 1.0; an int past the float
# range raised a bare OverflowError. Float64 arrays are the one form now
FORM = "^obstacle {} must be a float64 numpy array, got {}"
XY, R = np.array([[1.0, 1.0]]), np.array([0.3])
TWO_XY = np.array([[0.0, 0.0], [1.0, 1.0]])
BAD_SHAPES = {
    "row-of-four": (np.array([[1.0, 2.0, 3.0, 4.0]]), np.array([0.1, 0.2]), "shape"),
    "two-by-three": (np.zeros((2, 3)), np.ones(3), "shape"),
    "flat-pair": (np.array([1.0, 2.0]), np.array([0.1]), "shape"),
    "bool-radius": (XY, np.array([True]), FORM.format("radii", "bool array")),
    "str-radius": (XY, np.array(["0.3"]), FORM.format("radii", "<U3 array")),
    "object-radius": (XY, np.array([0.3], object), FORM.format("radii", "object array")),
    "bool-centers": (np.array([[True, False]]), R, FORM.format("centers", "bool array")),
    # numpy would read these lists as float64, the bool as 1.0
    "bool-among-radii": (TWO_XY, [0.3, True], FORM.format("radii", "list")),
    "bool-among-centers": ([[0.0, True], [1.0, 1.0]], np.array([0.3, 0.3]),
                           FORM.format("centers", "list")),
    "numpy-bool-among-radii": (TWO_XY, [0.3, np.True_], FORM.format("radii", "list")),
    "huge-int-center": (np.array([[10**400, 1]]), R, FORM.format("centers", "object array")),
    "float-list-centers": ([[1.0, 1.0]], R, FORM.format("centers", "list")),
    "float-list-radii": (XY, [0.3], FORM.format("radii", "list")),
    "int-centers": (np.array([[1, 1]], np.int64), R, FORM.format("centers", "int64 array")),
    "float32-radii": (XY, np.array([0.3], np.float32), FORM.format("radii", "float32 array")),
}


@pytest.mark.parametrize("centers, radii, match", BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
@pytest.mark.parametrize("build", ["constructor", "extended"])
def test_circles_of_another_shape_raise(build, centers, radii, match):
    make = ObstacleSet if build == "constructor" else TestObstacleSetExtended.BASE.extended
    with pytest.raises(ValueError, match=match):
        make(centers, radii)


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
        angles = CFG.angles
        assert CFG.n_rays == len(angles) == 61
        # pinned bit for bit: 3 degrees apart, mirror-symmetric, one ray dead ahead
        np.testing.assert_array_equal(angles, math.radians(3.0) * (np.arange(61) - 30.0))
        assert np.array_equal(angles, -angles[::-1])
        assert angles[30] == 0.0 and math.copysign(1.0, angles[30]) == 1.0
        # split_sides reads each ray's side from its index against n_rays // 2,
        # which a sign of 0 marks dead ahead
        c = CFG.n_rays // 2
        np.testing.assert_array_equal(np.sign(angles), np.sign(np.arange(CFG.n_rays) - c))
        assert angles[0] == pytest.approx(-math.pi / 2, abs=1e-15)
        assert angles[-1] == pytest.approx(math.pi / 2, abs=1e-15)
        assert (CFG.d_min, CFG.d_max) == (0.0, 2.0)

    def test_fan_is_shared_and_read_only(self):
        scan = raycast(Vec2(0, 0), 0.0, one_circle(1.0, 0.0, 0.3), CFG, RNG)
        assert scan.angles is CFG.angles is LidarConfig(noise_std=0.2).angles
        with pytest.raises(ValueError, match="read-only"):
            CFG.angles[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            scan.angles += 1.0

    @pytest.mark.parametrize("field", ["resolution", "n_rays", "d_min", "d_max"])
    def test_fan_geometry_is_not_settable(self, field):
        with pytest.raises(TypeError):
            LidarConfig(**{field: 1.0})

    @pytest.mark.parametrize("noise_std", [math.nan, -0.5, math.inf])
    def test_noise_std_must_be_nonnegative_and_finite(self, noise_std):
        # NaN and -0.5 used to give noiseless scans with no error
        with pytest.raises(ValueError, match="noise_std must be nonnegative and finite"):
            LidarConfig(noise_std=noise_std)


def scan_loop_intervals(distances, d_risk):
    """Ray-by-ray run scan: the oracle for ``detect_intervals``."""
    runs, start = [], None
    for i, close in enumerate(list(distances < d_risk) + [False]):
        if close and start is None:
            start = i
        elif not close and start is not None:
            if i - start >= 3:
                runs.append((start, i - 1))
            start = None
    return runs


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
            scan = LidarScan(d)
            for start, end in detect_intervals(scan, 0.7):
                assert end - start + 1 >= 3
                assert np.all(d[start : end + 1] < 0.7)
                if start > 0:
                    assert d[start - 1] >= 0.7
                if end < CFG.n_rays - 1:
                    assert d[end + 1] >= 0.7

    @pytest.mark.parametrize("d_risk", [math.nan, -1.0, 0.0, math.inf])
    def test_d_risk_must_be_positive_and_finite(self, d_risk):
        # with every ray at 0.1 m, NaN and -1.0 used to find no run: a blind avoider
        scan = make_scan({i: 0.1 for i in range(CFG.n_rays)})
        with pytest.raises(ValueError, match="d_risk must be positive and finite"):
            detect_intervals(scan, d_risk)

    # few distinct values, d_risk itself among them, so runs start and end
    # everywhere, the scan edges included
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from([0.2, 0.5, 0.7, 1.0, 2.0]), min_size=CFG.n_rays,
                    max_size=CFG.n_rays))
    def test_matches_a_ray_by_ray_scan(self, distances):
        d = np.array(distances)
        scan = LidarScan(d)
        got = detect_intervals(scan, 0.7)
        assert got == scan_loop_intervals(d, 0.7)
        assert all(type(i) is int for iv in got for i in iv)


def documented_split(intervals, scan):
    """``split_sides`` by the rule its docstring states, each interval on
    its own: all angles positive is left, all negative is right, else the
    side of the shortest ray (lowest index on a distance tie) and, with that
    ray dead ahead, the side covering more rays (left on a tie). The left
    side keeps the smallest start and the right side the largest end."""
    a, d = scan.angles, scan.distances
    lhs, rhs = [], []
    for start, end in intervals:
        rays = range(start, end + 1)
        if all(a[i] > 0 for i in rays):
            left = True
        elif all(a[i] < 0 for i in rays):
            left = False
        else:
            m = min(rays, key=lambda i: (d[i], i))
            if a[m] != 0:
                left = a[m] > 0
            else:
                left = sum(a[i] > 0 for i in rays) >= sum(a[i] < 0 for i in rays)
        (lhs if left else rhs).append((start, end))
    return (min(lhs, key=lambda iv: iv[0], default=None),
            max(rhs, key=lambda iv: iv[1], default=None))


@st.composite
def scans_with_intervals(draw):
    """A scan and disjoint ascending intervals over it; interval distances
    come from three values, so exact ties are common, and ray n_rays // 2 is
    dead ahead, so straddlers and dead-ahead ties are too."""
    n = CFG.n_rays
    d = np.full(n, CFG.d_max)
    intervals, at = [], draw(st.integers(0, 8))
    for gap, length in draw(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 14)),
                                     max_size=8)):
        if at + length > n:
            break
        intervals.append((at, at + length - 1))
        d[at : at + length] = draw(st.lists(st.sampled_from([0.2, 0.35, 0.5]),
                                            min_size=length, max_size=length))
        at += length + gap
    return intervals, LidarScan(d)


DEAD_AHEAD = CFG.n_rays // 2


class TestSplitSides:
    @settings(max_examples=200, deadline=None)
    @given(scans_with_intervals())
    # shortest ray dead ahead with as many rays on each side, more on the
    # left, more on the right; the draws rarely give these
    @example(([(28, 32)], make_scan({**dict.fromkeys(range(28, 33), 0.5), DEAD_AHEAD: 0.2})))
    @example(([(29, 32)], make_scan({**dict.fromkeys(range(29, 33), 0.5), DEAD_AHEAD: 0.2})))
    @example(([(28, 31)], make_scan({**dict.fromkeys(range(28, 32), 0.5), DEAD_AHEAD: 0.2})))
    def test_matches_the_documented_rule(self, drawn):
        intervals, scan = drawn
        assert split_sides(intervals, scan) == documented_split(intervals, scan)

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

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (2.0, -math.inf)])
    def test_non_finite_position_raises(self, bad):
        # a NaN position used to drop that agent's links and broadcast; it
        # is now refused as its Vec2 is built, before any call
        with pytest.raises(ValueError, match=r"Vec2\.[xy] must be finite"):
            neighbor_observations([Vec2(0, 0), Vec2(*bad), Vec2(1, 0)], 7.0)

    def test_no_agents_raises(self):
        # an empty list used to raise a bare IndexError
        with pytest.raises(ValueError, match="agent 0, the navigator, is required"):
            neighbor_observations([], 7.0)

    @pytest.mark.parametrize("zone", [math.nan, -1.0, 0.0, True, np.array([3.0])])
    def test_non_positive_connection_zone_raises(self, zone):
        # a NaN or negative zone used to drop every link and broadcast, True
        # built a 1 m zone and a one-element array passed
        with pytest.raises(ValueError, match="connection_zone must be positive"):
            neighbor_observations([Vec2(0, 0), Vec2(1, 0)], zone)

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


@pytest.mark.parametrize(
    "make",
    [
        lambda: LidarScan(np.linspace(0.5, 2.0, LidarConfig.n_rays)),
        lambda: neighbor_observations([Vec2(0, 0), Vec2(1, 0), Vec2(9, 0)], 7.0),
    ],
    ids=["LidarScan", "CommsView"],
)
def test_array_records_compare_by_identity(make):
    # a generated __eq__ compared the array fields and raised "The truth
    # value of an array with more than one element is ambiguous"
    record = make()
    assert record == record
    assert record != copy.deepcopy(record)


@pytest.mark.parametrize("shape", [(0,), (10,), (60,), (62,), (80,), (61, 1), (1, 61), ()])
def test_scan_needs_one_distance_per_ray(shape):
    # ten distances used to read as an obstacle on the ten rightmost rays
    # (a stream cost of 0.0945), and 80 raised a bare IndexError in the avoider
    with pytest.raises(ValueError, match=rf"shaped \(61,\), got {re.escape(str(shape))}"):
        LidarScan(np.full(shape, 0.5))


@pytest.mark.parametrize(
    "distances, match",
    [
        ([0.5] * 61, "a numpy array, got list"),
        (np.full(61, np.nan), "got nan on ray 0"),
        (np.full(61, -1.0), r"got -1\.0 on ray 0"),
        (np.full(61, 2.5), r"got 2\.5 on ray 0"),
        (np.r_[np.full(40, 1.0), np.nan, np.full(20, 3.0)], "got nan on ray 40"),
        (np.r_[np.full(60, 2.0), np.nextafter(2.0, 3.0)], "on ray 60"),
    ],
    ids=["list", "all-nan", "negative", "past-d_max", "first-bad-ray", "one-ulp-past"],
)
def test_scan_needs_distances_within_range(distances, match):
    # an all-NaN scan read both sides clear at cost 0, -1.0 m gave ApfSides a
    # cost of 4.99e5, and a list raised a bare AttributeError
    with pytest.raises(ValueError, match=match):
        LidarScan(distances)


@pytest.mark.parametrize("dtype, value", [(bool, True), (np.int64, 1), (np.float32, 0.5),
                                          (np.complex128, 0.5), (object, 0.5), (str, "0.5")])
def test_scan_needs_float64_distances(dtype, value):
    # in-range bool, int64, float32, complex128 and object arrays built a
    # scan, and a str array raised a bare UFuncTypeError
    distances = np.full(61, value, dtype=dtype)
    match = f"float64 distances as a numpy array, got {distances.dtype} array"
    with pytest.raises(ValueError, match=match):
        LidarScan(distances)


COORD = st.floats(-20.0, 20.0)
POINT = st.tuples(COORD, COORD)


class TestCommsLocality:
    """Follower k's comms observation depends only on its own links and its
    broadcast: moving another follower j that stays outside k's connection
    zone, while k's reach flag holds, leaves it the same bit for bit."""

    ZONE = 7.0
    MARGIN = 1e-6  # keeps j clear of the zone's edge, where rounding decides

    @settings(max_examples=300, deadline=None)
    @given(st.lists(POINT, min_size=3, max_size=8), POINT, st.data())
    def test_moving_an_agent_outside_the_zone_keeps_the_row(self, points, moved, data):
        k = data.draw(st.integers(1, len(points) - 1), label="k")
        j = data.draw(st.integers(1, len(points) - 1).filter(lambda i: i != k), label="j")
        for xj, yj in (points[j], moved):
            assume(math.hypot(xj - points[k][0], yj - points[k][1]) > self.ZONE + self.MARGIN)
        before = [Vec2(x, y) for x, y in points]
        after = before[:j] + [Vec2(*moved)] + before[j + 1 :]
        a = neighbor_observations(before, self.ZONE)
        b = neighbor_observations(after, self.ZONE)
        assume((a.broadcast[k] is None) == (b.broadcast[k] is None))
        # repr tells -0.0 from 0.0 and keeps the dict's insertion order
        assert repr(a.neighbors[k]) == repr(b.neighbors[k])
        assert repr(a.broadcast[k]) == repr(b.broadcast[k])
