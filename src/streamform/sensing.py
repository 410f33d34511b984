"""Simulated onboard sensing: lidar, relative-position links, comm graph.

The lidar casts evenly spaced rays over the front semicircle against
circular obstacles (analytic ray-circle intersection) and adds Gaussian
range noise. Detected returns are grouped into contiguous ray intervals
and split into left/right half-plane fields for the avoidance logic.
Relative-position observations and the connection-zone communication graph
model the antenna-array links between agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geom import Angle, Vec2

# contiguous detections narrower than this many rays are discarded
# (minimum obstacle footprint guarantees at least three rays on a hit)
MIN_INTERVAL_RAYS = 3

# raycast skips circles farther than d_max + radius + REACH_MARGIN [m]. Each
# exact hit distance on such a circle exceeds d_max + REACH_MARGIN, and
# rounding moves a computed one by a few 1e-8 of itself at most (on a ray
# grazing the circle). So for any d_max below about 10 km a culled circle's
# computed distance still exceeds d_max, and the clip to d_max makes the
# cull exact: the circle would have left the scan unchanged.
REACH_MARGIN = 1e-3


@dataclass(frozen=True)
class LidarConfig:
    resolution: float = math.radians(3.0)
    fov_min: float = -math.pi / 2
    fov_max: float = math.pi / 2
    d_min: float = 0.0
    d_max: float = 2.0
    noise_std: float = 0.2

    def __post_init__(self):
        if self.d_min >= self.d_max:
            raise ValueError(f"d_min {self.d_min} must be below d_max {self.d_max}")
        span = self.fov_max - self.fov_min
        steps = span / self.resolution
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(
                f"resolution {self.resolution} must divide the field of view {span}"
            )

    @cached_property
    def angles(self) -> np.ndarray:
        n = round((self.fov_max - self.fov_min) / self.resolution) + 1
        # built symmetrically about the fan center so that mirrored worlds
        # produce exactly mirrored scans
        mid = 0.5 * (self.fov_min + self.fov_max)
        return mid + self.resolution * (np.arange(n) - (n - 1) / 2.0)

    @cached_property
    def ray_dirs(self) -> np.ndarray:
        """Agent-frame unit ray directions, shape (2, n_rays)."""
        return np.stack([np.cos(self.angles), np.sin(self.angles)])

    @property
    def n_rays(self) -> int:
        return len(self.angles)


@dataclass
class LidarScan:
    """Per-ray angles (agent frame, strictly increasing) and distances."""

    angles: np.ndarray
    distances: np.ndarray
    agent_inside: bool = False

    def endpoint(self, index: int) -> Vec2:
        """Agent-frame endpoint of ray ``index``."""
        d = float(self.distances[index])
        a = float(self.angles[index])
        return Vec2(d * math.cos(a), d * math.sin(a))


def _check_circles(centers: np.ndarray, radii: np.ndarray) -> None:
    """Raise ValueError unless (n, 2) centers and (n,) radii describe real
    circles: a NaN one would miss every ray and vanish from the scan."""
    if len(centers) != len(radii):
        raise ValueError("centers and radii must have matching length")
    if not np.isfinite(centers).all():
        raise ValueError("obstacle centers must be finite")
    if not ((radii > 0) & (radii < np.inf)).all():
        raise ValueError("obstacle radii must be positive and finite")


class ObstacleSet:
    """Circular obstacles stored as flat arrays for vectorized ray casts."""

    def __init__(self, centers: np.ndarray, radii: np.ndarray):
        self.centers = np.asarray(centers, dtype=float).reshape(-1, 2)
        self.radii = np.asarray(radii, dtype=float).reshape(-1)
        _check_circles(self.centers, self.radii)

    def __len__(self) -> int:
        return len(self.radii)

    def extended(self, centers: np.ndarray, radii: np.ndarray) -> "ObstacleSet":
        """New set with extra circles appended (used to add agent bodies)."""
        if len(centers) == 0:
            return self
        centers = np.asarray(centers, dtype=float)
        radii = np.asarray(radii, dtype=float)
        # this set's own arrays were checked when it was built
        if centers.ndim != 2 or centers.shape[1] != 2 or radii.ndim != 1:
            raise ValueError("centers must have shape (n, 2) and radii shape (n,)")
        _check_circles(centers, radii)
        out = ObstacleSet.__new__(ObstacleSet)
        out.centers = np.concatenate([self.centers, centers])
        out.radii = np.concatenate([self.radii, radii])
        return out


def raycast(
    position: Vec2,
    heading: Angle,
    obstacles: ObstacleSet,
    cfg: LidarConfig,
    rng: np.random.Generator | None = None,
) -> LidarScan:
    """Cast the configured ray fan from a pose against circular obstacles.

    Each ray reports the nearest intersection distance (or d_max when the
    ray misses everything), plus Gaussian range noise when ``rng`` is given;
    results are clamped to [d_min, d_max]. If the agent center lies inside
    an obstacle every ray reads d_min and ``agent_inside`` is set. Circles
    out of reach (see REACH_MARGIN) are dropped before the ray work.
    """
    n = cfg.n_rays
    rel = obstacles.centers - (position.x, position.y)
    cc = np.einsum("ij,ij->i", rel, rel)
    r2 = obstacles.radii**2
    if (cc < r2).any():
        return LidarScan(cfg.angles.copy(), np.full(n, cfg.d_min), agent_inside=True)
    near = np.flatnonzero(cc <= (obstacles.radii + (cfg.d_max + REACH_MARGIN)) ** 2)
    if len(near) == 0:
        d = np.full(n, cfg.d_max)
    else:
        c, s = math.cos(heading), math.sin(heading)
        dirs = np.array([[c, -s], [s, c]]) @ cfg.ray_dirs
        b = rel.take(near, axis=0) @ dirs  # (circles, rays) projections on rays
        # disc = b|b| - (cc - r^2): a circle behind a ray (b < 0) gets a
        # negative discriminant and misses like one off to the side. The
        # inside test leaves cc - r^2 >= 0, so b >= 0 gives a root t >= 0
        disc = np.abs(b)
        disc *= b
        disc -= (cc - r2).take(near)[:, None]
        with np.errstate(invalid="ignore"):
            np.sqrt(disc, out=disc)  # NaN marks a miss
        b -= disc
        d = np.fmin.reduce(b, axis=0)  # nearest hit per ray; NaN if none
        np.fmin(d, cfg.d_max, out=d)
        np.maximum(d, cfg.d_min, out=d)
    if rng is not None and cfg.noise_std > 0.0:
        d += rng.normal(0.0, cfg.noise_std, size=n)
        np.minimum(d, cfg.d_max, out=d)
        np.maximum(d, cfg.d_min, out=d)
    return LidarScan(cfg.angles.copy(), d)


def detect_intervals(scan: LidarScan, d_risk: float) -> list[tuple[int, int]]:
    """Maximal runs of consecutive rays closer than d_risk.

    Runs shorter than MIN_INTERVAL_RAYS are discarded. Returns inclusive
    (start, end) ray-index pairs in ascending order.
    """
    close = scan.distances < d_risk
    intervals: list[tuple[int, int]] = []
    start = None
    for i, flag in enumerate(close):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= MIN_INTERVAL_RAYS:
                intervals.append((start, i - 1))
            start = None
    if start is not None and len(close) - start >= MIN_INTERVAL_RAYS:
        intervals.append((start, len(close) - 1))
    return intervals


def shortest_ray(scan: LidarScan, start: int, stop: int) -> int:
    """Index of the shortest of rays start to stop - 1. The one tie rule of
    the avoidance logic: an exact distance tie goes to the lowest index, the
    rightmost of the tied rays."""
    # argmin returns the first of equal minima
    return start + int(np.argmin(scan.distances[start:stop]))


def split_sides(
    intervals: list[tuple[int, int]], scan: LidarScan
) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
    """Assign detection intervals to the left/right half-fields.

    An interval lies on the left when all its ray angles are positive and
    on the right when all are negative; one straddling the heading axis is
    assigned whole to the side of its shortest ray. Per side only the
    foremost interval (the one whose endpoint is nearest the heading axis)
    is kept.
    """
    lhs: list[tuple[int, int]] = []
    rhs: list[tuple[int, int]] = []
    for start, end in intervals:
        a_start = float(scan.angles[start])
        a_end = float(scan.angles[end])
        if a_start > 0.0:
            lhs.append((start, end))
        elif a_end < 0.0:
            rhs.append((start, end))
        else:
            m = shortest_ray(scan, start, end + 1)
            a_m = float(scan.angles[m])
            if a_m > 0.0:
                lhs.append((start, end))
            elif a_m < 0.0:
                rhs.append((start, end))
            else:
                # shortest ray dead ahead: take the side covering more rays,
                # left on a perfect tie
                seg = scan.angles[start : end + 1]
                n_left, n_right = np.count_nonzero(seg > 0), np.count_nonzero(seg < 0)
                (lhs if n_left >= n_right else rhs).append((start, end))
    # foremost = smallest inner angle magnitude; on the left the inner
    # endpoint is the interval start, on the right it is the interval end
    best_lhs = min(lhs, key=lambda iv: iv[0]) if lhs else None
    best_rhs = max(rhs, key=lambda iv: iv[1]) if rhs else None
    return best_lhs, best_rhs


@dataclass
class CommsView:
    """One step of the communication layer.

    adjacency[i, j] is True when agents i and j are inside each other's
    connection zone. neighbors[i] maps agent id j to (distance, world-frame
    bearing from i to j). broadcast[i] carries the navigator's broadcast
    (d_0i, theta_0i) for follower i, or None when i has no communication
    path to the navigator this step.
    """

    adjacency: np.ndarray
    neighbors: list[dict[int, tuple[float, float]]]
    broadcast: list[tuple[float, float] | None]


def neighbor_observations(positions: list[Vec2], connection_zone: float) -> CommsView:
    """Relative-position links between agents within the connection zone.

    Agent 0 is the navigator; its broadcast (distance and bearing from the
    navigator to each follower) is relayed through the network, so every
    follower in the navigator's connected component receives it.
    """
    n = len(positions)
    pts = np.array([[p.x, p.y] for p in positions])
    diff = pts[None, :, :] - pts[:, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    adjacency = (dist <= connection_zone) & ~np.eye(n, dtype=bool)

    # flood from the navigator to find who can hear the broadcast
    reached = np.arange(n) == 0
    size = 0
    while size != (size := np.count_nonzero(reached)):
        reached |= adjacency[reached].any(axis=0)

    # every link i -> j in row order, then the broadcast links 0 -> i
    rows, cols = np.nonzero(adjacency)
    heard = np.flatnonzero(reached[1:]) + 1
    src = np.concatenate([rows, np.zeros_like(heard)])
    dst = np.concatenate([cols, heard])
    links = [
        (d, math.atan2(dy, dx))
        for d, dx, dy in zip(
            dist[src, dst].tolist(), diff[src, dst, 0].tolist(), diff[src, dst, 1].tolist()
        )
    ]

    neighbors: list[dict[int, tuple[float, float]]] = [{} for _ in range(n)]
    for i, j, link in zip(rows.tolist(), cols.tolist(), links):
        neighbors[i][j] = link
    broadcast: list[tuple[float, float] | None] = [None] * n
    for i, link in zip(heard.tolist(), links[len(rows) :]):
        broadcast[i] = link
    return CommsView(adjacency, neighbors, broadcast)
