"""Simulated onboard sensing: lidar, relative-position links, comm graph.

The lidar casts one fixed fan, 61 rays 3 degrees apart over the front
semicircle and 2 m long, against circular obstacles (analytic ray-circle
intersection) and adds Gaussian range noise, its one setting. Detected
returns are grouped into contiguous ray intervals and split into
left/right half-plane fields for the avoidance logic. Relative-position
observations and the connection-zone communication graph model the
antenna-array links between agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .geom import Angle, Vec2, _finite, _real

# contiguous detections narrower than this many rays are discarded (3 degrees
# apart, the minimum obstacle footprint puts at least three rays on a hit)
MIN_INTERVAL_RAYS = 3

# raycast skips circles farther than d_max + radius + REACH_MARGIN [m]. Each
# exact hit distance on such a circle exceeds d_max + REACH_MARGIN, and
# rounding moves a computed one by a few 1e-8 of itself at most (on a ray
# grazing the circle). For a d_max below about 10 km, as the fixed 2 m is, a
# culled circle's computed distance still exceeds d_max, and the clip to
# d_max hides it. The other circles' bits stay as the uncut scan's only with
# two or more circles in reach: OpenBLAS runs a one-row ``rel[near] @ dirs``
# through another kernel, so with one circle in reach the cull can move its
# distances by a few 1e-14 m. ROADMAP item 15 chooses the projection.
REACH_MARGIN = 1e-3


@dataclass(frozen=True)
class LidarConfig:
    """A lidar's one setting, its range noise std. The fan is fixed: n_rays
    rays resolution apart from fov_min to fov_max about the heading, ranges
    clamped to [d_min, d_max]. Ray ``n_rays // 2`` is dead ahead (angle 0.0)
    and ray k's angle has the sign of ``k - n_rays // 2``, so ``split_sides``
    goes by index; the cull of REACH_MARGIN needs a short d_max and
    MIN_INTERVAL_RAYS the 3 degree spacing. ``angles`` is read-only and shared
    by every scan. ``noise_std`` is a nonnegative setting by ``geom._real``."""

    resolution: ClassVar[float] = math.radians(3.0)
    fov_min: ClassVar[float] = -math.pi / 2
    fov_max: ClassVar[float] = math.pi / 2
    d_min: ClassVar[float] = 0.0
    d_max: ClassVar[float] = 2.0
    n_rays: ClassVar[int] = round((fov_max - fov_min) / resolution) + 1
    # built symmetrically about the fan center so that mirrored worlds
    # produce exactly mirrored scans
    angles: ClassVar[np.ndarray] = 0.5 * (fov_min + fov_max) + resolution * (
        np.arange(n_rays) - (n_rays - 1) / 2.0
    )
    angles.flags.writeable = False
    noise_std: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "noise_std", _real("noise_std", self.noise_std, zero_ok=True))


# agent-frame unit ray directions, shape (2, n_rays)
_RAY_DIRS = np.stack([np.cos(LidarConfig.angles), np.sin(LidarConfig.angles)])


@dataclass(eq=False)
class LidarScan:
    """Per-ray distances, a numpy array shaped as the shared fan ``angles``
    (agent frame, increasing) and within [d_min, d_max]; ValueError otherwise."""

    angles: ClassVar[np.ndarray] = LidarConfig.angles
    distances: np.ndarray
    agent_inside: bool = False

    def __post_init__(self):
        d, lo, hi = self.distances, LidarConfig.d_min, LidarConfig.d_max
        if not isinstance(d, np.ndarray):
            raise ValueError(f"LidarScan needs distances as a numpy array, got {type(d).__name__}")
        if d.shape != self.angles.shape:
            raise ValueError(f"LidarScan needs distances shaped {self.angles.shape}, got {d.shape}")
        # one min/max pair; a NaN fails both compares
        if not (d.min() >= lo and d.max() <= hi):
            k = int(np.argmin((d >= lo) & (d <= hi)))
            raise ValueError(f"LidarScan needs distances in [{lo}, {hi}], got {d[k]} on ray {k}")


def _check_circles(centers: np.ndarray, radii: np.ndarray) -> None:
    """ValueError unless centers and radii take the one form, float64 numpy
    arrays, of shapes (n, 2) and (n,), with finite centers and positive
    finite radii (a NaN circle would vanish from every scan)."""
    for name, a in (("centers", centers), ("radii", radii)):
        if not isinstance(a, np.ndarray) or a.dtype != np.float64:
            got = f"{a.dtype} array" if isinstance(a, np.ndarray) else type(a).__name__
            raise ValueError(f"obstacle {name} must be a float64 numpy array, got {got}")
    if centers.shape[1:] != (2,) or radii.shape != centers.shape[:1]:
        raise ValueError("obstacle centers must have shape (n, 2) and radii shape (n,)"
                         f" of matching length, got {centers.shape} and {radii.shape}")
    if not np.isfinite(centers).all():
        raise ValueError("obstacle centers must be finite")
    if not ((radii > 0) & (radii < np.inf)).all():
        raise ValueError("obstacle radii must be positive and finite")


class ObstacleSet:
    """Circular obstacles stored as flat read-only arrays for vectorized ray
    casts: both constructors take float64 numpy arrays, (n, 2) centers and
    (n,) radii, with finite centers and positive finite radii, and raise
    ValueError otherwise. The set keeps its own copies, so no later write
    to the caller's arrays reaches a checked circle."""

    def __init__(self, centers: np.ndarray, radii: np.ndarray):
        _check_circles(centers, radii)
        self.centers, self.radii = centers.copy(), radii.copy()
        self.centers.setflags(write=False)
        self.radii.setflags(write=False)

    def __len__(self) -> int:
        return len(self.radii)

    def extended(self, centers: np.ndarray, radii: np.ndarray) -> "ObstacleSet":
        """New set with extra circles appended (used to add agent bodies)."""
        _check_circles(centers, radii)
        # this set's own arrays were checked when it was built
        out = ObstacleSet.__new__(ObstacleSet)
        out.centers = np.concatenate([self.centers, centers])
        out.radii = np.concatenate([self.radii, radii])
        out.centers.setflags(write=False)
        out.radii.setflags(write=False)
        return out


def raycast(
    position: Vec2,
    heading: Angle,
    obstacles: ObstacleSet,
    cfg: LidarConfig,
    rng: np.random.Generator,
) -> LidarScan:
    """Cast the lidar's ray fan from a pose against circular obstacles.

    Each ray reports the nearest intersection distance (or d_max when the
    ray misses everything), plus Gaussian range noise drawn from ``rng``
    when ``cfg.noise_std`` is positive; results are clamped to [d_min,
    d_max]. If the agent center lies inside an obstacle every ray reads
    d_min and ``agent_inside`` is set; its noise is drawn all the same, so
    a collision leaves the noise of later scans from ``rng`` as it was.
    Circles out of reach (see REACH_MARGIN) are dropped before the ray
    work. A non-finite heading raises ValueError.
    """
    heading = _finite("heading", heading)
    n = cfg.n_rays
    noise = rng.normal(0.0, cfg.noise_std, size=n) if cfg.noise_std > 0.0 else None
    rel = obstacles.centers - (position.x, position.y)
    cc = np.einsum("ij,ij->i", rel, rel)
    gap = cc - obstacles.radii**2  # negative inside a circle
    if (gap < 0.0).any():
        return LidarScan(np.full(n, cfg.d_min), agent_inside=True)
    near = cc <= (obstacles.radii + (cfg.d_max + REACH_MARGIN)) ** 2
    c, s = math.cos(heading), math.sin(heading)
    dirs = np.array([[c, -s], [s, c]]) @ _RAY_DIRS
    b = rel[near] @ dirs  # (circles, rays) projections on rays
    # disc = b|b| - gap: a circle behind a ray (b < 0) gets a negative
    # discriminant and misses like one off to the side. The inside test
    # leaves gap >= 0, so a hit's b >= 0 gives a root t >= 0
    disc = np.abs(b)
    disc *= b
    disc -= gap[near][:, None]
    hit = disc >= 0.0
    np.sqrt(disc, out=disc, where=hit)
    b -= disc
    # nearest hit per ray, d_max where none (also with no circle in reach)
    d = np.fmin.reduce(b, axis=0, initial=cfg.d_max, where=hit)
    np.maximum(d, cfg.d_min, out=d)
    if noise is not None:
        d += noise
        np.minimum(d, cfg.d_max, out=d)
        np.maximum(d, cfg.d_min, out=d)
    return LidarScan(d)


def detect_intervals(scan: LidarScan, d_risk: float) -> list[tuple[int, int]]:
    """Maximal runs of consecutive rays closer than d_risk.

    Runs shorter than MIN_INTERVAL_RAYS are discarded. Returns inclusive
    (start, end) ray-index pairs in ascending order. A d_risk that is not
    positive and finite raises ValueError: a NaN or negative one finds no
    run, and the avoider would go blind.
    """
    d_risk = _real("d_risk", d_risk)
    close = np.zeros(len(scan.distances) + 2, bool)  # padded with a clear ray each end
    np.less(scan.distances, d_risk, out=close[1:-1])
    # alternately the first close ray of a run and the first clear one after it
    edges = np.flatnonzero(close[1:] != close[:-1]).tolist()
    return [(s, e - 1) for s, e in zip(edges[::2], edges[1::2]) if e - s >= MIN_INTERVAL_RAYS]


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

    Returns ``(lhs, rhs)``, None for a clear side, the package's one side
    order: side ``s`` is index ``s``, 0 left and 1 right, and its inner
    endpoint, toward the other side, is ``interval[s]``. ``intervals`` must be
    disjoint and ascending, as detect_intervals returns them. Sides go by ray
    index against ray ``c = n_rays // 2``, dead ahead: an interval past ``c``
    is left, one before it right, and one holding ``c`` goes whole to the side
    of its shortest ray or, that ray being ``c``, of more of its rays (left on
    a tie). Per side the foremost is kept: the first left, the last right.
    """
    c = LidarConfig.n_rays // 2
    lhs = rhs = None
    for start, end in intervals:
        # every ray of an interval clear of c is on one side, its start's
        m = shortest_ray(scan, start, end + 1) if start <= c <= end else start
        if m < c or m == c and start + end < 2 * c:
            rhs = (start, end)
        elif lhs is None:
            lhs = (start, end)
    return lhs, rhs


@dataclass(eq=False)
class CommsView:
    """One step of the communication layer.

    adjacency[i, j] is True when agents i and j are inside each other's
    connection zone. neighbors[i] maps agent id j to (distance, world-frame
    bearing from i to j), its ids j in ascending order. broadcast[i] carries
    the navigator's broadcast (d_0i, theta_0i) for follower i, or None when
    i has no communication path to the navigator this step.
    """

    adjacency: np.ndarray
    neighbors: list[dict[int, tuple[float, float]]]
    broadcast: list[tuple[float, float] | None]


def neighbor_observations(positions: list[Vec2], connection_zone: float) -> CommsView:
    """Relative-position observations between agents within the connection zone.

    Agent 0 is the navigator; its broadcast (distance and bearing from the
    navigator to each follower) is relayed through the network, so every
    follower in the navigator's connected component receives it. An empty
    ``positions`` raises ValueError, and so does a ``connection_zone`` that
    is not a positive setting by ``geom._real``.
    """
    connection_zone = _real("connection_zone", connection_zone)
    if not positions:
        raise ValueError("positions is empty: agent 0, the navigator, is required")
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

    rows, cols = np.nonzero(adjacency)
    neighbors: list[dict[int, tuple[float, float]]] = [{} for _ in range(n)]
    for i, j, d, dx, dy in zip(rows.tolist(), cols.tolist(), dist[rows, cols].tolist(),
                               *diff[rows, cols].T.tolist()):
        neighbors[i][j] = (d, math.atan2(dy, dx))
    # the navigator's row holds its broadcast link to each follower
    broadcast: list[tuple[float, float] | None] = [None] * n
    for i, (hears, d, dx, dy) in enumerate(zip(reached.tolist(), dist[0].tolist(),
                                               *diff[0].T.tolist())):
        if i and hears:
            broadcast[i] = (d, math.atan2(dy, dx))
    return CommsView(adjacency, neighbors, broadcast)
