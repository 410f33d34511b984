"""Seeded worlds and the episode step for leader-follower formations.

One ``Env`` holds a navigator (agent 0) and N followers in an obstacle
field drawn from a seed. An episode step comes in two halves, so that a
caller can record, act and train between them:

1. ``sense``: the comms graph over all agents; per follower, the lidar scan
   with the other agents as bodies (``ObstacleSet.extended``, then
   ``raycast``), the side reading that ``Spec.avoidance`` names, the
   tracking cost and the observation row. It returns the rows, the
   per-follower costs, whether a follower collided and whether the episode
   has ended.
2. ``move``: one unicycle step for every agent; the navigator cruises with
   ``NAV_ACTION``, each follower applies its simplex action.

An episode ends when a follower's scan reports ``agent_inside`` (a
collision, an outcome and not an error) or at the EPISODE_STEPS-th
``sense``. The caller then calls ``reset``, which draws the next world.

The paper's scenario parameters are not published with it; every constant
below is chosen here.

Observation layout (per follower, agent frame unless noted):
  0-1   broadcast tracking error (z - eta), rotated into the agent frame [m]
  2     1 if the navigator's broadcast reached this follower, else 0
  3     v / v_max
  4     omega / omega_max
  5-8   left side: active flag, stream error c - c_desired (0 under APF),
        proximity 1/d_m - 1/d_risk, inner-ray angle [rad]
  9-12  right side: the same four features
  13-14 nearest neighbour's position in the agent frame [m]
  15    neighbours in the connection zone / 8
  16    shortest lidar range / d_max
  17-19 the follower's previous simplex action

Per-follower cost (a learner minimizes it):
  W_TRACK * |e|² + W_AVOID * avoidance cost (stream or APF)
  + COLLISION_COST when the follower's scan reports a collision.
The side readings follow Waydo & Murray, "Vehicle Motion Planning Using
Stream Functions" (ICRA 2003), and Khatib, "Real-Time Obstacle Avoidance
for Manipulators and Mobile Robots" (IJRR 1986).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .apf import ApfParams, apf_cost
from .ddpg import map_action, simplex_from_controls
from .dynamics import AgentState, Limits, step
from .formation import (
    FormationSpec,
    TrackingWeight,
    relative_displacement,
    tracking_cost,
    tracking_error,
)
from .geom import Vec2
from .sensing import (
    LidarConfig,
    LidarScan,
    ObstacleSet,
    detect_intervals,
    neighbor_observations,
    raycast,
    split_sides,
)
from .stream_avoid import StreamAvoider, StreamParams

DT = 0.1
EPISODE_STEPS = 200
OBS_DIM = 20
# Limits are per role: the navigator cruises at its v_max, followers may
# go faster to catch up with their slots.
NAV_LIMITS = Limits(v_max=0.3, omega_max=1.0, a_max=0.5, beta_max=2.0)
LIMITS = Limits(v_max=0.4, omega_max=1.0, a_max=0.5, beta_max=2.0)
NAV_ACTION = np.array([0.0, 0.5, 0.5])  # no acceleration, no turn
BODY_RADIUS = 0.1
LIDAR = LidarConfig()  # 61 rays over the front half-plane, 2 m, range noise 0.2 m
STREAM = StreamParams()
APF = ApfParams(cutoff=STREAM.d_risk)
TRACKING = TrackingWeight.identity()
W_TRACK, W_AVOID, COLLISION_COST = 1.0, 1.0, 10.0
# floor on the APF side distance: a noisy ray can read exactly d_min = 0
MIN_SIDE_DISTANCE = 1e-3
# half-width of the strip kept free of obstacles along the navigator's path
CORRIDOR = 0.6
OBSTACLE_RADII = (0.1, 0.25)
# scripted follower: the proportional law on the stream error from the
# stream-avoidance tests, else steer at a point LOOKAHEAD ahead of the
# formation slot
STREAM_GAIN, HEADING_GAIN, LOOKAHEAD, ACCEL_SHARE = 3.0, 2.0, 1.0, 0.4

class StreamSides:
    """One follower's stream side reading. It owns the StreamAvoider that
    keeps each side's desired stream value across steps, so a fresh reading
    starts with both sides clear."""

    def __init__(self):
        self._avoider = StreamAvoider(STREAM)

    def read(self, scan: LidarScan) -> tuple[list, float]:
        """Four features per side, left then right, and the avoidance cost."""
        out = self._avoider.update(scan)
        feats = []
        for state, rd in zip(out.states, out.readings):
            if rd is None:
                feats += [0.0, 0.0, 0.0, 0.0]
                continue
            e = rd.c_current - state.c_desired
            feats += [1.0, e, 1.0 / rd.m_distance - 1.0 / STREAM.d_risk, rd.inner_angle]
        return feats, out.cost


class ApfSides:
    """One follower's APF side reading, the baseline: it reads each side's
    shortest ray and keeps no memory."""

    def read(self, scan: LidarScan) -> tuple[list, float]:
        """Four features per side, left then right, and the avoidance cost."""
        feats, dists = [], []
        for side, interval in enumerate(split_sides(detect_intervals(scan, STREAM.d_risk), scan)):
            if interval is None:
                feats += [0.0, 0.0, 0.0, 0.0]
                dists.append(None)
                continue
            start, end = interval
            d = max(float(scan.distances[start : end + 1].min()), MIN_SIDE_DISTANCE)
            dists.append(d)
            feats += [1.0, 0.0, 1.0 / d - 1.0 / STREAM.d_risk, float(scan.angles[interval[side]])]
        return feats, apf_cost(dists, APF)


def _lattice(side: int, spacing: float) -> tuple:
    """Square lattice around the navigator at its centre (navigator excluded)."""
    half = side // 2
    return tuple(
        Vec2((i - half) * spacing, (j - half) * spacing)
        for i in range(side)
        for j in range(side)
        if (i, j) != (half, half)
    )


@dataclass(frozen=True)
class Spec:
    """A formation and its obstacle field, the comms range, the side reading
    every follower uses, and the controller that the caller runs."""

    offsets: tuple
    n_obstacles: int
    field_box: tuple[float, float, float]  # x_min, x_max, |y| max of obstacle centres
    connection_zone: float
    avoidance: type[StreamSides | ApfSides]  # Env.reset builds one per follower
    controller: str  # "learner", "scripted" or "actor"; the caller's to run


SPECS = {
    "train": Spec(FormationSpec.circle(4, 1.0).offsets, 40, (2.0, 10.0, 4.0), 3.0,
                  StreamSides, "learner"),
    "obstacle_course": Spec(FormationSpec.circle(8, 1.2).offsets, 120, (2.0, 10.0, 4.0), 3.0,
                            StreamSides, "scripted"),
    # 7x7 lattice, 0.8 m apart; a 1.2 m zone links lattice and diagonal
    # neighbours, so the corners hear the navigator only by relay
    "swarm": Spec(_lattice(7, 0.8), 20, (4.0, 12.0, 6.0), 1.2, ApfSides, "actor"),
}


class Env:
    """One formation's world, agents and side readings.

    ``SeedSequence(seed).spawn(5)`` gives five generators, in this order:
    ``world_rng`` draws each episode's obstacles and ``noise_rng`` the lidar
    noise; ``policy_rng``, ``train_rng`` and ``init_rng`` are the caller's,
    for its controller's exploration, training and initial weights, so that
    a seed fixes the whole run.
    """

    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.n_followers = len(spec.offsets)
        world_ss, noise_ss, policy_ss, train_ss, init_ss = np.random.SeedSequence(seed).spawn(5)
        self.world_rng = np.random.default_rng(world_ss)
        self.noise_rng = np.random.default_rng(noise_ss)
        self.policy_rng = np.random.default_rng(policy_ss)
        self.train_rng = np.random.default_rng(train_ss)
        self.init_rng = np.random.default_rng(init_ss)
        self.reset()

    def reset(self) -> None:
        """Start an episode: a fresh obstacle field, agents in their slots,
        and a fresh side reading per follower."""
        x0, x1, y_max = self.spec.field_box
        n = self.spec.n_obstacles
        radii = self.world_rng.uniform(*OBSTACLE_RADII, n)
        xs = self.world_rng.uniform(x0, x1, n)
        ys = self.world_rng.uniform(CORRIDOR, y_max, n) * self.world_rng.choice([-1.0, 1.0], n)
        ys = np.where(np.abs(ys) < CORRIDOR + radii, np.sign(ys) * (CORRIDOR + radii), ys)
        self.world = ObstacleSet(np.column_stack([xs, ys]), radii)
        v0 = NAV_LIMITS.v_max
        self.agents = [AgentState(Vec2(0.0, 0.0), v0, 0.0, 0.0)] + [
            AgentState(off, v0, 0.0, 0.0) for off in self.spec.offsets
        ]
        self.sides = [self.spec.avoidance() for _ in range(self.n_followers)]
        self.prev_actions = np.tile(NAV_ACTION, (self.n_followers, 1))
        self.t = 0

    def sense(self) -> tuple[np.ndarray, np.ndarray, bool, bool]:
        """Observation rows (n_followers, OBS_DIM), per-follower costs, whether
        a follower collided, and whether the episode has ended."""
        spec, agents, nf = self.spec, self.agents, self.n_followers
        positions = [a.position for a in agents]
        comms = neighbor_observations(positions, spec.connection_zone)
        centers = np.array([(p.x, p.y) for p in positions])
        body_radii = np.full(len(agents) - 1, BODY_RADIUS)
        nav = agents[0].position
        obs = np.empty((nf, OBS_DIM))
        costs = np.empty(nf)
        collided = False
        for k in range(nf):
            a = agents[k + 1]
            world_k = self.world.extended(np.delete(centers, k + 1, axis=0), body_radii)
            scan = raycast(a.position, a.alpha, world_k, LIDAR, self.noise_rng)
            collided |= scan.agent_inside
            sides, c_avoid = self.sides[k].read(scan)
            e = tracking_error(a.position - nav, spec.offsets[k])
            costs[k] = (W_TRACK * tracking_cost(e, TRACKING) + W_AVOID * c_avoid
                        + (COLLISION_COST if scan.agent_inside else 0.0))
            obs[k] = self._observation(k, a, comms, sides, scan)
        self.t += 1
        return obs, costs, collided, collided or self.t >= EPISODE_STEPS

    def move(self, actions: np.ndarray) -> None:
        """One step of every agent: the navigator's NAV_ACTION, then row k of
        ``actions`` (simplex actions) for follower k."""
        new = [step(self.agents[0], map_action(NAV_ACTION, NAV_LIMITS), DT, NAV_LIMITS)]
        for a, u in zip(self.agents[1:], actions, strict=True):
            new.append(step(a, map_action(u, LIMITS), DT, LIMITS))
        self.agents = new
        self.prev_actions = np.array(actions)  # the caller may write into its array

    def scripted_actions(self, obs: np.ndarray) -> np.ndarray:
        """Each follower's action under the scripted law, from its own row:
        while a side is active, turn against the summed stream error; else
        steer at a point LOOKAHEAD ahead of the slot, or, with no broadcast,
        back to heading 0. Accelerate while behind the slot."""
        rows = []
        for a, ob in zip(self.agents[1:], obs, strict=True):
            if ob[5] or ob[9]:
                omega = -STREAM_GAIN * (ob[6] + ob[10])
            elif ob[2]:
                # ob[0:2] is the slot error in the agent frame
                omega = HEADING_GAIN * math.atan2(-ob[1], LOOKAHEAD - ob[0])
            else:
                omega = -HEADING_GAIN * math.remainder(a.alpha, 2 * math.pi)
            omega = min(max(omega, -LIMITS.omega_max), LIMITS.omega_max)
            accel = ACCEL_SHARE * LIMITS.a_max if ob[0] < 0.0 else 0.0
            rows.append(simplex_from_controls(accel, (omega - a.omega) / DT, LIMITS))
        return np.array(rows)

    def _observation(self, k: int, a: AgentState, comms, sides: list, scan: LidarScan) -> list:
        c, s = math.cos(a.alpha), math.sin(a.alpha)
        bcast = comms.broadcast[k + 1]
        if bcast is None:
            err = [0.0, 0.0, 0.0]
        else:
            z = relative_displacement(*bcast)
            eta = self.spec.offsets[k]
            ex, ey = z.x - eta.x, z.y - eta.y
            err = [c * ex + s * ey, -s * ex + c * ey, 1.0]
        nbrs = comms.neighbors[k + 1]
        if nbrs:
            d, theta = min(nbrs.values())
            nearest = [d * math.cos(theta - a.alpha), d * math.sin(theta - a.alpha)]
        else:
            nearest = [0.0, 0.0]
        return (
            err
            + [a.v / LIMITS.v_max, a.omega / LIMITS.omega_max]
            + sides
            + nearest
            + [len(nbrs) / 8.0, float(scan.distances.min()) / LIDAR.d_max]
            + list(self.prev_actions[k])
        )
