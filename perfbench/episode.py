"""Seeded worlds and the episode driver for the three benchmark workloads.

The package has no environment module yet, so the benchmark carries this
small one. Every call into the package goes through ``adapter`` (imported
as ``sf``). One env step, for N followers and the navigator (agent 0):

1. ``neighbor_observations`` over all agents;
2. per follower: ``ObstacleSet.extended`` with the other agents as bodies,
   then ``raycast``;
3. per follower: ``StreamAvoider.update`` (stream cost) or
   ``detect_intervals``/``split_sides`` + ``apf_cost`` (APF cost), then the
   tracking error and ``tracking_cost``;
4. the observation builder below (OBS_DIM = 20);
5. the policy act, then ``map_action`` -> ``dynamics.step`` for every agent;
6. ``DdpgLearner.record`` and ``train_step`` where the workload trains.

An episode ends when a follower's scan reports ``agent_inside`` (a
collision, an outcome and not an error) or after EPISODE_STEPS steps. The
step that ends an episode also saves the checkpoint (``train``) and draws
the next world, so every piece of timed work belongs to some step.

The paper's scenario parameters are not in the repository; every constant
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

Per-follower cost (the learner minimizes it):
  W_TRACK * e^T I e + W_AVOID * avoidance cost (stream or APF)
  + COLLISION_COST when the follower's scan reports a collision.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import adapter as sf

DT = 0.1
EPISODE_STEPS = 200
OBS_DIM = 20
# Limits are per role: the navigator cruises at its v_max, followers may
# go faster to catch up with their slots.
NAV_LIMITS = sf.Limits(v_max=0.3, omega_max=1.0, a_max=0.5, beta_max=2.0)
LIMITS = sf.Limits(v_max=0.4, omega_max=1.0, a_max=0.5, beta_max=2.0)
NAV_ACTION = np.array([0.0, 0.5, 0.5])  # no acceleration, no turn
BODY_RADIUS = 0.1
LIDAR = sf.LidarConfig()  # 61 rays over the front half-plane, 2 m, range noise 0.2 m
STREAM = sf.StreamParams()
APF = sf.ApfParams(cutoff=STREAM.d_risk)
TRACKING = sf.TrackingWeight.identity()
W_TRACK, W_AVOID, COLLISION_COST = 1.0, 1.0, 10.0
# floor on the APF side distance: a noisy ray can read exactly d_min = 0
MIN_SIDE_DISTANCE = 1e-3
# half-width of the strip kept free of obstacles along the navigator's path
CORRIDOR = 0.6
OBSTACLE_RADII = (0.1, 0.25)
# scripted follower (obstacle_course): the proportional law on the stream
# error from the stream-avoidance tests, else steer at a point LOOKAHEAD
# ahead of the formation slot
STREAM_GAIN, HEADING_GAIN, LOOKAHEAD, ACCEL_SHARE = 3.0, 2.0, 1.0, 0.4
WARMUP_TRAIN_STEPS = 3
DIGEST_STEPS = 20
ACTION_TOL = 1e-9


def lattice(side: int, spacing: float) -> tuple:
    """Square lattice around the navigator at its centre (navigator excluded)."""
    half = side // 2
    return tuple(
        sf.Vec2((i - half) * spacing, (j - half) * spacing)
        for i in range(side)
        for j in range(side)
        if (i, j) != (half, half)
    )


def circle(n: int, radius: float) -> tuple:
    return sf.FormationSpec.circle(n, radius).offsets


@dataclass(frozen=True)
class Spec:
    offsets: tuple
    n_obstacles: int
    field_box: tuple[float, float, float]  # x_min, x_max, |y| max of obstacle centres
    connection_zone: float
    avoidance: str  # "stream" or "apf"
    controller: str  # "learner", "scripted" or "actor"


# Why each workload exists is written in run.py's docstring.
SPECS = {
    "train": Spec(circle(4, 1.0), 40, (2.0, 10.0, 4.0), 3.0, "stream", "learner"),
    "obstacle_course": Spec(circle(8, 1.2), 120, (2.0, 10.0, 4.0), 3.0, "stream", "scripted"),
    # 7x7 lattice, 0.8 m apart; a 1.2 m zone links lattice and diagonal
    # neighbours, so the corners hear the navigator only by relay
    "swarm": Spec(lattice(7, 0.8), 20, (4.0, 12.0, 6.0), 1.2, "apf", "actor"),
}


class CheckFailed(RuntimeError):
    """An output check failed: a non-finite or out-of-range value."""


@dataclass
class Stats:
    """Counts and behaviour over the steps seen so far."""

    steps: int = 0
    follower_steps: int = 0
    ray_circle_tests: int = 0
    links: int = 0
    broadcast_reached: int = 0
    side_steps: int = 0
    avoid_sides: int = 0
    stream_sides: int = 0
    stream_degenerate: int = 0
    stream_relock: int = 0
    stream_hold: int = 0
    nonfinite: int = 0
    episodes: int = 0
    collisions: int = 0
    formation_error_sum: float = 0.0
    min_clearance: float = math.inf

    def snapshot(self) -> "Stats":
        return copy.copy(self)


def _check_finite(values, what: str, stats: Stats) -> None:
    bad = int(np.size(values) - np.count_nonzero(np.isfinite(values)))
    if bad:
        stats.nonfinite += bad
        raise CheckFailed(f"{bad} non-finite value(s) in {what}")


def _check_state(s, limits) -> None:
    if not (math.isfinite(s.position.x) and math.isfinite(s.position.y)
            and math.isfinite(s.v) and math.isfinite(s.alpha) and math.isfinite(s.omega)):
        raise CheckFailed(f"non-finite state {s}")
    if not (0.0 <= s.v <= limits.v_max and abs(s.omega) <= limits.omega_max):
        raise CheckFailed(f"state {s} outside limits {limits}")


def _check_actions(actions: np.ndarray) -> None:
    if np.any(actions < -ACTION_TOL) or np.any(np.abs(actions.sum(axis=1) - 1.0) > ACTION_TOL):
        raise CheckFailed("action off the probability simplex")


class Workload:
    """One workload's world, agents, controller and counters."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        self.spec = spec = SPECS[name]
        self.n_followers = len(spec.offsets)
        world_ss, noise_ss, policy_ss, train_ss, init_ss = np.random.SeedSequence(seed).spawn(5)
        self.world_rng = np.random.default_rng(world_ss)
        self.noise_rng = np.random.default_rng(noise_ss)
        self.policy_rng = np.random.default_rng(policy_ss)
        self.train_rng = np.random.default_rng(train_ss)
        init_rng = np.random.default_rng(init_ss)
        self.cfg = sf.TrainerConfig()
        self.ckpt_path = out_dir / f"{name}-{seed}.ckpt"
        self.learner = self.policy = None
        if spec.controller == "learner":
            self.learner = sf.DdpgLearner(OBS_DIM, self.cfg, init_rng)
        elif spec.controller == "actor":
            sf.save_actor(self.ckpt_path, sf.new_actor(OBS_DIM, self.cfg, init_rng))
            self.policy = sf.load_policy(self.ckpt_path)
        self.avoiders = [sf.StreamAvoider(STREAM) for _ in range(self.n_followers)]
        self.stats = Stats()
        self.episode = 0
        self.training = False
        self.digest_left = 0
        self.hasher = hashlib.blake2b(digest_size=16)
        self.reset()
        if self.learner is not None:
            # replay prefill to batch_size, then warm-up updates
            while not sf.learner_ready(self.learner):
                self.step()
            for _ in range(WARMUP_TRAIN_STEPS):
                sf.train_step(self.learner, self.train_rng)
            self.training = True

    # -- episodes ---------------------------------------------------------
    def reset(self) -> None:
        """Start an episode: a fresh obstacle field, agents in their slots."""
        x0, x1, y_max = self.spec.field_box
        n = self.spec.n_obstacles
        radii = self.world_rng.uniform(*OBSTACLE_RADII, n)
        xs = self.world_rng.uniform(x0, x1, n)
        ys = self.world_rng.uniform(CORRIDOR, y_max, n) * self.world_rng.choice([-1.0, 1.0], n)
        ys = np.where(np.abs(ys) < CORRIDOR + radii, np.sign(ys) * (CORRIDOR + radii), ys)
        self.world = sf.ObstacleSet(np.column_stack([xs, ys]), radii)
        v0 = NAV_LIMITS.v_max
        self.agents = [sf.AgentState(sf.Vec2(0.0, 0.0), v0, 0.0, 0.0)] + [
            sf.AgentState(off, v0, 0.0, 0.0) for off in self.spec.offsets
        ]
        for av in self.avoiders:
            av.reset()
        self.prev_obs = None
        self.prev_actions = np.tile(NAV_ACTION, (self.n_followers, 1))
        self.t = 0

    def end_episode(self, collided: bool) -> None:
        self.stats.episodes += 1
        self.stats.collisions += int(collided)
        if self.training:
            sf.save_learner(self.learner, self.ckpt_path)
        self.episode += 1
        self.reset()

    def start_timed(self) -> None:
        """Zero the counters and digest the next DIGEST_STEPS steps."""
        self.stats = Stats()
        self.digest_left = DIGEST_STEPS

    def digest(self) -> str:
        return self.hasher.hexdigest()

    # -- one env step -----------------------------------------------------
    def step(self) -> None:
        spec, st, agents = self.spec, self.stats, self.agents
        nf = self.n_followers
        positions = [a.position for a in agents]
        comms = sf.neighbor_observations(positions, spec.connection_zone)
        centers = np.array([(p.x, p.y) for p in positions])
        body_radii = np.full(len(agents) - 1, BODY_RADIUS)
        nav = agents[0].position
        obs = np.empty((nf, OBS_DIM))
        costs = np.empty(nf)
        stream_err = np.zeros(nf)
        avoiding = np.zeros(nf, dtype=bool)
        collided = False
        for k in range(nf):
            i = k + 1
            a = agents[i]
            world_i = sf.extended(self.world, np.delete(centers, i, axis=0), body_radii)
            scan = sf.raycast(a.position, a.alpha, world_i, LIDAR, self.noise_rng)
            inside = scan.agent_inside
            collided |= inside
            if not inside:
                st.ray_circle_tests += LIDAR.n_rays * len(world_i)
            if spec.avoidance == "stream":
                sides, c_avoid, stream_err[k] = self._stream_sides(k, scan)
            else:
                sides, c_avoid = self._apf_sides(scan)
            avoiding[k] = sides[0] or sides[4]
            st.avoid_sides += int(sides[0]) + int(sides[4])
            z_true = sf.Vec2(a.position.x - nav.x, a.position.y - nav.y)
            e_true, c_track = sf.formation_cost(z_true, spec.offsets[k], TRACKING)
            cost = W_TRACK * c_track + W_AVOID * c_avoid + (COLLISION_COST if inside else 0.0)
            if not (math.isfinite(cost) and cost >= 0.0):
                st.nonfinite += not math.isfinite(cost)
                raise CheckFailed(f"follower {k} cost {cost}")
            costs[k] = cost
            st.formation_error_sum += math.hypot(e_true.x, e_true.y)
            obs[k] = self._observation(k, a, comms, sides, scan)
        _check_finite(obs, "observations", st)
        self._count_step(comms, centers)

        if self.learner is not None and self.prev_obs is not None:
            for k in range(nf):
                sf.record(self.learner, self.prev_obs[k], self.prev_actions[k],
                          costs[k], obs[k], collided)
        self.t += 1
        if collided or self.t >= EPISODE_STEPS:
            self.end_episode(collided)
            return

        if spec.controller == "learner":
            sigma = self.cfg.sigma_at(self.episode)
            actions = sf.learner_act(self.learner, obs, sigma, self.policy_rng)
        elif spec.controller == "actor":
            actions = sf.policy_act(self.policy, obs)
        else:
            actions = np.array([
                self._scripted(agents[k + 1], obs[k], stream_err[k], avoiding[k])
                for k in range(nf)
            ])
        _check_finite(actions, "actions", st)
        _check_actions(actions)

        new = [sf.agent_step(agents[0], NAV_ACTION, DT, NAV_LIMITS)]
        for k in range(nf):
            new.append(sf.agent_step(agents[k + 1], actions[k], DT, LIMITS))
        _check_state(new[0], NAV_LIMITS)
        for s in new[1:]:
            _check_state(s, LIMITS)
        self.agents = new
        self.prev_obs, self.prev_actions = obs, actions

        if self.training:
            info = sf.train_step(self.learner, self.train_rng)
            _check_finite([info["critic_loss"], info["actor_q"]], "learner losses", st)
        if self.digest_left:
            self.digest_left -= 1
            self.hasher.update(np.array(
                [(s.position.x, s.position.y, s.v, s.alpha, s.omega) for s in new]
            ).tobytes())
            self.hasher.update(actions.tobytes())

    def fail_episode(self) -> None:
        """Drop an episode that raised; count it as ended."""
        self.stats.episodes += 1
        self.episode += 1
        self.reset()

    # -- pieces of a step -------------------------------------------------
    def _stream_sides(self, k: int, scan):
        prev = self.avoiders[k].states
        out = sf.stream_update(self.avoiders[k], scan)
        st = self.stats
        feats, err = [], 0.0
        for side in (0, 1):
            state, rd = out.states[side], out.readings[side]
            if rd is None:
                feats += [0.0, 0.0, 0.0, 0.0]
                continue
            e = rd.c_current - state.c_desired
            err += e
            feats += [1.0, e, 1.0 / rd.m_distance - 1.0 / STREAM.d_risk, rd.inner_angle]
            st.stream_sides += 1
            st.stream_degenerate += rd.degenerate
            if prev[side].avoid and prev[side].c_desired is not None:
                if state.c_desired == prev[side].c_desired:
                    st.stream_hold += 1
                else:
                    st.stream_relock += 1
        return feats, out.cost, err

    def _apf_sides(self, scan):
        lhs, rhs = sf.split_sides(sf.detect_intervals(scan, STREAM.d_risk), scan)
        feats, dists = [], []
        for interval, inner in ((lhs, 0), (rhs, 1)):
            if interval is None:
                feats += [0.0, 0.0, 0.0, 0.0]
                dists.append(None)
                continue
            start, end = interval
            d = max(float(scan.distances[start : end + 1].min()), MIN_SIDE_DISTANCE)
            dists.append(d)
            feats += [1.0, 0.0, 1.0 / d - 1.0 / STREAM.d_risk, float(scan.angles[interval[inner]])]
        return feats, sf.apf_cost(dists, APF)

    def _observation(self, k: int, a, comms, sides, scan) -> list:
        c, s = math.cos(a.alpha), math.sin(a.alpha)
        bcast = comms.broadcast[k + 1]
        if bcast is None:
            err = [0.0, 0.0, 0.0]
        else:
            z = sf.relative_displacement(*bcast)
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

    def _scripted(self, a, ob, stream_err: float, avoiding: bool) -> np.ndarray:
        if avoiding:
            omega = -STREAM_GAIN * stream_err
        elif ob[2]:
            # ob[0:2] is the slot error in the agent frame: aim ahead of the slot
            omega = HEADING_GAIN * math.atan2(-ob[1], LOOKAHEAD - ob[0])
        else:
            omega = -HEADING_GAIN * math.remainder(a.alpha, 2 * math.pi)
        omega = min(max(omega, -LIMITS.omega_max), LIMITS.omega_max)
        accel = ACCEL_SHARE * LIMITS.a_max if ob[0] < 0.0 else 0.0
        return sf.simplex_from_controls(accel, (omega - a.omega) / DT, LIMITS)

    def _count_step(self, comms, centers) -> None:
        st, nf = self.stats, self.n_followers
        st.steps += 1
        st.follower_steps += nf
        st.side_steps += 2 * nf
        st.links += int(np.count_nonzero(comms.adjacency)) // 2
        st.broadcast_reached += sum(b is not None for b in comms.broadcast[1:])
        rel = centers[1:, None, :] - self.world.centers[None, :, :]
        gap = np.sqrt(np.einsum("ijk,ijk->ij", rel, rel)) - self.world.radii
        st.min_clearance = min(st.min_clearance, float(gap.min()))
