"""Isolated medians of the learner's three hot calls and of ``train_step``'s
four phases, of its checkpoint, of the side split and the stream avoider's
update, of one follower's step and scan, of the comms graph and of the env's
whole sensing pass, for comparing two trees.

    python3 tests/learner_timing.py

prints seventeen medians, then the machine they ran on:

- ``train_step_ms <median>``: ``DdpgLearner.train_step`` of a learner with
  the default ``TrainerConfig`` (batch 1024), seed 0 and the benchmark's
  20-wide observations, on a buffer filled with one batch of random
  transitions;
- ``td_targets_ms``, ``critic_grads_ms``, ``actor_grads_ms`` and
  ``updates_ms <median>``: ``train_step``'s four phases, in its order, on
  the same learner's own blocks and the batch in its ``sample`` block:
  ``compute_td_targets``, ``critic_loss_grads``, ``actor_objective_grads``
  and the rest (the batch sample, both Adam steps and both soft updates);
- ``act_us <median>``: ``DdpgLearner.act`` of the same learner on 4
  observation rows at the config's starting ``sigma``;
- ``policy_act_us <median>``: ``ActorPolicy.act`` of the same learner's
  actor on 48 observation rows, the greedy pass of the swarm workload;
- ``checkpoint_save_ms <median>`` and ``checkpoint_load_ms <median>``:
  ``save_checkpoint`` of the same learner's ``network_arrays()`` to a file in
  a temporary directory, and ``load_checkpoint`` of that file;
- ``sides_us <median>``: ``detect_intervals`` at the avoider's ``d_risk``,
  then ``split_sides``, on one fixed noiseless scan of a circle dead ahead,
  so that its one interval straddles the heading: the call pair of
  ``env.ApfSides.read``;
- ``stream_update_us <median>``: ``StreamAvoider.update`` on one fixed
  noiseless scan of two circles, one each side of the heading, so that both
  sides engage, fit a cylinder and re-lock on every call;
- ``stream_update_clear_us <median>``: the same avoider's update on a clear
  scan, every ray at ``d_max``;
- ``agent_step_us <median>``: ``map_action`` and ``dynamics.step`` of one
  follower at the ``env`` limits and time step, the per-follower move of
  every workload;
- ``raycast_us <median>``: one noisy ``raycast`` (the ``env`` lidar, range
  noise 0.2 m) from the middle follower of the swarm workload's seed-0
  start, against its 68 circles (20 obstacles and the other 48 followers'
  bodies, 20 of them within reach), as ``Env.sense`` casts it;
- ``comms_us <median>``: ``neighbor_observations`` over the 49 agents of the
  swarm workload's seed-0 start at that workload's connection zone, as
  ``Env.sense`` calls it;
- ``sense_swarm_ms <median>`` and ``sense_obstacle_course_ms <median>``:
  ``Env.sense`` of each workload's env at seed 0, repeated from its start
  (the side readers and the lidar noise advance between calls, the agents
  do not move);
- ``machine.<key> <value>`` lines: the Python and numpy versions, the BLAS
  numpy was built with and its version, ``os.cpu_count()``, the
  ``OPENBLAS_NUM_THREADS`` setting (``unset`` when it is not set) and the
  learner's ``DTYPE``, so that two trees' medians show what each ran on.

Each call is timed alone with ``time.perf_counter`` after ``WARMUP``
untimed ones. A busy host switches between speed levels every second or so,
so one 200-call window reads whichever level it fell on. The ``CALLS`` timed
calls of each median therefore run as ``WINDOWS`` windows of consecutive
calls, taken in turn with the other medians' windows so that they spread
over the whole run, and the value printed is the smallest window median. To
compare a change with its parent, run the same copy of this script in both
trees on one machine, several times in alternation.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from streamform.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from streamform.ddpg import (  # noqa: E402
    ACTION_DIM,
    DTYPE,
    ActorPolicy,
    DdpgLearner,
    TrainerConfig,
    actor_objective_grads,
    compute_td_targets,
    critic_loss_grads,
    map_action,
    soft_update,
)
from streamform.dynamics import step  # noqa: E402
from streamform.env import BODY_RADIUS, DT, LIDAR, LIMITS, SPECS, Env  # noqa: E402
from streamform.geom import Vec2  # noqa: E402
from streamform.sensing import (  # noqa: E402
    LidarConfig,
    LidarScan,
    ObstacleSet,
    detect_intervals,
    neighbor_observations,
    raycast,
    split_sides,
)
from streamform.stream_avoid import StreamAvoider, StreamParams  # noqa: E402

OBS_DIM = 20  # the observation width of the benchmark's workloads
ACT_ROWS = 4
POLICY_ROWS = 48  # the swarm workload's followers
# (x, y, radius) [m]: two circles ahead, left and right of the heading,
# and one dead ahead
STREAM_CIRCLES = ((0.7, 0.35, 0.2), (0.7, -0.35, 0.2))
AHEAD_CIRCLES = ((0.6, 0.0, 0.25),)
STEP_ACTION = np.array([0.2, 0.5, 0.3])  # accelerate and turn left
WARMUP = 50
CALLS = 200
WINDOWS = 10


def _fastest_window_medians(calls: dict) -> dict[str, float]:
    """Seconds per call of each of ``calls``: the smallest median of its
    ``WINDOWS`` windows, which run in turn with the other calls' windows."""
    for call in calls.values():
        for _ in range(WARMUP):
            call()
    medians = {name: [] for name in calls}
    for _ in range(WINDOWS):
        for name, call in calls.items():
            times = []
            for _ in range(CALLS // WINDOWS):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            medians[name].append(statistics.median(times))
    return {name: min(values) for name, values in medians.items()}


def _phases(learner: DdpgLearner, rng: np.random.Generator) -> dict:
    """``train_step``'s four phases as calls on the learner's own blocks, in
    its order. The three gradient phases read the batch in the learner's
    ``sample`` block, which ``train_step`` and the last phase refill."""
    a_bufs, c_bufs = learner.actor_bufs, learner.critic_bufs
    a_opt, c_opt = learner.actor_opt, learner.critic_opt
    obs, act, rew, obs_next, done = learner.buffer.sample(rng, learner.sample)

    def td_targets():
        return compute_td_targets(
            learner.target_actor, learner.target_critic, rew, obs_next, done, a_bufs, c_bufs
        )

    def updates():
        learner.buffer.sample(rng, learner.sample)
        c_opt.step()
        a_opt.step()
        soft_update(learner.target_actor, learner.actor)
        soft_update(learner.target_critic, learner.critic)

    targets = td_targets()
    return {
        "td_targets_ms": td_targets,
        "critic_grads_ms": lambda: critic_loss_grads(
            learner.critic, obs, act, targets, c_bufs, c_opt.grad
        ),
        "actor_grads_ms": lambda: actor_objective_grads(
            learner.actor, learner.critic, obs, a_bufs, c_bufs, a_opt.grad
        ),
        "updates_ms": updates,
    }


def measure() -> dict[str, float]:
    """The seventeen medians, in ms and µs, keyed as printed."""
    cfg = TrainerConfig()
    rng = np.random.default_rng(0)
    learner = DdpgLearner(OBS_DIM, cfg, rng)
    for _ in range(cfg.batch_size):
        learner.record(
            rng.normal(size=OBS_DIM), rng.dirichlet(np.ones(ACTION_DIM)), rng.normal(),
            rng.normal(size=OBS_DIM), False,
        )
    obs = rng.normal(size=(ACT_ROWS, OBS_DIM))
    policy, swarm_obs = ActorPolicy(learner.actor), rng.normal(size=(POLICY_ROWS, OBS_DIM))
    arrays = learner.network_arrays()
    noiseless = LidarConfig(noise_std=0.0)
    scan, ahead = (
        raycast(Vec2(0.0, 0.0), 0.0, ObstacleSet(c[:, :2], c[:, 2]), noiseless, rng)
        for c in (np.array(STREAM_CIRCLES), np.array(AHEAD_CIRCLES))
    )
    avoider = StreamAvoider(StreamParams())
    clear = LidarScan(np.full(LidarConfig.n_rays, LidarConfig.d_max))
    swarm = Env(SPECS["swarm"], 0)
    k = swarm.n_followers // 2
    follower = swarm.agents[k + 1]
    centers = np.array([(a.position.x, a.position.y) for a in swarm.agents])
    bodies = np.full(len(centers) - 1, BODY_RADIUS)
    swarm_world = swarm.world.extended(np.delete(centers, k + 1, axis=0), bodies)
    positions = [a.position for a in swarm.agents]
    course = Env(SPECS["obstacle_course"], 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "learner.ckpt"  # saved before it is loaded, warm-up included
        seconds = _fastest_window_medians({
            "train_step_ms": lambda: learner.train_step(rng),
            **_phases(learner, rng),
            "act_us": lambda: learner.act(obs, cfg.sigma_start, rng),
            "policy_act_us": lambda: policy.act(swarm_obs),
            "checkpoint_save_ms": lambda: save_checkpoint(path, arrays, {}),
            "checkpoint_load_ms": lambda: load_checkpoint(path),
            "sides_us": lambda: split_sides(detect_intervals(ahead, StreamParams.d_risk), ahead),
            "stream_update_us": lambda: avoider.update(scan),
            "stream_update_clear_us": lambda: avoider.update(clear),
            "agent_step_us": lambda: step(follower, map_action(STEP_ACTION, LIMITS), DT, LIMITS),
            "raycast_us": lambda: raycast(
                follower.position, follower.alpha, swarm_world, LIDAR, rng
            ),
            "comms_us": lambda: neighbor_observations(positions, swarm.spec.connection_zone),
            "sense_swarm_ms": swarm.sense,
            "sense_obstacle_course_ms": course.sense,
        })
    return {name: (1e3 if name.endswith("_ms") else 1e6) * t for name, t in seconds.items()}


def machine() -> dict[str, str]:
    """The machine the medians ran on, keyed as printed."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine.python": platform.python_version(),
        "machine.numpy": np.__version__,
        "machine.blas": str(blas.get("name")),
        "machine.blas_version": str(blas.get("version")),
        "machine.cpu_count": str(os.cpu_count()),
        "machine.openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine.dtype": np.dtype(DTYPE).name,
    }


def main() -> None:
    for name, value in measure().items():
        print(f"{name} {value:.3f}")
    for name, value in machine().items():
        print(f"{name} {value}")


if __name__ == "__main__":
    main()
