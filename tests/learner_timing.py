"""Isolated medians of the learner's three hot calls, of its checkpoint, of
the stream avoider's update and of one follower's step and scan, for
comparing two trees.

    python3 tests/learner_timing.py

prints eight medians, then the machine they ran on:

- ``train_step_ms <median>``: ``DdpgLearner.train_step`` of a learner with
  the default ``TrainerConfig`` (batch 1024), seed 0 and the benchmark's
  20-wide observations, on a buffer filled with one batch of random
  transitions;
- ``act_us <median>``: ``DdpgLearner.act`` of the same learner on 4
  observation rows at the config's starting ``sigma``;
- ``policy_act_us <median>``: ``ActorPolicy.act`` of the same learner's
  actor on 48 observation rows, the greedy pass of the swarm workload;
- ``checkpoint_save_ms <median>`` and ``checkpoint_load_ms <median>``:
  ``save_checkpoint`` of the same learner's ``network_arrays()`` to a file in
  a temporary directory, and ``load_checkpoint`` of that file;
- ``stream_update_us <median>``: ``StreamAvoider.update`` on one fixed
  noiseless scan of two circles, one each side of the heading, so that both
  sides engage, fit a cylinder and re-lock on every call;
- ``agent_step_us <median>``: ``map_action`` and ``dynamics.step`` of one
  follower at the ``env`` limits and time step, the per-follower move of
  every workload;
- ``raycast_us <median>``: one noisy ``raycast`` (the ``env`` lidar, range
  noise 0.2 m) from the middle follower of the swarm workload's seed-0
  start, against its 68 circles (20 obstacles and the other 48 followers'
  bodies, 20 of them within reach), as ``Env.sense`` casts it;
- ``machine.<key> <value>`` lines: the Python and numpy versions, the BLAS
  numpy was built with and its version, ``os.cpu_count()``, the
  ``OPENBLAS_NUM_THREADS`` setting (``unset`` when it is not set) and the
  learner's ``DTYPE``, so that two trees' medians show what each ran on.

Each median is over ``CALLS`` calls, each timed alone with
``time.perf_counter`` after ``WARMUP`` untimed ones. To compare a change with
its parent, run the same copy of this script in both trees on one machine,
several times in alternation: the medians move by several percent from run
to run on a busy host.
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
    map_action,
)
from streamform.dynamics import step  # noqa: E402
from streamform.env import BODY_RADIUS, DT, LIDAR, LIMITS, SPECS, Env  # noqa: E402
from streamform.geom import Vec2  # noqa: E402
from streamform.sensing import LidarConfig, ObstacleSet, raycast  # noqa: E402
from streamform.stream_avoid import StreamAvoider, StreamParams  # noqa: E402

OBS_DIM = 20  # the observation width of the benchmark's workloads
ACT_ROWS = 4
POLICY_ROWS = 48  # the swarm workload's followers
# two circles ahead, left and right of the heading: (x, y, radius) [m]
STREAM_CIRCLES = ((0.7, 0.35, 0.2), (0.7, -0.35, 0.2))
STEP_ACTION = np.array([0.2, 0.5, 0.3])  # accelerate and turn left
WARMUP = 50
CALLS = 200


def _median_seconds(call) -> float:
    for _ in range(WARMUP):
        call()
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure() -> dict[str, float]:
    """The eight medians, in ms and µs, keyed as printed."""
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
    circles = np.array(STREAM_CIRCLES)
    world = ObstacleSet(circles[:, :2], circles[:, 2])
    scan = raycast(Vec2(0.0, 0.0), 0.0, world, LidarConfig(noise_std=0.0), rng)
    avoider = StreamAvoider(StreamParams())
    swarm = Env(SPECS["swarm"], 0)
    k = swarm.n_followers // 2
    follower = swarm.agents[k + 1]
    centers = np.array([(a.position.x, a.position.y) for a in swarm.agents])
    bodies = np.full(len(centers) - 1, BODY_RADIUS)
    swarm_world = swarm.world.extended(np.delete(centers, k + 1, axis=0), bodies)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "learner.ckpt"
        return {
            "train_step_ms": 1e3 * _median_seconds(lambda: learner.train_step(rng)),
            "act_us": 1e6 * _median_seconds(lambda: learner.act(obs, cfg.sigma_start, rng)),
            "policy_act_us": 1e6 * _median_seconds(lambda: policy.act(swarm_obs)),
            "checkpoint_save_ms": 1e3 * _median_seconds(lambda: save_checkpoint(path, arrays, {})),
            "checkpoint_load_ms": 1e3 * _median_seconds(lambda: load_checkpoint(path)),
            "stream_update_us": 1e6 * _median_seconds(lambda: avoider.update(scan)),
            "agent_step_us": 1e6 * _median_seconds(
                lambda: step(follower, map_action(STEP_ACTION, LIMITS), DT, LIMITS)
            ),
            "raycast_us": 1e6 * _median_seconds(
                lambda: raycast(follower.position, follower.alpha, swarm_world, LIDAR, rng)
            ),
        }


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
