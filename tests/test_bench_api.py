"""The benchmark under perfbench/ calls the package only through its adapter.

These tests fail when a package name the adapter uses goes away, which
otherwise only a benchmark run would show.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import adapter  # noqa: E402
import episode  # noqa: E402


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _ in adapter.INTERNAL_CALLS]
)
def test_internal_calls_exist(owner, attr):
    # the traced run wraps these in place, through the owner's own __dict__
    assert attr in vars(owner), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("name", sorted(adapter.LAYER_CALLS))
def test_layer_calls_exist(name):
    assert callable(getattr(adapter, name, None)), name


@pytest.mark.parametrize("workload", ["train", "obstacle_course", "swarm"])
def test_workload_runs_with_its_checks(workload, tmp_path):
    # train also records, samples and trains while it is built
    wl = episode.Workload(workload, seed=1, out_dir=tmp_path)
    steps_at_setup = wl.stats.steps
    for _ in range(40):
        wl.step()  # raises episode.CheckFailed on a failed output check
    assert wl.stats.steps == steps_at_setup + 40


def test_every_internal_call_is_reached():
    # each target is wrapped in a counter in place, as the traced run wraps
    # it in a span, so a refactor that stops calling one fails here and not
    # only as a missing span of a traced run
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in adapter.INTERNAL_CALLS]
    counts = {f"{owner.__name__}.{attr}": 0 for owner, attr, _ in saved}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    rng = np.random.default_rng(0)
    cfg = adapter.TrainerConfig(batch_size=8, buffer_capacity=16, hidden=(8,))
    learner = adapter.DdpgLearner(4, cfg, rng)
    for _ in range(8):
        adapter.record(learner, rng.normal(size=4), rng.dirichlet(np.ones(3)), rng.normal(),
                       rng.normal(size=4), False)
    lidar = adapter.LidarConfig(noise_std=0.0)
    world = adapter.ObstacleSet(np.array([[0.8, 0.35]]), np.array([0.25]))
    scan = adapter.raycast(adapter.Vec2(0.0, 0.0), 0.0, world, lidar, rng)
    avoider = adapter.StreamAvoider(adapter.StreamParams())
    for owner, attr, fn in saved:
        setattr(owner, attr, counted(f"{owner.__name__}.{attr}", fn))
    try:
        adapter.train_step(learner, rng)
        outcome = adapter.stream_update(avoider, scan)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    assert outcome.readings != (None, None)  # the scan has an interval
    assert all(n >= 1 for n in counts.values()), counts
