"""``streamform.env`` steps bit for bit like the benchmark's episode loop,
builds only the side memory its reading uses, keeps a follower's row
local to its own lidar reach, and reads a side, stream or APF, at the index
that ``split_sides`` gives it.

The benchmark under perfbench/ still runs its own copy of the episode loop
(``episode.Workload``). Until it drives ``streamform.env``, these tests hold
the two copies equal: the trajectory digest's runner (``drive``) against
``Workload``, at seed 7 over the digest's windows, in every step's
observation rows, costs, episode end, actions and agent states, and for
``train`` in the four networks after the last step.
"""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamform import env
from streamform.sensing import (
    REACH_MARGIN,
    LidarConfig,
    LidarScan,
    ObstacleSet,
    detect_intervals,
    split_sides,
)
from streamform.stream_avoid import StreamAvoider
from trajectory_digest import DEFAULT_SEED, DEFAULT_STEPS, drive

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import adapter  # noqa: E402
import episode  # noqa: E402


def _step_record(obs, costs, end, actions, agents) -> tuple:
    """What one env step produced: ``end`` is None, or whether the episode
    ended in a collision; a step that ends moves no agent."""
    if end is not None:
        return obs.tobytes(), costs.tobytes(), end, None, None
    states = np.array([(s.position.x, s.position.y, s.v, s.alpha, s.omega) for s in agents])
    return obs.tobytes(), costs.tobytes(), None, actions.tobytes(), states.tobytes()


def _workload_run(name, steps, tmp_path, monkeypatch):
    """Per-step records of ``episode.Workload``, from its construction on,
    read through the adapter calls it makes; and the learner, if any."""
    records, cur = [], {}

    def begin():
        cur.clear()
        cur.update(inside=[], avoid=[], track=[], states=[], end=None)

    def finish():
        # the cost line of Workload.step, from the parts its adapter calls returned
        costs = np.array([
            episode.W_TRACK * c_track + episode.W_AVOID * c_avoid
            + (episode.COLLISION_COST if inside else 0.0)
            for inside, c_avoid, c_track in zip(cur["inside"], cur["avoid"], cur["track"], strict=True)
        ])
        states = np.array(cur["states"]).tobytes() if cur["states"] else None
        actions = None if cur["end"] is not None else cur["actions"].tobytes()
        records.append((cur["observations"].tobytes(), costs.tobytes(), cur["end"], actions, states))

    def wrap(fn, keep):
        def wrapped(*args):
            out = fn(*args)
            keep(out)
            return out
        return wrapped

    monkeypatch.setattr(adapter, "raycast", wrap(adapter.raycast,
                                                 lambda scan: cur["inside"].append(scan.agent_inside)))
    monkeypatch.setattr(adapter, "stream_update", wrap(adapter.stream_update,
                                                       lambda out: cur["avoid"].append(out.cost)))
    monkeypatch.setattr(adapter, "apf_cost", wrap(adapter.apf_cost, lambda c: cur["avoid"].append(c)))
    monkeypatch.setattr(adapter, "formation_cost", wrap(adapter.formation_cost,
                                                        lambda out: cur["track"].append(out[1])))
    monkeypatch.setattr(adapter, "agent_step", wrap(adapter.agent_step, lambda s: cur["states"].append(
        (s.position.x, s.position.y, s.v, s.alpha, s.omega))))
    check_finite = episode._check_finite

    def keep_checked(values, what, stats):
        cur[what] = np.array(values)
        check_finite(values, what, stats)

    monkeypatch.setattr(episode, "_check_finite", keep_checked)

    class Recorded(episode.Workload):
        def step(self):
            begin()
            super().step()
            finish()

        def end_episode(self, collided):
            cur["end"] = bool(collided)
            super().end_episode(collided)

    wl = Recorded(name, DEFAULT_SEED, tmp_path)
    for _ in range(steps):
        wl.step()
    return records, wl.learner


@pytest.mark.parametrize("name", sorted(DEFAULT_STEPS))
def test_env_steps_bit_for_bit_like_the_benchmark_workload(name, tmp_path, monkeypatch):
    steps = DEFAULT_STEPS[name]
    want, want_learner = _workload_run(name, steps, tmp_path, monkeypatch)
    got = []
    got_learner = drive(name, DEFAULT_SEED, steps,
                        on_step=lambda *step: got.append(_step_record(*step)))
    assert len(got) == len(want)
    fields = ("observation rows", "costs", "episode end", "actions", "agent states")
    for i, (g, w) in enumerate(zip(got, want)):
        for field, gv, wv in zip(fields, g, w):
            assert gv == wv, f"{name}: step {i} differs in its {field}"
    # the window past construction holds at least one episode end
    assert any(end is not None for _, _, end, _, _ in got[-steps:])
    if want_learner is not None:
        want_nets, got_nets = want_learner.network_arrays(), got_learner.network_arrays()
        assert sorted(got_nets) == sorted(want_nets)
        for key, w in want_nets.items():
            g = got_nets[key]
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), key


@pytest.mark.parametrize("name, per_reading", [("swarm", 0), ("train", 1)])
def test_env_builds_an_avoider_only_for_a_stream_reading(name, per_reading, monkeypatch):
    # an APF spec used to build a StreamAvoider per follower (48 on swarm)
    # that apf_sides never read; a stream reading gets a fresh one per episode
    built = []

    class Counted(StreamAvoider):
        def __init__(self, params):
            built.append(self)
            super().__init__(params)

    monkeypatch.setattr(env, "StreamAvoider", Counted)
    e = env.Env(env.SPECS[name], DEFAULT_SEED)
    e.sense()
    e.reset()
    assert len(built) == 2 * per_reading * e.n_followers


CIRCLE_RADIUS = st.floats(0.05, 1.0)


@pytest.mark.parametrize("name", ["train", "obstacle_course"])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_circles_out_of_reach_leave_a_followers_row_and_cost(name, seed, data):
    # circles farther than d_max + r + REACH_MARGIN from follower k are
    # outside its inputs: its first row and cost are the same bit for bit,
    # with the lidar noise on. Some of them swallow another follower out of
    # k's reach, whose scan then reads inside; an earlier one used to skip
    # its noise draw and shift k's. Both worlds share circles drawn near the
    # formation, so k's sides may be engaged; the far world lists the
    # out-of-reach circles first, so that an index into the wrong circle
    # list shows
    near, far = env.Env(env.SPECS[name], seed), env.Env(env.SPECS[name], seed)
    k = data.draw(st.integers(0, near.n_followers - 1), label="k")
    shared = data.draw(st.lists(st.tuples(st.floats(-3.0, 4.0), st.floats(-3.0, 3.0),
                                          CIRCLE_RADIUS), max_size=3), label="shared")
    outside = data.draw(st.lists(st.tuples(st.floats(-math.pi, math.pi),
                                           st.floats(1e-6, 3.0), CIRCLE_RADIUS),
                                 min_size=1, max_size=4), label="outside")
    p, added = near.agents[k + 1].position, []
    for theta, gap, r in outside:
        dist = LidarConfig.d_max + r + REACH_MARGIN + gap
        added.append((p.x + dist * math.cos(theta), p.y + dist * math.sin(theta), r))
    swallowed = data.draw(st.sets(st.integers(0, near.n_followers - 1), max_size=2),
                          label="swallowed")
    for j in swallowed:
        q = near.agents[j + 1].position
        slack = math.hypot(q.x - p.x, q.y - p.y) - LidarConfig.d_max - REACH_MARGIN
        if slack > 0.0:
            added.append((q.x, q.y, 0.5 * slack))
    world = np.column_stack([near.world.centers, near.world.radii])
    for e, circles in ((near, [*world, *shared]), (far, [*added, *world, *shared])):
        circles = np.array(circles)
        e.world = ObstacleSet(circles[:, :2], circles[:, 2])
    (obs_a, costs_a, _, _), (obs_b, costs_b, _, _) = near.sense(), far.sense()
    assert obs_b[k].tobytes() == obs_a[k].tobytes()
    assert costs_b[k].tobytes() == costs_a[k].tobytes()


# runs of a few distances, d_risk and d_min among them, so that intervals
# start and end anywhere and often straddle the heading
RAY_RUNS = st.lists(st.tuples(st.integers(1, 20),
                              st.sampled_from([0.0, 0.2, 0.35, 0.5, env.STREAM.d_risk, 2.0])),
                    min_size=1, max_size=12)


@st.composite
def scans(draw):
    """An inside scan, a scan of runs, or one of free per-ray distances."""
    n, d_max = LidarConfig.n_rays, LidarConfig.d_max
    kind = draw(st.sampled_from(["inside", "runs", "rays"]))
    if kind == "inside":
        return LidarScan(np.full(n, LidarConfig.d_min), agent_inside=True)
    if kind == "runs":
        d = [v for length, v in draw(RAY_RUNS) for _ in range(length)] + [d_max] * n
    else:
        d = draw(st.lists(st.floats(0.0, d_max), min_size=n, max_size=n))
    return LidarScan(np.array(d[:n]))


@settings(max_examples=300, deadline=None)
@given(scan=scans())
def test_stream_and_apf_readings_index_sides_alike(scan):
    # side s is index s of split_sides' result; its inner ray, the interval's
    # end toward the other side, is its least-angle ray on the left and its
    # greatest on the right. Both readings agree on each side's active flag
    # (features 0 and 4) and inner-ray angle (features 3 and 7)
    sides = split_sides(detect_intervals(scan, env.STREAM.d_risk), scan)
    stream, _ = env.StreamSides().read(scan)
    apf, _ = env.ApfSides().read(scan)
    for side, interval in enumerate(sides):
        active, inner = 4 * side, 4 * side + 3
        assert stream[active] == apf[active] == (interval is not None)
        assert stream[inner] == apf[inner]
        if interval is not None:
            pick = (min, max)[side]
            assert apf[inner] == pick(scan.angles[i] for i in interval)
    readings = StreamAvoider(env.STREAM).update(scan).readings
    assert tuple(rd and rd.interval for rd in readings) == sides


def _loaded_modules(code: str) -> set:
    """Names in ``sys.modules`` after ``code`` runs in a fresh, isolated
    interpreter whose only added path is ``src/``."""
    setup = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
    report = "\nprint('\\n'.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-I", "-B", "-c", setup + code + report],
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def _adapter_package_imports() -> list:
    """The ``streamform`` modules that perfbench/adapter.py imports, read
    from its source."""
    tree = ast.parse((ROOT / "perfbench" / "adapter.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            if node.module == "streamform":
                names.update(f"streamform.{a.name}" for a in node.names)
    return sorted(n for n in names if n.split(".")[0] == "streamform")


def test_env_loads_no_benchmark_module():
    loaded = _loaded_modules("import streamform.env")
    assert "streamform.env" in loaded
    assert not loaded & {"adapter", "episode", "run", "spans"}


def test_trajectory_digest_loads_no_benchmark_module():
    # it drove perfbench's episode copy through patched adapter calls
    loaded = _loaded_modules(f"sys.path.insert(0, {str(ROOT / 'tests')!r})\n"
                             "import trajectory_digest\n"
                             "trajectory_digest.trajectory_digest('swarm', 7, 2)")
    assert not loaded & {"adapter", "episode", "run", "spans"}
    assert {"trajectory_digest", "streamform.env"} <= loaded


def test_the_benchmarks_package_imports_do_not_load_the_env():
    # loading the env there would add to the benchmark's import time
    modules = _adapter_package_imports()
    assert "streamform.ddpg" in modules and "streamform.sensing" in modules
    loaded = _loaded_modules("\n".join(f"import {m}" for m in modules))
    assert set(modules) <= loaded
    assert "streamform.env" not in loaded


def test_move_keeps_a_copy_of_the_actions():
    # move kept the caller's array, so zeroing it after the step made the
    # previous-action features 17-19 of the next rows read [0, 0, 0]
    e = env.Env(env.SPECS["obstacle_course"], DEFAULT_SEED)
    obs, _, _, ended = e.sense()
    assert not ended
    actions = e.scripted_actions(obs)
    moved = actions.copy()
    e.move(actions)
    actions[:] = 0.0
    obs, *_ = e.sense()
    assert obs[:, 17:].tobytes() == moved.tobytes()
