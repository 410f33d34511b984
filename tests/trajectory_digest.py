"""sha256 over a run of ``streamform.env``'s whole trajectory, for bit-identity checks.

A change that claims to keep behaviour bit-identical runs this at its parent
commit and at the change, on one machine, and compares the printed lines:

    python3 tests/trajectory_digest.py                  # seed 7, all three workloads
    python3 tests/trajectory_digest.py --seed 8 --workload swarm --steps 50

``drive`` runs an ``env.SPECS`` entry and the controller it names in the
order of the benchmark's ``perfbench/episode.Workload``: the learner's
replay prefill until ``ready()``, WARMUP_TRAIN_STEPS updates, then per step
``sense``, ``record``, act, ``move`` and ``train_step``, with ``reset`` on
the step that ends an episode. ``test_env.py``'s tie test pins that order
to the benchmark's. The digest starts at the env's construction and covers:

- every agent step: the state before it, the simplex action and the state after;
- every lidar scan, as a side reader (``env.StreamSides.read`` or
  ``env.ApfSides.read``) is handed it: each ray's distance and
  ``agent_inside``;
- every follower observation row;
- every ``StreamAvoider.update`` outcome: per side the avoid flag,
  ``c_desired`` and ``prev_inner_angle``, every field of the reading, and
  the cost;
- for ``train``, the four networks after the last step.

Floats enter by their bits, so a change of the last bit changes the digest.
CI runs a change's copy of this script on its parent's tree too, so it may
call only API that the parent already has.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import struct
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from streamform import ddpg, env, stream_avoid  # noqa: E402

DEFAULT_SEED = 7
DEFAULT_STEPS = {"train": 150, "obstacle_course": 400, "swarm": 120}
WARMUP_TRAIN_STEPS = 3


def drive(name: str, seed: int, steps: int, on_step=lambda *step: None):
    """Run ``env.SPECS[name]`` at ``seed`` for ``steps`` steps past its
    set-up and return its learner (None unless the spec trains one).
    ``on_step(obs, costs, end, actions, agents)`` is called after every
    step, the set-up's included: ``end`` is None, or whether the episode
    ended in a collision; a step that ends moves no agent, and its
    ``actions`` is None."""
    e = env.Env(env.SPECS[name], seed)
    cfg = ddpg.TrainerConfig()
    episodes, prev, training = 0, None, False
    learner, act = None, e.scripted_actions
    if e.spec.controller == "learner":
        learner = ddpg.DdpgLearner(env.OBS_DIM, cfg, e.init_rng)
        act = lambda obs: learner.act(obs, cfg.sigma_at(episodes), e.policy_rng)  # noqa: E731
    elif e.spec.controller == "actor":
        act = ddpg.ActorPolicy(ddpg.init_mlp([env.OBS_DIM, *cfg.hidden, ddpg.ACTION_DIM],
                                             e.init_rng, cfg.actor_final_scale)).act

    def one_step():
        nonlocal episodes, prev
        obs, costs, collided, ended = e.sense()
        if learner is not None and prev is not None:
            for k in range(e.n_followers):
                learner.record(prev[0][k], prev[1][k], costs[k], obs[k], collided)
        if ended:
            on_step(obs, costs, bool(collided), None, e.agents)
            episodes += 1
            prev = None
            e.reset()
            return
        actions = act(obs)
        e.move(actions)
        prev = obs, actions
        on_step(obs, costs, None, actions, e.agents)
        if training:
            learner.train_step(e.train_rng)

    if learner is not None:
        while not learner.ready():
            one_step()
        for _ in range(WARMUP_TRAIN_STEPS):
            learner.train_step(e.train_rng)
        training = True
    for _ in range(steps):
        one_step()
    return learner


def _put(sha, *values) -> None:
    """Feed values to ``sha`` with a type tag each, so that None, a bool, an
    int and a float never hash alike."""
    for v in values:
        if v is None:
            sha.update(b"N")
        elif isinstance(v, (bool, np.bool_)):
            sha.update(b"T" if v else b"F")
        elif isinstance(v, (int, np.integer)):
            sha.update(b"i" + struct.pack("<q", int(v)))
        elif isinstance(v, (float, np.floating)):
            sha.update(b"f" + struct.pack("<d", float(v)))
        else:
            a = np.ascontiguousarray(v)
            sha.update(f"a{a.dtype.str}{a.shape}".encode() + a.tobytes())


def _put_state(sha, s) -> None:
    _put(sha, s.position.x, s.position.y, s.v, s.alpha, s.omega)


def _put_fields(sha, value) -> None:
    """Feed ``value`` to ``sha``: a dataclass field by field in declared
    order and a tuple item by item, each recursively, anything else whole.
    So a reading hashes alike whether it holds its cylinder as one record
    or as the record's fields."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _put_fields(sha, getattr(value, field.name))
    elif isinstance(value, tuple):
        for item in value:
            _put_fields(sha, item)
    else:
        _put(sha, value)


def _put_outcome(sha, out) -> None:
    for state, rd in zip(out.states, out.readings):
        _put(sha, state.avoid, state.c_desired, state.prev_inner_angle)
        _put_fields(sha, rd)
    _put(sha, out.cost)


def _tapped(fn, keep):
    """``fn``, passing each call's arguments and result to ``keep``."""
    def tapped(*args):
        out = fn(*args)
        keep(args, out)
        return out
    return tapped


def _entered(fn, keep):
    """``fn``, passing each call's arguments to ``keep`` before the call."""
    def entered(*args):
        keep(args)
        return fn(*args)
    return entered


def trajectory_digest(workload: str, seed: int, steps: int) -> str:
    """Hex sha256 of ``workload`` driven at ``seed`` for ``steps`` env
    steps past its set-up."""
    sha = hashlib.sha256(f"{workload}/{seed}/{steps}".encode())
    simplex = []  # move maps each simplex action just before it steps the agent

    def keep_step(args, new):
        _put_state(sha, args[0])
        _put(sha, np.asarray(simplex.pop(), dtype=np.float64))
        _put_state(sha, new)

    def keep_scan(args):  # (reader, scan), hashed before the reader runs its avoider
        _put(sha, args[1].distances, args[1].agent_inside)

    taps = [
        (env.StreamSides, "read", _entered, keep_scan),
        (env.ApfSides, "read", _entered, keep_scan),
        (env, "map_action", _tapped, lambda args, controls: simplex.append(args[0])),
        (env, "step", _tapped, keep_step),
        (env.Env, "_observation", _tapped,
         lambda args, row: _put(sha, np.asarray(row, dtype=np.float64))),
        (stream_avoid.StreamAvoider, "update", _tapped, lambda args, out: _put_outcome(sha, out)),
    ]
    originals = [getattr(owner, name) for owner, name, _, _ in taps]
    for (owner, name, wrap, keep), fn in zip(taps, originals):
        setattr(owner, name, wrap(fn, keep))
    try:
        learner = drive(workload, seed, steps)
    finally:
        for (owner, name, _, _), fn in zip(taps, originals):
            setattr(owner, name, fn)
    if learner is not None:
        for name, array in sorted(learner.network_arrays().items()):
            sha.update(name.encode())
            _put(sha, array)
    return sha.hexdigest()


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workload", choices=sorted(DEFAULT_STEPS), action="append",
                   help="repeatable; default: all three")
    p.add_argument("--steps", type=int, help="default: train 150, obstacle_course 400, swarm 120")
    args = p.parse_args(argv)
    for name in args.workload or DEFAULT_STEPS:
        steps = DEFAULT_STEPS[name] if args.steps is None else args.steps
        print(f"{name} seed={args.seed} steps={steps} {trajectory_digest(name, args.seed, steps)}",
              flush=True)


if __name__ == "__main__":
    main()
