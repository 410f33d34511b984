"""sha256 over a benchmark workload's whole trajectory, for bit-identity checks.

A change that claims to keep behaviour bit-identical runs this at its parent
commit and at the change, on one machine, and compares the printed lines:

    python3 tests/trajectory_digest.py                  # seed 7, all three workloads
    python3 tests/trajectory_digest.py --seed 8 --workload swarm --steps 50

The digest starts at the workload's construction (the replay prefill and
warm-up updates of ``train`` included) and covers:

- every agent step: the state before it, the action and the state after;
- every lidar scan: each ray's distance and ``agent_inside``;
- every follower observation row;
- every ``StreamAvoider.update`` outcome: per side the avoid flag,
  ``c_desired`` and ``prev_inner_angle``, every field of the reading, and
  the cost;
- for ``train``, the four networks after the last step.

Floats enter by their bits, so a change of the last bit changes the digest.
Checkpoints go to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "perfbench", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import adapter  # noqa: E402
import episode  # noqa: E402

DEFAULT_SEED = 7
DEFAULT_STEPS = {"train": 150, "obstacle_course": 400, "swarm": 120}


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


class _DigestedWorkload(episode.Workload):
    """A workload that feeds each observation row it builds to ``sha``."""

    def __init__(self, name, seed, out_dir, sha):
        self.sha = sha  # the constructor already steps
        super().__init__(name, seed, out_dir)

    def _observation(self, *args):
        row = super()._observation(*args)
        _put(self.sha, np.asarray(row, dtype=np.float64))
        return row


def trajectory_digest(workload: str, seed: int, steps: int) -> str:
    """Hex sha256 of ``workload`` built at ``seed`` and run ``steps`` env
    steps past its construction."""
    sha = hashlib.sha256(f"{workload}/{seed}/{steps}".encode())
    agent_step, raycast, stream_update = adapter.agent_step, adapter.raycast, adapter.stream_update

    def digested_step(state, action, dt, limits):
        new = agent_step(state, action, dt, limits)
        _put_state(sha, state)
        _put(sha, np.asarray(action, dtype=np.float64))
        _put_state(sha, new)
        return new

    def digested_raycast(position, heading, obstacles, cfg, rng):
        scan = raycast(position, heading, obstacles, cfg, rng)
        _put(sha, scan.distances, scan.agent_inside)
        return scan

    def digested_update(avoider, scan):
        out = stream_update(avoider, scan)
        _put_outcome(sha, out)
        return out

    adapter.agent_step, adapter.raycast = digested_step, digested_raycast
    adapter.stream_update = digested_update
    try:
        with tempfile.TemporaryDirectory() as tmp:
            wl = _DigestedWorkload(workload, seed, Path(tmp), sha)
            for _ in range(steps):
                wl.step()
            if wl.learner is not None:
                for name, array in sorted(wl.learner.network_arrays().items()):
                    sha.update(name.encode())
                    _put(sha, array)
    finally:
        adapter.agent_step, adapter.raycast = agent_step, raycast
        adapter.stream_update = stream_update
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
