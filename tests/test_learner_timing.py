"""The learner timing script runs end to end, as CI runs it, and names its
machine."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from streamform.ddpg import DTYPE

SCRIPT = Path(__file__).resolve().parent / "learner_timing.py"


def test_prints_every_median():
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    medians, machine = lines[:22], lines[22:]
    assert [line.split()[0] for line in medians] == [
        "train_step_ms", "td_targets_ms", "critic_grads_ms", "actor_grads_ms", "updates_ms",
        "act_us", "policy_act_us", "checkpoint_save_ms", "checkpoint_load_ms",
        "sides_us", "stream_update_us", "stream_update_clear_us", "agent_step_us", "raycast_us",
        "comms_us", "comms_5_us", "sense_train_ms", "sense_swarm_ms", "sense_obstacle_course_ms",
        "move_train_us", "move_obstacle_course_us", "move_swarm_us",
    ]
    for line in medians:
        assert re.fullmatch(r"\S+ \d+\.\d{3}", line), line
        assert float(line.split()[1]) > 0.0, line
    assert [line.split()[0] for line in machine] == [
        "machine.python", "machine.numpy", "machine.blas", "machine.blas_version",
        "machine.cpu_count", "machine.openblas_num_threads", "machine.dtype"
    ]
    for line in machine:
        assert re.fullmatch(r"\S+ \S.*", line), line
    assert machine[-1] == f"machine.dtype {np.dtype(DTYPE).name}"
