"""The learner timing script runs end to end, as CI runs it."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "learner_timing.py"


def test_prints_the_five_medians():
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "train_step_ms", "act_us", "policy_act_us", "checkpoint_save_ms", "checkpoint_load_ms"
    ]
    for line in lines:
        assert re.fullmatch(r"\S+ \d+\.\d{3}", line), line
        assert float(line.split()[1]) > 0.0, line
