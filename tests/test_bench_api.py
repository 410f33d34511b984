"""The benchmark under perfbench/ calls the package only through its adapter.

These tests fail when a package name the adapter uses goes away, which
otherwise only a benchmark run would show.
"""

import sys
from pathlib import Path

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
