"""The trajectory digest repeats for a seed and tells seeds apart.

``train`` is left out here: building it (replay prefill plus warm-up
updates) takes about 0.5 s per digest. The CI step that runs the digest
CLI under two hash seeds covers it.
"""

import pytest

from trajectory_digest import trajectory_digest


@pytest.mark.parametrize("workload, steps", [("obstacle_course", 40), ("swarm", 10)])
def test_digest_repeats_for_a_seed_and_differs_between_seeds(workload, steps):
    first = trajectory_digest(workload, 7, steps)
    assert trajectory_digest(workload, 7, steps) == first
    assert trajectory_digest(workload, 8, steps) != first
