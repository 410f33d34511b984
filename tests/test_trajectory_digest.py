"""The trajectory digest repeats for a seed and tells seeds apart.

``train`` is left out here: building it (replay prefill plus warm-up
updates) takes about 0.5 s per digest. The CI step that runs the digest
CLI under two hash seeds covers it.
"""

import dataclasses
import hashlib

import pytest

from streamform.geom import Vec2
from streamform.stream_avoid import SideReading
from trajectory_digest import _put, _put_fields, trajectory_digest


@pytest.mark.parametrize("workload, steps", [("obstacle_course", 40), ("swarm", 10)])
def test_digest_repeats_for_a_seed_and_differs_between_seeds(workload, steps):
    first = trajectory_digest(workload, 7, steps)
    assert trajectory_digest(workload, 7, steps) == first
    assert trajectory_digest(workload, 8, steps) != first


def test_records_hash_as_their_fields_in_declared_order():
    # a reading hashes alike whether its cylinder is one record or two fields
    @dataclasses.dataclass
    class Cylinder:
        center: tuple
        radius: float

    @dataclasses.dataclass
    class Nested:
        interval: tuple
        cylinder: Cylinder
        degenerate: bool

    @dataclasses.dataclass
    class Flat:
        interval: tuple
        center: tuple
        radius: float
        degenerate: bool

    def digest(put, *values):
        sha = hashlib.sha256()
        put(sha, *values)
        return sha.hexdigest()

    nested = Nested((3, 9), Cylinder((0.5, -0.25), 0.1), True)
    flat = Flat((3, 9), (0.5, -0.25), 0.1, True)
    want = digest(_put, 3, 9, 0.5, -0.25, 0.1, True)
    assert digest(_put_fields, nested) == digest(_put_fields, flat) == want
    assert digest(_put_fields, None) == digest(_put, None)
    # and alike whether its center is a Vec2 or an (x, y) pair, so the
    # seed-7 digests span the change of SideReading.center to a pair
    fields = dict(interval=(3, 9), m_index=5, radius=0.1, degenerate=False, c_current=-0.3,
                  m_distance=0.4, inner_angle=0.2)
    as_vec2 = SideReading(center=Vec2(0.5, -0.25), **fields)
    as_pair = SideReading(center=(0.5, -0.25), **fields)
    want = digest(_put, 3, 9, 5, 0.5, -0.25, 0.1, False, -0.3, 0.4, 0.2)
    assert digest(_put_fields, as_vec2) == digest(_put_fields, as_pair) == want
