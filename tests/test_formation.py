import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from streamform.formation import (
    FormationSpec,
    TrackingWeight,
    relative_displacement,
    tracking_cost,
    tracking_error,
)
from streamform.geom import Vec2


class TestRelativeDisplacement:
    def test_zero_distance(self):
        z = relative_displacement(0.0, 1.234)
        assert (z.x, z.y) == (0.0, 0.0)

    def test_axis_case(self):
        z = relative_displacement(2.0, math.pi / 2)
        assert z.x == pytest.approx(0.0, abs=1e-12)
        assert z.y == pytest.approx(2.0, abs=1e-12)

    def test_trig_oracle(self):
        # 1.5*cos(pi/6) = 1.5*sqrt(3)/2, 1.5*sin(pi/6) = 0.75
        z = relative_displacement(1.5, math.pi / 6)
        assert z.x == pytest.approx(1.5 * math.sqrt(3) / 2, abs=1e-12)
        assert z.y == pytest.approx(0.75, abs=1e-12)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            relative_displacement(-0.1, 0.0)


class TestTrackingError:
    def test_exact_match(self):
        e = tracking_error(Vec2(1, 2), Vec2(1, 2))
        assert (e.x, e.y) == (0.0, 0.0)

    def test_componentwise(self):
        e = tracking_error(Vec2(1, 1), Vec2(1, 0))
        assert (e.x, e.y) == (0.0, 1.0)

    def test_world_frame_consistency(self):
        # oracle: e = p_i - p_0 - eta computed directly from positions must
        # equal the broadcast-path reconstruction when the link is noiseless
        rng = np.random.default_rng(8)
        for _ in range(200):
            p0 = Vec2(*rng.uniform(-5, 5, 2))
            pi = Vec2(*rng.uniform(-5, 5, 2))
            eta = Vec2(*rng.uniform(-3, 3, 2))
            direct = (pi - p0) - eta
            rel = pi - p0
            d, theta = rel.norm(), math.atan2(rel.y, rel.x)
            via_broadcast = tracking_error(relative_displacement(d, theta), eta)
            assert (via_broadcast - direct).norm() < 1e-12


class TestTrackingCost:
    def test_zero_error(self):
        assert tracking_cost(Vec2(0, 0), TrackingWeight.identity()) == 0.0

    def test_identity_pythagorean(self):
        assert tracking_cost(Vec2(3, 4), TrackingWeight.identity()) == pytest.approx(25.0)

    def test_matches_expanded_quadratic_form(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            a = rng.uniform(-2, 2, (2, 2))
            q = a.T @ a + 0.1 * np.eye(2)
            w = TrackingWeight(q)
            e = Vec2(*rng.uniform(-5, 5, 2))
            # scalar expansion oracle
            expected = (
                q[0, 0] * e.x**2 + 2 * q[0, 1] * e.x * e.y + q[1, 1] * e.y**2
            )
            assert tracking_cost(e, w) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_positive_for_nonzero_error(self, ex, ey):
        # components so tiny their squares underflow to zero are excluded
        if abs(ex) < 1e-100 and abs(ey) < 1e-100:
            return
        w = TrackingWeight([[2.0, 0.3], [0.3, 1.0]])
        assert tracking_cost(Vec2(ex, ey), w) > 0.0

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            TrackingWeight([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            TrackingWeight([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            TrackingWeight([[-1.0, 0.0], [0.0, 1.0]])


class TestFormationSpec:
    def test_circle_offsets(self):
        spec = FormationSpec.circle(4, 2.1)
        assert len(spec) == 4
        for off in spec.offsets:
            assert off.norm() == pytest.approx(2.1)
        assert spec.offsets[0].x == pytest.approx(2.1)
        assert spec.offsets[1].y == pytest.approx(2.1)

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(ValueError):
            FormationSpec((Vec2(1, 0), Vec2(1, 0)))
