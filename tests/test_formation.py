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

    @pytest.mark.parametrize(
        "d, theta, name",
        [(math.nan, 0.3, "d_0i"), (math.inf, 0.3, "d_0i"), (1.0, math.nan, "theta_0i")],
    )
    def test_non_finite_input_rejected(self, d, theta, name):
        # a NaN distance or bearing used to give Vec2(nan, nan)
        with pytest.raises(ValueError, match=name):
            relative_displacement(d, theta)


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
            d, theta = math.hypot(rel.x, rel.y), math.atan2(rel.y, rel.x)
            via_broadcast = tracking_error(relative_displacement(d, theta), eta)
            err = via_broadcast - direct
            assert math.hypot(err.x, err.y) < 1e-12


class TestTrackingCost:
    def test_zero_error(self):
        assert tracking_cost(Vec2(0, 0), TrackingWeight.identity()) == 0.0

    def test_identity_pythagorean(self):
        assert tracking_cost(Vec2(3, 4), TrackingWeight.identity()) == pytest.approx(25.0)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_is_a_plain_float_bit_equal_to_the_squared_norm(self, ex, ey):
        # the general weight returned a numpy.float64 from its 2x2 matrix
        e = Vec2(ex, ey)
        cost = tracking_cost(e, TrackingWeight.identity())
        assert type(cost) is float
        assert cost.hex() == (e.x * e.x + e.y * e.y).hex()

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_positive_for_nonzero_error(self, ex, ey):
        # components so tiny their squares underflow to zero are excluded
        if abs(ex) < 1e-100 and abs(ey) < 1e-100:
            return
        assert tracking_cost(Vec2(ex, ey), TrackingWeight.identity()) > 0.0


class TestFormationSpec:
    def test_circle_offsets(self):
        spec = FormationSpec.circle(4, 2.1)
        assert len(spec.offsets) == 4
        for off in spec.offsets:
            assert math.hypot(off.x, off.y) == pytest.approx(2.1)
        assert spec.offsets[0].x == pytest.approx(2.1)
        assert spec.offsets[1].y == pytest.approx(2.1)

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "4", None])
    def test_circle_needs_an_int_count_of_at_least_one(self, n):
        # 0 and -3 gave a formation with no followers, 2.5 a bare TypeError
        with pytest.raises(ValueError, match="^n_followers must be a positive int, got"):
            FormationSpec.circle(n, 1.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan, "1", None, True])
    def test_circle_needs_a_positive_finite_radius(self, radius):
        # radius -1.0 put follower k of 4 in follower k+2's slot, and True
        # (numbers.Real admits a bool) built a 1 m circle
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            FormationSpec.circle(4, radius)

    @pytest.mark.parametrize("n, radius", [(4, 1.0), (8, 1.2)])
    def test_circle_keeps_its_bits_and_plain_values(self, n, radius):
        want = [
            (radius * math.cos(2 * math.pi * k / n)).hex() + (radius * math.sin(2 * math.pi * k / n)).hex()
            for k in range(n)
        ]
        for args in ((n, radius), (np.int64(n), np.float64(radius))):
            offsets = FormationSpec.circle(*args).offsets
            assert [o.x.hex() + o.y.hex() for o in offsets] == want
            assert all(type(o.x) is float and type(o.y) is float for o in offsets)

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(ValueError):
            FormationSpec((Vec2(1, 0), Vec2(1, 0)))
