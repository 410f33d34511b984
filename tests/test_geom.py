import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from streamform.geom import DegenerateTriangle, Vec2, circumcenter, wrap_angle


class TestWrapAngle:
    def test_identity(self):
        assert wrap_angle(0.0) == 0.0

    def test_boundary_3pi_is_exactly_pi(self):
        assert wrap_angle(3 * math.pi) == math.pi

    def test_pi_included_minus_pi_excluded(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi

    def test_minus_three_halves_pi(self):
        # hand oracle: -3pi/2 + 2pi = pi/2
        assert wrap_angle(-1.5 * math.pi) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                wrap_angle(bad)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_idempotent_and_in_range(self, x):
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi
        assert wrap_angle(w) == w

    @given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    def test_congruent_mod_two_pi(self, x):
        w = wrap_angle(x)
        k = round((x - w) / (2 * math.pi))
        assert w + 2 * math.pi * k == pytest.approx(x, abs=1e-9)


def oracle_circumcenter(p1, p2, p3):
    """Independent oracle: solve the two perpendicular-bisector equations.

    The center c satisfies 2(p2-p1).c = |p2|^2-|p1|^2 and the same for p3.
    """
    a = np.array(
        [
            [2 * (p2.x - p1.x), 2 * (p2.y - p1.y)],
            [2 * (p3.x - p1.x), 2 * (p3.y - p1.y)],
        ]
    )
    b = np.array(
        [
            p2.x**2 + p2.y**2 - p1.x**2 - p1.y**2,
            p3.x**2 + p3.y**2 - p1.x**2 - p1.y**2,
        ]
    )
    cx, cy = np.linalg.solve(a, b)
    return Vec2(cx, cy), math.hypot(cx - p1.x, cy - p1.y)


class TestCircumcenter:
    def test_right_triangle(self):
        center, radius = circumcenter(Vec2(0, 0), Vec2(2, 0), Vec2(0, 2))
        assert center.x == pytest.approx(1.0, abs=1e-12)
        assert center.y == pytest.approx(1.0, abs=1e-12)
        assert radius == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_equilateral_matches_bisector_oracle(self):
        pts = (Vec2(0, 0), Vec2(1, 0), Vec2(0.5, math.sqrt(3) / 2))
        center, radius = circumcenter(*pts)
        # frozen values from the 2x2 bisector solve: (0.5, sqrt(3)/6), 1/sqrt(3)
        assert center.x == pytest.approx(0.5, abs=1e-12)
        assert center.y == pytest.approx(math.sqrt(3) / 6, abs=1e-12)
        assert radius == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        oc, orad = oracle_circumcenter(*pts)
        assert (center - oc).norm() < 1e-12
        assert radius == pytest.approx(orad, abs=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangle):
            circumcenter(Vec2(0, 0), Vec2(1, 1), Vec2(2, 2))

    def test_equidistance_on_random_triangles(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        n = 0
        while n < 1000:
            p = [Vec2(*xy) for xy in rng.uniform(-5, 5, size=(3, 2))]
            try:
                center, radius = circumcenter(*p)
            except DegenerateTriangle:
                continue
            n += 1
            dists = [(center - q).norm() for q in p]
            worst = max(worst, max(dists) - min(dists))
        assert worst < 1e-9

    def test_matches_oracle_on_random_triangles(self):
        rng = np.random.default_rng(11)
        n = 0
        while n < 1000:
            p = [Vec2(*xy) for xy in rng.uniform(-5, 5, size=(3, 2))]
            bx, by = p[1].x - p[0].x, p[1].y - p[0].y
            cx, cy = p[2].x - p[0].x, p[2].y - p[0].y
            if abs(bx * cy - by * cx) < 1e-3:  # keep the oracle well conditioned
                continue
            n += 1
            center, _ = circumcenter(*p)
            oc, _ = oracle_circumcenter(*p)
            assert (center - oc).norm() < 1e-9

