import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from streamform.geom import COLLINEAR_AREA_EPS, Vec2, circumcenter, wrap_angle


class TestVec2:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["x", "y"])
    def test_non_finite_coordinate_names_its_field(self, field, bad):
        xy = {"x": 1.0, "y": -2.0, field: bad}
        with pytest.raises(ValueError, match=rf"Vec2\.{field} must be finite"):
            Vec2(**xy)


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


def fmod_wrap(angle):
    """wrap_angle's earlier rule, kept as the reference for its bits: fmod
    is exact, and the +-2pi correction is exact by Sterbenz's lemma."""
    a = math.fmod(angle, 2 * math.pi)
    if a > math.pi:
        a -= 2 * math.pi
    elif a <= -math.pi:
        a += 2 * math.pi
    return a


class TestWrapAngleBits:
    """``wrap_angle`` gives the fmod rule's bits, the sign of zero included."""

    def test_multiples_of_pi_and_their_neighbours(self):
        for k in range(-40, 41):
            x = k * math.pi
            for a in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
                assert wrap_angle(a).hex() == fmod_wrap(a).hex(), (k, a)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_angle(self, x):
        assert wrap_angle(x).hex() == fmod_wrap(x).hex()


def oracle_circumcenter(p1, p2, p3):
    """Independent oracle: solve the two perpendicular-bisector equations.

    The center c satisfies 2(p2-p1).c = |p2|^2-|p1|^2 and the same for p3.
    """
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    a = np.array(
        [
            [2 * (x2 - x1), 2 * (y2 - y1)],
            [2 * (x3 - x1), 2 * (y3 - y1)],
        ]
    )
    b = np.array(
        [
            x2**2 + y2**2 - x1**2 - y1**2,
            x3**2 + y3**2 - x1**2 - y1**2,
        ]
    )
    cx, cy = np.linalg.solve(a, b)
    return (cx, cy), math.hypot(cx - x1, cy - y1)


class TestCircumcenter:
    def test_right_triangle(self):
        (x, y), radius = circumcenter((0, 0), (2, 0), (0, 2))
        assert x == pytest.approx(1.0, abs=1e-12)
        assert y == pytest.approx(1.0, abs=1e-12)
        assert radius == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_equilateral_matches_bisector_oracle(self):
        pts = ((0, 0), (1, 0), (0.5, math.sqrt(3) / 2))
        center, radius = circumcenter(*pts)
        # frozen values from the 2x2 bisector solve: (0.5, sqrt(3)/6), 1/sqrt(3)
        assert center[0] == pytest.approx(0.5, abs=1e-12)
        assert center[1] == pytest.approx(math.sqrt(3) / 6, abs=1e-12)
        assert radius == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        oc, orad = oracle_circumcenter(*pts)
        assert math.dist(center, oc) < 1e-12
        assert radius == pytest.approx(orad, abs=1e-12)

    def test_collinear_returns_none(self):
        assert circumcenter((0, 0), (1, 1), (2, 2)) is None

    # (0, 0), (1, 0), (0, h) has twice-signed area exactly h; the triangle
    # is a line below COLLINEAR_AREA_EPS in either orientation
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_area_just_below_eps_is_a_line(self, sign):
        h = sign * math.nextafter(COLLINEAR_AREA_EPS, 0.0)
        assert circumcenter((0.0, 0.0), (1.0, 0.0), (0.0, h)) is None

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_area_just_above_eps_is_a_circle(self, sign):
        h = sign * math.nextafter(COLLINEAR_AREA_EPS, 1.0)
        (x, y), radius = circumcenter((0.0, 0.0), (1.0, 0.0), (0.0, h))
        assert x == 0.5
        assert y == pytest.approx(h / 2, rel=1e-12)
        assert radius == pytest.approx(0.5, rel=1e-12)

    def test_equidistance_on_random_triangles(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        n = 0
        while n < 1000:
            p = [tuple(xy) for xy in rng.uniform(-5, 5, size=(3, 2))]
            fit = circumcenter(*p)
            if fit is None:
                continue
            n += 1
            center, radius = fit
            dists = [math.dist(center, q) for q in p]
            worst = max(worst, max(dists) - min(dists))
        assert worst < 1e-9

    def test_matches_oracle_on_random_triangles(self):
        rng = np.random.default_rng(11)
        n = 0
        while n < 1000:
            p = [tuple(xy) for xy in rng.uniform(-5, 5, size=(3, 2))]
            (x1, y1), (x2, y2), (x3, y3) = p
            bx, by = x2 - x1, y2 - y1
            cx, cy = x3 - x1, y3 - y1
            if abs(bx * cy - by * cx) < 1e-3:  # keep the oracle well conditioned
                continue
            n += 1
            center, _ = circumcenter(*p)
            oc, _ = oracle_circumcenter(*p)
            assert math.dist(center, oc) < 1e-9
