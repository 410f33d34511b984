import math

import pytest

from streamform.apf import ApfParams, apf_cost


def test_zero_outside_cutoff():
    p = ApfParams(cutoff=0.7)
    assert apf_cost([0.7, 1.5], p) == 0.0


def test_half_cutoff_value():
    # d = d0/2: (1/d - 1/d0) = 1/d0, so cost = 1/(2*d0^2)
    d0 = 0.7
    p = ApfParams(cutoff=d0)
    assert apf_cost([d0 / 2], p) == pytest.approx(1.0 / (2 * d0 * d0), rel=1e-12)


def test_strictly_decreasing_toward_cutoff():
    p = ApfParams(cutoff=0.7)
    ds = [0.1, 0.2, 0.35, 0.5, 0.65]
    costs = [apf_cost([d], p) for d in ds]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_continuous_at_cutoff():
    p = ApfParams(cutoff=0.4)
    assert apf_cost([0.4 - 1e-9], p) < 1e-15


def test_sides_sum_and_none_skipped():
    p = ApfParams(cutoff=0.7)
    both = apf_cost([0.3, 0.5], p)
    assert both == pytest.approx(apf_cost([0.3, None], p) + apf_cost([None, 0.5], p))


def test_nonpositive_distance_rejected():
    p = ApfParams(cutoff=0.7)
    with pytest.raises(ValueError):
        apf_cost([0.0], p)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_distance_rejected(bad):
    # [nan, None] used to cost 0.0
    with pytest.raises(ValueError, match="side distance must be positive and finite"):
        apf_cost([bad, None], ApfParams(cutoff=0.7))


def test_param_validation():
    with pytest.raises(ValueError):
        ApfParams(cutoff=-1.0)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf])
def test_cutoff_must_be_finite(cutoff):
    # a NaN cutoff used to make apf_cost 0.0 at every distance
    with pytest.raises(ValueError, match="cutoff must be positive and finite"):
        ApfParams(cutoff=cutoff)
