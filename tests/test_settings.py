"""Every scalar a caller passes is checked by one rule: ``geom._real`` for a
positive real, ``geom._count`` for an int and ``geom._finite`` for a finite
real of either sign. That covers the settings, the arguments that change on
every step (``dt``, the controls, the heading, ``d_risk``, the APF side
distances, the broadcast distance and bearing, an angle to wrap) and the
fields of ``Vec2`` and ``AgentState``. A bool, a numpy bool, a one-element
array or a str raises a ValueError naming the value; a numpy scalar setting
is stored as a plain float or int."""

import re
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest

from streamform.apf import ApfParams, apf_cost
from streamform.ddpg import DdpgLearner, ReplayBuffer, TrainerConfig, simplex_from_controls
from streamform.dynamics import AgentState, Limits, step
from streamform.formation import FormationSpec, relative_displacement
from streamform.geom import Vec2, wrap_angle
from streamform.sensing import (
    LidarConfig,
    LidarScan,
    ObstacleSet,
    detect_intervals,
    neighbor_observations,
    raycast,
)

SMALL = TrainerConfig(batch_size=16, buffer_capacity=512, episodes=10, hidden=(16, 16))


def act(sigma):
    learner = DdpgLearner(obs_dim=6, cfg=SMALL, rng=np.random.default_rng(0))
    return learner.act(np.zeros((2, 6)), sigma, np.random.default_rng(1))


def config(name, value):
    return TrainerConfig(**{name: value})


SETTINGS = {
    "v_max": lambda value: Limits(v_max=value, omega_max=1.0, a_max=0.5, beta_max=2.0),
    "omega_max": lambda value: Limits(omega_max=value),
    "a_max": lambda value: Limits(a_max=value),
    "beta_max": lambda value: Limits(beta_max=value),
    "cutoff": lambda value: ApfParams(cutoff=value),
    "noise_std": lambda value: LidarConfig(noise_std=value),
    "sigma": act,
    **{name: partial(config, name) for name in ("batch_size", "buffer_capacity", "episodes")},
    "hidden": lambda value: TrainerConfig(hidden=(16, value)),
    "capacity": lambda value: ReplayBuffer(value, 6),
    "obs_dim": lambda value: ReplayBuffer(4, value),
    "learner_obs_dim": lambda value: DdpgLearner(value, SMALL, np.random.default_rng(0)),
    "n_followers": lambda value: FormationSpec.circle(value, 1.0),
    "radius": lambda value: FormationSpec.circle(4, value),
    "episode": lambda value: SMALL.sigma_at(value),
    "connection_zone": lambda value: neighbor_observations([Vec2(0.0, 0.0)], value),
}
# the name the message gives, where it is not the table's key
NAMES = {"hidden": "hidden[1]", "learner_obs_dim": "obs_dim"}
# the rows checked by geom._real; a huge int count is still an int
REALS = ["v_max", "omega_max", "a_max", "beta_max", "cutoff", "noise_std", "sigma", "radius",
         "connection_zone"]


def raises_naming(key, value):
    with pytest.raises(ValueError, match=f"^{re.escape(NAMES.get(key, key))} must be"):
        SETTINGS[key](value)


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("name", list(SETTINGS))
def test_a_bool_setting_raises_naming_it(name, flag):
    # Limits(v_max=True) used to build, and a step from v = 0.99 at accel
    # 0.5 returned v = True; LidarConfig(noise_std=True) gave 1 m of range
    # noise and act(obs, True, rng) explored at sigma 1
    raises_naming(name, flag)


@pytest.mark.parametrize("value", [np.array([2]), "2"], ids=["array", "str"])
@pytest.mark.parametrize("name", list(SETTINGS))
def test_an_array_or_str_setting_raises_naming_it(name, value):
    # ApfParams(cutoff=np.array([0.7])) used to build and make apf_cost
    # return an array, act(obs, np.array([0.3]), rng) explored, and a str
    # raised a bare TypeError from the range check
    raises_naming(name, value)


@pytest.mark.parametrize("name", REALS)
def test_an_int_past_the_float_range_raises_naming_it(name):
    # Limits(v_max=10**400) raised a bare OverflowError from float()
    raises_naming(name, 10**400)


def test_numpy_scalar_settings_are_stored_plain():
    # Limits, ApfParams, LidarConfig and ReplayBuffer used to keep them as given
    limits = Limits(*map(np.float32, (0.5, 0.25, 0.5, 0.5)))
    buffer = ReplayBuffer(np.int64(4), np.int64(6))
    stored = [*astuple(limits), ApfParams(np.float64(0.7)).cutoff,
              LidarConfig(np.float32(0.25)).noise_std, buffer.capacity, buffer.obs_dim]
    assert stored == [0.5, 0.25, 0.5, 0.5, 0.7, 0.25, 4, 6]
    assert [type(value) for value in stored] == [float] * 6 + [int] * 2


def cast(heading):
    world = ObstacleSet([[1.0, 0.0]], [0.3])
    return raycast(Vec2(0.0, 0.0), heading, world, LidarConfig(noise_std=0.0),
                   np.random.default_rng(0))


# per-step arguments and record fields, keyed by the name the message gives
SCALARS = {
    "dt": lambda value: step(AgentState(), (0.0, 0.0), value, Limits()),
    "u.accel": lambda value: step(AgentState(), (value, 0.0), 0.1, Limits()),
    "u.angular_accel": lambda value: step(AgentState(), (0.0, value), 0.1, Limits()),
    "accel": lambda value: simplex_from_controls(value, 0.0, Limits()),
    "angular_accel": lambda value: simplex_from_controls(0.0, value, Limits()),
    "heading": cast,
    "d_risk": lambda value: detect_intervals(LidarScan(np.full(61, 0.5)), value),
    "side distance": lambda value: apf_cost([value], ApfParams(cutoff=0.7)),
    "d_0i": lambda value: relative_displacement(value, 0.3),
    "theta_0i": lambda value: relative_displacement(1.0, value),
    "angle": wrap_angle,
    "Vec2.x": lambda value: Vec2(value, 0.0),
    "Vec2.y": lambda value: Vec2(0.0, value),
    "AgentState.v": lambda value: AgentState(v=value),
    "AgentState.alpha": lambda value: AgentState(alpha=value),
    "AgentState.omega": lambda value: AgentState(omega=value),
}


@pytest.mark.parametrize(
    "value", [True, np.True_, "0.5", np.array([0.5]), 10**400, -10**400],
    ids=["True", "np.True_", "str", "array", "1e400", "-1e400"],
)
@pytest.mark.parametrize("name", list(SCALARS))
def test_a_bool_str_or_array_scalar_raises_naming_it(name, value):
    # these checks were written out inline and let a bool and a one-element
    # array through: step(AgentState(v=0.1), (0.1, 0.0), True, Limits())
    # advanced a full second, and a str raised a bare TypeError. An int past
    # the float range, Vec2(10**400, 0.0) or wrap_angle(10**400), raised a
    # bare OverflowError
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        SCALARS[name](value)


def test_a_numpy_dt_steps_the_same_bits_as_a_float():
    state = AgentState(Vec2(1.0, 2.0), 0.3, 0.1, 0.05)

    def bits(dt):
        out = step(state, (0.4, -0.2), dt, Limits())
        values = (out.position.x, out.position.y, out.v, out.alpha, out.omega)
        assert [type(value) for value in values] == [float] * 5
        return [value.hex() for value in values]

    assert bits(np.float64(0.1)) == bits(0.1)
