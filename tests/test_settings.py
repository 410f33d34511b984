"""Every float setting a caller passes refuses a bool, as TrainerConfig and
FormationSpec.circle do, with a ValueError naming the setting."""

import numpy as np
import pytest

from streamform.apf import ApfParams
from streamform.ddpg import DdpgLearner, TrainerConfig
from streamform.dynamics import Limits
from streamform.sensing import LidarConfig


def act(sigma):
    cfg = TrainerConfig(batch_size=16, buffer_capacity=512, episodes=10, hidden=(16, 16))
    learner = DdpgLearner(obs_dim=6, cfg=cfg, rng=np.random.default_rng(0))
    return learner.act(np.zeros((2, 6)), sigma, np.random.default_rng(1))


SETTINGS = {
    "v_max": lambda flag: Limits(v_max=flag, omega_max=1.0, a_max=0.5, beta_max=2.0),
    "omega_max": lambda flag: Limits(omega_max=flag),
    "a_max": lambda flag: Limits(a_max=flag),
    "beta_max": lambda flag: Limits(beta_max=flag),
    "cutoff": lambda flag: ApfParams(cutoff=flag),
    "noise_std": lambda flag: LidarConfig(noise_std=flag),
    "sigma": act,
}


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("name", list(SETTINGS))
def test_a_bool_setting_raises_naming_it(name, flag):
    # Limits(v_max=True) used to build, and a step from v = 0.99 at accel
    # 0.5 returned v = True; LidarConfig(noise_std=True) gave 1 m of range
    # noise and act(obs, True, rng) explored at sigma 1
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        SETTINGS[name](flag)
