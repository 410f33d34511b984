"""Symmetry properties of the ``streamform.env`` step: relabelling the
followers relabels everything a step returns, bit for bit."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from streamform import env
from streamform.sensing import LidarConfig

STEPS = 25


@pytest.mark.parametrize("name", ["train", "obstacle_course", "swarm"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_permuting_followers_with_their_slots_permutes_rows_costs_and_actions(name, seed, data):
    # follower m of the permuted formation is follower perm[m] of the
    # original, with its slot: every step's rows, costs and scripted
    # actions are the original's taken in perm order. The lidar is
    # noiseless, since each scan draws its noise in follower order
    spec = env.SPECS[name]
    perm = data.draw(st.permutations(range(len(spec.offsets))), label="perm")
    permuted = dataclasses.replace(spec, offsets=tuple(spec.offsets[i] for i in perm))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(env, "LIDAR", LidarConfig(noise_std=0.0))
        a, b = env.Env(spec, seed), env.Env(permuted, seed)
        for _ in range(STEPS):
            (obs_a, costs_a, collided_a, ended_a), (obs_b, costs_b, collided_b, ended_b) = (
                a.sense(), b.sense())
            assert obs_b.tobytes() == obs_a[perm].tobytes()
            assert costs_b.tobytes() == costs_a[perm].tobytes()
            assert (collided_b, ended_b) == (collided_a, ended_a)
            if ended_a:
                a.reset()
                b.reset()
                continue
            actions_a, actions_b = a.scripted_actions(obs_a), b.scripted_actions(obs_b)
            assert actions_b.tobytes() == actions_a[perm].tobytes()
            a.move(actions_a)
            b.move(actions_b)
