import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import zipfile
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import streamform
from streamform.checkpoint import load_checkpoint, save_checkpoint
from streamform.dynamics import AgentState, Limits, step
from streamform.geom import Vec2
from streamform.ddpg import (
    ACTION_DIM,
    DTYPE,
    ActorPolicy,
    Adam,
    DdpgLearner,
    MlpBuffers,
    MlpParams,
    ReplayBuffer,
    TrainerConfig,
    actor_forward,
    actor_objective_grads,
    compute_td_targets,
    critic_forward,
    critic_loss_grads,
    init_mlp,
    map_action,
    mlp_backward,
    mlp_forward,
    simplex_from_controls,
    soft_update,
    softmax,
    softmax_backward,
)

LIM = Limits(v_max=0.5, omega_max=0.2, a_max=0.5, beta_max=0.5)
REST = AgentState(Vec2(0.0, 0.0), v=0.0, alpha=0.0, omega=0.0)


def first_bit_difference(got: np.ndarray, want: np.ndarray) -> str:
    """Where two arrays of one float dtype and shape first differ in their
    bits, with both values as bits and as float.hex."""
    bits = f"u{got.itemsize}"
    got_bits = np.ascontiguousarray(got).view(bits)
    want_bits = np.ascontiguousarray(want).view(bits)
    index = tuple(int(i) for i in np.argwhere(got_bits != want_bits)[0])
    return (
        f"first differing index {index}: {int(got_bits[index]):#x} "
        f"({float(got[index]).hex()}) != {int(want_bits[index]):#x} ({float(want[index]).hex()})"
    )


SCALE = TrainerConfig.actor_final_scale  # both learner networks' final-layer scale


def small_config(**kw):
    defaults = dict(
        batch_size=16,
        buffer_capacity=512,
        episodes=10,
        hidden=(16, 16),
    )
    defaults.update(kw)
    return TrainerConfig(**defaults)


def float64(net):
    """An exact float64 copy of a network."""
    return MlpParams(
        [w.astype(np.float64) for w in net.weights], [b.astype(np.float64) for b in net.biases]
    )


def rows_of(net, x):
    """Fresh buffers for ``net`` sized to the rows of ``x``."""
    return MlpBuffers(net, len(x))


def sample_of(buf, n, rng):
    """``n`` rows drawn from ``buf`` into a fresh array, as the field views."""
    return buf.sample(rng, np.empty_like(buf.rows[:n]))


def split_like(flat, net):
    """``flat`` cut into arrays of the shapes of ``net.arrays()``, in order."""
    ends = np.cumsum([a.size for a in net.arrays()])[:-1]
    return [part.reshape(a.shape) for part, a in zip(np.split(flat, ends), net.arrays())]


def forward(net, x, bufs):
    """``mlp_forward`` of the rows ``x``, written into ``bufs.inputs`` first."""
    bufs.inputs[...] = x
    return mlp_forward(net, bufs)


# The network math as first written, allocating every array. Every function
# of streamform.ddpg that writes into buffers is checked against these, so
# they share no code with it.


def reference_forward(params, x):
    """Output and each layer's input with its ones column."""
    h = np.atleast_2d(np.asarray(x, dtype=params.flat.dtype))
    cache = []
    for i, layer in enumerate(params.layers):
        h = np.hstack([h, np.ones((len(h), 1), h.dtype)])
        cache.append(h)
        h = h @ layer
        if i < len(params.layers) - 1:
            h = np.maximum(h, 0.0)
    return h, cache


def reference_backward(params, cache, dout):
    """Gradients in arrays() order and d(loss)/d(input). A one-column layer's
    input gradient is an outer product, which multiply takes with the K=1
    matmul's bits (tested below)."""
    grads = [None] * (2 * len(params.layers))
    da = dout
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        g = cache[i].T @ da
        grads[2 * i], grads[2 * i + 1] = g[:-1], g[-1]
        da = np.multiply(da, layer.T) if layer.shape[1] == 1 else da @ layer.T
        if i > 0:
            da = da * (cache[i] > 0)
        da = da[:, :-1]
    return grads, da


def reference_softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_softmax_backward(probs, dprobs):
    return (dprobs - (dprobs * probs).sum(axis=1, keepdims=True)) * probs


def reference_actor(actor, obs):
    return reference_softmax(reference_forward(actor, obs)[0])


def reference_critic(critic, obs, act):
    return reference_forward(critic, np.hstack([obs, act]))[0][:, 0]


def reference_critic_loss_grads(critic, obs, act, targets):
    q, cache = reference_forward(critic, np.hstack([obs, act]))
    err = q[:, 0] - targets
    grads, _ = reference_backward(critic, cache, (2.0 / len(err)) * err[:, None])
    return grads, float(np.mean(err * err))


def reference_actor_objective_grads(actor, critic, obs):
    logits, cache_a = reference_forward(actor, obs)
    u = reference_softmax(logits)
    q, cache_q = reference_forward(critic, np.hstack([obs, u]))
    _, dx = reference_backward(critic, cache_q, np.full((len(obs), 1), 1.0 / len(obs), q.dtype))
    dlogits = reference_softmax_backward(u, dx[:, obs.shape[1] :])
    grads, _ = reference_backward(actor, cache_a, dlogits)
    return grads, float(np.mean(q[:, 0]))


class TestSoftmaxBits:
    """softmax and softmax_backward fold the action columns in one ufunc call
    each; their bits must stay those of numpy's axis-1 reductions at the row
    counts of every caller: 4 (``act``), 48 (``ActorPolicy.act`` on the
    swarm), 1024 (the train batch) and 500."""

    ROWS = (4, 48, 500, 1024)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["random", "saturated"])
    def test_same_bits_as_the_axis_1_form(self, kind, dtype):
        for rows in self.ROWS:
            rng = np.random.default_rng(21)
            if kind == "random":
                logits = rng.normal(scale=3.0, size=(rows, ACTION_DIM))
            else:
                logits = rng.choice([-80.0, 0.0, 80.0], size=(rows, ACTION_DIM))
            dprobs = rng.normal(size=logits.shape)
            # in float32 this row's probabilities are [1, 0, 0], so every
            # product dprobs * probs is -0.0, which numpy's sum turns into 0.0
            logits[0], dprobs[0] = [80.0, -80.0, -80.0], [-0.0, -1.0, -2.0]
            logits, dprobs = logits.astype(dtype), dprobs.astype(dtype)
            want = reference_softmax(logits)
            probs = softmax(logits.copy())
            assert probs.tobytes() == want.tobytes(), f"softmax, {rows} rows"
            grad = softmax_backward(probs, dprobs)
            want_grad = reference_softmax_backward(want, dprobs)
            assert grad.tobytes() == want_grad.tobytes(), f"softmax_backward, {rows} rows"


class TestActorForward:
    def test_simplex_invariant(self):
        rng = np.random.default_rng(0)
        net = float64(init_mlp([6, 16, ACTION_DIM], rng, SCALE))
        obs = rng.normal(size=(50, 6))
        u = actor_forward(net, obs, rows_of(net, obs))
        assert np.all(u >= 0)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_final_layer_gives_uniform(self):
        rng = np.random.default_rng(1)
        net = init_mlp([4, 8, ACTION_DIM], rng, SCALE)
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
        obs = rng.normal(size=(5, 4))
        u = actor_forward(net, obs, rows_of(net, obs))
        np.testing.assert_allclose(u, 1.0 / 3.0, atol=1e-12)

    def test_dominant_logit_saturates(self):
        net = MlpParams([np.eye(3) * 50.0], [np.zeros(3)])
        u = actor_forward(net, np.array([[1.0, 0.0, 0.0]]), MlpBuffers(net, 1))
        assert u[0, 0] > 1.0 - 1e-12


class TestMapAction:
    def test_full_throttle(self):
        assert map_action(np.array([1.0, 0.0, 0.0]), LIM) == (0.5, 0.0)

    def test_symmetric_cancel(self):
        assert map_action(np.array([0.0, 0.5, 0.5]), LIM) == (0.0, 0.0)

    def test_arithmetic(self):
        accel, turn = map_action(np.array([0.2, 0.7, 0.1]), LIM)
        assert accel == pytest.approx(0.2 * 0.5, rel=1e-12)
        assert turn == pytest.approx(0.6 * 0.5, rel=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u0 = rng.uniform(0, 1)
            ratio = rng.uniform(-(1 - u0), 1 - u0)
            accel, turn = u0 * LIM.a_max, ratio * LIM.beta_max
            u = simplex_from_controls(accel, turn, LIM)
            assert u.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(u >= -1e-15)
            back = map_action(u, LIM)
            assert back == pytest.approx((accel, turn), abs=1e-12)

    def test_leaves_saturation_to_the_step(self):
        # an action off the simplex maps to controls past the limits, which
        # only dynamics.step clamps
        raw = map_action(np.array([3.0, 2.0, -1.0]), LIM)
        assert raw == pytest.approx((1.5, 1.5), rel=1e-12)
        state = AgentState(Vec2(0.0, 0.0), v=0.1, alpha=0.0, omega=0.05)
        assert step(state, raw, 0.1, LIM) == step(state, (LIM.a_max, LIM.beta_max), 0.1, LIM)

    @pytest.mark.parametrize("action", [[0.2, 0.3], [0.2, 0.3, 0.5, 9.0]], ids=["two", "four"])
    def test_an_action_of_another_size_raises(self, action):
        # four entries used to map from the first three, and two raised a
        # bare IndexError
        with pytest.raises(ValueError, match=f"an action holds 3 values, got {len(action)}"):
            map_action(np.array(action), LIM)

    def test_nan_action_is_rejected_by_the_step(self):
        # map_action keeps a NaN component; dynamics.step used to return v = nan
        u = map_action(np.array([np.nan, 0.5, 0.5]), LIM)
        with pytest.raises(ValueError, match="u.accel must be finite"):
            step(REST, u, 0.1, LIM)

    def test_infinite_action_is_rejected_by_the_step(self):
        # an infinite component used to reach the step already saturated
        u = map_action(np.array([0.2, np.inf, 0.5]), LIM)
        with pytest.raises(ValueError, match="u.angular_accel must be finite"):
            step(REST, u, 0.1, LIM)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_controls_rejected(self, bad):
        # simplex_from_controls(nan, ...) used to return [nan, nan, nan]
        with pytest.raises(ValueError, match="accel must be finite"):
            simplex_from_controls(bad, 0.0, LIM)
        with pytest.raises(ValueError, match="angular_accel must be finite"):
            simplex_from_controls(0.0, bad, LIM)


class TestCriticForward:
    def test_deterministic(self):
        rng = np.random.default_rng(4)
        net = init_mlp([8 + ACTION_DIM, 16, 1], rng, SCALE)
        obs, act = rng.normal(size=(3, 8)), rng.dirichlet(np.ones(3), 3)
        bufs = rows_of(net, obs)
        a = critic_forward(net, obs, act, bufs).copy()
        b = critic_forward(net, obs, act, bufs)
        np.testing.assert_array_equal(a, b)

    def test_zero_weights_depend_only_on_bias(self):
        rng = np.random.default_rng(5)
        net = init_mlp([5 + ACTION_DIM, 8, 1], rng, SCALE)
        for w in net.weights:
            w[:] = 0.0
        net.biases[0][:] = 0.7
        net.biases[-1][:] = -0.2
        obs = rng.normal(size=(4, 5))
        q1 = critic_forward(net, obs, rng.dirichlet(np.ones(3), 4), rows_of(net, obs))
        q2 = critic_forward(net, 2 * obs, rng.dirichlet(np.ones(3), 4), rows_of(net, obs))
        np.testing.assert_allclose(q1, q2, atol=1e-15)
        np.testing.assert_allclose(q1, -0.2, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        net = init_mlp([5 + ACTION_DIM, 8, 1], rng, SCALE)
        with pytest.raises(ValueError):
            critic_forward(
                net, rng.normal(size=(2, 9)), rng.dirichlet(np.ones(3), 2), MlpBuffers(net, 2)
            )


class TestExplorationNoise:
    """DdpgLearner.act: the one shared policy, noised on its logits."""

    @staticmethod
    def learner(seed):
        return DdpgLearner(obs_dim=6, cfg=small_config(), rng=np.random.default_rng(seed))

    def test_sigma_zero_is_identity(self):
        # no noise is drawn, so the rng is left as it was
        learner = self.learner(7)
        rng = np.random.default_rng(7)
        obs = rng.normal(size=(4, 6))
        state = rng.bit_generator.state
        logits, _ = reference_forward(learner.actor, obs)
        np.testing.assert_array_equal(
            learner.act(obs, 0.0, rng), reference_softmax(logits.astype(np.float64))
        )
        assert rng.bit_generator.state == state

    def test_noise_variance(self):
        # identical rows share their logits, so the log-ratio of two action
        # components varies only by the difference of two draws: 2 sigma^2
        learner = self.learner(8)
        u = learner.act(np.zeros((100_000, 6)), 0.3, np.random.default_rng(8))
        assert np.log(u[:, 0] / u[:, 1]).var() == pytest.approx(2 * 0.09, rel=0.05)

    def test_noise_is_softmax_of_perturbed_logits(self):
        learner = self.learner(11)
        obs = np.random.default_rng(11).normal(size=(5, 6))
        logits, _ = reference_forward(learner.actor, obs)
        noise = np.random.default_rng(12).normal(0.0, 0.4, size=logits.shape)
        np.testing.assert_array_equal(
            learner.act(obs, 0.4, np.random.default_rng(12)), reference_softmax(logits + noise)
        )

    def test_shared_policy_parameter_sharing(self):
        learner = self.learner(9)
        obs = np.tile(np.random.default_rng(9).normal(size=(1, 6)), (3, 1))
        u = learner.act(obs, 0.0, np.random.default_rng(9))
        np.testing.assert_array_equal(u[0], u[1])
        np.testing.assert_array_equal(u[0], u[2])

    def test_act_paths_return_float64_rows_on_the_simplex(self):
        learner = self.learner(13)
        obs = np.random.default_rng(13).normal(size=(200, 6)) * 50.0
        rng = np.random.default_rng(14)
        for u in (
            learner.act(obs, 0.0, rng), learner.act(obs, 2.0, rng),
            ActorPolicy(learner.actor).act(obs),
        ):
            assert u.dtype == np.float64
            assert np.all(u >= 0)
            np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_sigma_zero_matches_actor_forward(self):
        learner = self.learner(10)
        learner.actor = float64(learner.actor)
        rng = np.random.default_rng(10)
        obs = rng.normal(size=(5, 6))
        expected = actor_forward(learner.actor, obs, rows_of(learner.actor, obs))
        np.testing.assert_array_equal(learner.act(obs, 0.0, rng), expected)

    @pytest.mark.parametrize("sigma", [np.nan, -0.3, np.inf])
    def test_sigma_not_nonnegative_and_finite_raises(self, sigma):
        # nan and -0.3 used to return the greedy action, and inf all-NaN
        # actions with a RuntimeWarning
        learner = self.learner(16)
        with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
            learner.act(np.zeros((2, 6)), sigma, np.random.default_rng(16))

    def test_observations_not_of_shape_rows_by_obs_dim_raise(self):
        # a (4, 1) observation used to be broadcast into the buffers, giving
        # four actions, and a 1-D one was taken as one row
        learner = self.learner(15)
        policy = ActorPolicy(learner.actor)
        one = np.random.default_rng(15).normal(size=(1, 6))
        np.testing.assert_array_equal(policy.act(one), learner.act(one, 0.0, None))
        assert policy.act(one).shape == (1, ACTION_DIM)
        for shape in [(4, 1), (6,), (3, 5), (1, 1, 6), ()]:
            obs = np.ones(shape)
            message = re.escape(f"observations have shape {shape}, not (rows, 6)")
            with pytest.raises(ValueError, match=message):
                learner.act(obs, 0.0, None)
            with pytest.raises(ValueError, match=message):
                policy.act(obs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_observation_row_is_named(self, bad):
        # a NaN entry used to return an all-NaN action row; 1e39 is inf in
        # the float32 network
        learner = self.learner(17)
        policy = ActorPolicy(learner.actor)
        obs = np.random.default_rng(17).normal(size=(5, 6))
        obs[2, 4] = obs[4, 0] = bad
        message = r"observation row 2 is not finite as float32: \["
        with pytest.raises(ValueError, match=message):
            learner.act(obs, 0.3, np.random.default_rng(17))
        with pytest.raises(ValueError, match=message):
            policy.act(obs)
        with pytest.raises(ValueError, match=message):
            policy.act(obs.tolist())


@pytest.mark.parametrize("obs_dim", [0, -3, 2.5, True])
def test_learner_obs_dim_must_be_a_positive_int(obs_dim):
    # each used to raise a bare error from building the networks
    with pytest.raises(
        ValueError, match=re.escape(f"obs_dim must be a positive int, got {obs_dim!r}")
    ):
        DdpgLearner(obs_dim, small_config(), np.random.default_rng(0))


class TestReplayBuffer:
    @pytest.mark.parametrize(
        "capacity, obs_dim, name",
        [(0, 6, "capacity"), (-2, 6, "capacity"), (4.0, 6, "capacity"), (True, 6, "capacity"),
         (4, 0, "obs_dim"), (4, 1.5, "obs_dim"), (4, None, "obs_dim")],
    )
    def test_sizes_must_be_positive_ints(self, capacity, obs_dim, name):
        # ReplayBuffer(0, 6) used to build and raise a bare IndexError on its
        # first add, and ReplayBuffer(4, 0) built a 5-column store
        with pytest.raises(ValueError, match=f"{name} must be a positive int, got"):
            ReplayBuffer(capacity, obs_dim)

    @pytest.mark.parametrize(
        "done", [np.nan, 2.0, -1.0, 0.5, 1.0, 1, np.int64(0), None, "yes"], ids=repr
    )
    def test_done_must_be_a_bool(self, done):
        # nan, 2.0, -1.0 and 0.5 used to be stored: with 2.0 the TD target's
        # 1 - done is -1, which flips the sign of the bootstrap
        buf = ReplayBuffer(capacity=4, obs_dim=2)
        row = {"obs": [0.0, 1.0], "act": [1.0, 0.0, 0.0], "rew": 0.5, "obs_next": [1.0, 1.0]}
        buf.add(**row, done=True)
        before = buf.rows.tobytes()
        message = re.escape(f"transition done must be a bool, got {done!r}")
        with pytest.raises(ValueError, match=message):
            buf.add(**row, done=done)
        assert buf.rows.tobytes() == before and len(buf) == 1

    @pytest.mark.parametrize("done", [True, False, np.True_, np.bool_(False)])
    def test_python_and_numpy_bools_are_stored_as_0_or_1(self, done):
        buf = ReplayBuffer(capacity=4, obs_dim=2)
        buf.add([0.0, 1.0], [1.0, 0.0, 0.0], 0.5, [1.0, 1.0], done)
        assert buf.fields(buf.rows)[4][0] == float(done)

    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=5, obs_dim=1)
        for k in range(7):
            buf.add([float(k)], [0, 0, 1], k, [float(k + 1)], False)
        assert len(buf) == 5
        obs = buf.fields(buf.rows)[0]
        stored = set(obs[:, 0])
        assert stored == {2.0, 3.0, 4.0, 5.0, 6.0}

    def test_sample_requires_enough(self):
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        buf.add([0.0], [1, 0, 0], 0.0, [0.0], False)
        with pytest.raises(ValueError):
            sample_of(buf, 2, np.random.default_rng(0))

    def test_uniform_sampling_chi_squared(self):
        buf = ReplayBuffer(capacity=100, obs_dim=1)
        for k in range(100):
            buf.add([float(k)], [0, 0, 1], 0.0, [0.0], False)
        rng = np.random.default_rng(11)
        counts = np.zeros(100)
        draws = 100_000
        for _ in range(draws // 100):
            obs, *_ = sample_of(buf, 100, rng)
            idx, c = np.unique(obs[:, 0].astype(int), return_counts=True)
            counts[idx] += c
        assert counts.sum() == draws
        # Pearson's statistic against equal expected counts, tested at
        # p > 0.01: below the 0.99 quantile of chi-squared with 99 degrees of
        # freedom, 134.6416 (134.642 in table 1.3.6.7.4 of the NIST/SEMATECH
        # e-Handbook of Statistical Methods; the fourth place from the
        # regularized incomplete gamma function). At seed 11 it is 105.83
        expected = draws / len(counts)
        statistic = float(np.sum((counts - expected) ** 2) / expected)
        assert statistic < 134.6416

    @pytest.mark.parametrize(
        "field, value",
        [("obs", [1.0]), ("obs", np.zeros(4)), ("act", 0.5), ("rew", [1.0, 2.0]),
         ("obs_next", 2.0)],
        ids=["short-obs", "long-obs", "scalar-act", "two-rew", "scalar-obs_next"],
    )
    def test_add_rejects_a_field_of_the_wrong_size(self, field, value):
        # a field must hold exactly its width, never be broadcast across it
        buf = ReplayBuffer(capacity=4, obs_dim=3)
        row = {"obs": [1.0, 2.0, 3.0], "act": [1.0, 0.0, 0.0], "rew": 0.5,
               "obs_next": [4.0, 5.0, 6.0]}
        buf.add(**row, done=False)
        before = buf.rows.tobytes()
        row[field] = value
        message = re.escape(f"transition {field} has shape {np.shape(value)}")
        if field == "rew":  # a reward is a scalar by geom._finite
            message = re.escape(f"transition rew must be finite, got {value!r}")
        with pytest.raises(ValueError, match=message):
            buf.add(**row, done=False)
        assert buf.rows.tobytes() == before and len(buf) == 1

    @pytest.mark.parametrize(
        "field, value",
        [("obs", np.zeros((2, 3))), ("act", np.zeros((3, 1))), ("rew", [0.5]),
         ("obs_next", np.zeros((1, 6)))],
        ids=["2x3-obs", "3x1-act", "one-entry-rew", "1x6-obs_next"],
    )
    def test_add_rejects_a_field_of_its_size_but_another_shape(self, field, value):
        # the size check let these through: the (2, 3) obs and (3, 1) act
        # then failed in numpy's broadcast, naming no field, and the [0.5]
        # rew and (1, 6) obs_next were stored
        buf = ReplayBuffer(capacity=4, obs_dim=6)
        row = {"obs": np.ones(6), "act": [1.0, 0.0, 0.0], "rew": 0.5, "obs_next": np.ones(6)}
        row[field] = value
        message = re.escape(f"transition {field} has shape {np.shape(value)}, not")
        if field == "rew":  # a reward is a scalar by geom._finite
            message = re.escape(f"transition rew must be finite, got {value!r}")
        with pytest.raises(ValueError, match=message):
            buf.add(**row, done=False)
        assert not buf.rows.any() and len(buf) == 0


# Builds six default learners (1M-row buffers), each while the previous one
# is still alive, and prints the peak RSS in MB after each is filled and
# trained. It reads VmHWM, the peak of this process's own memory map:
# ru_maxrss of a spawned child starts at its parent's peak, so under a large
# pytest process it would hide any growth below that.
REBUILD_SCRIPT = """
import json, re
import numpy as np
from streamform.ddpg import DdpgLearner, TrainerConfig

rng = np.random.default_rng(0)
learner, peaks = None, []
for _ in range(6):
    learner = DdpgLearner(20, TrainerConfig(), rng)
    while not learner.ready():
        learner.record(rng.normal(size=20), rng.dirichlet(np.ones(3)), rng.normal(),
                       rng.normal(size=20), False)
    for _ in range(3):
        learner.train_step(rng)
    status = open("/proc/self/status").read()
    peaks.append(int(re.search(r"VmHWM:\\s*(\\d+) kB", status).group(1)) / 1024)
print(json.dumps(peaks))
"""


class TestReplayLayout:
    def test_row_holds_the_fields_in_order(self):
        buf = ReplayBuffer(capacity=4, obs_dim=2)
        buf.add([1.0, 2.0], [3.0, 4.0, 5.0], 6.0, [7.0, 8.0], True)
        np.testing.assert_array_equal(buf.rows[0], [1, 2, 3, 4, 5, 6, 7, 8, 1])

    def test_sampled_fields_equal_the_added_transition(self):
        buf = ReplayBuffer(capacity=16, obs_dim=3)
        rng = np.random.default_rng(41)
        added = {}
        for k in range(16):
            t = (
                np.array([k, *rng.normal(size=2)]), rng.dirichlet(np.ones(3)),
                rng.normal(), rng.normal(size=3), bool(k % 2),
            )
            buf.add(*t)
            added[k] = t
        obs, act, rew, obs_next, done = sample_of(buf, 16, rng)
        for j in range(16):
            o, a, r, o2, d = added[int(obs[j, 0])]
            np.testing.assert_array_equal(obs[j], o.astype(DTYPE))
            np.testing.assert_array_equal(act[j], a.astype(DTYPE))
            assert rew[j] == DTYPE(r) and done[j] == float(d)
            np.testing.assert_array_equal(obs_next[j], o2.astype(DTYPE))

    def test_add_stores_each_field_cast_on_its_own(self):
        # add() casts the whole row at once; each stored field must have the
        # bytes of that field cast alone, for values that round in float32
        buf = ReplayBuffer(capacity=64, obs_dim=4)
        rng = np.random.default_rng(45)
        edge = [3.4028235e38, -3.4028235e38, 1e-46, 1.4e-45, -0.0, 1 / 3, 0.1, 7]
        for k in range(200):
            def field(n):
                x = rng.normal(size=n) * 10.0 ** rng.integers(-45, 38, size=n)
                hit = rng.random(n) < 0.2
                x[hit] = rng.choice(edge, hit.sum())
                return list(x) if k % 2 else x
            obs, act, rew, obs_next = field(4), field(3), float(field(1)[0]), field(4)
            buf.add(obs, act, rew, obs_next, bool(k % 3))
            expected = [np.asarray(v, DTYPE) for v in (obs, act, rew, obs_next, float(k % 3 > 0))]
            assert buf.rows[k % 64].tobytes() == b"".join(e.tobytes() for e in expected), k

    @pytest.mark.parametrize("field", ["obs", "act", "rew", "obs_next"])
    def test_failed_add_to_a_full_ring_changes_nothing(self, field):
        buf = ReplayBuffer(capacity=3, obs_dim=2)
        for k in range(4):
            buf.add([k, 1.0], [1.0, 0.0, 0.0], 0.5, [k, 2.0], False)
        before = buf.rows.tobytes()
        row = {"obs": [9.0, 9.0], "act": [0.0, 1.0, 0.0], "rew": 9.0, "obs_next": [9.0, 9.0]}
        row[field] = np.nan if field == "rew" else [9.0] * (len(row[field]) - 1) + [np.nan]
        message = "transition rew must be finite" if field == "rew" else f"non-finite {field}:"
        with pytest.raises(ValueError, match=message):
            buf.add(**row, done=True)
        assert buf.rows.tobytes() == before and len(buf) == 3
        buf.add([5.0, 5.0], [0.0, 0.0, 1.0], 1.0, [6.0, 6.0], True)
        np.testing.assert_array_equal(buf.rows[1], [5, 5, 0, 0, 1, 1, 6, 6, 1])

    def test_sample_writes_the_drawn_rows_into_out(self):
        learner, _ = filled_learner(42)
        buf, n = learner.buffer, learner.cfg.batch_size
        got = buf.sample(np.random.default_rng(43), learner.sample)
        idx = np.random.default_rng(43).integers(0, len(buf), size=n)
        for a, b in zip(got, buf.fields(buf.rows[idx])):
            assert np.shares_memory(a, learner.sample)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_rebuilt_learners_keep_unwritten_rows_off_resident_memory(self):
        # a 1M-row buffer must cost resident memory only for the rows
        # written, however the allocator reuses a freed learner's memory
        src = os.path.dirname(os.path.dirname(streamform.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", REBUILD_SCRIPT], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        peaks = json.loads(done.stdout)
        assert peaks[-1] - peaks[1] < 10.0, peaks


class TestTargets:
    def test_done_masks_bootstrap(self):
        rng = np.random.default_rng(12)
        actor = init_mlp([4, 8, ACTION_DIM], rng, SCALE)
        critic = init_mlp([4 + ACTION_DIM, 8, 1], rng, SCALE)
        rew = rng.normal(size=6)
        obs2 = rng.normal(size=(6, 4))
        done = np.ones(6)
        bufs = MlpBuffers(actor, 6), MlpBuffers(critic, 6)
        y = compute_td_targets(actor, critic, rew, obs2, done, *bufs)
        np.testing.assert_array_equal(y, rew.astype(DTYPE))

    def test_bootstrap_when_not_done(self):
        rng = np.random.default_rng(13)
        actor = init_mlp([4, 8, ACTION_DIM], rng, SCALE)
        critic = init_mlp([4 + ACTION_DIM, 8, 1], rng, SCALE)
        rew = np.zeros(3)
        obs2 = rng.normal(size=(3, 4))
        bufs = MlpBuffers(actor, 3), MlpBuffers(critic, 3)
        y = compute_td_targets(actor, critic, rew, obs2, np.zeros(3), *bufs)
        u2 = reference_actor(actor, obs2)
        gamma = TrainerConfig.gamma
        np.testing.assert_allclose(y, gamma * reference_critic(critic, obs2, u2), rtol=1e-12)


class TestTrainStep:
    def _seeded_learner(self):
        cfg = small_config()
        rng = np.random.default_rng(14)
        learner = DdpgLearner(obs_dim=5, cfg=cfg, rng=rng)
        for _ in range(64):
            o = rng.normal(size=5)
            a = rng.dirichlet(np.ones(3))
            learner.record(o, a, rng.normal(), rng.normal(size=5), False)
        return learner, rng

    def test_tau_one_copies_targets(self, monkeypatch):
        monkeypatch.setattr(TrainerConfig, "tau", 1.0)
        learner, rng = self._seeded_learner()
        learner.train_step(rng)
        for t, o in zip(learner.target_actor.arrays(), learner.actor.arrays()):
            np.testing.assert_array_equal(t, o)
        for t, o in zip(learner.target_critic.arrays(), learner.critic.arrays()):
            np.testing.assert_array_equal(t, o)

    def test_frozen_batch_regression_to_immediate_cost(self):
        # terminal transitions make the targets equal the raw costs; the
        # critic must fit them ever more closely on a frozen batch
        rng = np.random.default_rng(15)
        critic = init_mlp([4 + ACTION_DIM, 32, 32, 1], rng, SCALE)
        opt = Adam(critic.flat, 1e-3)
        bufs = MlpBuffers(critic, 64)
        obs = rng.normal(size=(64, 4))
        act = rng.dirichlet(np.ones(3), 64)
        rew = rng.normal(size=64)
        _, first = reference_critic_loss_grads(critic, obs, act, rew)
        loss = first
        for _ in range(300):
            loss = critic_loss_grads(critic, obs, act, rew, bufs, opt.grad)
            opt.step()
        assert loss < 0.5 * first

    def test_diagnostics_reported(self):
        learner, rng = self._seeded_learner()
        diag = learner.train_step(rng)
        assert set(diag) == {"critic_loss", "actor_q"}
        assert np.isfinite(diag["critic_loss"])

    def test_target_convergence_rate(self, monkeypatch):
        rng = np.random.default_rng(16)
        online = init_mlp([4, 8, 2], rng, SCALE)
        target = init_mlp([4, 8, 2], rng, SCALE)
        tau = 0.1
        monkeypatch.setattr(TrainerConfig, "tau", tau)
        diff0 = np.linalg.norm(online.weights[0] - target.weights[0])
        k = 20
        for _ in range(k):
            soft_update(target, online)
        diff = np.linalg.norm(online.weights[0] - target.weights[0])
        assert diff == pytest.approx(diff0 * (1 - tau) ** k, rel=1e-9)


class ReferenceAdam:
    """Per-array Adam exactly as first written: the allocating reference for
    the learner's flat-vector, in-place update."""

    def __init__(self, arrays, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def step(self, arrays, grads, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            a -= lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps)


def reference_soft_update(target, online, tau):
    for t, o in zip(target.arrays(), online.arrays()):
        t *= 1.0 - tau
        t += tau * o


def reference_train_step(nets, opts, batch, cfg):
    """One allocating train step on ``nets`` (any object with the learner's
    four network attributes) with ``ReferenceAdam`` states ``opts`` =
    (critic, actor); returns the diagnostics as train_step does. It runs no
    network, softmax or update function of streamform.ddpg."""
    obs, act, rew, obs_next, done = batch
    u_next = reference_actor(nets.target_actor, obs_next)
    q_next = reference_critic(nets.target_critic, obs_next, u_next)
    targets = cfg.gamma * q_next * (1.0 - done) + rew
    c_grads, c_loss = reference_critic_loss_grads(nets.critic, obs, act, targets)
    opts[0].step(nets.critic.arrays(), c_grads, cfg.critic_lr)
    a_grads, a_obj = reference_actor_objective_grads(nets.actor, nets.critic, obs)
    opts[1].step(nets.actor.arrays(), a_grads, cfg.actor_lr)
    reference_soft_update(nets.target_actor, nets.actor, cfg.tau)
    reference_soft_update(nets.target_critic, nets.critic, cfg.tau)
    return {"critic_loss": c_loss, "actor_q": a_obj}


NETWORKS = ("actor", "critic", "target_actor", "target_critic")


def filled_learner(seed):
    cfg = small_config(batch_size=64, hidden=(32, 24))
    rng = np.random.default_rng(seed)
    learner = DdpgLearner(obs_dim=6, cfg=cfg, rng=rng)
    for _ in range(300):
        learner.record(
            rng.normal(size=6), rng.dirichlet(np.ones(3)), rng.normal(),
            rng.normal(size=6), rng.random() < 0.1,
        )
    return learner, rng


def assert_same_networks(a, b):
    assert_same_networks_as(a, b.network_arrays())


def assert_same_networks_as(learner, arrays):
    mine = learner.network_arrays()
    assert mine.keys() == arrays.keys()
    for name in mine:
        np.testing.assert_array_equal(mine[name], arrays[name], err_msg=name)


class TestWorkspaceTrainStep:
    """The reused-workspace train_step against the allocating path."""

    def test_bit_exact_with_allocating_reference(self):
        new, rng_new = filled_learner(31)
        ref, rng_ref = filled_learner(31)
        cfg = ref.cfg
        ref_critic_opt = ReferenceAdam(ref.critic.arrays())
        ref_actor_opt = ReferenceAdam(ref.actor.arrays())
        for _ in range(50):
            diag = new.train_step(rng_new)
            batch = sample_of(ref.buffer, cfg.batch_size, rng_ref)
            opts = (ref_critic_opt, ref_actor_opt)
            assert diag == reference_train_step(ref, opts, batch, cfg)
        assert new.actor.flat.dtype == DTYPE
        for name in NETWORKS:
            assert getattr(new, name).flat.tobytes() == getattr(ref, name).flat.tobytes(), name
        pairs = ((new.critic_opt, ref_critic_opt), (new.actor_opt, ref_actor_opt))
        for opt, ref_opt in pairs:
            assert opt.t == ref_opt.t
            for mine, theirs in ((opt.m, ref_opt.m), (opt.v, ref_opt.v)):
                assert mine.tobytes() == b"".join(x.tobytes() for x in theirs)

    def test_train_steps_allocate_no_batch_sized_block(self):
        # the preallocated blocks must not be allocated again in a step.
        # After warm-up, a default-width step at batch 1024 allocates Adam's
        # two temporaries of the critic's flat vector (207 KiB here) and a
        # few vectors; a per-step copy of the replay sample (180 KiB here), a
        # layer input (up to a (1024, 129) float32 block, 516 KiB) or a ReLU
        # mask (129 KiB) takes the peak past the budget
        cfg = TrainerConfig(buffer_capacity=1024)
        rng = np.random.default_rng(52)
        learner = DdpgLearner(obs_dim=20, cfg=cfg, rng=rng)
        for _ in range(cfg.batch_size):
            learner.record(
                rng.normal(size=20), rng.dirichlet(np.ones(3)), rng.normal(),
                rng.normal(size=20), False,
            )
        for _ in range(3):
            learner.train_step(rng)
        budget = 2 * learner.critic.flat.nbytes + 16 * cfg.batch_size * np.dtype(DTYPE).itemsize
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                learner.train_step(rng)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < budget < 1024 * 129 * 4

    def test_act_paths_allocate_less_than_the_actor(self):
        # an act call builds fresh batch-sized buffers for its rows and
        # nothing parameter-sized: a flat gradient vector in those buffers,
        # never read on these paths, took the peak to the actor's own size
        cfg = TrainerConfig(buffer_capacity=1024)
        rng = np.random.default_rng(54)
        learner = DdpgLearner(obs_dim=20, cfg=cfg, rng=rng)
        policy = ActorPolicy(learner.actor)
        obs = rng.normal(size=(4, 20))
        calls = {
            "DdpgLearner.act": lambda: learner.act(obs, cfg.sigma_start, rng),
            "ActorPolicy.act": lambda: policy.act(obs),
        }
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            for name, call in calls.items():
                call()  # warm-up
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                call()
                peak = tracemalloc.get_traced_memory()[1] - start
                assert peak < learner.actor.flat.nbytes, name
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_float64_targets_give_float32_td_errors(self):
        # the TD errors take the critic's dtype before they are squared and
        # backpropagated: the learner runs in float32 whatever the targets'
        # dtype
        rng = np.random.default_rng(53)
        critic = init_mlp([4 + ACTION_DIM, 16, 1], rng, SCALE)
        obs, act = rng.normal(size=(32, 4)), rng.dirichlet(np.ones(3), 32)
        targets = rng.normal(size=32)
        q = critic_forward(critic, obs, act, MlpBuffers(critic, 32)).copy()
        err = (q.astype(np.float64) - targets).astype(np.float32)
        grad = np.empty_like(critic.flat)
        loss = critic_loss_grads(critic, obs, act, targets, MlpBuffers(critic, 32), grad)
        assert loss == float(np.mean(err * err))
        assert grad.dtype == np.float32

    def test_float32_training_tracks_a_float64_reference(self):
        # the learner against the allocating path on exact float64 copies of
        # the same networks and batches. float32 rounding gives relative
        # errors of about 3e-7 (networks) and 2e-7 (diagnostics, as series
        # over the steps: actor_q crosses zero) over these 50 steps
        new, rng_new = filled_learner(31)
        ref, rng_ref = filled_learner(31)
        cfg = ref.cfg
        nets = SimpleNamespace(**{name: float64(getattr(ref, name)) for name in NETWORKS})
        opts = (ReferenceAdam(nets.critic.arrays()), ReferenceAdam(nets.actor.arrays()))
        mine, theirs = [], []
        for _ in range(50):
            mine.append(list(new.train_step(rng_new).values()))
            batch = [f.astype(np.float64) for f in sample_of(ref.buffer, cfg.batch_size, rng_ref)]
            theirs.append(list(reference_train_step(nets, opts, batch, cfg).values()))
        mine, theirs = np.array(mine), np.array(theirs)
        errors = np.linalg.norm(mine - theirs, axis=0) / np.linalg.norm(theirs, axis=0)
        assert np.all(errors < 1e-4), errors
        for name in NETWORKS:
            flat32, flat64 = getattr(new, name).flat, getattr(nets, name).flat
            assert flat32.dtype == DTYPE
            assert np.linalg.norm(flat32 - flat64) < 1e-5 * np.linalg.norm(flat64), name

    def test_interleaved_learners_do_not_interfere(self):
        # two learners trained step for step in turn must match each one
        # trained on its own: neither reads or writes the other's blocks
        a, rng_a = filled_learner(32)
        b, rng_b = filled_learner(33)
        for _ in range(20):
            a.train_step(rng_a)
            b.train_step(rng_b)
        for seed, interleaved in ((32, a), (33, b)):
            alone, rng = filled_learner(seed)
            for _ in range(20):
                alone.train_step(rng)
            assert_same_networks(alone, interleaved)

    def test_threads_train_concurrently_without_interference(self):
        # learners on three threads at once must match each one trained alone
        def train(learner, rng):
            for _ in range(15):
                learner.train_step(rng)

        seeds = (35, 36, 37)
        learners = [filled_learner(seed) for seed in seeds]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=train, args=pair) for pair in learners]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        for seed, (threaded, _) in zip(seeds, learners):
            alone, rng = filled_learner(seed)
            train(alone, rng)
            assert_same_networks(alone, threaded)

    @staticmethod
    def backward_case(seed):
        """A critic, its input rows, an output gradient, the reference's
        gradients and input gradient, and buffers for the rows."""
        rng = np.random.default_rng(seed)
        critic = init_mlp([5 + ACTION_DIM, 16, 12, 1], rng, SCALE)
        x = rng.normal(size=(40, 5 + ACTION_DIM))
        out, cache = reference_forward(critic, x)
        dout = rng.normal(size=out.shape).astype(out.dtype)
        grads, dx = reference_backward(critic, cache, dout)
        return critic, x, dout, grads, dx, MlpBuffers(critic, len(x))

    def test_input_gradient_only_path_matches_full_backward(self):
        # the input mode returns the reference's input gradient and leaves
        # every byte of the parameters as it was
        critic, x, dout, _, full_dx, bufs = self.backward_case(34)
        before = critic.flat.tobytes()
        forward(critic, x, bufs)
        dx = mlp_backward(critic, dout, bufs, None)
        assert dx.tobytes() == full_dx.tobytes()
        assert critic.flat.tobytes() == before

    def test_weight_gradient_path_writes_the_reference_gradients(self):
        # the weight mode returns None and writes the reference's gradients,
        # in arrays() order, into the flat vector
        critic, x, dout, full_grads, _, bufs = self.backward_case(35)
        grad = np.full_like(critic.flat, np.nan)
        forward(critic, x, bufs)
        assert mlp_backward(critic, dout, bufs, grad) is None
        assert grad.tobytes() == b"".join(g.tobytes() for g in full_grads)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_column_input_gradient_is_the_matmul_bit_for_bit(self, dtype):
        # mlp_backward takes a one-column layer's input gradient as an outer
        # product with multiply, not a K=1 matmul
        rng = np.random.default_rng(44)
        for _ in range(50):
            n_in, batch = int(rng.integers(1, 40)), int(rng.integers(1, 300))
            head = MlpParams([rng.normal(size=(n_in, 1)).astype(dtype)], [np.zeros(1, dtype)])
            bufs = MlpBuffers(head, batch)
            forward(head, rng.normal(size=(batch, n_in)), bufs)
            dout = rng.normal(size=(batch, 1)).astype(dtype)
            dx = mlp_backward(head, dout, bufs, None)
            expected = np.matmul(dout, head.weights[0].T)
            assert dx.dtype == expected.dtype == dtype
            assert dx.tobytes() == expected.tobytes(), (
                f"batch={batch} n_in={n_in}: {first_bit_difference(dx, expected)}"
            )


class TestLayerLayout:
    """Each layer is one (in + 1, out) matrix: weights, then the bias row."""

    def test_layers_view_flat_as_weights_then_bias(self):
        rng = np.random.default_rng(46)
        sizes = [5, 7, 6, 2]
        weights = [rng.normal(size=(i, o)).astype(DTYPE) for i, o in zip(sizes, sizes[1:])]
        biases = [rng.normal(size=o).astype(DTYPE) for o in sizes[1:]]
        net = MlpParams(weights, biases)
        for layer, w, b in zip(net.layers, weights, biases):
            assert np.shares_memory(layer, net.flat)
            assert layer.shape == (w.shape[0] + 1, w.shape[1])
            assert layer[:-1].tobytes() == w.tobytes() and layer[-1].tobytes() == b.tobytes()
        for layer, w, b in zip(net.layers, net.weights, net.biases):
            assert np.shares_memory(w, layer) and np.shares_memory(b, layer)
        assert net.flat.tobytes() == b"".join(a.tobytes() for a in net.arrays())

    def test_params_compare_by_identity(self):
        # a generated __eq__ compared the weight lists and raised "The truth
        # value of an array with more than one element is ambiguous"
        net = init_mlp([4, 8, 3], np.random.default_rng(47), SCALE)
        assert net == net
        assert net != copy.deepcopy(net)

    def test_backward_gradients_follow_the_flat_layout(self):
        rng = np.random.default_rng(47)
        net = init_mlp([4, 9, 3], rng, SCALE)
        x = rng.normal(size=(30, 4))
        out, cache = reference_forward(net, x)
        dout = rng.normal(size=out.shape).astype(DTYPE)
        grads, _ = reference_backward(net, cache, dout)
        bufs, grad = MlpBuffers(net, len(x)), np.empty_like(net.flat)
        forward(net, x, bufs)
        mlp_backward(net, dout, bufs, grad)
        assert grad.tobytes() == b"".join(g.tobytes() for g in grads)
        # split by the arrays() shapes, the flat vector holds each gradient
        # where flat holds its array, and the layers' (in + 1, out) blocks
        # follow one another as net.layers do in flat
        for g, part in zip(grads, split_like(grad, net)):
            assert g.shape == part.shape and g.tobytes() == part.tobytes()
        at = 0
        for i, layer in enumerate(net.layers):
            lg = grad[at : at + layer.size].reshape(layer.shape)
            at += layer.size
            assert lg[:-1].tobytes() == grads[2 * i].tobytes()
            assert lg[-1].tobytes() == grads[2 * i + 1].tobytes()
        # the bias gradient is the column sum of the output gradient
        np.testing.assert_allclose(split_like(grad, net)[-1], dout.sum(axis=0), rtol=1e-5)

    def test_gradient_functions_write_the_given_vectors(self):
        # each returns its scalar and writes every element of the gradient
        # vector it is given, here the one its network's Adam applies
        learner, rng = filled_learner(51)
        a_bufs, c_bufs = learner.actor_bufs, learner.critic_bufs
        obs, act, rew, *_ = learner.buffer.sample(rng, learner.sample)
        c_grad, a_grad = learner.critic_opt.grad, learner.actor_opt.grad
        c_grad.fill(np.nan)
        loss = critic_loss_grads(learner.critic, obs, act, rew, c_bufs, c_grad)
        assert type(loss) is float and np.isfinite(c_grad).all()
        a_grad.fill(np.nan)
        objective = actor_objective_grads(
            learner.actor, learner.critic, obs, a_bufs, c_bufs, a_grad
        )
        assert type(objective) is float and np.isfinite(a_grad).all()

    def test_forward_after_an_input_gradient_resets_the_ones_columns(self):
        # the input-gradient backward writes over every ones column; the next
        # forward must set them again and match the reference bit for bit
        rng = np.random.default_rng(48)
        critic = init_mlp([5 + ACTION_DIM, 16, 12, 1], rng, SCALE)
        x, x2 = rng.normal(size=(2, 40, 5 + ACTION_DIM))
        bufs = MlpBuffers(critic, len(x))
        out = forward(critic, x, bufs)
        mlp_backward(critic, np.ones_like(out), bufs, None)
        assert all(np.any(h[:, -1] != 1.0) for h in bufs.fwd[:-1])
        out_b = forward(critic, x2, bufs)
        out_a, cache_a = reference_forward(critic, x2)
        assert out_b.tobytes() == out_a.tobytes()
        for h_b, h_a in zip(bufs.fwd[:-1], cache_a):
            assert h_b.tobytes() == h_a.tobytes()
            assert np.all(h_b[:, -1] == 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_on_a_zero_block_matches_relu_on_a_scalar(self, dtype):
        # the buffers' ReLU's second operand is a zero array, the reference's
        # the scalar 0.0: the two must agree bit for bit, signed zeros, NaN and
        # infinities included
        edge = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45], dtype)
        rng = np.random.default_rng(49)
        h = np.concatenate([edge, rng.normal(size=1000).astype(dtype)]).reshape(-1, 8)
        zeros = np.zeros_like(h)
        assert np.maximum(h, zeros).tobytes() == np.maximum(h, 0.0).tobytes()

    def test_train_steps_leave_the_zero_views_zero(self):
        learner, rng = filled_learner(50)
        for _ in range(20):
            learner.train_step(rng)
        for bufs in (learner.actor_bufs, learner.critic_bufs):
            assert bufs.zeros[0] is None and bufs.mask[0] is None
            for z in bufs.zeros[1:]:
                assert z.tobytes() == bytes(z.nbytes)


class TestNonFinite:
    """A non-finite value must raise before it reaches a weight."""

    @pytest.mark.parametrize("field", ["obs", "act", "rew", "obs_next"])
    def test_buffer_rejects_non_finite_field(self, field):
        buf = ReplayBuffer(capacity=4, obs_dim=2)
        row = {"obs": [0.0, 1.0], "act": [1.0, 0.0, 0.0], "rew": 0.5, "obs_next": [1.0, 1.0]}
        buf.add(**row, done=False)
        row[field] = np.nan if field == "rew" else [np.inf] * len(row[field])
        message = "transition rew must be finite" if field == "rew" else f"non-finite {field}:"
        with pytest.raises(ValueError, match=message):
            buf.add(**row, done=False)
        assert len(buf) == 1
        assert np.isfinite(buf.rows).all()

    @pytest.mark.parametrize("field", ["obs", "act", "rew", "obs_next"])
    def test_buffer_rejects_a_field_that_overflows_the_row_dtype(self, field):
        # 1e39 is finite as a float64 but would be stored as inf
        buf = ReplayBuffer(capacity=4, obs_dim=2)
        row = {"obs": [0.0, 1.0], "act": [1.0, 0.0, 0.0], "rew": 0.5, "obs_next": [1.0, 1.0]}
        buf.add(**row, done=False)
        row[field] = 1e39 if field == "rew" else [0.0] * (len(row[field]) - 1) + [1e39]
        with pytest.raises(ValueError, match=f"non-finite {field}:"):
            buf.add(**row, done=False)
        assert len(buf) == 1
        assert np.isfinite(buf.rows).all()

    def test_nan_reward_leaves_the_networks_finite(self):
        learner, rng = filled_learner(38)
        before = {k: v.copy() for k, v in learner.network_arrays().items()}
        with pytest.raises(ValueError, match="transition rew must be finite"):
            learner.record(np.zeros(6), np.full(3, 1 / 3), np.nan, np.zeros(6), False)
        learner.train_step(rng)
        for name, arr in learner.network_arrays().items():
            assert np.isfinite(arr).all(), name
            assert not np.array_equal(arr, before[name]), name

    def test_train_step_refuses_a_non_finite_loss(self):
        # a NaN that got into the buffer past add(): no weight may change
        learner, rng = filled_learner(39)
        rew = learner.buffer.fields(learner.buffer.rows)[2]
        rew[: len(learner.buffer)] = np.nan
        before = {k: v.copy() for k, v in learner.network_arrays().items()}
        with pytest.raises(FloatingPointError, match="critic loss is nan"):
            learner.train_step(rng)
        assert_same_networks_as(learner, before)
        assert learner.critic_opt.t == learner.actor_opt.t == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_train_step_refuses_non_finite_gradients(self):
        # a huge input, finite in float32, times a zero weight keeps the loss
        # finite, while that weight's gradient (input times upstream gradient)
        # overflows
        cfg = TrainerConfig(batch_size=32, buffer_capacity=64, hidden=(8, 8))
        rng = np.random.default_rng(40)
        learner = DdpgLearner(obs_dim=4, cfg=cfg, rng=rng)
        learner.critic.weights[0][0, :] = 0.0
        for _ in range(64):
            obs = rng.normal(size=4)
            obs[0] = 1e38
            learner.record(obs, rng.dirichlet(np.ones(3)), 1e3, rng.normal(size=4), False)
        before = {k: v.tobytes() for k, v in learner.network_arrays().items()}
        with pytest.raises(FloatingPointError, match="critic gradient is not finite"):
            learner.train_step(rng)
        assert {k: v.tobytes() for k, v in learner.network_arrays().items()} == before
        assert learner.critic_opt.t == learner.actor_opt.t == 0


def bandit_best(obs):
    """One-hot of the largest of each row's first three features."""
    return np.eye(ACTION_DIM)[np.argmax(obs[:, :ACTION_DIM], axis=1)]


def bandit_cost(actions, obs):
    return np.sum((actions - bandit_best(obs)) ** 2, axis=1)


class TestLearningSignal:
    """Actor and critic together must improve a policy, not just follow their
    gradients: a sign error in the actor update passes every gradient test."""

    # the greedy cost after training may be at most this share of the
    # initial cost. Measured at seeds 0-2: 0.665-0.670 -> 0.053-0.071, shares
    # of 0.080-0.107, so the bound leaves a margin of 2.3x or more. With the
    # actor gradient negated the cost rose to 1.28-1.97 at the same seeds
    BOUND = 0.25

    @pytest.mark.parametrize("seed", range(3))
    def test_training_lowers_the_greedy_cost_of_a_contextual_bandit(self, seed, monkeypatch):
        # one-step episodes of 4 rows with 4 normal features; every
        # transition is terminal, so the TD target is the cost itself and
        # tau does not matter. The actor learns at the critic's rate: at
        # DDPG's 1e-4 the shares were 0.149-0.198, a thinner margin
        monkeypatch.setattr(TrainerConfig, "actor_lr", 1e-3)
        cfg = TrainerConfig(batch_size=64, hidden=(32, 32), buffer_capacity=6000)
        rng = np.random.default_rng(seed)
        learner = DdpgLearner(obs_dim=4, cfg=cfg, rng=rng)
        policy = ActorPolicy(learner.actor)  # the learner's live actor, greedy
        held_out = rng.normal(size=(512, 4))
        initial = bandit_cost(policy.act(held_out), held_out).mean()
        for _ in range(1500):
            obs = rng.normal(size=(4, 4))
            actions = learner.act(obs, 0.5, rng)
            for o, a, c in zip(obs, actions, bandit_cost(actions, obs)):
                learner.record(o, a, c, o, True)
            if learner.ready():
                learner.train_step(rng)
        final = bandit_cost(policy.act(held_out), held_out).mean()
        assert final <= self.BOUND * initial, (initial, final)


def finite_difference_grads(f, arrays, h=1e-5):
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            fp = f()
            arr[idx] = old - h
            fm = f()
            arr[idx] = old
            g[idx] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def relative_grad_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = max(np.linalg.norm(n), 1e-8)
        worst = max(worst, np.linalg.norm(a - n) / denom)
    return worst


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_critic_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        obs_dim = int(rng.integers(2, 6))
        critic = float64(init_mlp([obs_dim + ACTION_DIM, 6, 5, 1], rng, SCALE))
        obs = rng.normal(size=(8, obs_dim))
        act = rng.dirichlet(np.ones(3), 8)
        y = rng.normal(size=8)
        grad = np.empty_like(critic.flat)
        critic_loss_grads(critic, obs, act, y, MlpBuffers(critic, 8), grad)
        analytic = split_like(grad, critic)
        numeric = finite_difference_grads(
            lambda: reference_critic_loss_grads(critic, obs, act, y)[1], critic.arrays()
        )
        assert relative_grad_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_actor_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        obs_dim = int(rng.integers(2, 6))
        actor = float64(init_mlp([obs_dim, 6, 5, ACTION_DIM], rng, final_scale=0.5))
        critic = float64(init_mlp([obs_dim + ACTION_DIM, 6, 5, 1], rng, SCALE))
        obs = rng.normal(size=(8, obs_dim))
        grad = np.empty_like(actor.flat)
        bufs = MlpBuffers(actor, 8), MlpBuffers(critic, 8)
        actor_objective_grads(actor, critic, obs, *bufs, grad)
        analytic = split_like(grad, actor)
        numeric = finite_difference_grads(
            lambda: float(np.mean(reference_critic(critic, obs, reference_actor(actor, obs)))),
            actor.arrays(),
        )
        assert relative_grad_error(analytic, numeric) < 1e-4


def read_members(path):
    """Each member's bytes, by member name, in directory order."""
    with zipfile.ZipFile(path) as zf:
        return {info.filename: zf.read(info) for info in zf.infolist()}


def write_members(path, pairs):
    """A sound zip of the given (member name, bytes) pairs: its CRC-32s
    match, so only what the members hold can be at fault."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in pairs:
            zf.writestr(name, data)


def npy_bytes(arr):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=True)
    return buf.getvalue()


class TestCheckpoint:
    @staticmethod
    def saved(tmp_path, name, seed):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(seed))
        path = tmp_path / name
        learner.save(path)
        return path

    @staticmethod
    def raises_naming(path, member, message):
        where = f"{path} member {member!r}" if member else f"{path}"
        return pytest.raises(ValueError, match=re.escape(f"{where}: {message}"))

    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_config()
        learner = DdpgLearner(obs_dim=7, cfg=cfg, rng=np.random.default_rng(17))
        path = tmp_path / "net.ckpt"
        learner.save(path)
        arrays, meta = load_checkpoint(path)
        assert meta["train_steps"] == 0
        assert meta["obs_dim"] == 7
        assert TrainerConfig(**meta["config"]) == cfg
        assert_same_networks_as(learner, arrays)

    def test_identical_saves_identical_bytes(self, tmp_path, monkeypatch):
        # the second save runs an hour later by the clock zipfile would read
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(18))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        learner.save(p1)
        later = time.time() + 3600.0
        monkeypatch.setattr(time, "time", lambda: later)
        learner.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        with zipfile.ZipFile(p1) as zf:
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
            names = zf.namelist()
        # arrays in sorted name order, then the metadata
        assert names == [f"{k}.npy" for k in sorted(learner.network_arrays())] + ["meta.npy"]

    def test_policy_loads_and_acts_identically(self, tmp_path):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(19))
        path = tmp_path / "p.ckpt"
        learner.save(path)
        policy = ActorPolicy.from_checkpoint(path)
        obs = np.random.default_rng(20).normal(size=(6, 4))
        np.testing.assert_array_equal(policy.act(obs), learner.act(obs, 0.0, None))

    def test_float32_round_trip_keeps_dtype_and_bytes(self, tmp_path):
        learner, rng = filled_learner(29)
        learner.train_step(rng)
        path = tmp_path / "f32.ckpt"
        learner.save(path)
        arrays, _ = load_checkpoint(path)
        live = learner.network_arrays()
        assert arrays.keys() == live.keys()
        for name, arr in live.items():
            assert arr.dtype == DTYPE, name
            assert arrays[name].dtype == arr.dtype and arrays[name].tobytes() == arr.tobytes()

    def test_float64_checkpoint_loads_into_a_policy_that_acts(self, tmp_path):
        # float64 arrays are written as every checkpoint was before the
        # learner ran in float32: 8 bytes an element, dtype "float64"
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(30))
        path = tmp_path / "f64.ckpt"
        arrays = {k: v.astype(np.float64) for k, v in learner.network_arrays().items()}
        save_checkpoint(path, arrays, {"train_steps": 0})
        loaded, meta = load_checkpoint(path)
        assert meta == {"train_steps": 0}
        for name, arr in arrays.items():
            assert loaded[name].dtype == np.float64 and loaded[name].tobytes() == arr.tobytes()
        policy = ActorPolicy.from_checkpoint(path)
        assert policy.params.flat.dtype == np.float64
        obs = np.random.default_rng(31).normal(size=(6, 4))
        u = policy.act(obs)
        actor64 = float64(learner.actor)
        np.testing.assert_array_equal(u, actor_forward(actor64, obs, rows_of(actor64, obs)))
        np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "shapes, message",
        [
            ({"w0": (4, 3)}, "actor arrays ['actor.w0'] are not actor.w0, actor.b0"),
            ({"w0": (4, 5), "b0": (5,), "w1": (6, 3), "b1": (3,)},
             "layer 1 input 6 does not match previous output"),
            ({"w0": (4, 5), "b0": (5,), "w2": (5, 3), "b2": (3,)},
             "actor arrays ['actor.b0', 'actor.b2', 'actor.w0', 'actor.w2'] are not"),
        ],
        ids=["weight-without-bias", "layers-do-not-chain", "gap-in-layers"],
    )
    def test_malformed_actor_names_the_file(self, tmp_path, shapes, message):
        # a gap in the layer numbers must not load as the layers before it
        path = tmp_path / "actor.ckpt"
        arrays = {f"actor.{k}": np.zeros(shape, DTYPE) for k, shape in shapes.items()}
        save_checkpoint(path, arrays, {})
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            ActorPolicy.from_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_actor_weight_names_the_file(self, tmp_path, bad):
        # one NaN weight used to load, and act then returned [[nan nan nan]]
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(33))
        arrays = {k: v.copy() for k, v in learner.network_arrays().items()}
        arrays["actor.w1"][2, 1] = bad
        path = tmp_path / "nan.ckpt"
        save_checkpoint(path, arrays, {})
        with pytest.raises(
            ValueError, match=re.escape(f"{path}: layer 1 holds a weight or bias that is not finite")
        ):
            ActorPolicy.from_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.int64, np.float16, np.bool_])
    def test_save_rejects_other_dtypes(self, tmp_path, dtype):
        # an int array used to be written, and to load back, as float64
        path = tmp_path / "other.ckpt"
        arrays = {"actor.w0": np.zeros((2, 3), DTYPE), "steps": np.ones(3, dtype)}
        name = np.dtype(dtype).name
        with pytest.raises(
            ValueError, match=f"{re.escape(str(path))}: array 'steps' has dtype '{name}'"
        ):
            save_checkpoint(path, arrays, {})
        assert list(tmp_path.iterdir()) == []

    def test_save_rejects_an_array_named_meta(self, tmp_path):
        path = tmp_path / "meta.ckpt"
        with pytest.raises(ValueError, match=re.escape(f"{path}: array name 'meta' is the")):
            save_checkpoint(path, {"meta": np.zeros(3, DTYPE)}, {})
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_leaves_no_tmp_and_the_previous_file(self, tmp_path, monkeypatch):
        # a write that raised part-way used to leave a partial <name>.tmp
        path = self.saved(tmp_path, "prev.ckpt", 36)
        before = path.read_bytes()
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(37))
        write_array = np.lib.format.write_array

        def fail_after_the_first_member(member, arr, **kw):
            write_array(member, arr, **kw)
            raise OSError("disk full")

        def fail_to_rename(src, dst):
            raise OSError("disk full")

        for owner, name, failing in (
            (np.lib.format, "write_array", fail_after_the_first_member),
            (os, "replace", fail_to_rename),
        ):
            with monkeypatch.context() as patched:
                patched.setattr(owner, name, failing)
                with pytest.raises(OSError, match="disk full"):
                    learner.save(path)
            assert list(tmp_path.iterdir()) == [path], name
            assert path.read_bytes() == before, name

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_float16_member_names_file_and_member(self, tmp_path):
        path = self.saved(tmp_path, "f16.ckpt", 32)
        members = read_members(path)
        members["actor.b1.npy"] = npy_bytes(np.zeros(16, np.float16))
        write_members(path, members.items())
        with self.raises_naming(path, "actor.b1.npy", "has dtype 'float16'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "arr, message",
        [
            (np.arange(16), "has dtype 'int64'"),
            (np.array([{"w": 1.0}], dtype=object), "Object arrays cannot be loaded"),
        ],
        ids=["int64", "object"],
    )
    def test_member_of_another_dtype_names_file_and_member(self, tmp_path, arr, message):
        # numpy refuses an object array before it would unpickle one
        path = self.saved(tmp_path, "other.ckpt", 38)
        members = read_members(path)
        members["critic.b0.npy"] = npy_bytes(arr)
        write_members(path, members.items())
        with self.raises_naming(path, "critic.b0.npy", message):
            load_checkpoint(path)

    def test_earlier_json_header_format_is_not_a_zip(self, tmp_path):
        # the earlier format, version 2: one JSON header line, then the buffers
        body = np.zeros(3, DTYPE).tobytes()
        header = {
            "format": "streamform-checkpoint", "version": 2, "meta": {},
            "arrays": [
                {"name": "actor.b0", "shape": [3], "dtype": "float32", "offset": 0, "nbytes": 12}
            ],
            "sha256": hashlib.sha256(body).hexdigest(),
        }
        path = tmp_path / "v2.ckpt"
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        with self.raises_naming(path, None, "File is not a zip file"):
            load_checkpoint(path)

    def test_lone_npy_file_names_the_file(self, tmp_path):
        # np.load would return it as a plain array
        path = tmp_path / "lone.npy"
        np.save(path, np.zeros(3, DTYPE))
        with self.raises_naming(path, None, "File is not a zip file"):
            load_checkpoint(path)

    def test_truncated_container_or_member_names_file_and_member(self, tmp_path):
        path = self.saved(tmp_path, "cut.ckpt", 22)
        raw = path.read_bytes()
        for n in (len(raw) - 16, len(raw) // 2, 10, 0):
            path.write_bytes(raw[:n])
            with self.raises_naming(path, None, "File is not a zip file"):
                load_checkpoint(path)
        # a member cut short inside a sound container
        path.write_bytes(raw)
        members = read_members(path)
        members["critic.w1.npy"] = members["critic.w1.npy"][:-16]
        write_members(path, members.items())
        with self.raises_naming(path, "critic.w1.npy", "EOF: reading array data"):
            load_checkpoint(path)

    def test_npy_shape_past_the_data_names_file_and_member(self, tmp_path):
        path = self.saved(tmp_path, "bad.ckpt", 23)
        members = read_members(path)
        npy = members["actor.w0.npy"]
        members["actor.w0.npy"] = npy.replace(b"'shape': (4, 16)", b"'shape': (5, 16)", 1)
        assert members["actor.w0.npy"] != npy
        write_members(path, members.items())
        with self.raises_naming(path, "actor.w0.npy", "EOF: reading array data"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "shape, message",
        [
            (b"(-1, 16)", "negative dimensions are not allowed"),
            (b"(-1, -16)", "can only specify one unknown dimension"),
            (b"(2.5, 16)", "shape is not valid"),
            (b"(True, 16)", "an integer is required"),
            (b"64", "shape is not valid"),
        ],
        ids=["negative", "both-negative", "float", "bool", "not-a-tuple"],
    )
    def test_malformed_shape_names_file_and_member(self, tmp_path, shape, message):
        # an entry's shape, offset and size are now the member's .npy header
        # and length: numpy parses the one and reads the other by it
        path = self.saved(tmp_path, "shape.ckpt", 34)
        members = read_members(path)
        npy = members["actor.w0.npy"]
        end = npy.index(b"\n")  # the header, padded with spaces to this length
        assert b"'shape': (4, 16)," in npy[:end]
        header = npy[:end].replace(b"(4, 16)", shape).rstrip().ljust(end)
        members["actor.w0.npy"] = header + npy[end:]
        write_members(path, members.items())
        with self.raises_naming(path, "actor.w0.npy", message):
            load_checkpoint(path)

    def test_npy_header_without_a_key_names_file_and_member(self, tmp_path):
        # the entry's fields are now the member's .npy header, which numpy checks
        path = self.saved(tmp_path, "entry.ckpt", 25)
        members = read_members(path)
        npy = members["actor.b0.npy"]
        for field in (b"'shape': (16,), ", b"'descr': '<f4', "):
            assert field in npy
            members["actor.b0.npy"] = npy.replace(field, b" " * len(field))
            write_members(path, members.items())
            with self.raises_naming(
                path, "actor.b0.npy", "Header does not contain the correct keys"
            ):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "case", ["meta-not-an-object", "member-not-npy", "name-repeated"]
    )
    def test_container_structure_names_file_and_member(self, tmp_path, case):
        # the zip directory lists the members; each must be an .npy array
        # under a name of its own, and the metadata a JSON object
        path = self.saved(tmp_path, "structure.ckpt", 35)
        pairs = list(read_members(path).items())
        member, message = {
            "meta-not-an-object": ("meta.npy", "holds 5, not a JSON object"),
            "member-not-npy": ("actor.b1.npy", "the magic string is not correct"),
            "name-repeated": ("actor.b0.npy", "repeats the name of an earlier member"),
        }[case]
        if case == "meta-not-an-object":
            pairs[-1] = ("meta.npy", npy_bytes(np.array("5")))
        elif case == "member-not-npy":
            pairs[1] = ("actor.b1.npy", b"5" * 16)
        else:
            pairs.insert(1, pairs[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # zipfile's "Duplicate name"
            write_members(path, pairs)
        with self.raises_naming(path, member, message):
            load_checkpoint(path)

    def test_missing_meta_member_names_file(self, tmp_path):
        path = self.saved(tmp_path, "bare.ckpt", 24)
        members = read_members(path)
        del members["meta.npy"]
        write_members(path, members.items())
        with self.raises_naming(path, "meta.npy", "is missing"):
            load_checkpoint(path)
        write_members(path, [])
        with self.raises_naming(path, "meta.npy", "is missing"):
            load_checkpoint(path)

    def test_meta_not_a_json_object_names_file(self, tmp_path):
        # the metadata is the one JSON in the file
        path = self.saved(tmp_path, "garbled.ckpt", 26)
        members = read_members(path)
        members["meta.npy"] = npy_bytes(np.array("{not json"))
        write_members(path, members.items())
        with self.raises_naming(path, "meta.npy", "Expecting property name"):
            load_checkpoint(path)
        members["meta.npy"] = npy_bytes(np.array("[]"))
        write_members(path, members.items())
        with self.raises_naming(path, "meta.npy", "holds [], not a JSON object"):
            load_checkpoint(path)

    def test_garbled_container_names_the_file(self, tmp_path):
        path = self.saved(tmp_path, "zip.ckpt", 39)
        raw = path.read_bytes()
        end = raw.rindex(b"PK\x05\x06")  # the end-of-directory record
        path.write_bytes(raw[:end] + b"[]" + raw[end + 2 :])
        with self.raises_naming(path, None, "File is not a zip file"):
            load_checkpoint(path)
        second = raw.index(b"PK\x01\x02", raw.index(b"PK\x01\x02") + 1)  # a directory entry
        path.write_bytes(raw[:second] + b"[]" + raw[second + 2 :])
        with self.raises_naming(path, None, "Bad magic number for central directory"):
            load_checkpoint(path)
        path.write_bytes(b"{}" + raw[2:])  # the first member's local header
        with self.raises_naming(path, "actor.b0.npy", "Bad magic number for file header"):
            load_checkpoint(path)

    def test_flipped_data_byte_fails_the_member_crc(self, tmp_path):
        # each member's digest is now the CRC-32 the zip directory holds
        path = self.saved(tmp_path, "flip.ckpt", 27)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"\x93NUMPY") + 150] ^= 0x01  # a data byte of the first member
        path.write_bytes(bytes(raw))
        with self.raises_naming(path, "actor.b0.npy", "Bad CRC-32 for file 'actor.b0.npy'"):
            load_checkpoint(path)

    def test_zeroed_directory_crc_names_file_and_member(self, tmp_path):
        path = self.saved(tmp_path, "nodigest.ckpt", 28)
        raw = bytearray(path.read_bytes())
        entry = raw.index(b"PK\x01\x02")  # the first member's directory entry
        raw[entry + 16 : entry + 20] = bytes(4)  # its CRC-32
        path.write_bytes(bytes(raw))
        with self.raises_naming(path, "actor.b0.npy", "Bad CRC-32 for file 'actor.b0.npy'"):
            load_checkpoint(path)

    def test_every_flipped_bit_raises_or_loads_the_same(self, tmp_path):
        # one flipped bit anywhere, data or zip structure, raises ValueError
        # naming the file or loads the same arrays and metadata (a timestamp,
        # a file mode); a directory entry whose comment length grew used to
        # end the directory early, and the members after it went missing
        path = tmp_path / "small.ckpt"
        arrays = {"a": np.arange(3, dtype=np.float32), "z": np.ones((2, 2))}  # around "meta"
        save_checkpoint(path, arrays, {"k": 1})
        raw = path.read_bytes()
        for i in range(len(raw)):
            for bit in (0x01, 0x80):
                flipped = bytearray(raw)
                flipped[i] ^= bit
                path.write_bytes(bytes(flipped))
                try:
                    loaded, meta = load_checkpoint(path)
                except ValueError as err:
                    assert str(err).startswith(str(path)), (i, bit, err)
                    continue
                assert meta == {"k": 1} and loaded.keys() == arrays.keys(), (i, bit)
                for name, arr in arrays.items():
                    assert loaded[name].dtype == arr.dtype, (i, bit, name)
                    assert loaded[name].tobytes() == arr.tobytes(), (i, bit, name)


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)

    @pytest.mark.parametrize("hidden", [(0,), (-4,), (16, 2.5), ("8",), (16, None), (True, 8)])
    def test_hidden_widths_must_be_positive_ints(self, hidden):
        # a zero width gives an actor that ignores its input
        with pytest.raises(ValueError, match=r"^hidden\[\d\] must be a positive int, got"):
            TrainerConfig(hidden=hidden)

    @pytest.mark.parametrize("bad", [2.5, 1e6, "8", None, True, np.nan])
    @pytest.mark.parametrize("field", ["batch_size", "buffer_capacity", "episodes"])
    def test_sizes_must_be_ints(self, field, bad):
        # batch_size=2.5 and buffer_capacity=1e6 used to be accepted and fail
        # later in DdpgLearner with a TypeError naming no field; numpy
        # refuses a bool size the same way. episodes=nan used to fail later
        # in sigma_at, naming no field, and 2.5 or True to anneal over one
        # episode
        message = rf"^{field} must be a (positive|nonnegative) int, got"
        with pytest.raises(ValueError, match=message):
            TrainerConfig(**{field: bad})

    def test_numpy_scalars_and_a_list_hidden_give_plain_values_that_save(self, tmp_path):
        # save used to raise "Object of type int64 is not JSON serializable"
        # from the config echo, and a list hidden made hash(cfg) raise
        cfg = TrainerConfig(batch_size=np.int64(2), buffer_capacity=np.int64(4),
                            episodes=np.int64(5), hidden=[np.int64(8)])
        plain = TrainerConfig(batch_size=2, buffer_capacity=4, episodes=5, hidden=(8,))
        assert cfg == plain and hash(cfg) == hash(plain)
        for field in fields(cfg):
            assert type(getattr(cfg, field.name)) in (int, tuple), field.name
        assert type(cfg.hidden[0]) is int
        learner = DdpgLearner(obs_dim=3, cfg=cfg, rng=np.random.default_rng(23))
        path = tmp_path / "numpy.ckpt"
        learner.save(path)
        arrays, meta = load_checkpoint(path)
        assert TrainerConfig(**meta["config"]) == cfg  # JSON gives hidden as a list
        assert_same_networks_as(learner, arrays)
        reloaded = ActorPolicy.from_checkpoint(path)
        obs = np.random.default_rng(24).standard_normal((2, 3))
        assert reloaded.act(obs).tobytes() == ActorPolicy(learner.actor).act(obs).tobytes()

    @pytest.mark.parametrize(
        "hidden", [8, None, 2.5, {128, 64, 32}, {64: 0, 8: 1}, "64"],
        ids=["8", "None", "2.5", "set", "dict", "str"],
    )
    def test_hidden_must_be_a_sequence(self, hidden):
        # hidden=8 used to raise a bare "'int' object is not iterable"; a set
        # built its widths in hash order, (128, 32, 64), a dict from its keys,
        # and "64" failed on hidden[0], reporting '6'
        with pytest.raises(ValueError, match="hidden must be a sequence of widths"):
            TrainerConfig(hidden=hidden)

    def test_update_rule_is_fixed(self):
        for name in ("critic_lr", "actor_lr"):
            assert 0.0 < getattr(TrainerConfig, name) < np.inf
        assert 0.0 < TrainerConfig.gamma < 1.0
        assert 0.0 < TrainerConfig.tau <= 1.0
        for name in ("critic_lr", "actor_lr", "gamma", "tau"):
            with pytest.raises(TypeError):
                TrainerConfig(**{name: getattr(TrainerConfig, name)})
            assert name not in asdict(TrainerConfig())

    def test_actor_final_scale_is_fixed(self):
        assert 0.0 < TrainerConfig.actor_final_scale < np.inf
        # a NaN used to be accepted and fail later inside init_mlp
        with pytest.raises(TypeError):
            TrainerConfig(actor_final_scale=np.nan)
        assert "actor_final_scale" not in asdict(TrainerConfig())

    def test_exploration_schedule_is_fixed(self):
        assert 0.0 <= TrainerConfig.sigma_end <= TrainerConfig.sigma_start < np.inf
        assert 0.0 < TrainerConfig.sigma_anneal_frac <= 1.0
        for name in ("sigma_start", "sigma_end", "sigma_anneal_frac"):
            with pytest.raises(TypeError):
                TrainerConfig(**{name: getattr(TrainerConfig, name)})
            assert name not in asdict(TrainerConfig())

    def test_sigma_schedule(self):
        cfg = small_config(episodes=100)
        assert cfg.sigma_at(0) == pytest.approx(0.3)
        assert cfg.sigma_at(25) == pytest.approx(0.175)
        assert cfg.sigma_at(50) == pytest.approx(0.05)
        assert cfg.sigma_at(99) == pytest.approx(0.05)

    @pytest.mark.parametrize("bad", [-5, -1, np.nan, 2.5, True, "3"])
    def test_sigma_at_needs_a_nonnegative_int_episode(self, bad):
        # sigma_at(-5) used to return 0.30008, above sigma_start, and
        # sigma_at(nan) sigma_end
        with pytest.raises(ValueError, match="episode must be a nonnegative int"):
            small_config().sigma_at(bad)
