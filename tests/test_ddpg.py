import json
import os
import re
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import streamform
from streamform.checkpoint import FORMAT_TAG, VERSION, load_checkpoint, save_checkpoint
from streamform.dynamics import Limits
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
    TrainWorkspace,
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
)

LIM = Limits(v_max=0.5, omega_max=0.2, a_max=0.5, beta_max=0.5)


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


def split_like(flat, net):
    """``flat`` cut into arrays of the shapes of ``net.arrays()``, in order."""
    ends = np.cumsum([a.size for a in net.arrays()])[:-1]
    return [part.reshape(a.shape) for part, a in zip(np.split(flat, ends), net.arrays())]


def critic_workspace(critic, batch):
    """A workspace for ``critic`` with a small actor of its dtype beside it."""
    obs_dim, dtype = critic.widths[0] - ACTION_DIM, critic.flat.dtype
    actor = MlpParams(
        [np.zeros((obs_dim, 4), dtype), np.zeros((4, ACTION_DIM), dtype)],
        [np.zeros(4, dtype), np.zeros(ACTION_DIM, dtype)],
    )
    return TrainWorkspace(batch, actor, critic)


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


class TestActorForward:
    def test_simplex_invariant(self):
        rng = np.random.default_rng(0)
        net = float64(init_mlp([6, 16, ACTION_DIM], rng))
        obs = rng.normal(size=(50, 6))
        u = actor_forward(net, obs, rows_of(net, obs))
        assert np.all(u >= 0)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_final_layer_gives_uniform(self):
        rng = np.random.default_rng(1)
        net = init_mlp([4, 8, ACTION_DIM], rng)
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
        u = map_action(np.array([1.0, 0.0, 0.0]), LIM)
        assert (u.accel, u.angular_accel) == (0.5, 0.0)

    def test_symmetric_cancel(self):
        u = map_action(np.array([0.0, 0.5, 0.5]), LIM)
        assert (u.accel, u.angular_accel) == (0.0, 0.0)

    def test_arithmetic(self):
        u = map_action(np.array([0.2, 0.7, 0.1]), LIM)
        assert u.accel == pytest.approx(0.2 * 0.5, rel=1e-12)
        assert u.angular_accel == pytest.approx(0.6 * 0.5, rel=1e-12)

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
            assert back.accel == pytest.approx(accel, abs=1e-12)
            assert back.angular_accel == pytest.approx(turn, abs=1e-12)


class TestCriticForward:
    def test_deterministic(self):
        rng = np.random.default_rng(4)
        net = init_mlp([8 + ACTION_DIM, 16, 1], rng)
        obs, act = rng.normal(size=(3, 8)), rng.dirichlet(np.ones(3), 3)
        bufs = rows_of(net, obs)
        a = critic_forward(net, obs, act, bufs).copy()
        b = critic_forward(net, obs, act, bufs)
        np.testing.assert_array_equal(a, b)

    def test_zero_weights_depend_only_on_bias(self):
        rng = np.random.default_rng(5)
        net = init_mlp([5 + ACTION_DIM, 8, 1], rng)
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
        net = init_mlp([5 + ACTION_DIM, 8, 1], rng)
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

    def test_a_one_dimensional_observation_is_one_row(self):
        # the act paths size their buffers to the rows, so a 1-D observation
        # is never broadcast across a larger buffer
        learner = self.learner(15)
        obs = np.random.default_rng(15).normal(size=(3, 6))
        policy = ActorPolicy(learner.actor)
        for one in (obs[0], list(obs[0])):
            u = learner.act(one, 0.0, None)
            assert u.shape == (1, ACTION_DIM)
            np.testing.assert_array_equal(u, learner.act(obs[:1], 0.0, None))
            np.testing.assert_array_equal(policy.act(one), u)
        with pytest.raises(ValueError):
            learner.act(obs[:, :5], 0.0, None)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=5, obs_dim=1)
        for k in range(7):
            buf.add([float(k)], [0, 0, 1], k, [float(k + 1)], False)
        assert len(buf) == 5
        stored = set(buf.obs[:, 0])
        assert stored == {2.0, 3.0, 4.0, 5.0, 6.0}

    def test_sample_requires_enough(self):
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        buf.add([0.0], [1, 0, 0], 0.0, [0.0], False)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_uniform_sampling_chi_squared(self):
        buf = ReplayBuffer(capacity=100, obs_dim=1)
        for k in range(100):
            buf.add([float(k)], [0, 0, 1], 0.0, [0.0], False)
        rng = np.random.default_rng(11)
        counts = np.zeros(100)
        draws = 100_000
        for _ in range(draws // 100):
            obs, *_ = buf.sample(100, rng)
            idx, c = np.unique(obs[:, 0].astype(int), return_counts=True)
            counts[idx] += c
        assert counts.sum() == draws
        _, p = stats.chisquare(counts)
        assert p > 0.01

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
        with pytest.raises(ValueError, match=f"transition {field} has {np.size(value)} values"):
            buf.add(**row, done=False)
        assert buf.rows.tobytes() == before and len(buf) == 1


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
        obs, act, rew, obs_next, done = buf.sample(16, rng)
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
        with pytest.raises(ValueError, match=f"non-finite {field}:"):
            buf.add(**row, done=True)
        assert buf.rows.tobytes() == before and len(buf) == 3
        buf.add([5.0, 5.0], [0.0, 0.0, 1.0], 1.0, [6.0, 6.0], True)
        np.testing.assert_array_equal(buf.rows[1], [5, 5, 0, 0, 1, 1, 6, 6, 1])

    def test_sample_into_workspace_equals_allocating_sample(self):
        learner, _ = filled_learner(42)
        ws, n = learner.workspace, learner.cfg.batch_size
        fresh = learner.buffer.sample(n, np.random.default_rng(43))
        into = learner.buffer.sample(n, np.random.default_rng(43), ws.sample)
        for a, b in zip(fresh, into):
            assert np.shares_memory(b, ws.sample)
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
        actor = init_mlp([4, 8, ACTION_DIM], rng)
        critic = init_mlp([4 + ACTION_DIM, 8, 1], rng)
        rew = rng.normal(size=6)
        obs2 = rng.normal(size=(6, 4))
        done = np.ones(6)
        ws = TrainWorkspace(6, actor, critic)
        y = compute_td_targets(actor, critic, rew, obs2, done, 0.9, ws)
        np.testing.assert_array_equal(y, rew.astype(DTYPE))

    def test_bootstrap_when_not_done(self):
        rng = np.random.default_rng(13)
        actor = init_mlp([4, 8, ACTION_DIM], rng)
        critic = init_mlp([4 + ACTION_DIM, 8, 1], rng)
        rew = np.zeros(3)
        obs2 = rng.normal(size=(3, 4))
        ws = TrainWorkspace(3, actor, critic)
        y = compute_td_targets(actor, critic, rew, obs2, np.zeros(3), 0.9, ws)
        u2 = reference_actor(actor, obs2)
        np.testing.assert_allclose(y, 0.9 * reference_critic(critic, obs2, u2), rtol=1e-12)


class TestTrainStep:
    def _seeded_learner(self, tau=0.005, gamma=0.9):
        cfg = small_config(tau=tau, gamma=gamma)
        rng = np.random.default_rng(14)
        learner = DdpgLearner(obs_dim=5, cfg=cfg, rng=rng)
        for _ in range(64):
            o = rng.normal(size=5)
            a = rng.dirichlet(np.ones(3))
            learner.record(o, a, rng.normal(), rng.normal(size=5), False)
        return learner, rng

    def test_tau_one_copies_targets(self):
        learner, rng = self._seeded_learner(tau=1.0)
        learner.train_step(rng)
        for t, o in zip(learner.target_actor.arrays(), learner.actor.arrays()):
            np.testing.assert_array_equal(t, o)
        for t, o in zip(learner.target_critic.arrays(), learner.critic.arrays()):
            np.testing.assert_array_equal(t, o)

    def test_frozen_batch_regression_to_immediate_cost(self):
        # terminal transitions make the targets equal the raw costs; the
        # critic must fit them ever more closely on a frozen batch
        rng = np.random.default_rng(15)
        critic = init_mlp([4 + ACTION_DIM, 32, 32, 1], rng)
        opt = Adam(critic.flat)
        ws = critic_workspace(critic, 64)
        obs = rng.normal(size=(64, 4))
        act = rng.dirichlet(np.ones(3), 64)
        rew = rng.normal(size=64)
        _, first = reference_critic_loss_grads(critic, obs, act, rew)
        loss = first
        for _ in range(300):
            _, loss = critic_loss_grads(critic, obs, act, rew, ws)
            opt.step(critic.flat, ws.critic.grad, 1e-3, ws.scratch)
        assert loss < 0.5 * first

    def test_diagnostics_reported(self):
        learner, rng = self._seeded_learner()
        diag = learner.train_step(rng)
        assert set(diag) == {"critic_loss", "actor_q"}
        assert np.isfinite(diag["critic_loss"])

    def test_target_convergence_rate(self):
        rng = np.random.default_rng(16)
        online = init_mlp([4, 8, 2], rng)
        target = init_mlp([4, 8, 2], rng)
        tau = 0.1
        diff0 = np.linalg.norm(online.weights[0] - target.weights[0])
        k = 20
        scratch = np.empty(online.flat.size, online.flat.dtype)
        for _ in range(k):
            soft_update(target, online, tau, scratch)
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
            batch = ref.buffer.sample(cfg.batch_size, rng_ref)
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
            batch = [f.astype(np.float64) for f in ref.buffer.sample(cfg.batch_size, rng_ref)]
            theirs.append(list(reference_train_step(nets, opts, batch, cfg).values()))
        mine, theirs = np.array(mine), np.array(theirs)
        errors = np.linalg.norm(mine - theirs, axis=0) / np.linalg.norm(theirs, axis=0)
        assert np.all(errors < 1e-4), errors
        for name in NETWORKS:
            flat32, flat64 = getattr(new, name).flat, getattr(nets, name).flat
            assert flat32.dtype == DTYPE
            assert np.linalg.norm(flat32 - flat64) < 1e-5 * np.linalg.norm(flat64), name

    def test_shared_workspace_leaks_no_state(self):
        # training two learners interleaved must match training each one on
        # its own
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
        critic = init_mlp([5 + ACTION_DIM, 16, 12, 1], rng)
        x = rng.normal(size=(40, 5 + ACTION_DIM))
        out, cache = reference_forward(critic, x)
        dout = rng.normal(size=out.shape).astype(out.dtype)
        grads, dx = reference_backward(critic, cache, dout)
        return critic, x, dout, grads, dx, MlpBuffers(critic, len(x))

    def test_input_gradient_only_path_matches_full_backward(self):
        # the input mode returns the reference's input gradient and leaves
        # every byte of the gradient vector as it was
        critic, x, dout, _, full_dx, bufs = self.backward_case(34)
        bufs.grad.fill(np.nan)
        before = bufs.grad.tobytes()
        mlp_forward(critic, x, bufs)
        dx = mlp_backward(critic, dout, bufs, weight_grads=False)
        assert dx.tobytes() == full_dx.tobytes()
        assert bufs.grad.tobytes() == before

    def test_weight_gradient_path_writes_the_reference_gradients(self):
        # the weight mode returns None and writes the reference's gradients,
        # in arrays() order, into the flat vector
        critic, x, dout, full_grads, _, bufs = self.backward_case(35)
        bufs.grad.fill(np.nan)
        mlp_forward(critic, x, bufs)
        assert mlp_backward(critic, dout, bufs, weight_grads=True) is None
        assert bufs.grad.tobytes() == b"".join(g.tobytes() for g in full_grads)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_column_input_gradient_is_the_matmul_bit_for_bit(self, dtype):
        # mlp_backward takes a one-column layer's input gradient as an outer
        # product with multiply, not a K=1 matmul
        rng = np.random.default_rng(44)
        for _ in range(50):
            n_in, batch = int(rng.integers(1, 40)), int(rng.integers(1, 300))
            head = MlpParams([rng.normal(size=(n_in, 1)).astype(dtype)], [np.zeros(1, dtype)])
            bufs = MlpBuffers(head, batch)
            mlp_forward(head, rng.normal(size=(batch, n_in)), bufs)
            dout = rng.normal(size=(batch, 1)).astype(dtype)
            dx = mlp_backward(head, dout, bufs, weight_grads=False)
            expected = np.matmul(dout, head.weights[0].T)
            assert dx.dtype == expected.dtype == dtype
            assert dx.tobytes() == expected.tobytes()


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

    def test_backward_gradients_follow_the_flat_layout(self):
        rng = np.random.default_rng(47)
        net = init_mlp([4, 9, 3], rng)
        x = rng.normal(size=(30, 4))
        out, cache = reference_forward(net, x)
        dout = rng.normal(size=out.shape).astype(DTYPE)
        grads, _ = reference_backward(net, cache, dout)
        bufs = MlpBuffers(net, len(x))
        for layer, lg in zip(net.layers, bufs.layer_grads):
            assert lg.shape == layer.shape and np.shares_memory(lg, bufs.grad)
        mlp_forward(net, x, bufs)
        mlp_backward(net, dout, bufs, weight_grads=True)
        assert bufs.grad.tobytes() == b"".join(g.tobytes() for g in grads)
        # split by the arrays() shapes, the flat vector holds each gradient
        # where flat holds its array, and layer_grads[i] is layer i's block
        for g, part in zip(grads, split_like(bufs.grad, net)):
            assert g.shape == part.shape and g.tobytes() == part.tobytes()
        for i, lg in enumerate(bufs.layer_grads):
            assert lg[:-1].tobytes() == grads[2 * i].tobytes()
            assert lg[-1].tobytes() == grads[2 * i + 1].tobytes()
        # the bias gradient is the column sum of the output gradient
        np.testing.assert_allclose(split_like(bufs.grad, net)[-1], dout.sum(axis=0), rtol=1e-5)

    def test_gradient_functions_return_the_workspace_vectors(self):
        learner, rng = filled_learner(51)
        ws, n = learner.workspace, learner.cfg.batch_size
        obs, act, rew, *_ = learner.buffer.sample(n, rng, ws.sample)
        grad, _ = critic_loss_grads(learner.critic, obs, act, rew, ws)
        assert grad is ws.critic.grad
        grad, _ = actor_objective_grads(learner.actor, learner.critic, obs, ws)
        assert grad is ws.actor.grad

    def test_forward_after_an_input_gradient_resets_the_ones_columns(self):
        # the input-gradient backward writes over every ones column; the next
        # forward must set them again and match the reference bit for bit
        rng = np.random.default_rng(48)
        critic = init_mlp([5 + ACTION_DIM, 16, 12, 1], rng)
        x, x2 = rng.normal(size=(2, 40, 5 + ACTION_DIM))
        bufs = MlpBuffers(critic, len(x))
        out = mlp_forward(critic, x, bufs)
        mlp_backward(critic, np.ones_like(out), bufs, weight_grads=False)
        assert all(np.any(h[:, -1] != 1.0) for h in bufs.fwd[:-1])
        out_b = mlp_forward(critic, x2, bufs)
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

    def test_train_steps_leave_the_shared_zero_block_zero(self):
        learner, rng = filled_learner(50)
        ws = learner.workspace
        for bufs in (ws.actor, ws.critic):
            assert all(np.shares_memory(z, ws.zeros) for z in bufs.zeros[1:])
            assert all(np.shares_memory(m, ws.mask) for m in bufs.mask[1:])
        for _ in range(20):
            learner.train_step(rng)
        assert ws.zeros.tobytes() == bytes(ws.zeros.nbytes)


class TestNonFinite:
    """A non-finite value must raise before it reaches a weight."""

    @pytest.mark.parametrize("field", ["obs", "act", "rew", "obs_next"])
    def test_buffer_rejects_non_finite_field(self, field):
        buf = ReplayBuffer(capacity=4, obs_dim=2)
        row = {"obs": [0.0, 1.0], "act": [1.0, 0.0, 0.0], "rew": 0.5, "obs_next": [1.0, 1.0]}
        buf.add(**row, done=False)
        row[field] = np.nan if field == "rew" else [np.inf] * len(row[field])
        with pytest.raises(ValueError, match=f"non-finite {field}:"):
            buf.add(**row, done=False)
        assert len(buf) == 1
        assert np.isfinite(buf.obs).all() and np.isfinite(buf.rew).all()

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
        with pytest.raises(ValueError, match="non-finite rew"):
            learner.record(np.zeros(6), np.full(3, 1 / 3), np.nan, np.zeros(6), False)
        learner.train_step(rng)
        for name, arr in learner.network_arrays().items():
            assert np.isfinite(arr).all(), name
            assert not np.array_equal(arr, before[name]), name

    def test_train_step_refuses_a_non_finite_loss(self):
        # a NaN that got into the buffer past add(): no weight may change
        learner, rng = filled_learner(39)
        learner.buffer.rew[: len(learner.buffer)] = np.nan
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
    def test_training_lowers_the_greedy_cost_of_a_contextual_bandit(self, seed):
        # one-step episodes of 4 rows with 4 normal features; every
        # transition is terminal, so the TD target is the cost itself
        cfg = TrainerConfig(
            batch_size=64, hidden=(32, 32), critic_lr=1e-3, actor_lr=1e-3, tau=0.05,
            buffer_capacity=6000,
        )
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
        critic = float64(init_mlp([obs_dim + ACTION_DIM, 6, 5, 1], rng))
        obs = rng.normal(size=(8, obs_dim))
        act = rng.dirichlet(np.ones(3), 8)
        y = rng.normal(size=8)
        grad, _ = critic_loss_grads(critic, obs, act, y, critic_workspace(critic, 8))
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
        critic = float64(init_mlp([obs_dim + ACTION_DIM, 6, 5, 1], rng))
        obs = rng.normal(size=(8, obs_dim))
        grad, _ = actor_objective_grads(actor, critic, obs, TrainWorkspace(8, actor, critic))
        analytic = split_like(grad, actor)
        numeric = finite_difference_grads(
            lambda: float(np.mean(reference_critic(critic, obs, reference_actor(actor, obs)))),
            actor.arrays(),
        )
        assert relative_grad_error(analytic, numeric) < 1e-4


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_config()
        learner = DdpgLearner(obs_dim=7, cfg=cfg, rng=np.random.default_rng(17))
        path = tmp_path / "net.ckpt"
        learner.save(path)
        arrays, meta = load_checkpoint(path)
        assert meta["train_steps"] == 0
        assert meta["obs_dim"] == 7
        echoed = meta["config"]
        assert TrainerConfig(**{**echoed, "hidden": tuple(echoed["hidden"])}) == cfg
        assert_same_networks_as(learner, arrays)

    def test_identical_saves_identical_bytes(self, tmp_path):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(18))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        learner.save(p1)
        learner.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

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
        raw = path.read_bytes()
        entries = json.loads(raw[: raw.index(b"\n")])["arrays"]
        assert {e["dtype"] for e in entries} == {"float64"}
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

    def test_float16_entry_rejected(self, tmp_path):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(32))
        path = tmp_path / "f16.ckpt"
        learner.save(path)
        header = self._rewrite_header(path)
        entry = header["arrays"][0]
        entry["dtype"], entry["nbytes"] = "float16", entry["nbytes"] // 2
        self._rewrite_header(path, arrays=header["arrays"])
        with pytest.raises(
            ValueError,
            match=f"{re.escape(str(path))}: array '{entry['name']}' has dtype 'float16'",
        ):
            load_checkpoint(path)

    def _rewrite_header(self, path, **changes):
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        header = json.loads(raw[:newline])
        header.update(changes)
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + raw[newline:])
        return header

    def test_unknown_version_rejected(self, tmp_path):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(21))
        path = tmp_path / "v99.ckpt"
        learner.save(path)
        self._rewrite_header(path, version=99)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*version 99"):
            load_checkpoint(path)

    def test_truncated_file_names_file_and_array(self, tmp_path):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(22))
        path = tmp_path / "cut.ckpt"
        learner.save(path)
        raw = path.read_bytes()
        header = json.loads(raw[: raw.index(b"\n")])
        last = max(header["arrays"], key=lambda e: e["offset"])["name"]
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*array '{last}'"):
            load_checkpoint(path)
        path.write_bytes(raw[:10])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*header"):
            load_checkpoint(path)

    def test_size_mismatch_names_file_and_array(self, tmp_path):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(23))
        path = tmp_path / "bad.ckpt"
        learner.save(path)
        raw = path.read_bytes()
        header = json.loads(raw[: raw.index(b"\n")])
        header["arrays"][0]["shape"] = [1]
        self._rewrite_header(path, arrays=header["arrays"])
        name = header["arrays"][0]["name"]
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*array '{name}'"):
            load_checkpoint(path)


    def test_header_without_arrays_or_meta_names_file(self, tmp_path):
        path = tmp_path / "bare.ckpt"
        path.write_bytes(json.dumps({"format": FORMAT_TAG, "version": VERSION}).encode() + b"\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*lacks arrays, meta"):
            load_checkpoint(path)
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(24))
        learner.save(path)
        header = self._rewrite_header(path)
        del header["meta"]
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*lacks meta"):
            load_checkpoint(path)

    def test_entry_without_field_names_file_and_entry(self, tmp_path):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(25))
        path = tmp_path / "entry.ckpt"
        learner.save(path)
        header = self._rewrite_header(path)
        name = header["arrays"][0]["name"]
        del header["arrays"][0]["nbytes"]
        self._rewrite_header(path, arrays=header["arrays"])
        with pytest.raises(
            ValueError, match=f"{re.escape(str(path))}: array entry 0 \\('{name}'\\) lacks nbytes"
        ):
            load_checkpoint(path)
        del header["arrays"][0]["name"]
        self._rewrite_header(path, arrays=header["arrays"])
        with pytest.raises(
            ValueError, match=f"{re.escape(str(path))}: array entry 0 lacks name, nbytes"
        ):
            load_checkpoint(path)

    def test_header_not_json_names_file(self, tmp_path):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(26))
        path = tmp_path / "garbled.ckpt"
        learner.save(path)
        raw = path.read_bytes()
        path.write_bytes(b"{not json" + raw[raw.index(b"\n") :])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*not JSON"):
            load_checkpoint(path)
        path.write_bytes(b"[]" + raw[raw.index(b"\n") :])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))} is not a"):
            load_checkpoint(path)

    def test_flipped_body_byte_fails_the_digest(self, tmp_path):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(27))
        path = tmp_path / "flip.ckpt"
        learner.save(path)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"\n") + 1 + 100] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*sha256"):
            load_checkpoint(path)

    def test_missing_digest_names_file(self, tmp_path):
        learner = DdpgLearner(obs_dim=4, cfg=small_config(), rng=np.random.default_rng(28))
        path = tmp_path / "nodigest.ckpt"
        learner.save(path)
        header = self._rewrite_header(path)
        del header["sha256"]
        raw = path.read_bytes()
        path.write_bytes(json.dumps(header).encode() + raw[raw.index(b"\n") :])
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: header lacks sha256"):
            load_checkpoint(path)


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(gamma=1.0)
        with pytest.raises(ValueError):
            TrainerConfig(tau=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)

    @pytest.mark.parametrize("hidden", [(0,), (-4,), (16, 2.5), ("8",), (16, None)])
    def test_hidden_widths_must_be_positive_ints(self, hidden):
        # a zero width gives an actor that ignores its input
        with pytest.raises(ValueError, match="hidden widths must be positive ints"):
            TrainerConfig(hidden=hidden)

    def test_sigma_schedule(self):
        cfg = small_config(episodes=100, sigma_start=0.3, sigma_end=0.05, sigma_anneal_frac=0.5)
        assert cfg.sigma_at(0) == pytest.approx(0.3)
        assert cfg.sigma_at(25) == pytest.approx(0.175)
        assert cfg.sigma_at(50) == pytest.approx(0.05)
        assert cfg.sigma_at(99) == pytest.approx(0.05)
