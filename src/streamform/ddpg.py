"""From-scratch deterministic actor-critic learner on plain numpy.

Fully-connected networks with ReLU hidden layers, a softmax action head on
the actor and a linear scalar critic output. Forward passes, analytic
backpropagation and the Adam updates are all hand-rolled here; gradient
correctness is pinned by finite-difference tests. Rewards are costs, so
both the critic target regression and the actor update minimize Q.

Workspace rule: ``DdpgLearner.train_step`` writes every batch-sized
intermediate into the learner's own ``TrainWorkspace`` instead of
allocating it. A workspace holds no state between calls: each function
that takes one overwrites what it reads before reading it, and what it
returns is valid only until the next call. The functions that accept a
workspace compute exactly what they compute without one, bit for bit;
without one they allocate fresh arrays and the caller may keep them.

Precision rule: the learner runs in ``DTYPE`` (float32). Buffers, workspace
and Adam moments take the parameters' dtype and the forward passes cast their
inputs to it, so every building block also runs in float64 on float64 copies.
The act paths softmax float64 logits: a float32 softmax misses the simplex by
about 1e-7, and an action must sum to one far more closely than that.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .dynamics import ControlInput, Limits, clamp_controls

ACTION_DIM = 3
DTYPE = np.float32


def _split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive blocks of ``flat``, one per shape."""
    views, at = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(flat[at : at + n].reshape(shape))
        at += n
    return views


@dataclass
class MlpParams:
    """Per-layer weights (in x out) and biases.

    Construction copies the weights and biases into one contiguous vector
    of their dtype, ``flat``, in arrays() order; ``weights`` and ``biases``
    become views into it, so whole-network updates run on ``flat`` alone.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("need one bias vector per weight matrix")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i} shapes {w.shape} / {b.shape} do not chain")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(
                    f"layer {i} input {w.shape[0]} does not match previous output"
                )
        arrays = self.arrays()
        self.flat = np.concatenate([np.ravel(a) for a in arrays])
        views = _split(self.flat, [a.shape for a in arrays])
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def widths(self) -> tuple[int, ...]:
        """Input width, then each layer's output width."""
        return (self.in_dim, *(w.shape[1] for w in self.weights))

    def arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "MlpParams":
        # construction packs copies of the arrays into a fresh vector
        return MlpParams(self.weights, self.biases)


class MlpBuffers:
    """Batch-sized arrays for one network shape.

    ``fwd[i]`` receives the input of layer i and ``fwd[-1]`` the output;
    the backward pass then overwrites ``fwd[i]`` with d(loss)/d(input of
    layer i), after reading it into ``mask[i]``, the ReLU mask. ``fwd[0]``
    is None until a caller that builds the network input in place, or takes
    the input gradient, puts an array there; ``mask[0]`` stays None, since
    layer 0 has no ReLU. ``grads`` are views of one flat gradient vector
    ``grad`` laid out like ``MlpParams.flat``. All take the params' dtype.
    """

    def __init__(self, params: MlpParams, batch: int):
        widths, dtype = params.widths, params.flat.dtype
        self.fwd = [None] + [np.empty((batch, d), dtype) for d in widths[1:]]
        self.mask = [None] + [np.empty((batch, d), dtype=bool) for d in widths[1:-1]]
        self.grad = np.empty(params.flat.size, dtype)
        self.grads = _split(self.grad, [a.shape for a in params.arrays()])


def init_mlp(sizes: list[int], rng: np.random.Generator, final_scale: float = 3e-3) -> MlpParams:
    """He-initialized hidden layers; small uniform final layer (float64
    draws, rounded to ``DTYPE``)."""
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        if i == len(sizes) - 2:
            w = rng.uniform(-final_scale, final_scale, (fan_in, fan_out))
        else:
            w = rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, fan_out))
        weights.append(w.astype(DTYPE))
        biases.append(np.zeros(fan_out, DTYPE))
    return MlpParams(weights, biases)


def mlp_forward(
    params: MlpParams, x: np.ndarray, bufs: MlpBuffers | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass; returns output and the per-layer inputs for backprop.

    With ``bufs`` every result is written into ``bufs.fwd`` and the output
    and cache are views of it; ``x`` (cast to the params' dtype) may itself
    be ``bufs.fwd[0]``.
    """
    last = len(params.weights) - 1
    fwd = [None] * (last + 2) if bufs is None else bufs.fwd
    h = np.atleast_2d(np.asarray(x, dtype=params.flat.dtype))
    cache = [h]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(h, w, out=fwd[i + 1])
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
            cache.append(h)
    return h, cache


def mlp_backward(
    params: MlpParams,
    cache: list[np.ndarray],
    dout: np.ndarray,
    bufs: MlpBuffers | None = None,
    weight_grads: bool = True,
    input_grad: bool = True,
) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
    """Gradients of a scalar loss given d(loss)/d(output).

    Returns gradients in arrays() order plus d(loss)/d(input).
    ``weight_grads=False`` skips the weight and bias gradients and
    ``input_grad=False`` the layer-0 input gradient; each skipped part is
    returned as None. With ``bufs`` the results are written into
    ``bufs.grads`` and over ``bufs.fwd``, so a forward cache held there
    serves one backward pass.
    """
    n_layers = len(params.weights)
    if bufs is None:
        g_out = [None] * (2 * n_layers)
        d_in = mask = [None] * n_layers
    else:
        g_out, d_in, mask = bufs.grads, bufs.fwd, bufs.mask
    grads = [None] * (2 * n_layers) if weight_grads else None
    da = dout
    for i in range(n_layers - 1, -1, -1):
        if weight_grads:
            grads[2 * i] = np.matmul(cache[i].T, da, out=g_out[2 * i])
            grads[2 * i + 1] = np.sum(da, axis=0, out=g_out[2 * i + 1])
        if i == 0 and not input_grad:
            return grads, None
        relu = np.greater(cache[i], 0.0, out=mask[i]) if i > 0 else None
        # cache[i] may be d_in[i]: it is read above and overwritten here. One
        # output column makes it an outer product: multiply gives the K=1
        # matmul's bits, 2.4x faster in float32 at batch 1024
        w = params.weights[i]
        da = (np.multiply if w.shape[1] == 1 else np.matmul)(da, w.T, out=d_in[i])
        if i > 0:
            da *= relu
    return grads, da


def softmax(logits: np.ndarray, out: np.ndarray | None = None, col=None) -> np.ndarray:
    """Row-wise softmax, written into ``out`` (which may be ``logits``)
    when given; ``col`` is an optional (rows, 1) scratch array."""
    z = np.subtract(logits, logits.max(axis=1, keepdims=True, out=col), out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True, out=col)
    return z


def softmax_backward(
    probs: np.ndarray, dprobs: np.ndarray, out: np.ndarray | None = None, col=None
) -> np.ndarray:
    """d(loss)/d(logits) given d(loss)/d(probs); ``out`` and ``col`` as in
    softmax."""
    prod = np.multiply(dprobs, probs, out=out)
    inner = prod.sum(axis=1, keepdims=True, out=col)
    grad = np.subtract(dprobs, inner, out=prod)
    grad *= probs
    return grad


def actor_forward(
    params: MlpParams, obs: np.ndarray, bufs: MlpBuffers | None = None, col=None
) -> np.ndarray:
    """Action on the probability simplex for each observation row. With
    ``bufs`` the actions overwrite the logits in ``bufs.fwd[-1]``."""
    logits, _ = mlp_forward(params, obs, bufs)
    return softmax(logits, None if bufs is None else logits, col)


def critic_input(obs: np.ndarray, action: np.ndarray, out: np.ndarray | None = None):
    """The critic's (observation | action) rows, written into ``out`` when
    given."""
    if out is None:
        return np.hstack([obs, action])
    d = obs.shape[1]
    out[:, :d] = obs
    out[:, d:] = action
    return out


def critic_forward(
    params: MlpParams, obs: np.ndarray, action: np.ndarray, bufs: MlpBuffers | None = None
) -> np.ndarray:
    """Scalar value of each (observation, action) pair."""
    obs = np.atleast_2d(np.asarray(obs, dtype=params.flat.dtype))
    action = np.atleast_2d(np.asarray(action, dtype=params.flat.dtype))
    x = critic_input(obs, action, None if bufs is None else bufs.fwd[0])
    out, _ = mlp_forward(params, x, bufs)
    return out[:, 0]


def map_action(u_raw: np.ndarray, limits: Limits) -> ControlInput:
    """Simplex action to saturated controls: accel from the first
    component, turn from the difference of the other two."""
    a = float(u_raw[0]) * limits.a_max
    beta = (float(u_raw[1]) - float(u_raw[2])) * limits.beta_max
    return clamp_controls(a, beta, limits)


def simplex_from_controls(accel: float, angular_accel: float, limits: Limits) -> np.ndarray:
    """Closest simplex action realizing the requested controls.

    Inverse of map_action for scripted policies; the turn component is
    clipped to the simplex budget left after the acceleration share.
    """
    u0 = min(max(accel / limits.a_max, 0.0), 1.0)
    budget = 1.0 - u0
    ratio = min(max(angular_accel / limits.beta_max, -budget), budget)
    u1 = 0.5 * (budget + ratio)
    u2 = 0.5 * (budget - ratio)
    return np.array([u0, u1, u2])


@dataclass(frozen=True)
class TrainerConfig:
    critic_lr: float = 1e-3
    actor_lr: float = 1e-4
    batch_size: int = 1024
    gamma: float = 0.99
    tau: float = 0.005
    buffer_capacity: int = 1_000_000
    episodes: int = 30_000
    sigma_start: float = 0.3
    sigma_end: float = 0.05
    sigma_anneal_frac: float = 0.5
    hidden: tuple[int, ...] = (64, 128, 128)
    actor_final_scale: float = 3e-3

    def __post_init__(self):
        problems = self.validate()
        if problems:
            raise ValueError("; ".join(problems))

    def validate(self) -> list[str]:
        problems = []
        if not 0.0 < self.gamma < 1.0:
            problems.append(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            problems.append(f"tau must be in (0, 1], got {self.tau}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be positive, got {self.batch_size}")
        if self.critic_lr <= 0 or self.actor_lr <= 0:
            problems.append("learning rates must be positive")
        if self.buffer_capacity < self.batch_size:
            problems.append("buffer_capacity must be at least batch_size")
        if self.episodes < 0:
            problems.append(f"episodes must be nonnegative, got {self.episodes}")
        if not 0.0 <= self.sigma_anneal_frac <= 1.0:
            problems.append("sigma_anneal_frac must be in [0, 1]")
        if self.sigma_start < 0 or self.sigma_end < 0:
            problems.append("exploration sigmas must be nonnegative")
        return problems

    def sigma_at(self, episode: int) -> float:
        """Linear anneal over the first sigma_anneal_frac of training."""
        horizon = max(1, int(self.episodes * self.sigma_anneal_frac))
        frac = min(1.0, episode / horizon)
        return self.sigma_start + frac * (self.sigma_end - self.sigma_start)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling.

    A transition is one row of ``rows``, ``[obs | act | rew | obs_next |
    done]``, in ``DTYPE``; ``obs`` to ``done`` are column views of it. One
    allocation, not five: at the default capacity (about 180 MB) it is far
    above glibc's mmap threshold (at most 32 MB), so it is mapped lazily and
    only written rows become resident. Per-field arrays of 4-12 MB could fall
    below a threshold raised by a freed learner and come from reused heap,
    where calloc zero-fills, and so makes resident, every page.
    """

    def __init__(self, capacity: int, obs_dim: int, act_dim: int = ACTION_DIM):
        self.capacity = capacity
        self.obs_dim, self.act_dim = obs_dim, act_dim
        self.rows = np.zeros((capacity, 2 * obs_dim + act_dim + 2), DTYPE)
        self.obs, self.act, self.rew, self.obs_next, self.done = self.fields(self.rows)
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def fields(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """(obs, act, rew, obs_next, done) column views of transition rows."""
        o, e = self.obs_dim, self.obs_dim + self.act_dim
        return rows[:, :o], rows[:, o:e], rows[:, e], rows[:, e + 1 : -1], rows[:, -1]

    def add(self, obs, act, rew: float, obs_next, done: bool) -> None:
        """Store one transition. A field not finite as a row holds it (1e39
        is inf in float32) raises ValueError and leaves the buffer as it was:
        one NaN sampled into a batch would turn every network weight NaN."""
        for name, value in (("obs", obs), ("act", act), ("rew", rew), ("obs_next", obs_next)):
            with np.errstate(over="ignore"):  # the overflow is what is tested for
                held = np.asarray(value, dtype=self.rows.dtype)
            if not np.isfinite(held).all():
                raise ValueError(f"transition has a non-finite {name}: {value!r}")
        i = self._next
        self.obs[i] = obs
        self.act[i] = act
        self.rew[i] = rew
        self.obs_next[i] = obs_next
        self.done[i] = float(done)
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator, out=None):
        """Uniformly drawn rows as the five field views; the rows are
        written into the (batch_size, width) array ``out`` when given."""
        if self._size < batch_size:
            raise ValueError(f"buffer holds {self._size} < batch {batch_size}")
        idx = rng.integers(0, self._size, size=batch_size)
        # every index is in range, and mode="clip" lets take write straight
        # into ``out`` where the default mode would copy through a temporary
        return self.fields(np.take(self.rows, idx, axis=0, out=out, mode="clip"))


class Adam:
    """Standard Adam over one flat parameter vector (``MlpParams.flat``), in
    its dtype, so a step is a handful of whole-vector operations."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, param: np.ndarray):
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self.t = 0

    def step(self, param: np.ndarray, grad: np.ndarray, lr: float, scratch: np.ndarray) -> None:
        """One in-place update of ``param``; ``scratch`` is a (2, n) array
        with n at least ``param.size``."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        m, v = self.m, self.v
        s, r = scratch[0, : param.size], scratch[1, : param.size]
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        # param -= lr (m / corr1) / (sqrt(v / corr2) + eps), rounded in this order
        m *= b1
        m += np.multiply(grad, 1 - b1, out=s)
        v *= b2
        np.multiply(grad, 1 - b2, out=s)
        v += np.multiply(s, grad, out=s)
        np.divide(m, corr1, out=s)
        s *= lr
        np.divide(v, corr2, out=r)
        np.sqrt(r, out=r)
        r += self.EPS
        param -= np.divide(s, r, out=s)


def compute_td_targets(
    target_actor: MlpParams,
    target_critic: MlpParams,
    rew: np.ndarray,
    obs_next: np.ndarray,
    done: np.ndarray,
    gamma: float,
    ws: TrainWorkspace | None = None,
) -> np.ndarray:
    """y = r + gamma * Q'(o', pi'(o')), with no bootstrap past done."""
    a_bufs, c_bufs, col, y, not_done = (
        (None,) * 5 if ws is None else (ws.actor, ws.critic, ws.col, ws.targets, ws.vec)
    )
    u_next = actor_forward(target_actor, obs_next, a_bufs, col)
    q_next = critic_forward(target_critic, obs_next, u_next, c_bufs)
    y = np.multiply(gamma, q_next, out=y)
    y *= np.subtract(1.0, done, out=not_done)
    y += rew
    return y


def critic_loss(params: MlpParams, obs, act, targets) -> float:
    q = critic_forward(params, obs, act)
    err = q - targets
    return float(np.mean(err * err))


def critic_loss_grads(
    params: MlpParams, obs, act, targets, ws: TrainWorkspace | None = None
) -> tuple[list[np.ndarray], float]:
    """Gradients of the mean squared TD error; with ``ws`` they are views
    of ``ws.critic.grad``."""
    bufs, x, err, sq, dout = (
        (None,) * 5
        if ws is None
        else (ws.critic, ws.critic.fwd[0], ws.err, ws.vec, ws.col)
    )
    x = critic_input(np.atleast_2d(obs), np.atleast_2d(act), x)
    out, cache = mlp_forward(params, x, bufs)
    err = np.subtract(out[:, 0], targets, out=err)
    loss = float(np.mean(np.multiply(err, err, out=sq)))
    dout = np.multiply(2.0 / len(err), err[:, None], out=dout)
    grads, _ = mlp_backward(params, cache, dout, bufs, input_grad=False)
    return grads, loss


def actor_objective(actor: MlpParams, critic: MlpParams, obs) -> float:
    """Mean critic value of the actor's actions (a cost, to be minimized)."""
    u = actor_forward(actor, obs)
    return float(np.mean(critic_forward(critic, obs, u)))


def actor_objective_grads(
    actor: MlpParams, critic: MlpParams, obs, ws: TrainWorkspace | None = None
) -> tuple[list[np.ndarray], float]:
    """Actor gradients of the mean critic value; only d(Q)/d(input) is
    taken from the critic. With ``ws`` they are views of ``ws.actor.grad``."""
    obs = np.atleast_2d(obs)
    a_bufs, c_bufs, x, col, dlogits = (
        (None,) * 5
        if ws is None
        else (ws.actor, ws.critic, ws.critic.fwd[0], ws.col, ws.dlogits)
    )
    logits, cache_a = mlp_forward(actor, obs, a_bufs)
    u = softmax(logits, None if ws is None else logits, col)
    x = critic_input(obs, u, x)
    q, cache_q = mlp_forward(critic, x, c_bufs)
    objective = float(np.mean(q[:, 0]))
    dq = np.empty((len(obs), 1), q.dtype) if ws is None else col
    dq.fill(1.0 / len(obs))
    _, dx = mlp_backward(critic, cache_q, dq, c_bufs, weight_grads=False)
    du = dx[:, obs.shape[1] :]
    dlogits = softmax_backward(u, du, dlogits, col)
    grads, _ = mlp_backward(actor, cache_a, dlogits, a_bufs, input_grad=False)
    return grads, objective


def soft_update(
    target: MlpParams, online: MlpParams, tau: float, scratch: np.ndarray | None = None
) -> None:
    """target <- (1 - tau) target + tau online, over the flat vectors;
    ``scratch`` is an optional 1-D array at least as long as them."""
    step = np.multiply(
        online.flat, tau, out=None if scratch is None else scratch[: online.flat.size]
    )
    target.flat *= 1.0 - tau
    target.flat += step


class TrainWorkspace:
    """Every batch-sized array one ``train_step`` writes; see the module
    docstring for the rule.

    Besides the two networks' buffers: ``sample`` receives whole replay
    rows (one take; see ``ReplayBuffer``), ``targets`` the TD targets,
    ``err`` the TD errors, ``dlogits`` the actor's output gradient; ``vec``
    and ``col`` are (batch,) and (batch, 1) scratch, and ``scratch`` serves
    Adam and the soft update. All take the params' dtype.
    """

    def __init__(self, batch: int, actor: MlpParams, critic: MlpParams):
        obs_dim, act_dim, dtype = actor.in_dim, actor.out_dim, actor.flat.dtype
        self.actor = MlpBuffers(actor, batch)
        self.critic = MlpBuffers(critic, batch)
        # the critic's input rows are built here, and its input gradient
        # lands here in the actor update; the actor needs neither
        self.critic.fwd[0] = np.empty((batch, critic.in_dim), dtype)
        self.sample = np.empty((batch, 2 * obs_dim + act_dim + 2), dtype)
        self.targets = np.empty(batch, dtype)
        self.err = np.empty(batch, dtype)
        self.vec = np.empty(batch, dtype)
        self.col = np.empty((batch, 1), dtype)
        self.dlogits = np.empty((batch, act_dim), dtype)
        self.scratch = np.empty((2, max(actor.flat.size, critic.flat.size)), dtype)


class DdpgLearner:
    """Owns the online/target networks, replay buffer and Adam states."""

    def __init__(self, obs_dim: int, cfg: TrainerConfig, rng: np.random.Generator):
        self.obs_dim = obs_dim
        self.cfg = cfg
        self.actor = init_mlp([obs_dim, *cfg.hidden, ACTION_DIM], rng, cfg.actor_final_scale)
        self.critic = init_mlp([obs_dim + ACTION_DIM, *cfg.hidden, 1], rng)
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.buffer = ReplayBuffer(cfg.buffer_capacity, obs_dim)
        self.actor_opt = Adam(self.actor.flat)
        self.critic_opt = Adam(self.critic.flat)
        self.workspace = TrainWorkspace(cfg.batch_size, self.actor, self.critic)
        self.train_steps = 0

    def act(self, observations: np.ndarray, sigma: float, rng: np.random.Generator):
        """The one shared policy on every follower's observation row, with
        exploration noise of scale ``sigma`` added to the float64 logits."""
        logits, _ = mlp_forward(self.actor, observations)
        logits = logits.astype(np.float64)
        if sigma > 0.0:
            logits += rng.normal(0.0, sigma, size=logits.shape)
        return softmax(logits)

    def record(self, obs, act, rew, obs_next, done: bool) -> None:
        self.buffer.add(obs, act, rew, obs_next, done)

    def ready(self) -> bool:
        return len(self.buffer) >= self.cfg.batch_size

    def train_step(self, rng: np.random.Generator) -> dict[str, float]:
        cfg = self.cfg
        ws = self.workspace
        obs, act, rew, obs_next, done = self.buffer.sample(cfg.batch_size, rng, ws.sample)
        targets = compute_td_targets(
            self.target_actor, self.target_critic, rew, obs_next, done, cfg.gamma, ws
        )
        _, c_loss = critic_loss_grads(self.critic, obs, act, targets, ws)
        self._require_finite(c_loss, "critic loss")
        self._require_finite(ws.critic.grad, "critic gradient")
        self.critic_opt.step(self.critic.flat, ws.critic.grad, cfg.critic_lr, ws.scratch)
        _, a_obj = actor_objective_grads(self.actor, self.critic, obs, ws)
        self._require_finite(a_obj, "actor objective")
        self._require_finite(ws.actor.grad, "actor gradient")
        self.actor_opt.step(self.actor.flat, ws.actor.grad, cfg.actor_lr, ws.scratch)
        soft_update(self.target_actor, self.actor, cfg.tau, ws.scratch[0])
        soft_update(self.target_critic, self.critic, cfg.tau, ws.scratch[0])
        self.train_steps += 1
        return {"critic_loss": c_loss, "actor_q": a_obj}

    def _require_finite(self, value, what: str) -> None:
        """Raise before the Adam step that would apply a non-finite value
        (a scalar or a gradient vector)."""
        if not np.isfinite(value).all():
            shown = value if np.ndim(value) == 0 else "not finite"
            raise FloatingPointError(
                f"train step {self.train_steps}: {what} is {shown}; its update is not applied"
            )

    def network_arrays(self) -> dict[str, np.ndarray]:
        named: dict[str, np.ndarray] = {}
        for prefix, net in (
            ("actor", self.actor),
            ("critic", self.critic),
            ("target_actor", self.target_actor),
            ("target_critic", self.target_critic),
        ):
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                named[f"{prefix}.w{i}"] = w
                named[f"{prefix}.b{i}"] = b
        return named

    def save(self, path) -> None:
        meta = {
            "train_steps": self.train_steps,
            "obs_dim": self.obs_dim,
            "config": asdict(self.cfg),
        }
        save_checkpoint(path, self.network_arrays(), meta)


def _params_from_arrays(arrays: dict[str, np.ndarray], prefix: str) -> MlpParams:
    weights, biases = [], []
    i = 0
    while f"{prefix}.w{i}" in arrays:
        weights.append(arrays[f"{prefix}.w{i}"])
        biases.append(arrays[f"{prefix}.b{i}"])
        i += 1
    if not weights:
        raise ValueError(f"checkpoint has no layers for {prefix!r}")
    return MlpParams(weights, biases)


def load_policy(path) -> tuple[MlpParams, dict]:
    """Actor parameters plus checkpoint metadata."""
    arrays, meta = load_checkpoint(path)
    return _params_from_arrays(arrays, "actor"), meta


def load_learner_networks(path) -> tuple[dict[str, MlpParams], dict]:
    arrays, meta = load_checkpoint(path)
    nets = {
        name: _params_from_arrays(arrays, name)
        for name in ("actor", "critic", "target_actor", "target_critic")
    }
    return nets, meta


class ActorPolicy:
    """Greedy wrapper around trained actor parameters."""

    def __init__(self, params: MlpParams):
        self.params = params

    @classmethod
    def from_checkpoint(cls, path) -> "ActorPolicy":
        params, _ = load_policy(path)
        return cls(params)

    def act(self, observations: np.ndarray) -> np.ndarray:
        logits, _ = mlp_forward(self.params, observations)
        return softmax(logits.astype(np.float64))

