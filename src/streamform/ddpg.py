"""From-scratch deterministic actor-critic learner on plain numpy.

Fully-connected networks with ReLU hidden layers, a softmax action head on
the actor and a linear scalar critic output. Forward passes, analytic
backpropagation and the Adam updates are all hand-rolled here; gradient
correctness is pinned by finite-difference tests. Rewards are costs, so
both the critic target regression and the actor update minimize Q.

Layer rule: layer i is one (in + 1, out) matrix ``MlpParams.layers[i]``, its
weights above its bias row, and every layer input carries a trailing ones
column, so one matmul applies the weights and adds the bias, and the
weight-gradient matmul ``input.T @ grad`` returns the weight and bias
gradients together.

Workspace rule: every forward, backward and update function writes into
buffers its caller passes (an ``MlpBuffers`` per network, a whole
``TrainWorkspace``, or an ``out`` or ``scratch`` array); there is no
allocating variant. ``DdpgLearner.train_step`` passes the learner's own
workspace, and the act paths build fresh ``MlpBuffers`` for their rows (a
1-D observation is one row). ``MlpBuffers`` is the only channel between the
passes over a network: a backward pass reads the layer inputs that the last
forward pass left in the same buffers, and writes the weight gradients into
their one flat ``grad`` vector, which is what the gradient functions return.
Otherwise buffers hold no state between calls: each function overwrites
what it reads before reading it, and what it returns is valid only until the
next call that is given the same buffers.

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
    of their dtype, ``flat``, in arrays() order, so whole-network updates
    run on ``flat`` alone. ``layers[i]`` is the (in + 1, out) view of
    layer i in it; ``weights[i]`` is its first ``in`` rows and ``biases[i]``
    its last.
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
        self.flat = np.concatenate([np.ravel(a) for a in self.arrays()])
        self.layers = _split(self.flat, [(w.shape[0] + 1, w.shape[1]) for w in self.weights])
        self.weights = [layer[:-1] for layer in self.layers]
        self.biases = [layer[-1] for layer in self.layers]

    @property
    def widths(self) -> tuple[int, ...]:
        """Input width, then each layer's output width."""
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    def arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "MlpParams":
        # construction packs copies of the arrays into a fresh vector
        return MlpParams(self.weights, self.biases)


class MlpBuffers:
    """Batch-sized arrays for one network shape, in the params' dtype.

    ``fwd[i]`` receives the input of layer i as a contiguous (batch, width
    + 1) array whose last column is ones, and ``fwd[-1]`` the output, with
    no such column. ``inputs`` is ``fwd[0]`` without its ones column; a
    caller may build the network input there in place. The backward pass
    overwrites ``fwd[i]`` with d(loss)/d(input of layer i), after reading
    the ReLU mask from it; that gradient is taken for the ones column too
    and discarded there, so the mask and its product run on whole
    contiguous arrays, and each forward pass sets the ones columns again.
    ``grad`` is one flat gradient vector laid out like ``MlpParams.flat``,
    and ``layer_grads[i]`` its (in + 1, out) view for layer i. ``col`` is
    (batch, 1) scratch for row reductions and a one-column output gradient.

    ``zeros[i]`` (the ReLU's second operand, all zeros) and ``mask[i]``
    serve hidden layer i, whose input is ``fwd[i]``. They are prefix views
    of one flat zero block and one bool block, which a ``TrainWorkspace``
    shares between its two networks (pass both blocks, each at least as
    long as the largest hidden ``fwd[i]``, or neither): nothing may write
    to the zeros. ``zeros[0]`` and ``mask[0]`` are None, since layer 0 has
    no ReLU.
    """

    def __init__(self, params: MlpParams, batch: int, zeros=None, mask=None):
        widths, dtype = params.widths, params.flat.dtype
        self.fwd = [np.empty((batch, d + 1), dtype) for d in widths[:-1]]
        self.fwd.append(np.empty((batch, widths[-1]), dtype))
        self.inputs = self.fwd[0][:, :-1]
        self.grad = np.empty(params.flat.size, dtype)
        self.layer_grads = _split(self.grad, [layer.shape for layer in params.layers])
        self.col = np.empty((batch, 1), dtype)
        hidden = [h.shape for h in self.fwd[1:-1]]
        if zeros is None:
            size = max((math.prod(shape) for shape in hidden), default=0)
            zeros, mask = np.zeros(size, dtype), np.empty(size, bool)
        self.zeros = [None] + [zeros[: math.prod(shape)].reshape(shape) for shape in hidden]
        self.mask = [None] + [mask[: math.prod(shape)].reshape(shape) for shape in hidden]


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


def mlp_forward(params: MlpParams, x: np.ndarray, bufs: MlpBuffers) -> np.ndarray:
    """Forward pass into ``bufs.fwd``; returns the output, ``bufs.fwd[-1]``.
    ``x`` (cast to the params' dtype) may itself be ``bufs.inputs``.
    """
    fwd, last = bufs.fwd, len(params.layers) - 1
    if x is not bufs.inputs:
        bufs.inputs[...] = x
    for i, layer in enumerate(params.layers):
        fwd[i][:, -1] = 1.0  # the backward pass writes over it
        if i == last:
            return np.matmul(fwd[i], layer, out=fwd[i + 1])
        np.matmul(fwd[i], layer, out=fwd[i + 1][:, :-1])
        np.maximum(fwd[i + 1], bufs.zeros[i + 1], out=fwd[i + 1])


def mlp_backward(
    params: MlpParams, dout: np.ndarray, bufs: MlpBuffers, weight_grads: bool
) -> np.ndarray | None:
    """Backpropagate d(loss)/d(output) through the forward pass last run in
    ``bufs``.

    ``weight_grads=True`` writes the weight and bias gradients into
    ``bufs.grad`` and returns None; ``False`` returns d(loss)/d(input) only
    and leaves ``bufs.grad`` as it was. Either mode overwrites ``bufs.fwd``,
    so one forward pass serves one backward pass.
    """
    fwd = bufs.fwd
    da = dout
    for i in range(len(params.layers) - 1, -1, -1):
        if weight_grads:
            # the input's ones column turns the bias row into sum(da, axis=0)
            np.matmul(fwd[i].T, da, out=bufs.layer_grads[i])
            if i == 0:
                return None
        relu = np.greater(fwd[i], 0.0, out=bufs.mask[i]) if i > 0 else None
        # fwd[i] is read above and overwritten here. One output column makes
        # it an outer product: multiply gives the K=1 matmul's bits, 2.4x
        # faster in float32 at batch 1024
        layer = params.layers[i]
        da = (np.multiply if layer.shape[1] == 1 else np.matmul)(da, layer.T, out=fwd[i])
        if i > 0:
            da *= relu
        da = da[:, :-1]  # drop the ones column's gradient
    return da


def softmax(z: np.ndarray, col=None) -> np.ndarray:
    """Row-wise softmax of the logits ``z``, in place; ``col`` is an
    optional (rows, 1) scratch array."""
    z -= z.max(axis=1, keepdims=True, out=col)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True, out=col)
    return z


def softmax_backward(
    probs: np.ndarray, dprobs: np.ndarray, out: np.ndarray, col: np.ndarray
) -> np.ndarray:
    """d(loss)/d(logits) given d(loss)/d(probs), written into ``out``;
    ``col`` is a (rows, 1) scratch array."""
    prod = np.multiply(dprobs, probs, out=out)
    inner = prod.sum(axis=1, keepdims=True, out=col)
    grad = np.subtract(dprobs, inner, out=prod)
    grad *= probs
    return grad


def actor_forward(params: MlpParams, obs: np.ndarray, bufs: MlpBuffers) -> np.ndarray:
    """Action on the probability simplex for each observation row; the
    actions overwrite the logits in ``bufs.fwd[-1]``."""
    return softmax(mlp_forward(params, obs, bufs), bufs.col)


def critic_input(obs: np.ndarray, action: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The critic's (observation | action) rows, written into ``out``."""
    d = obs.shape[1]
    out[:, :d] = obs
    out[:, d:] = action
    return out


def critic_forward(
    params: MlpParams, obs: np.ndarray, action: np.ndarray, bufs: MlpBuffers
) -> np.ndarray:
    """Scalar value of each (observation, action) row pair."""
    return mlp_forward(params, critic_input(obs, action, bufs.inputs), bufs)[:, 0]


def _act_logits(params: MlpParams, observations) -> np.ndarray:
    """float64 copy of the actor's logits for each observation row (a 1-D
    observation is one row), through fresh buffers sized to the rows."""
    rows = np.atleast_2d(observations)
    return mlp_forward(params, rows, MlpBuffers(params, len(rows))).astype(np.float64)


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
        if not all(isinstance(w, (int, np.integer)) and w > 0 for w in self.hidden):
            problems.append(f"hidden widths must be positive ints, got {self.hidden}")
        if problems:
            raise ValueError("; ".join(problems))

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

    FIELDS = ("obs", "act", "rew", "obs_next", "done")

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.rows = np.zeros((capacity, 2 * obs_dim + ACTION_DIM + 2), DTYPE)
        self.obs, self.act, self.rew, self.obs_next, self.done = self.fields(self.rows)
        self._row = np.empty(self.rows.shape[1], DTYPE)  # add() builds a row here
        self._row_fields = self.fields(self._row[None])
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def fields(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """(obs, act, rew, obs_next, done) column views of transition rows."""
        o, e = self.obs_dim, self.obs_dim + ACTION_DIM
        return rows[:, :o], rows[:, o:e], rows[:, e], rows[:, e + 1 : -1], rows[:, -1]

    def add(self, obs, act, rew: float, obs_next, done: bool) -> None:
        """Store one transition. A field whose size is not its width, or
        that is not finite as a row holds it (1e39 is inf in float32), raises
        ValueError and leaves the buffer as it was: one NaN sampled into a
        batch would turn every network weight NaN."""
        values = (obs, act, rew, obs_next, float(done))
        with np.errstate(over="ignore"):  # the overflow is what is tested for
            for name, view, value in zip(self.FIELDS, self._row_fields, values):
                n = np.size(value)
                if n != view.size:
                    raise ValueError(f"transition {name} has {n} values, not {view.size}")
                view[...] = value
        if not np.isfinite(self._row[:-1]).all():
            for name, view, value in zip(self.FIELDS, self._row_fields, values):
                if not np.isfinite(view).all():
                    raise ValueError(f"transition has a non-finite {name}: {value!r}")
        i = self._next
        self.rows[i] = self._row
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
    ws: TrainWorkspace,
) -> np.ndarray:
    """y = r + gamma * Q'(o', pi'(o')), with no bootstrap past done; written
    into ``ws.targets``."""
    u_next = actor_forward(target_actor, obs_next, ws.actor)
    q_next = critic_forward(target_critic, obs_next, u_next, ws.critic)
    y = np.multiply(gamma, q_next, out=ws.targets)
    y *= np.subtract(1.0, done, out=ws.vec)
    y += rew
    return y


def critic_loss_grads(
    params: MlpParams, obs, act, targets, ws: TrainWorkspace
) -> tuple[np.ndarray, float]:
    """Flat gradient (``ws.critic.grad``) of the mean squared TD error, and
    that error."""
    out = mlp_forward(params, critic_input(obs, act, ws.critic.inputs), ws.critic)
    err = np.subtract(out[:, 0], targets, out=ws.err)
    loss = float(np.mean(np.multiply(err, err, out=ws.vec)))
    dout = np.multiply(2.0 / len(err), err[:, None], out=ws.critic.col)
    mlp_backward(params, dout, ws.critic, weight_grads=True)
    return ws.critic.grad, loss


def actor_objective_grads(
    actor: MlpParams, critic: MlpParams, obs, ws: TrainWorkspace
) -> tuple[np.ndarray, float]:
    """Flat actor gradient (``ws.actor.grad``) of the mean critic value (a
    cost, to be minimized), and that value; only d(Q)/d(input) is taken
    from the critic."""
    u = softmax(mlp_forward(actor, obs, ws.actor), ws.actor.col)
    q = mlp_forward(critic, critic_input(obs, u, ws.critic.inputs), ws.critic)
    objective = float(np.mean(q[:, 0]))
    ws.critic.col.fill(1.0 / len(obs))  # d(objective)/dQ
    dx = mlp_backward(critic, ws.critic.col, ws.critic, weight_grads=False)
    du = dx[:, obs.shape[1] :]
    dlogits = softmax_backward(u, du, ws.dlogits, ws.actor.col)
    mlp_backward(actor, dlogits, ws.actor, weight_grads=True)
    return ws.actor.grad, objective


def soft_update(target: MlpParams, online: MlpParams, tau: float, scratch: np.ndarray) -> None:
    """target <- (1 - tau) target + tau online, over the flat vectors;
    ``scratch`` is a 1-D array at least as long as them."""
    step = np.multiply(online.flat, tau, out=scratch[: online.flat.size])
    target.flat *= 1.0 - tau
    target.flat += step


class TrainWorkspace:
    """Every batch-sized array one ``train_step`` writes; see the module
    docstring for the rule.

    Besides the two networks' buffers: ``sample`` receives whole replay
    rows (one take; see ``ReplayBuffer``), ``targets`` the TD targets,
    ``err`` the TD errors, ``dlogits`` the actor's output gradient; ``vec``
    is (batch,) scratch, and ``scratch`` serves Adam and the soft update.
    All take the params' dtype. ``zeros`` and the bool ``mask`` are the ReLU
    blocks both networks' buffers view (see ``MlpBuffers``).
    """

    def __init__(self, batch: int, actor: MlpParams, critic: MlpParams):
        obs_dim, act_dim, dtype = actor.widths[0], actor.widths[-1], actor.flat.dtype
        widest = max((*actor.widths[1:-1], *critic.widths[1:-1]), default=0)
        self.zeros = np.zeros(batch * (widest + 1), dtype)
        self.mask = np.empty(self.zeros.size, bool)
        self.actor = MlpBuffers(actor, batch, self.zeros, self.mask)
        self.critic = MlpBuffers(critic, batch, self.zeros, self.mask)
        self.sample = np.empty((batch, 2 * obs_dim + act_dim + 2), dtype)
        self.targets = np.empty(batch, dtype)
        self.err = np.empty(batch, dtype)
        self.vec = np.empty(batch, dtype)
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
        logits = _act_logits(self.actor, observations)
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
        c_grad, c_loss = critic_loss_grads(self.critic, obs, act, targets, ws)
        self._require_finite(c_loss, "critic loss")
        self._require_finite(c_grad, "critic gradient")
        self.critic_opt.step(self.critic.flat, c_grad, cfg.critic_lr, ws.scratch)
        a_grad, a_obj = actor_objective_grads(self.actor, self.critic, obs, ws)
        self._require_finite(a_obj, "actor objective")
        self._require_finite(a_grad, "actor gradient")
        self.actor_opt.step(self.actor.flat, a_grad, cfg.actor_lr, ws.scratch)
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


class ActorPolicy:
    """Greedy wrapper around trained actor parameters."""

    def __init__(self, params: MlpParams):
        self.params = params

    @classmethod
    def from_checkpoint(cls, path) -> "ActorPolicy":
        """The actor of a checkpoint: ``actor.w0``, ``actor.b0``, ... numbered
        from 0 without a gap, each layer's input the previous one's output;
        anything else raises a ValueError naming the file."""
        arrays, _ = load_checkpoint(path)
        found = {name for name in arrays if name.startswith("actor.")}
        n = sum(name.startswith("actor.w") for name in found)
        wanted = {f"actor.{kind}{i}" for i in range(n) for kind in "wb"}
        if not n or found != wanted:
            raise ValueError(
                f"{path}: actor arrays {sorted(found)} are not actor.w0, actor.b0, ..."
                " numbered from 0 without a gap"
            )
        weights = [arrays[f"actor.w{i}"] for i in range(n)]
        try:
            params = MlpParams(weights, [arrays[f"actor.b{i}"] for i in range(n)])
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        return cls(params)

    def act(self, observations: np.ndarray) -> np.ndarray:
        return softmax(_act_logits(self.params, observations))

