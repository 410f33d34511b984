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

Workspace rule: every preallocated block has one owner, and functions take
exactly the blocks they write. A network's ``MlpBuffers`` owns its
batch-sized blocks (the layer blocks ``fwd``, the ReLU's ``zeros`` and
``mask``); an ``Adam`` owns the parameter-sized ones (its moments and the
flat ``grad`` its ``step`` applies); ``DdpgLearner`` owns its two networks'
``MlpBuffers`` and the replay ``sample`` block. The act paths build fresh
``MlpBuffers`` for their (rows, obs_dim) observations. Vectors, (batch, 1)
and (batch, ACTION_DIM) arrays and the updates' flat vectors are ordinary
numpy temporaries. ``MlpBuffers`` is the only channel between the passes
over a network: a backward pass reads the layer inputs that the last
forward pass left in the same buffers, and writes the weight gradients into
the flat ``grad`` vector it is given. Otherwise buffers hold no state
between calls: each function overwrites what it reads before reading it,
and what it returns is valid only until the next call that is given the
same buffers.

Precision rule: the learner runs in ``DTYPE`` (float32). Buffers, gradients
and Adam moments take the parameters' dtype and the forward passes cast their
inputs to it, so every building block also runs in float64 on float64 copies.
The act paths softmax float64 logits: a float32 softmax misses the simplex by
about 1e-7, and an action must sum to one far more closely than that.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .dynamics import Limits
from .geom import _count, _finite, _real

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


@dataclass(eq=False)
class MlpParams:
    """Per-layer weights (in x out) and biases.

    Construction copies the weights and biases into one contiguous vector
    of their dtype, ``flat``, in arrays() order, so whole-network updates
    run on ``flat`` alone. ``layers[i]`` is the (in + 1, out) view of
    layer i in it; ``weights[i]`` is its first ``in`` rows and ``biases[i]``
    its last. A weight or bias that is not finite raises ValueError.
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
        for i, layer in enumerate(self.layers):
            if not np.isfinite(layer).all():
                raise ValueError(f"layer {i} holds a weight or bias that is not finite")
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
    ``zeros[i]`` (the ReLU's second operand, never written) and the bool
    ``mask[i]`` serve hidden layer i, whose input is ``fwd[i]``; both are
    None for layer 0, which has no ReLU.
    """

    def __init__(self, params: MlpParams, batch: int):
        widths, dtype = params.widths, params.flat.dtype
        self.fwd = [np.empty((batch, d + 1), dtype) for d in widths[:-1]]
        self.fwd.append(np.empty((batch, widths[-1]), dtype))
        self.inputs = self.fwd[0][:, :-1]
        hidden = [h.shape for h in self.fwd[1:-1]]
        # prefix views of one block each, sized to the largest hidden input
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


def mlp_forward(params: MlpParams, bufs: MlpBuffers) -> np.ndarray:
    """Forward pass of the rows the caller wrote into ``bufs.inputs``, into
    ``bufs.fwd``; returns the output, ``bufs.fwd[-1]``."""
    fwd, last = bufs.fwd, len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        fwd[i][:, -1] = 1.0  # the backward pass writes over it
        if i == last:
            return np.matmul(fwd[i], layer, out=fwd[i + 1])
        np.matmul(fwd[i], layer, out=fwd[i + 1][:, :-1])
        np.maximum(fwd[i + 1], bufs.zeros[i + 1], out=fwd[i + 1])


def mlp_backward(
    params: MlpParams, dout: np.ndarray, bufs: MlpBuffers, grad: np.ndarray | None
) -> np.ndarray | None:
    """Backpropagate d(loss)/d(output) through the forward pass last run in
    ``bufs``.

    Given a flat vector ``grad`` laid out like ``MlpParams.flat``, it writes
    the weight and bias gradients there and returns None; with ``grad=None``
    it returns d(loss)/d(input) only. Either mode overwrites ``bufs.fwd``, so
    one forward pass serves one backward pass.
    """
    fwd = bufs.fwd
    layer_grads = None if grad is None else _split(grad, [a.shape for a in params.layers])
    da = dout
    for i in range(len(params.layers) - 1, -1, -1):
        if layer_grads is not None:
            # the input's ones column turns the bias row into sum(da, axis=0)
            np.matmul(fwd[i].T, da, out=layer_grads[i])
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


def _reduce_columns(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1, keepdims=True)`` bit for bit, one column at
    a time: several times faster on rows as short as an action. Like numpy,
    it starts from the ufunc's identity if it has one, so ``np.add`` sums a
    row of -0.0 to 0.0."""
    start = 0 if ufunc.identity is not None else 1
    out = np.full((len(a), 1), ufunc.identity, a.dtype) if start == 0 else a[:, :1].copy()
    for j in range(start, a.shape[1]):
        ufunc(out, a[:, j : j + 1], out=out)
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the logits ``z``, in place."""
    z -= _reduce_columns(np.maximum, z)
    np.exp(z, out=z)
    z /= _reduce_columns(np.add, z)
    return z


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """d(loss)/d(logits) given d(loss)/d(probs)."""
    grad = dprobs - _reduce_columns(np.add, dprobs * probs)
    grad *= probs
    return grad


def actor_forward(params: MlpParams, obs: np.ndarray, bufs: MlpBuffers) -> np.ndarray:
    """Action on the probability simplex for each observation row; the
    observations are written into ``bufs.inputs`` and the actions overwrite
    the logits in ``bufs.fwd[-1]``."""
    bufs.inputs[...] = obs
    return softmax(mlp_forward(params, bufs))


def critic_forward(
    params: MlpParams, obs: np.ndarray, action: np.ndarray, bufs: MlpBuffers
) -> np.ndarray:
    """Scalar value of each (observation, action) row pair; the critic's
    (observation | action) input rows are built in ``bufs.inputs``."""
    d = obs.shape[1]
    bufs.inputs[:, :d] = obs
    bufs.inputs[:, d:] = action
    return mlp_forward(params, bufs)[:, 0]


def _act_logits(params: MlpParams, observations) -> np.ndarray:
    """float64 copy of the actor's logits for each row of (rows, obs_dim)
    observations, through fresh buffers sized to the rows. Any other shape
    raises ValueError, where it would be broadcast into the buffers, and so
    does a row that is not finite as the buffers hold it (1e39 is inf in
    float32), naming the first such row: it would give an all-NaN action."""
    shape = np.shape(observations)
    if shape[1:] != params.widths[:1]:
        raise ValueError(f"observations have shape {shape}, not (rows, {params.widths[0]})")
    bufs = MlpBuffers(params, shape[0])
    with np.errstate(over="ignore"):  # the overflow is what is tested for
        bufs.inputs[...] = observations
    finite = np.isfinite(bufs.inputs)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise ValueError(
            f"observation row {row} is not finite as {bufs.inputs.dtype.name}:"
            f" {np.asarray(observations)[row]}"
        )
    return mlp_forward(params, bufs).astype(np.float64)


def map_action(u_raw: np.ndarray, limits: Limits) -> tuple[float, float]:
    """Simplex action to the raw controls (accel, angular_accel) that
    ``dynamics.step`` takes: accel from the first component, turn from the
    difference of the other two. Nothing is clamped here; ``step`` saturates
    both. An action that does not hold exactly ACTION_DIM values raises
    ValueError."""
    if len(u_raw) != ACTION_DIM:
        raise ValueError(f"an action holds {ACTION_DIM} values, got {len(u_raw)}")
    a = float(u_raw[0]) * limits.a_max
    beta = (float(u_raw[1]) - float(u_raw[2])) * limits.beta_max
    return a, beta


def simplex_from_controls(accel: float, angular_accel: float, limits: Limits) -> np.ndarray:
    """Closest simplex action realizing the requested controls.

    Inverse of map_action for scripted policies; the turn component is
    clipped to the simplex budget left after the acceleration share. A
    control that is not a finite real raises ValueError naming it.
    """
    accel, angular_accel = _finite("accel", accel), _finite("angular_accel", angular_accel)
    u0 = min(max(accel / limits.a_max, 0.0), 1.0)
    budget = 1.0 - u0
    ratio = min(max(angular_accel / limits.beta_max, -budget), budget)
    u1 = 0.5 * (budget + ratio)
    u2 = 0.5 * (budget - ratio)
    return np.array([u0, u1, u2])


@dataclass(frozen=True)
class TrainerConfig:
    """What a run varies: the learner's sizes and hidden widths.

    The update rule is fixed as DDPG fixes it on every task (Lillicrap et
    al., arXiv:1509.02971): Adam rates ``critic_lr`` = 1e-3 and ``actor_lr``
    = 1e-4, discount ``gamma`` = 0.99 and the final actor layer at +-3e-3
    (``actor_final_scale``, the scale ``init_mlp`` gives the critic too);
    ``tau`` = 0.005 is TD3's (Fujimoto et al., arXiv:1802.09477). Both fix
    their exploration noise too: ``sigma_at`` anneals it from ``sigma_start``
    to ``sigma_end`` over the first ``sigma_anneal_frac`` of the episodes. A
    test pins the ranges these constants need. Each size and ``hidden`` width
    is a setting by ``geom._count``, ``buffer_capacity`` >= ``batch_size``, and
    the first field that fails raises ValueError naming it. The fields hold
    plain ints, so a config built from numpy scalars or a list hashes and
    saves like any other."""

    batch_size: int = 1024
    buffer_capacity: int = 1_000_000
    episodes: int = 30_000
    hidden: tuple[int, ...] = (64, 128, 128)
    critic_lr: ClassVar[float] = 1e-3
    actor_lr: ClassVar[float] = 1e-4
    gamma: ClassVar[float] = 0.99
    tau: ClassVar[float] = 0.005
    actor_final_scale: ClassVar[float] = 3e-3
    sigma_start: ClassVar[float] = 0.3
    sigma_end: ClassVar[float] = 0.05
    sigma_anneal_frac: ClassVar[float] = 0.5

    def __post_init__(self):
        for name in ("batch_size", "buffer_capacity", "episodes"):
            value = _count(name, getattr(self, name), zero_ok=name == "episodes")
            object.__setattr__(self, name, value)
        try:
            hidden = tuple(self.hidden)
        except TypeError:
            raise ValueError(f"hidden must be a sequence of widths, got {self.hidden!r}") from None
        hidden = tuple(_count(f"hidden[{i}]", w) for i, w in enumerate(hidden))
        object.__setattr__(self, "hidden", hidden)
        if self.buffer_capacity < self.batch_size:
            raise ValueError("buffer_capacity must be at least batch_size")

    def sigma_at(self, episode: int) -> float:
        """Linear anneal over the first sigma_anneal_frac of training;
        ``episode`` is a nonnegative setting by ``geom._count``."""
        episode = _count("episode", episode, zero_ok=True)
        horizon = max(1, int(self.episodes * self.sigma_anneal_frac))
        frac = min(1.0, episode / horizon)
        return self.sigma_start + frac * (self.sigma_end - self.sigma_start)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling.

    A transition is one row of ``rows``, ``[obs | act | rew | obs_next |
    done]``, in ``DTYPE``; ``fields`` gives the column views. One
    allocation, not five: at the default capacity (about 180 MB) it is far
    above glibc's mmap threshold (at most 32 MB), so it is mapped lazily and
    pages become resident as rows are written: 2 MB at a time where
    transparent huge pages honour numpy's huge-page advice on blocks of 4 MB
    and more, so the resident size steps by 2 MB as the rows cross each
    huge-page boundary, wherever the block's offset puts it. Per-field
    arrays of 4-12 MB could fall below a threshold raised by a freed learner
    and come from reused heap, where calloc zero-fills, and so makes
    resident, every page. ``capacity`` and ``obs_dim`` are positive
    settings by ``geom._count``.
    """

    FIELDS = ("obs", "act", "rew", "obs_next", "done")

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity = _count("capacity", capacity)
        self.obs_dim = obs_dim = _count("obs_dim", obs_dim)
        self.rows = np.zeros((capacity, 2 * obs_dim + ACTION_DIM + 2), DTYPE)
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
        """Store one transition: ``obs`` and ``obs_next`` of shape (obs_dim,),
        ``act`` of shape (ACTION_DIM,), scalar ``rew`` and a Python or numpy
        bool ``done``. A field of another shape, or that is not finite as a
        row holds it (1e39 is inf in float32), or a ``done`` that is not a
        bool, raises ValueError naming it and leaves the buffer as it was:
        one NaN sampled into a batch would turn every network weight NaN,
        and a ``done`` of 2.0 would flip the sign of the bootstrap."""
        if not isinstance(done, (bool, np.bool_)):
            raise ValueError(f"transition done must be a bool, got {done!r}")
        values = (obs, act, rew, obs_next, float(done))
        with np.errstate(over="ignore"):  # the overflow is what is tested for
            for name, view, value in zip(self.FIELDS, self._row_fields, values):
                # the views hold one row: (1, width) and (1,)
                if np.shape(value) != view.shape[1:]:
                    raise ValueError(
                        f"transition {name} has shape {np.shape(value)}, not {view.shape[1:]}"
                    )
                view[...] = value
        if not np.isfinite(self._row[:-1]).all():
            for name, view, value in zip(self.FIELDS, self._row_fields, values):
                if not np.isfinite(view).all():
                    raise ValueError(f"transition has a non-finite {name}: {value!r}")
        i = self._next
        self.rows[i] = self._row
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, out: np.ndarray):
        """Uniformly drawn rows, written into the (batch, width) array
        ``out``, as the five field views of it; ``len(out)`` is the batch."""
        batch = len(out)
        if self._size < batch:
            raise ValueError(f"buffer holds {self._size} < batch {batch}")
        idx = rng.integers(0, self._size, size=batch)
        # every index is in range, and mode="clip" lets take write straight
        # into ``out`` where the default mode would copy through a temporary
        return self.fields(np.take(self.rows, idx, axis=0, out=out, mode="clip"))


class Adam:
    """Standard Adam at rate ``lr`` on one flat parameter vector
    (``MlpParams.flat``) in its dtype: ``step`` applies ``grad``, a flat
    gradient laid out like it, in a handful of whole-vector operations."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, param: np.ndarray, lr: float):
        self.param = param
        self.lr = lr
        self.grad = np.empty_like(param)
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self.t = 0

    def step(self) -> None:
        """One in-place update of ``param`` by ``grad``."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        m, v, grad = self.m, self.v, self.grad
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        # param -= lr (m / corr1) / (sqrt(v / corr2) + eps), rounded in this order
        m *= b1
        m += grad * (1 - b1)
        v *= b2
        v += grad * (1 - b2) * grad
        s = m / corr1
        s *= self.lr
        r = v / corr2
        np.sqrt(r, out=r)
        r += self.EPS
        s /= r
        self.param -= s


def compute_td_targets(
    target_actor: MlpParams,
    target_critic: MlpParams,
    rew: np.ndarray,
    obs_next: np.ndarray,
    done: np.ndarray,
    gamma: float,
    actor_bufs: MlpBuffers,
    critic_bufs: MlpBuffers,
) -> np.ndarray:
    """y = r + gamma * Q'(o', pi'(o')), with no bootstrap past done."""
    u_next = actor_forward(target_actor, obs_next, actor_bufs)
    q_next = critic_forward(target_critic, obs_next, u_next, critic_bufs)
    y = gamma * q_next
    y *= 1.0 - done
    y += rew
    return y


def critic_loss_grads(
    params: MlpParams, obs, act, targets, bufs: MlpBuffers, grad: np.ndarray
) -> float:
    """The mean squared TD error; its flat gradient is written into ``grad``.
    The TD errors are rounded to the params' dtype, so float64 ``targets``
    give the gradient of float32 ones on a float32 critic."""
    q = critic_forward(params, obs, act, bufs)
    err = (q - targets).astype(q.dtype, copy=False)
    loss = float(np.mean(err * err))
    mlp_backward(params, 2.0 / len(err) * err[:, None], bufs, grad)
    return loss


def actor_objective_grads(
    actor: MlpParams,
    critic: MlpParams,
    obs,
    actor_bufs: MlpBuffers,
    critic_bufs: MlpBuffers,
    grad: np.ndarray,
) -> float:
    """The mean critic value (a cost, to be minimized); its flat gradient by
    the actor is written into ``grad``. Only d(Q)/d(input) is taken from the
    critic."""
    u = actor_forward(actor, obs, actor_bufs)
    objective = float(np.mean(critic_forward(critic, obs, u, critic_bufs)))
    dq = np.full((len(obs), 1), 1.0 / len(obs), critic.flat.dtype)  # d(objective)/dQ
    dx = mlp_backward(critic, dq, critic_bufs, None)
    dlogits = softmax_backward(u, dx[:, obs.shape[1] :])
    mlp_backward(actor, dlogits, actor_bufs, grad)
    return objective


def soft_update(target: MlpParams, online: MlpParams, tau: float) -> None:
    """target <- (1 - tau) target + tau online, over the flat vectors."""
    target.flat *= 1.0 - tau
    target.flat += online.flat * tau


class DdpgLearner:
    """Owns the online/target networks, replay buffer and Adam states, and
    the batch-sized blocks one ``train_step`` writes: the two networks'
    ``MlpBuffers``, ``actor_bufs`` and ``critic_bufs``, and ``sample``, which
    receives whole replay rows (one take; see ``ReplayBuffer``). ``obs_dim``
    is a positive setting by ``geom._count``."""

    def __init__(self, obs_dim: int, cfg: TrainerConfig, rng: np.random.Generator):
        obs_dim = _count("obs_dim", obs_dim)
        self.cfg = cfg
        self.actor = init_mlp([obs_dim, *cfg.hidden, ACTION_DIM], rng, cfg.actor_final_scale)
        self.critic = init_mlp([obs_dim + ACTION_DIM, *cfg.hidden, 1], rng)
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.buffer = ReplayBuffer(cfg.buffer_capacity, obs_dim)
        self.actor_opt = Adam(self.actor.flat, cfg.actor_lr)
        self.critic_opt = Adam(self.critic.flat, cfg.critic_lr)
        self.actor_bufs = MlpBuffers(self.actor, cfg.batch_size)
        self.critic_bufs = MlpBuffers(self.critic, cfg.batch_size)
        self.sample = np.empty_like(self.buffer.rows[: cfg.batch_size])
        self.train_steps = 0

    def act(self, observations: np.ndarray, sigma: float, rng: np.random.Generator):
        """The one shared policy on every follower's observation row, with
        exploration noise of scale ``sigma``, a nonnegative setting by
        ``geom._real``, added to the float64 logits."""
        sigma = _real("sigma", sigma, zero_ok=True)
        logits = _act_logits(self.actor, observations)
        if sigma > 0.0:
            logits += rng.normal(0.0, sigma, size=logits.shape)
        return softmax(logits)

    def record(self, obs, act, rew, obs_next, done: bool) -> None:
        self.buffer.add(obs, act, rew, obs_next, done)

    def ready(self) -> bool:
        return len(self.buffer) >= self.cfg.batch_size

    def train_step(self, rng: np.random.Generator) -> dict[str, float]:
        cfg, a_bufs, c_bufs = self.cfg, self.actor_bufs, self.critic_bufs
        a_opt, c_opt = self.actor_opt, self.critic_opt
        obs, act, rew, obs_next, done = self.buffer.sample(rng, self.sample)
        targets = compute_td_targets(
            self.target_actor, self.target_critic, rew, obs_next, done, cfg.gamma, a_bufs, c_bufs
        )
        c_loss = critic_loss_grads(self.critic, obs, act, targets, c_bufs, c_opt.grad)
        self._require_finite(c_loss, "critic loss")
        self._require_finite(c_opt.grad, "critic gradient")
        c_opt.step()
        a_obj = actor_objective_grads(self.actor, self.critic, obs, a_bufs, c_bufs, a_opt.grad)
        self._require_finite(a_obj, "actor objective")
        self._require_finite(a_opt.grad, "actor gradient")
        a_opt.step()
        soft_update(self.target_actor, self.actor, cfg.tau)
        soft_update(self.target_critic, self.critic, cfg.tau)
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
            "obs_dim": self.actor.widths[0],
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
        logits = _act_logits(self.params, observations)
        return softmax(logits)

