"""Every call the benchmark makes into ``streamform`` goes through this module.

The episode driver calls these names as module attributes (``sf.raycast``,
``sf.train_step``, ...), never ``streamform`` directly. The traced run wraps
them here, and an API change in the package touches this file only.
``LAYER_CALLS`` maps each adapter function to the span that times it;
``INTERNAL_CALLS`` names the package attributes the learner and the stream
avoider call internally, which the traced run wraps in place.
"""

from __future__ import annotations

import streamform
from streamform import checkpoint as _checkpoint
from streamform import ddpg as _ddpg
from streamform import stream_avoid as _stream_avoid
from streamform.apf import ApfParams, apf_cost as _apf_cost
from streamform.ddpg import (
    ActorPolicy,
    DdpgLearner,
    TrainerConfig,
    init_mlp,
    map_action,
    simplex_from_controls,
)
from streamform.dynamics import AgentState, Limits, step as _dynamics_step
from streamform.formation import (
    FormationSpec,
    TrackingWeight,
    relative_displacement,
    tracking_cost as _tracking_cost,
    tracking_error as _tracking_error,
)
from streamform.geom import Vec2
from streamform.sensing import (
    LidarConfig,
    ObstacleSet,
    detect_intervals as _detect_intervals,
    neighbor_observations as _neighbor_observations,
    raycast as _raycast,
    split_sides as _split_sides,
)
from streamform.stream_avoid import StreamAvoider, StreamParams

ACTION_DIM = _ddpg.ACTION_DIM
package_file = streamform.__file__


def neighbor_observations(positions, connection_zone):
    # no noise_std: that argument is due to be split into range and bearing
    return _neighbor_observations(positions, connection_zone)


def extended(world, centers, radii):
    return world.extended(centers, radii)


def raycast(position, heading, obstacles, cfg, rng):
    return _raycast(position, heading, obstacles, cfg, rng)


def detect_intervals(scan, d_risk):
    return _detect_intervals(scan, d_risk)


def split_sides(intervals, scan):
    return _split_sides(intervals, scan)


def stream_update(avoider, scan):
    return avoider.update(scan)


def apf_cost(side_distances, params):
    return _apf_cost(side_distances, params)


def formation_cost(z, eta, weight):
    """Tracking error of observed displacement ``z`` against offset ``eta``
    and its quadratic cost."""
    e = _tracking_error(z, eta)
    return e, _tracking_cost(e, weight)


def agent_step(state, action, dt, limits):
    """Simplex action to saturated controls, then one unicycle step."""
    return _dynamics_step(state, map_action(action, limits), dt, limits)


def learner_act(learner, observations, sigma, rng):
    return learner.act(observations, sigma, rng)


def policy_act(policy, observations):
    return policy.act(observations)


def record(learner, obs, act, rew, obs_next, done):
    learner.record(obs, act, rew, obs_next, done)


def train_step(learner, rng):
    return learner.train_step(rng)


def learner_ready(learner):
    return learner.ready()


def save_learner(learner, path):
    learner.save(path)


def load_checkpoint(path):
    """Arrays by name, as ``network_arrays`` names them, and metadata."""
    return _checkpoint.load_checkpoint(path)


def network_arrays(learner):
    return learner.network_arrays()


def save_actor(path, params):
    """Write a fresh actor as a checkpoint ``ActorPolicy`` can load."""
    arrays = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"actor.w{i}"] = w
        arrays[f"actor.b{i}"] = b
    _checkpoint.save_checkpoint(path, arrays, {"source": "perfbench"})


def load_policy(path):
    return ActorPolicy.from_checkpoint(path)


def new_actor(obs_dim, cfg, rng):
    return init_mlp([obs_dim, *cfg.hidden, ACTION_DIM], rng, cfg.actor_final_scale)


# adapter function -> span name
LAYER_CALLS = {
    "neighbor_observations": "sensing.neighbor_observations",
    "extended": "sensing.extended",
    "raycast": "sensing.raycast",
    "detect_intervals": "sensing.detect_intervals",
    "split_sides": "sensing.split_sides",
    "stream_update": "stream_avoid.update",
    "apf_cost": "apf.apf_cost",
    "formation_cost": "formation.tracking_cost",
    "agent_step": "dynamics.step",
    "learner_act": "ddpg.act",
    "policy_act": "ddpg.act",
    "record": "ddpg.record",
    "train_step": "ddpg.train_step",
    "save_learner": "checkpoint.save",
    "load_checkpoint": "checkpoint.load",
    "load_policy": "checkpoint.load",
}

# (owner, attribute, span name) for calls made inside the package
INTERNAL_CALLS = [
    (_stream_avoid, "detect_intervals", "sensing.detect_intervals"),
    (_stream_avoid, "split_sides", "sensing.split_sides"),
    (_ddpg, "compute_td_targets", "ddpg.td_targets"),
    (_ddpg, "critic_loss_grads", "ddpg.critic_loss_grads"),
    (_ddpg, "actor_objective_grads", "ddpg.actor_objective_grads"),
    (_ddpg, "soft_update", "ddpg.soft_update"),
    (_ddpg, "mlp_forward", "ddpg.mlp_forward"),
    (_ddpg, "mlp_backward", "ddpg.mlp_backward"),
    (_ddpg.Adam, "step", "ddpg.adam_step"),
    (_ddpg.ReplayBuffer, "sample", "ddpg.buffer_sample"),
]
