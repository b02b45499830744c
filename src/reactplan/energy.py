"""Energy terms of the joint model and construction of the full tables.

Unary (per actor-candidate) energies are linear in six hand-crafted
kinematic/lane features. Pairwise interaction energies combine a binary
collision cost with an asymmetric speed-scaled safety-distance penalty. Both
interaction terms are evaluated over future waypoints only (index >= 1; the
first waypoint anchors the present).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, HorizonMismatch
from .geometry import (OrientedBox, Polyline, boxes_overlap, boxes_overlap_grid,
                       point_to_box_distance, point_to_box_distance_grid,
                       wrap_angle)
from .sampler import Trajectory

FEATURE_NAMES = (
    "progress",            # arclength gained along the assigned lane, m
    "lateral_offset",      # mean projected distance to the lane, m
    "accel_sq",            # mean squared longitudinal acceleration, m^2/s^4
    "curvature_sq",        # mean squared heading change per meter, rad^2/m^2
    "speed_deviation",     # |terminal speed - reference speed|, m/s
    "heading_alignment",   # mean |heading - lane tangent|, rad
)
N_FEATURES = len(FEATURE_NAMES)


class BoxDims(NamedTuple):
    half_length: float
    half_width: float


def _default_ego_weights() -> np.ndarray:
    # progress, lateral, accel^2, curvature^2, speed dev, alignment
    # Mild shape preferences only: the ego is steered by goal energy, so its
    # route lane must not pin it down.
    return np.array([-0.05, 0.2, 0.02, 3.0, 0.15, 0.3])


def _default_actor_weights() -> np.ndarray:
    # Strong lane-keeping prior: predicted concessions should be
    # longitudinal (braking is cheap, swerving is expensive), matching how
    # the simulated actors actually behave. The quadratic acceleration
    # penalty leaves gentle speed adjustments likely while pricing forced
    # hard braking steeply.
    return np.array([-0.05, 2.0, 0.25, 8.0, 0.15, 1.0])


@dataclass(frozen=True)
class EnergyParams:
    """All scalar parameters of the energy model.

    The ego uses its own unary weight vector; interaction terms are not
    learnable. lambda_b, lambda_c and w_goal only enter the planning
    objectives, never the probability model.
    """

    w_ego: np.ndarray = field(default_factory=_default_ego_weights)
    w_actor: np.ndarray = field(default_factory=_default_actor_weights)
    gamma: float = 100.0
    d_safe: float = 4.0
    lambda_b: float = 1.0
    lambda_c: float = 2.0
    w_goal: float = 1.0

    def __post_init__(self):
        w_ego = np.asarray(self.w_ego, dtype=float)
        w_actor = np.asarray(self.w_actor, dtype=float)
        if not (np.all(np.isfinite(w_ego)) and np.all(np.isfinite(w_actor))):
            raise ValueError("weights must be finite")
        if self.gamma <= 0 or self.d_safe <= 0:
            raise ValueError("gamma and d_safe must be positive")
        if self.lambda_b < 0 or self.lambda_c < 0 or self.w_goal < 0:
            raise ValueError("planning weights must be non-negative")
        object.__setattr__(self, "w_ego", w_ego)
        object.__setattr__(self, "w_actor", w_actor)

    def to_dict(self) -> dict:
        return {
            "w_ego": self.w_ego.tolist(), "w_actor": self.w_actor.tolist(),
            "gamma": self.gamma, "d_safe": self.d_safe,
            "lambda_b": self.lambda_b, "lambda_c": self.lambda_c,
            "w_goal": self.w_goal,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyParams":
        return cls(w_ego=np.asarray(data["w_ego"], dtype=float),
                   w_actor=np.asarray(data["w_actor"], dtype=float),
                   gamma=data["gamma"], d_safe=data["d_safe"],
                   lambda_b=data["lambda_b"], lambda_c=data["lambda_c"],
                   w_goal=data["w_goal"])


@dataclass(frozen=True)
class EnergyTables:
    """Dense energies for one scene: actor 0 is the ego.

    unary:    (N+1, K)
    pairwise: (N+1, N+1, K, K), zero diagonal blocks
    goal:     (K,) goal energies for the ego candidates
    """

    unary: np.ndarray
    pairwise: np.ndarray
    goal: np.ndarray

    def __post_init__(self):
        unary = np.asarray(self.unary, dtype=float)
        pairwise = np.asarray(self.pairwise, dtype=float)
        goal = np.asarray(self.goal, dtype=float)
        m, k = unary.shape
        if pairwise.shape != (m, m, k, k):
            raise ValueError("pairwise must have shape (N+1, N+1, K, K)")
        if goal.shape != (k,):
            raise ValueError("goal must have shape (K,)")
        if not (np.all(np.isfinite(unary)) and np.all(np.isfinite(pairwise))
                and np.all(np.isfinite(goal))):
            raise ValueError("energy tables must be finite")
        if any(np.any(pairwise[i, i] != 0.0) for i in range(m)):
            raise ValueError("diagonal pairwise blocks must be zero")
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "pairwise", pairwise)
        object.__setattr__(self, "goal", goal)

    @property
    def n_actors(self) -> int:
        """Number of non-ego actors."""
        return self.unary.shape[0] - 1

    @property
    def k(self) -> int:
        return self.unary.shape[1]

    def dump_json(self, path) -> None:
        """Flat row-major dump: unary[i][a], pairwise[i][j][a][b], goal[a]."""
        payload = {
            "n_actors": self.n_actors, "k": self.k,
            "unary": self.unary.ravel().tolist(),
            "pairwise": self.pairwise.ravel().tolist(),
            "goal": self.goal.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load_json(cls, path) -> "EnergyTables":
        with open(path) as fh:
            data = json.load(fh)
        m = data["n_actors"] + 1
        k = data["k"]
        return cls(unary=np.asarray(data["unary"]).reshape(m, k),
                   pairwise=np.asarray(data["pairwise"]).reshape(m, m, k, k),
                   goal=np.asarray(data["goal"]))


def _check_horizons(a: Trajectory, b: Trajectory) -> None:
    if len(a) != len(b) or a.dt != b.dt:
        raise HorizonMismatch("trajectories must share horizon and dt")


def extract_features_batch(trajectories: Sequence[Trajectory], lane: Polyline,
                           ref_speed: float) -> np.ndarray:
    """Feature matrix (K, 6) for candidates sharing one horizon."""
    k = len(trajectories)
    T = len(trajectories[0])
    pos = np.stack([t.positions for t in trajectories])        # (K, T, 2)
    heads = np.stack([t.headings for t in trajectories])       # (K, T)
    speeds = np.stack([t.speeds for t in trajectories])        # (K, T)
    dt = trajectories[0].dt

    dist, arclen = lane.project_many(pos.reshape(-1, 2))
    dist = dist.reshape(k, T)
    arclen = arclen.reshape(k, T)
    tangents = lane.tangent_at(arclen.reshape(-1)).reshape(k, T)

    progress = arclen[:, -1] - arclen[:, 0]
    lateral = dist[:, 1:].mean(axis=1) if T > 1 else dist[:, 0]
    accel = np.diff(speeds, axis=1) / dt
    accel_sq = (accel ** 2).mean(axis=1) if T > 1 else np.zeros(k)
    dheads = wrap_angle(np.diff(heads, axis=1))
    step_len = np.hypot(*(np.diff(pos, axis=1).transpose(2, 0, 1)))
    curv = np.where(step_len > 1e-6, dheads / np.maximum(step_len, 1e-6), 0.0)
    curv_sq = (curv ** 2).mean(axis=1) if T > 1 else np.zeros(k)
    speed_dev = np.abs(speeds[:, -1] - ref_speed)
    align_slice = slice(1, None) if T > 1 else slice(None)
    alignment = np.abs(wrap_angle(heads[:, align_slice] - tangents[:, align_slice])).mean(axis=1)

    return np.stack([progress, lateral, accel_sq, curv_sq, speed_dev, alignment], axis=1)


def extract_features(traj: Trajectory, lane: Polyline, ref_speed: float) -> np.ndarray:
    """Feature vector (6,) for one candidate; see FEATURE_NAMES."""
    return extract_features_batch([traj], lane, ref_speed)[0]


def unary_energy(features: np.ndarray, params: EnergyParams, is_ego: bool) -> float:
    """Dot product of features with the ego or actor weight vector."""
    features = np.asarray(features, dtype=float)
    weights = params.w_ego if is_ego else params.w_actor
    if features.shape != weights.shape:
        raise DimensionMismatch(
            f"feature length {features.shape} does not match weights {weights.shape}")
    return float(features @ weights)


def _waypoint_box(traj: Trajectory, dims: BoxDims, t: int) -> OrientedBox:
    from .geometry import Pose2
    p = traj.poses[t]
    return OrientedBox(center=Pose2(p[0], p[1], p[2]),
                       half_length=dims.half_length, half_width=dims.half_width)


def collision_energy(ti: Trajectory, dims_i: BoxDims, tj: Trajectory,
                     dims_j: BoxDims, gamma: float) -> float:
    """gamma if the two boxes overlap at any future waypoint, else 0."""
    _check_horizons(ti, tj)
    for t in range(1, len(ti)):
        if boxes_overlap(_waypoint_box(ti, dims_i, t), _waypoint_box(tj, dims_j, t)):
            return float(gamma)
    return 0.0


def safety_energy(ti: Trajectory, tj: Trajectory, dims_j: BoxDims,
                  d_safe: float) -> float:
    """Speed-scaled squared penalty for entering the safety distance.

    Sums speed_i(t) * max(0, d_safe - dist(center_i(t), box_j(t)))^2 over
    future waypoints; asymmetric in (i, j) by construction.
    """
    _check_horizons(ti, tj)
    total = 0.0
    for t in range(1, len(ti)):
        d = point_to_box_distance(ti.positions[t], _waypoint_box(tj, dims_j, t))
        violation = max(0.0, d_safe - d)
        total += ti.speeds[t] * violation * violation
    return total


def goal_energy_batch(trajectories: Sequence[Trajectory], goal) -> np.ndarray:
    """Goal energies (K,): final-point distance for a point goal, mean
    projected distance over future waypoints for a lane goal."""
    if isinstance(goal, Polyline):
        out = np.empty(len(trajectories))
        for i, traj in enumerate(trajectories):
            pts = traj.positions[1:] if len(traj) > 1 else traj.positions
            dist, _ = goal.project_many(pts)
            out[i] = dist.mean()
        return out
    goal_pt = np.asarray(goal, dtype=float)
    finals = np.stack([t.positions[-1] for t in trajectories])
    return np.hypot(finals[:, 0] - goal_pt[0], finals[:, 1] - goal_pt[1])


def goal_energy(traj: Trajectory, goal) -> float:
    return float(goal_energy_batch([traj], goal)[0])


def _validate_candidate_grid(candidates: Sequence[Sequence[Trajectory]]) -> int:
    k = len(candidates[0])
    ref = candidates[0][0]
    for cands in candidates:
        if len(cands) != k:
            raise ValueError("every actor needs the same candidate count")
        for c in cands:
            _check_horizons(ref, c)
    return k


# Pairs per grid call in interaction_tables. The SAT grid of one pair holds
# K*K*(T-1)*8 floats, so this bounds peak memory, not just speed.
PAIR_BATCH = 8


def _reach_pairs(fut_pos: np.ndarray, boxes: Sequence[BoxDims],
                 d_safe: float) -> np.ndarray:
    """Unordered pairs (i < j), shape (P, 2), that can have non-zero energy,
    from future candidate centres ``fut_pos`` of shape (M, K, T-1, 2).

    A pair is dropped when the axis-aligned bounding boxes of the two actors'
    future candidate centres are at least d_safe + r_i + r_j apart (r is the
    box circumradius, plus 1e-6 against rounding). Collision then needs centres
    within r_i + r_j, and safety in either direction centres closer than
    d_safe + r_j, so both energies are exactly zero.
    """
    fut = fut_pos.reshape(len(fut_pos), -1, 2)
    lo, hi = fut.min(axis=1), fut.max(axis=1)                   # (M, 2)
    gap = np.maximum(0.0, np.maximum(lo[None] - hi[:, None],
                                     lo[:, None] - hi[None]))   # (M, M, 2)
    radius = np.array([math.hypot(*b) for b in boxes])
    reach = d_safe + radius[:, None] + radius[None, :] + 1e-6
    near = np.hypot(gap[..., 0], gap[..., 1]) < reach
    return np.argwhere(np.triu(near, 1))


def _batched_dims(boxes: Sequence[BoxDims], idx: np.ndarray, ndim: int):
    """Half extents of actors ``idx``, each shaped (P,) + (1,) * (ndim - 1)."""
    dims = np.array([boxes[x] for x in idx]).T
    return dims.reshape((2, len(idx)) + (1,) * (ndim - 1))


def interaction_tables(candidates: Sequence[Sequence[Trajectory]],
                       boxes: Sequence[BoxDims],
                       gamma: float, d_safe: float) -> np.ndarray:
    """Pairwise tensor (N+1, N+1, K, K) of collision plus safety energies.

    The collision part is filled symmetrically under (i, a, j, b) <->
    (j, b, i, a); the safety part is evaluated per ordered pair and is
    generally asymmetric. Pairs that cannot come within reach of each other
    (see ``_reach_pairs``) keep exact zero blocks; the others are evaluated
    PAIR_BATCH pairs per grid call.
    """
    m = len(candidates)
    k = _validate_candidate_grid(candidates)
    pos = np.stack([np.stack([c.positions for c in cands]) for cands in candidates])
    heads = np.stack([np.stack([c.headings for c in cands]) for cands in candidates])
    speeds = np.stack([np.stack([c.speeds for c in cands]) for cands in candidates])

    pairwise = np.zeros((m, m, k, k))
    pos, heads, speeds = pos[:, :, 1:], heads[:, :, 1:], speeds[:, :, 1:]
    pairs = _reach_pairs(pos, boxes, d_safe)
    for start in range(0, len(pairs), PAIR_BATCH):
        i, j = pairs[start:start + PAIR_BATCH].T
        hit = boxes_overlap_grid(
            pos[i][:, :, None], heads[i][:, :, None], _batched_dims(boxes, i, 5),
            pos[j][:, None], heads[j][:, None], _batched_dims(boxes, j, 5))
        coll = gamma * np.any(hit, axis=-1)
        pairwise[i, j] += coll
        pairwise[j, i] += coll.transpose(0, 2, 1)
    ordered = np.concatenate([pairs, pairs[:, ::-1]])
    for start in range(0, len(ordered), PAIR_BATCH):
        i, j = ordered[start:start + PAIR_BATCH].T
        dist = point_to_box_distance_grid(
            pos[i][:, :, None], pos[j][:, None], heads[j][:, None],
            _batched_dims(boxes, j, 4))
        pen = np.maximum(0.0, d_safe - dist)
        pairwise[i, j] += np.einsum("pat,pabt->pab", speeds[i], pen ** 2)
    return pairwise


def build_tables(candidates: Sequence[Sequence[Trajectory]],
                 boxes: Sequence[BoxDims],
                 lanes: Sequence[Polyline],
                 ref_speeds: Sequence[float],
                 goal,
                 params: EnergyParams) -> EnergyTables:
    """Assemble unary, pairwise and goal energies for one scene.

    ``candidates[i]`` are the K candidates of actor i (0 = ego), each with the
    same horizon; ``lanes[i]`` and ``ref_speeds[i]`` provide the unary feature
    context per actor.
    """
    m = len(candidates)
    if not (len(boxes) == len(lanes) == len(ref_speeds) == m):
        raise ValueError("candidates, boxes, lanes, ref_speeds must align")
    k = _validate_candidate_grid(candidates)

    unary = np.empty((m, k))
    for i, cands in enumerate(candidates):
        feats = extract_features_batch(cands, lanes[i], ref_speeds[i])
        weights = params.w_ego if i == 0 else params.w_actor
        unary[i] = feats @ weights

    pairwise = interaction_tables(candidates, boxes, params.gamma, params.d_safe)
    goal_vec = goal_energy_batch(candidates[0], goal)
    return EnergyTables(unary=unary, pairwise=pairwise, goal=goal_vec)
