"""Energy terms of the joint model and construction of the full tables.

Unary (per actor-candidate) energies are linear in six hand-crafted
kinematic/lane features. Pairwise interaction energies combine a binary
collision cost with an asymmetric speed-scaled safety-distance penalty. Both
interaction terms are evaluated over future waypoints only (index >= 1; the
first waypoint anchors the present).

Most of the interaction grid is exactly zero, so the tables filter twice by
centre distance before any box geometry runs: whole actor pairs whose
candidates cannot come within reach of each other are skipped, and inside the
remaining pairs the overlap and safety kernels run only on the (candidate,
candidate, waypoint) entries whose centres are close enough for the answer to
be non-zero. Both filters are conservative, so the tables are bit-identical
to evaluating every entry.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, HorizonMismatch, check_weights
from .geometry import (Polyline, boxes_overlap_grid, point_to_box_distance_grid,
                       wrap_angle)
from .sampler import CandidateSet

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
        if w_ego.shape != (N_FEATURES,) or w_actor.shape != (N_FEATURES,):
            raise DimensionMismatch(
                f"weights must have shape ({N_FEATURES},), got {w_ego.shape} and "
                f"{w_actor.shape}")
        if not (np.all(np.isfinite(w_ego)) and np.all(np.isfinite(w_actor))):
            raise ValueError("weights must be finite")
        check_weights(True, gamma=self.gamma, d_safe=self.d_safe)
        check_weights(lambda_b=self.lambda_b, lambda_c=self.lambda_c,
                      w_goal=self.w_goal)
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


def extract_features_batch(candidates: Sequence[CandidateSet],
                           lanes: Sequence[Polyline],
                           ref_speeds: Sequence[float]) -> np.ndarray:
    """Feature tensor (M, K, 6) of M vehicles' candidate sets, vehicle i
    against ``lanes[i]`` and ``ref_speeds[i]``. The sets share K, horizon and
    dt. Each distinct lane object projects the waypoints of all its vehicles
    in one call."""
    if not len(candidates) == len(lanes) == len(ref_speeds):
        raise ValueError("candidates, lanes, ref_speeds must align")
    _shared_k(candidates)
    poses = np.stack([c.poses for c in candidates])             # (M, K, T, 3)
    speeds = np.stack([c.speeds for c in candidates])           # (M, K, T)
    pos, heads = poses[..., :2], poses[..., 2]
    T = speeds.shape[-1]
    dt = candidates[0].dt

    dist, arclen, tangents = (np.empty(speeds.shape) for _ in range(3))
    on_lane: dict[int, list[int]] = {}
    for i, lane in enumerate(lanes):
        on_lane.setdefault(id(lane), []).append(i)
    for rows in on_lane.values():
        lane = lanes[rows[0]]
        d, s = lane.project_many(pos[rows].reshape(-1, 2))
        shape = (len(rows), *speeds.shape[1:])
        dist[rows] = d.reshape(shape)
        arclen[rows] = s.reshape(shape)
        tangents[rows] = lane.tangent_at(s).reshape(shape)

    progress = arclen[..., -1] - arclen[..., 0]
    zeros = np.zeros(speeds.shape[:2])
    lateral = dist[..., 1:].mean(axis=-1) if T > 1 else dist[..., 0]
    accel = np.diff(speeds, axis=-1) / dt
    accel_sq = (accel ** 2).mean(axis=-1) if T > 1 else zeros
    dheads = wrap_angle(np.diff(heads, axis=-1))
    steps = np.diff(pos, axis=2)
    step_len = np.hypot(steps[..., 0], steps[..., 1])
    curv = np.where(step_len > 1e-6, dheads / np.maximum(step_len, 1e-6), 0.0)
    curv_sq = (curv ** 2).mean(axis=-1) if T > 1 else zeros
    speed_dev = np.abs(speeds[..., -1] - np.asarray(ref_speeds, dtype=float)[:, None])
    align_slice = slice(1, None) if T > 1 else slice(None)
    alignment = np.abs(wrap_angle(heads[..., align_slice]
                                  - tangents[..., align_slice])).mean(axis=-1)

    return np.stack([progress, lateral, accel_sq, curv_sq, speed_dev, alignment], axis=-1)


def goal_energy_batch(candidates: CandidateSet, goal) -> np.ndarray:
    """Goal energies (K,): final-point distance for a point goal, mean
    projected distance over future waypoints for a lane goal."""
    pos = candidates.positions                                   # (K, T, 2)
    if isinstance(goal, Polyline):
        if pos.shape[1] > 1:
            pos = pos[:, 1:]
        dist, _ = goal.project_many(pos.reshape(-1, 2))
        return dist.reshape(len(pos), -1).mean(axis=1)
    goal_pt = np.asarray(goal, dtype=float)
    finals = pos[:, -1]
    return np.hypot(finals[:, 0] - goal_pt[0], finals[:, 1] - goal_pt[1])


def _shared_k(candidates: Sequence[CandidateSet]) -> int:
    """The K that every vehicle's candidate set must have; the sets must also
    share their horizon T and dt."""
    ref = candidates[0]
    for cands in candidates:
        if len(cands) != len(ref):
            raise ValueError("every actor needs the same candidate count")
        if cands.speeds.shape != ref.speeds.shape or cands.dt != ref.dt:
            raise HorizonMismatch("trajectories must share horizon and dt")
    return len(ref)


# Pairs per chunk in interaction_tables. A chunk holds float grids of
# K*K*(T-1) entries per pair, so this bounds peak memory, not just speed.
PAIR_BATCH = 32


def _circumradii(boxes: Sequence[BoxDims]) -> np.ndarray:
    return np.array([math.hypot(*b) for b in boxes])


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
    radius = _circumradii(boxes)
    reach = d_safe + radius[:, None] + radius[None, :] + 1e-6
    near = np.hypot(gap[..., 0], gap[..., 1]) < reach
    return np.argwhere(np.triu(near, 1))


def _within(dist_sq: np.ndarray, reach: np.ndarray):
    """Indices (p, a, b, t) of the grid entries whose centre distance is at
    most ``reach[p]`` + 1e-6, from squared distances (P, K, K, T-1)."""
    near = dist_sq <= ((reach + 1e-6) ** 2)[:, None, None, None]
    return np.unravel_index(np.flatnonzero(near), near.shape)


def _safety_block(entries, shape, src, dst, pos, heads, speeds, dims, d_safe):
    """Safety energies (P, K, K) of the candidates of actors ``src`` (axis 1)
    against the boxes of actors ``dst`` (axis 2), evaluated only at
    ``entries`` = (p, a_src, b_dst, t) of the grid ``shape``; every other
    entry contributes exactly zero.
    """
    p, a, b, t = entries
    d, s = dst[p], src[p]
    dist = point_to_box_distance_grid(pos[s, a, t], pos[d, b, t], heads[d, b, t],
                                      dims[d].T)
    pen_sq = np.zeros(shape)
    pen_sq[p, a, b, t] = np.maximum(0.0, d_safe - dist) ** 2
    return np.einsum("pat,pabt->pab", speeds[src], pen_sq)


def interaction_tables(candidates: Sequence[CandidateSet],
                       boxes: Sequence[BoxDims],
                       gamma: float, d_safe: float) -> np.ndarray:
    """Pairwise tensor (N+1, N+1, K, K) of collision plus safety energies.

    The collision part is filled symmetrically under (i, a, j, b) <->
    (j, b, i, a); the safety part is evaluated per ordered pair and is
    generally asymmetric. Pairs that cannot come within reach of each other
    (see ``_reach_pairs``) keep exact zero blocks. The others go PAIR_BATCH
    unordered pairs at a time through one squared centre-distance grid
    (P, K, K, T-1), and each kernel runs only on the grid entries where its
    answer can be non-zero: the separating-axis test where centres are within
    r_i + r_j (boxes further apart cannot touch), the point-to-box distance
    in each direction where they are within d_safe + r_dst. The answers are
    scattered back into all-false and all-zero grids, and every kernel is
    elementwise, so the tables are bit-identical to evaluating every entry.
    """
    m = len(candidates)
    k = _shared_k(candidates)
    poses = np.stack([c.poses[:, 1:] for c in candidates])      # (M, K, T-1, 3)
    speeds = np.stack([c.speeds[:, 1:] for c in candidates])
    pos, heads = poses[..., :2], poses[..., 2]

    pairwise = np.zeros((m, m, k, k))
    if poses.shape[2] == 0:                  # no future waypoint, no energy
        return pairwise
    dims = np.array(boxes, dtype=float).reshape(m, 2)
    radius = _circumradii(boxes)
    pairs = _reach_pairs(pos, boxes, d_safe)
    args = (pos, heads, speeds, dims, d_safe)
    for start in range(0, len(pairs), PAIR_BATCH):
        i, j = pairs[start:start + PAIR_BATCH].T
        rel = pos[i][:, :, None] - pos[j][:, None]             # (P, K, K, T-1, 2)
        dist_sq = rel[..., 0] ** 2 + rel[..., 1] ** 2
        grid = dist_sq.shape
        p, a, b, t = _within(dist_sq, radius[i] + radius[j])
        ii, jj = i[p], j[p]
        touch = boxes_overlap_grid(pos[ii, a, t], heads[ii, a, t], dims[ii].T,
                                   pos[jj, b, t], heads[jj, b, t], dims[jj].T)
        hit = np.zeros(grid[:3], dtype=bool)
        hit[p[touch], a[touch], b[touch]] = True
        coll = gamma * hit
        # A waypoint further than d_safe + r_dst from the other box's centre
        # is at least d_safe from the box, so its safety penalty is zero.
        near_j = _within(dist_sq, d_safe + radius[j])
        pairwise[i, j] = coll + _safety_block(near_j, grid, i, j, *args)
        p, a, b, t = _within(dist_sq, d_safe + radius[i])
        pairwise[j, i] = (coll.transpose(0, 2, 1)
                          + _safety_block((p, b, a, t), grid, j, i, *args))
    return pairwise


def unary_energies(feats: np.ndarray, params: EnergyParams) -> np.ndarray:
    """Unary energies (M, K) of features (M, K, F): row 0 (the ego) under
    ``w_ego``, every other row under ``w_actor``."""
    unary = feats @ params.w_actor
    unary[0] = feats[0] @ params.w_ego
    return unary


def build_tables(candidates: Sequence[CandidateSet],
                 boxes: Sequence[BoxDims],
                 lanes: Sequence[Polyline],
                 ref_speeds: Sequence[float],
                 goal,
                 params: EnergyParams) -> EnergyTables:
    """Assemble unary, pairwise and goal energies for one scene.

    ``candidates[i]`` is the candidate set of actor i (0 = ego); the sets
    share K, horizon and dt (checked by ``interaction_tables``). ``lanes[i]``
    and ``ref_speeds[i]`` provide the unary feature context per actor.
    """
    if not (len(boxes) == len(lanes) == len(ref_speeds) == len(candidates)):
        raise ValueError("candidates, boxes, lanes, ref_speeds must align")
    # interaction_tables validates the candidate grid, so it runs first
    pairwise = interaction_tables(candidates, boxes, params.gamma, params.d_safe)
    feats = extract_features_batch(candidates, lanes, ref_speeds)
    unary = unary_energies(feats, params)
    goal_vec = goal_energy_batch(candidates[0], goal)
    return EnergyTables(unary=unary, pairwise=pairwise, goal=goal_vec)
