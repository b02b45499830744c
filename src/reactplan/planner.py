"""Planning objectives over the ego candidate set and argmin selection.

The reactive objective scores an ego candidate under actor predictions
conditioned on it; the non-reactive objective uses unconditioned actor
marginals; the interpolated objective conditions on the set of the k
candidates nearest the evaluated one, sweeping between the two extremes.

The ego/actor interaction term sums both stored directions of the pair
energy (ego toward actor and actor toward ego), which is the full
contribution of the ego-actor pair to the joint energy. Actor-actor
interaction costs are excluded from every objective; they remain part of the
probability model that produces the predictions.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyTables
from .errors import DegenerateCondition, InvalidSetSize
from .inference import (LbpConfig, MarginalSet, conditional_marginals, lbp,
                        set_conditional_marginals)
from .sampler import Trajectory, trajectory_l2

VARIANTS = ("reactive", "nonreactive", "interpolated")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlannerConfig:
    variant: str = "reactive"
    set_size: int | None = None            # only for the interpolated variant
    lambda_b: float = 1.0                  # ego/actor interaction weight
    lambda_c: float = 0.1                  # actor unary weight
    w_goal: float = 1.0
    lbp: LbpConfig = field(default_factory=LbpConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant == "interpolated":
            if self.set_size is None or self.set_size < 1:
                raise InvalidSetSize("interpolated variant needs set_size >= 1")

    def to_dict(self) -> dict:
        return {"variant": self.variant, "set_size": self.set_size,
                "lambda_b": self.lambda_b, "lambda_c": self.lambda_c,
                "w_goal": self.w_goal, "lbp": self.lbp.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "PlannerConfig":
        data = dict(data)
        data["lbp"] = LbpConfig.from_dict(data["lbp"])
        return cls(**data)


@dataclass
class PlanResult:
    """Argmin candidate plus the per-candidate objective breakdown.

    The four breakdown arrays are already weighted and sum to
    ``objective_values``. Candidates whose conditional prediction is
    degenerate carry an infinite objective.
    """

    chosen: int
    objective_values: np.ndarray
    ego_unary: np.ndarray
    interaction: np.ndarray
    actor_unary: np.ndarray
    goal: np.ndarray
    converged: bool
    iters_used: int

    def to_dict(self) -> dict:
        def _clean(arr):
            return [v if np.isfinite(v) else None for v in arr.tolist()]
        return {
            "chosen": self.chosen,
            "objective_values": _clean(self.objective_values),
            "breakdown": {
                "ego_unary": _clean(self.ego_unary),
                "interaction": _clean(self.interaction),
                "actor_unary": _clean(self.actor_unary),
                "goal": _clean(self.goal),
            },
            "converged": self.converged,
            "iters_used": self.iters_used,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)


def ego_pair_energy(tables: EnergyTables) -> np.ndarray:
    """Both-direction ego/actor pair energies, shape (N, K_ego, K_actor)."""
    n = tables.n_actors
    if n == 0:
        return np.zeros((0, tables.k, tables.k))
    return tables.pairwise[0, 1:] + tables.pairwise[1:, 0].transpose(0, 2, 1)


def _terms(tables: EnergyTables, prediction: np.ndarray, a0: int,
           cfg: PlannerConfig, include_actor_unary: bool):
    pair = ego_pair_energy(tables)
    inter = cfg.lambda_b * float(np.sum(prediction * pair[:, a0, :]))
    actor = 0.0
    if include_actor_unary:
        actor = cfg.lambda_c * float(np.sum(prediction * tables.unary[1:]))
    ego = float(tables.unary[0, a0])
    goal = cfg.w_goal * float(tables.goal[a0])
    return ego, inter, actor, goal


def reactive_objective(tables: EnergyTables, ms: MarginalSet, a0: int,
                       cfg: PlannerConfig) -> float:
    """Ego unary + expected interaction + expected actor unary + goal,
    with actor predictions conditioned on the evaluated ego candidate."""
    q = conditional_marginals(ms, a0)
    ego, inter, actor, goal = _terms(tables, q, a0, cfg, include_actor_unary=True)
    return ego + inter + actor + goal


def nonreactive_objective(tables: EnergyTables, ms: MarginalSet, a0: int,
                          cfg: PlannerConfig) -> float:
    """Same cost terms under unconditioned actor marginals; the actor unary
    expectation is constant across ego candidates and therefore omitted."""
    p = ms.marginals[1:]
    ego, inter, _, goal = _terms(tables, p, a0, cfg, include_actor_unary=False)
    return ego + inter + goal


def conditioning_set(ego_candidates: list[Trajectory], a0: int, k: int) -> list[int]:
    """The evaluated candidate plus its k-1 nearest neighbours by squared
    waypoint distance; ties broken toward the lower index."""
    if not 1 <= k <= len(ego_candidates):
        raise InvalidSetSize(f"set size {k} outside [1, {len(ego_candidates)}]")
    target = ego_candidates[a0]
    others = [(trajectory_l2(c, target), idx)
              for idx, c in enumerate(ego_candidates) if idx != a0]
    others.sort()
    return [a0] + [idx for _, idx in others[:k - 1]]


def interpolated_objective(tables: EnergyTables, ms: MarginalSet, a0: int,
                           k: int, cfg: PlannerConfig,
                           ego_candidates: list[Trajectory]) -> float:
    """Reactive objective with set conditioning; at k = K the actor unary
    term no longer depends on the candidate and is dropped."""
    members = conditioning_set(ego_candidates, a0, k)
    q = set_conditional_marginals(ms, members)
    include_actor = k < tables.k
    ego, inter, actor, goal = _terms(tables, q, a0, cfg, include_actor_unary=include_actor)
    return ego + inter + actor + goal


def plan(ego_candidates: list[Trajectory], tables: EnergyTables,
         cfg: PlannerConfig) -> PlanResult:
    """One inference pass, all K candidates scored, argmin returned.

    A candidate whose conditional is degenerate (its own marginal mass is
    below epsilon) gets an infinite objective instead of aborting the cycle;
    at least one candidate always has mass >= 1/K and stays finite. Beliefs
    from a run that stopped without converging are still used, with a warning.
    """
    k = tables.k
    ms = lbp(tables, cfg.lbp)
    if not ms.converged:
        logger.warning("LBP did not converge: %d iterations, final residual %.3g",
                       ms.iters_used, ms.residuals[-1])
    values = np.empty(k)
    ego = np.empty(k)
    inter = np.empty(k)
    actor = np.empty(k)
    goal = np.empty(k)
    for a0 in range(k):
        try:
            if cfg.variant == "reactive":
                pred = conditional_marginals(ms, a0)
                include_actor = True
            elif cfg.variant == "nonreactive":
                pred = ms.marginals[1:]
                include_actor = False
            else:
                members = conditioning_set(ego_candidates, a0, cfg.set_size)
                pred = set_conditional_marginals(ms, members)
                include_actor = cfg.set_size < k
            e, i_, a_, g = _terms(tables, pred, a0, cfg, include_actor)
        except DegenerateCondition:
            e, g = float(tables.unary[0, a0]), cfg.w_goal * float(tables.goal[a0])
            i_, a_ = np.inf, 0.0
        ego[a0], inter[a0], actor[a0], goal[a0] = e, i_, a_, g
        values[a0] = e + i_ + a_ + g
    return PlanResult(chosen=int(np.argmin(values)), objective_values=values,
                      ego_unary=ego, interaction=inter, actor_unary=actor,
                      goal=goal, converged=ms.converged, iters_used=ms.iters_used)
