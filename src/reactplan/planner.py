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
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import EnergyTables
from .errors import InvalidSetSize, check_counts, check_weights
from .inference import LbpConfig, MarginalSet, lbp, set_conditionals
from .sampler import CandidateSet, nearest_candidates

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
            if self.set_size is None:
                raise InvalidSetSize("interpolated variant needs a set_size")
            check_counts(set_size=self.set_size)
        check_weights(lambda_b=self.lambda_b, lambda_c=self.lambda_c,
                      w_goal=self.w_goal)

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
    return tables.pairwise[0, 1:] + tables.pairwise[1:, 0].transpose(0, 2, 1)


def conditioning_sets(ego_candidates: CandidateSet, set_size: int) -> np.ndarray:
    """Conditioning sets of all K candidates, shape (K, set_size): row a holds
    candidate a, then its set_size - 1 nearest other candidates by squared
    waypoint distance, ties toward the lower index."""
    k = len(ego_candidates)
    if not 1 <= set_size <= k:
        raise InvalidSetSize(f"set size {set_size} outside [1, {k}]")
    order = nearest_candidates(ego_candidates, ego_candidates)
    own = np.arange(k)[:, None]
    others = order[order != own].reshape(k, k - 1)
    return np.hstack([own, others[:, :set_size - 1]])


def score(ego_candidates: CandidateSet | None, tables: EnergyTables, ms: MarginalSet,
          cfg: PlannerConfig) -> PlanResult:
    """All K objective values of ``cfg.variant`` under the beliefs ``ms``.

    Each variant is one contraction over every candidate at once. The actor
    predictions are the unconditioned marginals (nonreactive) or
    ``set_conditionals`` over one conditioning set per candidate: the
    candidate itself (reactive) or ``conditioning_sets`` (interpolated). The
    expected actor unary is omitted where it does not depend on the
    candidate: always for nonreactive, at k = K for interpolated. A
    degenerate candidate scores an infinite interaction and no actor term.
    Only the interpolated variant reads ``ego_candidates``.
    """
    k = tables.k
    pair = ego_pair_energy(tables).transpose(1, 0, 2)            # (K_ego, N, K)
    degenerate = np.zeros(k, dtype=bool)
    if cfg.variant == "nonreactive":
        pred = ms.marginals[1:]
    else:
        members = (np.arange(k)[:, None] if cfg.variant == "reactive"
                   else np.sort(conditioning_sets(ego_candidates, cfg.set_size), axis=1))
        pred, degenerate = set_conditionals(ms, members)
    inter = cfg.lambda_b * (pred * pair).reshape(k, -1).sum(axis=1)
    actor = np.zeros(k)
    if cfg.variant == "reactive" or (cfg.variant == "interpolated" and cfg.set_size < k):
        actor = cfg.lambda_c * (pred * tables.unary[1:]).reshape(k, -1).sum(axis=1)
    inter[degenerate] = np.inf
    actor[degenerate] = 0.0
    ego = tables.unary[0].copy()
    goal = cfg.w_goal * tables.goal
    values = ego + inter + actor + goal
    return PlanResult(chosen=int(np.argmin(values)), objective_values=values,
                      ego_unary=ego, interaction=inter, actor_unary=actor,
                      goal=goal, converged=ms.converged, iters_used=ms.iters_used)


def reactive_objective(tables: EnergyTables, ms: MarginalSet, a0: int,
                       cfg: PlannerConfig) -> float:
    """Ego unary + expected interaction + expected actor unary + goal,
    with actor predictions conditioned on the evaluated ego candidate
    (infinite for a degenerate candidate)."""
    cfg = replace(cfg, variant="reactive")
    return float(score(None, tables, ms, cfg).objective_values[a0])


def nonreactive_objective(tables: EnergyTables, ms: MarginalSet, a0: int,
                          cfg: PlannerConfig) -> float:
    """Same cost terms under unconditioned actor marginals; the actor unary
    expectation is constant across ego candidates and therefore omitted."""
    cfg = replace(cfg, variant="nonreactive")
    return float(score(None, tables, ms, cfg).objective_values[a0])


def interpolated_objective(tables: EnergyTables, ms: MarginalSet, a0: int,
                           k: int, cfg: PlannerConfig,
                           ego_candidates: CandidateSet) -> float:
    """Reactive objective with set conditioning; at k = K the actor unary
    term no longer depends on the candidate and is dropped."""
    cfg = replace(cfg, variant="interpolated", set_size=k)
    return float(score(ego_candidates, tables, ms, cfg).objective_values[a0])


def plan(ego_candidates: CandidateSet, tables: EnergyTables,
         cfg: PlannerConfig) -> PlanResult:
    """One inference pass, all K candidates scored, argmin returned.

    A candidate whose conditional is degenerate (its conditioning set's ego
    mass is at most DEGENERATE_MASS in a scene with actors) gets an infinite
    objective instead of aborting the cycle; at least one candidate always
    has mass >= 1/K and stays finite. With no actors nothing is conditioned,
    so no candidate is degenerate. Beliefs from a run that stopped without
    converging are still used, with a warning.
    """
    ms = lbp(tables, cfg.lbp)
    if not ms.converged:
        logger.warning("LBP did not converge: %d iterations, final residual %.3g",
                       ms.iters_used, ms.residuals[-1])
    return score(ego_candidates, tables, ms, cfg)
