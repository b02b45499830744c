"""Fitting the unary weights by cross-entropy on observed trajectories.

The model probabilities come from a fixed number of message-passing
iterations, so the map from weights to loss has a fixed computational depth
and its gradient is obtained by propagating forward-mode tangents through
every update. Interaction energies stay fixed; only the two unary weight
vectors are trained.

Near-ground-truth candidates (the ignore set) are excluded from the
normalizer of the predictive distribution, so the loss never penalizes
candidates that could stand in for the ground truth; ``k_ignore = 0`` gives
plain cross-entropy.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import (BoxDims, EnergyParams, N_FEATURES,
                     extract_features_batch, interaction_tables, unary_energies)
from .errors import (DivergenceError, InvalidIgnoreSize, NumericalFailure,
                     check_counts, check_weights)
from .geometry import Polyline
from .inference import (LbpConfig, MarginalSet, edge_potentials, lbp_pass, _lse,
                        _softmax)
from .sampler import (CandidateSet, SamplerConfig, Trajectory, derived_seeds,
                      estimate_state, nearest_candidates, sample_candidates)

LOG_CLIP = math.log(1e-30)


@dataclass
class TrainingExample:
    """Observed scene: per-actor history, ground-truth future and lane context.

    Index 0 is the ego. ``seed`` drives candidate sampling so an example
    always reproduces the same candidate sets.
    """

    pasts: list[Trajectory]
    futures: list[Trajectory]
    lanes: list[Polyline]
    ref_speeds: list[float]
    boxes: list[BoxDims]
    seed: int

    def to_dict(self) -> dict:
        return {
            "pasts": [t.to_dict() for t in self.pasts],
            "futures": [t.to_dict() for t in self.futures],
            "lanes": [lane.points.tolist() for lane in self.lanes],
            "ref_speeds": list(self.ref_speeds),
            "boxes": [list(b) for b in self.boxes],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingExample":
        return cls(
            pasts=[Trajectory.from_dict(t) for t in data["pasts"]],
            futures=[Trajectory.from_dict(t) for t in data["futures"]],
            lanes=[Polyline(p) for p in data["lanes"]],
            ref_speeds=list(data["ref_speeds"]),
            boxes=[BoxDims(*b) for b in data["boxes"]],
            seed=data["seed"],
        )


@dataclass
class LossReport:
    total: float
    node_term: float
    edge_term: float
    gradient: np.ndarray | None = None     # (2F,): d/dw_ego then d/dw_actor
    clipped: bool = False


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 40
    k_ignore: int = 2
    lbp: LbpConfig = field(default_factory=lambda: LbpConfig(
        max_iters=15, fixed_iterations=True))
    divergence_threshold: float = 1e10

    def __post_init__(self):
        if not self.lbp.fixed_iterations:
            raise ValueError("training requires fixed-iteration message passing")
        check_weights(lr=self.lr)
        check_counts(epochs=self.epochs)
        check_counts(0, k_ignore=self.k_ignore)
        if math.isnan(self.divergence_threshold):
            raise ValueError("divergence_threshold must not be NaN")


def label_and_ignore(candidates: list[CandidateSet],
                     gt: list[Trajectory],
                     k_ignore: int) -> list[tuple[int, tuple[int, ...]]]:
    """Ground-truth candidate index and ignore set per actor.

    The ignore set holds the k_ignore non-ground-truth candidates closest to
    the ground truth; ties resolve toward the lower index.
    """
    labels = []
    for cands, target in zip(candidates, gt):
        if k_ignore >= len(cands):
            raise InvalidIgnoreSize(
                f"k_ignore {k_ignore} must be < K = {len(cands)}")
        order = nearest_candidates(cands, target)[0].tolist()
        labels.append((order[0], tuple(order[1:k_ignore + 1])))
    return labels


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis one term after another, as a running total does
    (np.sum groups terms pairwise); 0 over no terms."""
    return np.cumsum(terms, axis=-1)[..., -1:].sum(axis=-1)


def _cross_entropy(log_p, gt, dropped, scale, d_log_p=None):
    """Summed -scale * log p(gt) over the R rows of log probabilities (R, C).

    A row with a dropped column is renormalized over its kept columns.
    Probabilities below 1e-30 are clipped to it, and a clipped row gets a
    zero tangent. With tangents ``d_log_p`` (P, R, C) the tangent of the sum
    (P,) comes back too. Returns (total, tangent or None, any row clipped).
    """
    rows = np.arange(len(gt))
    logp = log_p[rows, gt]
    renorm = dropped.any(axis=1)
    kept = np.where(dropped[renorm], -np.inf, log_p[renorm])
    logp[renorm] -= _lse(kept, axis=1)
    clipped = logp < LOG_CLIP
    logp[clipped] = LOG_CLIP
    total = _sum_in_order(-scale * logp)
    if d_log_p is None:
        return total, None, bool(clipped.any())
    dlogp = d_log_p[:, rows, gt]
    dlogp[:, renorm] -= np.einsum("rc,prc->pr", _softmax(kept, axis=1),
                                  d_log_p[:, renorm])
    dlogp[:, clipped] = 0.0
    return total, _sum_in_order(-scale * dlogp), bool(clipped.any())


def loss(ms: MarginalSet, labels: list[tuple[int, tuple[int, ...]]]) -> LossReport:
    """Cross-entropy of the ground-truth assignment under the beliefs ``ms``,
    with the weight gradient when ``ms`` carries tangents.

    Node term per actor: -(1/K) log p(y_i = gt_i); edge term per unordered
    pair: -(1/K^2) log p(y_i = gt_i, y_j = gt_j). A term whose labels ignore
    candidates is renormalized over the rest. Probabilities below 1e-30 are
    clipped and flagged. The edge rows are the pairs i < j in row-major
    order, each (K, K) block flattened with target gt_i K + gt_j.
    """
    m, k = ms.log_marginals.shape
    gt = np.array([g for g, _ in labels], dtype=int)
    dropped = np.zeros((m, k), dtype=bool)             # the ignore sets
    for row, (_, ignore) in enumerate(labels):
        dropped[row, list(ignore)] = True
    node, g_node, clip_node = _cross_entropy(ms.log_marginals, gt, dropped, 1.0 / k,
                                             ms.d_log_marginals)
    i, j = np.triu_indices(m, 1)

    def pair_rows(a):
        return a[..., i, j, :, :].reshape(a.shape[:-4] + (len(i), k * k))

    d_lpb = ms.d_log_pairwise_beliefs
    edge, g_edge, clip_edge = _cross_entropy(
        pair_rows(ms.log_pairwise_beliefs), gt[i] * k + gt[j],
        (dropped[i, :, None] | dropped[j, None, :]).reshape(len(i), k * k),
        1.0 / k ** 2, None if d_lpb is None else pair_rows(d_lpb))
    return LossReport(total=float(node + edge), node_term=float(node),
                      edge_term=float(edge),
                      gradient=None if g_node is None else g_node + g_edge,
                      clipped=clip_node or clip_edge)


def example_candidates(pasts: list[Trajectory], seed: int,
                       sampler_cfg: SamplerConfig) -> list[CandidateSet]:
    """Candidate sets of the vehicles with these pasts; vehicle i samples with
    seed ``derived_seed(seed, i)``."""
    seeds = derived_seeds((seed,), len(pasts)).tolist()
    return [sample_candidates(estimate_state(past), replace(sampler_cfg, seed=s))
            for past, s in zip(pasts, seeds)]


def _unary_tangents(feats: np.ndarray) -> np.ndarray:
    """d(log node potential)/d(weights), shape (2F, M, K)."""
    m, k, f = feats.shape
    dot = np.zeros((2 * f, m, k))
    dot[:f, 0] = -feats[0].T
    dot[f:, 1:] = -feats[1:].transpose(2, 0, 1)
    return dot


def _beliefs(params: EnergyParams, example: TrainingExample,
             sampler_cfg: SamplerConfig, k_ignore: int, lbp_cfg: LbpConfig,
             with_gradient: bool = False):
    """Labels of an example and the message-passing result under ``params``,
    with tangents in the 2F weight directions when ``with_gradient``."""
    candidates = example_candidates(example.pasts, example.seed, sampler_cfg)
    feats = extract_features_batch(candidates, example.lanes, example.ref_speeds)
    pairwise = interaction_tables(candidates, example.boxes,
                                  params.gamma, params.d_safe)
    labels = label_and_ignore(candidates, example.futures, k_ignore)
    node_dot = _unary_tangents(feats) if with_gradient else None
    return labels, lbp_pass(-unary_energies(feats, params),
                            edge_potentials(pairwise), lbp_cfg, node_dot=node_dot)


def example_loss(params: EnergyParams, example: TrainingExample,
                 sampler_cfg: SamplerConfig, train_cfg: TrainConfig,
                 with_gradient: bool = False) -> LossReport:
    """Loss (and optionally its weight gradient) for one example."""
    labels, res = _beliefs(params, example, sampler_cfg, train_cfg.k_ignore,
                           train_cfg.lbp, with_gradient)
    report = loss(res, labels)
    if with_gradient and not np.all(np.isfinite(report.gradient)):
        raise NumericalFailure("non-finite gradient")
    return report


def batch_loss(params: EnergyParams, batch: list[TrainingExample],
               sampler_cfg: SamplerConfig, train_cfg: TrainConfig) -> float:
    if not batch:
        raise ValueError("batch must be non-empty")
    return float(np.mean([
        example_loss(params, ex, sampler_cfg, train_cfg).total for ex in batch]))


def gradient(params: EnergyParams, batch: list[TrainingExample],
             sampler_cfg: SamplerConfig, train_cfg: TrainConfig) -> np.ndarray:
    """Gradient of the mean loss w.r.t. (w_ego, w_actor), shape (2F,)."""
    if not batch:
        raise ValueError("batch must be non-empty")
    grads = [example_loss(params, ex, sampler_cfg, train_cfg,
                          with_gradient=True).gradient for ex in batch]
    out = np.mean(grads, axis=0)
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("non-finite gradient")
    return out


def train(params0: EnergyParams, dataset: list[TrainingExample],
          sampler_cfg: SamplerConfig,
          train_cfg: TrainConfig = TrainConfig()) -> tuple[EnergyParams, list[float]]:
    """Plain gradient descent on the unary weights; returns per-epoch loss."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    params = params0
    curve: list[float] = []
    f = N_FEATURES
    for _ in range(train_cfg.epochs):
        try:
            reports = [example_loss(params, ex, sampler_cfg, train_cfg,
                                    with_gradient=True) for ex in dataset]
        except NumericalFailure as exc:
            raise DivergenceError(f"training diverged: {exc}")
        mean_loss = float(np.mean([r.total for r in reports]))
        curve.append(mean_loss)
        if mean_loss > train_cfg.divergence_threshold:
            raise DivergenceError(f"loss {mean_loss} exceeded threshold")
        grad = np.mean([r.gradient for r in reports], axis=0)
        w_ego = params.w_ego - train_cfg.lr * grad[:f]
        w_actor = params.w_actor - train_cfg.lr * grad[f:]
        if not (np.all(np.isfinite(w_ego)) and np.all(np.isfinite(w_actor))):
            raise DivergenceError("weights became non-finite")
        params = replace(params, w_ego=w_ego, w_actor=w_actor)
    return params, curve


def predict_top1(params: EnergyParams, example: TrainingExample,
                 sampler_cfg: SamplerConfig, lbp_cfg: LbpConfig) -> list[bool]:
    """Whether the most probable candidate equals the ground-truth one, per actor."""
    labels, res = _beliefs(params, example, sampler_cfg, 0, lbp_cfg)
    pred = np.argmax(res.log_marginals, axis=1)
    return [int(p) == gt for p, (gt, _) in zip(pred, labels)]


def synthetic_dataset(n_examples: int, seed: int, sampler_cfg: SamplerConfig,
                      n_actors: int = 2) -> list[TrainingExample]:
    """Scenes whose ground-truth future is the candidate that best follows the
    assigned lane at the reference speed (minimal lateral offset plus terminal
    speed deviation)."""
    # Vehicle a starts 15 + 45 a + U(0, 10) m along the lane. The lane ends
    # 70 m past the latest start, beyond the 52.5 m a default horizon covers
    # at v_max, so no start is clamped to the lane's end.
    lane_length = max(140.0, 45.0 * n_actors + 50.0)
    examples = []
    for idx in range(n_examples):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), idx]))
        phi = rng.uniform(-math.pi, math.pi)
        direction = np.array([math.cos(phi), math.sin(phi)])
        normal = np.array([-math.sin(phi), math.cos(phi)])
        origin = rng.uniform(-20.0, 20.0, size=2)
        lane = Polyline([origin, origin + lane_length * direction])
        ex_seed = int(rng.integers(0, 2 ** 31))

        pasts, refs = [], []
        for a in range(n_actors):
            s0 = 15.0 + 45.0 * a + rng.uniform(0.0, 10.0)
            lateral = rng.normal(0.0, 0.6)
            speed = rng.uniform(3.0, 10.0)
            heading = phi + rng.normal(0.0, 0.15)
            ref_speed = rng.uniform(4.0, 9.0)
            pos = lane.point_at(s0) + lateral * normal
            step = speed * sampler_cfg.dt * np.array([math.cos(heading), math.sin(heading)])
            past_pos = np.stack([pos - k * step for k in range(3, -1, -1)])
            poses = np.column_stack([past_pos, np.full(4, heading)])
            past = Trajectory(start_time=-3 * sampler_cfg.dt, dt=sampler_cfg.dt,
                              poses=poses, speeds=np.full(4, speed))
            pasts.append(past)
            refs.append(ref_speed)
        candidates = example_candidates(pasts, ex_seed, sampler_cfg)
        lanes = [lane] * n_actors
        feats = extract_features_batch(candidates, lanes, refs)
        gt_idx = np.argmin(feats[..., 1] + feats[..., 4], axis=1)
        examples.append(TrainingExample(
            pasts=pasts, futures=[c[int(g)] for c, g in zip(candidates, gt_idx)],
            lanes=lanes, ref_speeds=refs, boxes=[BoxDims(2.25, 0.9)] * n_actors,
            seed=ex_seed))
    return examples


def save_dataset(examples: list[TrainingExample], path) -> None:
    """One JSON record per line."""
    with open(path, "w") as fh:
        for ex in examples:
            fh.write(json.dumps(ex.to_dict(), sort_keys=True) + "\n")


def load_dataset(path) -> list[TrainingExample]:
    examples = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                examples.append(TrainingExample.from_dict(json.loads(line)))
    return examples
