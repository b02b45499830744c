"""Fitting the unary weights by cross-entropy on observed trajectories.

The model probabilities come from a fixed number of message-passing
iterations, so the map from weights to loss has a fixed computational depth
and its gradient is obtained by propagating forward-mode tangents through
every update. Interaction energies stay fixed; only the two unary weight
vectors are trained.

Near-ground-truth candidates (the ignore set) are excluded from the
normalizer of the predictive distribution by default, so the loss never
penalizes candidates that could stand in for the ground truth; the raw
(unrenormalized) reading is available behind a flag.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import (BoxDims, EnergyParams, N_FEATURES, extract_features_batch,
                     interaction_tables, EnergyTables)
from .errors import (DivergenceError, InvalidIgnoreSize, NumericalFailure,
                     check_counts)
from .geometry import Polyline
from .inference import (LbpConfig, MarginalSet, edge_potentials, lbp_pass, _lse,
                        _softmax)
from .sampler import (CandidateSet, SamplerConfig, Trajectory, derived_seed,
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
    renormalize_ignored: bool = True
    lbp: LbpConfig = field(default_factory=lambda: LbpConfig(
        max_iters=15, fixed_iterations=True))
    divergence_threshold: float = 1e10

    def __post_init__(self):
        if not self.lbp.fixed_iterations:
            raise ValueError("training requires fixed-iteration message passing")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and non-negative, got {self.lr}")
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


def _node_loss(log_marg, labels, k, renorm, d_log_marg=None):
    total = 0.0
    clipped = False
    grad = None if d_log_marg is None else np.zeros(d_log_marg.shape[0])
    for i, (gt_idx, ignore) in enumerate(labels):
        keep = np.array([a for a in range(k) if a not in ignore])
        logp = log_marg[i, gt_idx]
        dlogp = None if grad is None else d_log_marg[:, i, gt_idx].copy()
        if renorm and len(keep) < k:
            row = log_marg[i, keep]
            logp = logp - _lse(row, axis=0)
            if grad is not None:
                w = _softmax(row, axis=0)
                dlogp -= np.einsum("a,pa->p", w, d_log_marg[:, i, keep])
        if logp < LOG_CLIP:
            logp = LOG_CLIP
            clipped = True
            if dlogp is not None:
                dlogp[:] = 0.0
        total += -(1.0 / k) * logp
        if grad is not None:
            grad += -(1.0 / k) * dlogp
    return total, grad, clipped


def _edge_loss(lpb, labels, k, renorm, d_lpb=None):
    m = len(labels)
    total = 0.0
    clipped = False
    grad = None if d_lpb is None else np.zeros(d_lpb.shape[0])
    for i in range(m):
        for j in range(i + 1, m):
            gt_i, ign_i = labels[i]
            gt_j, ign_j = labels[j]
            block = lpb[i, j]
            logp = block[gt_i, gt_j]
            dlogp = None if grad is None else d_lpb[:, i, j, gt_i, gt_j].copy()
            if renorm and (ign_i or ign_j):
                keep_i = np.array([a for a in range(k) if a not in ign_i])
                keep_j = np.array([b for b in range(k) if b not in ign_j])
                sub = block[np.ix_(keep_i, keep_j)].reshape(-1)
                logp = logp - _lse(sub, axis=0)
                if grad is not None:
                    w = _softmax(sub, axis=0)
                    dsub = d_lpb[:, i, j][:, keep_i][:, :, keep_j]
                    dlogp -= np.einsum("c,pc->p", w,
                                       dsub.reshape(dsub.shape[0], -1))
            if logp < LOG_CLIP:
                logp = LOG_CLIP
                clipped = True
                if dlogp is not None:
                    dlogp[:] = 0.0
            total += -(1.0 / k ** 2) * logp
            if grad is not None:
                grad += -(1.0 / k ** 2) * dlogp
    return total, grad, clipped


def loss(tables: EnergyTables, ms: MarginalSet,
         labels: list[tuple[int, tuple[int, ...]]],
         renormalize_ignored: bool = True) -> LossReport:
    """Cross-entropy of the ground-truth assignment under the model beliefs.

    Node term per actor: -(1/K) log p(y_i = gt_i); edge term per pair:
    -(1/K^2) log p(y_i = gt_i, y_j = gt_j). Probabilities below 1e-30 are
    clipped and flagged.
    """
    k = tables.k
    node, _, clip_a = _node_loss(ms.log_marginals, labels, k, renormalize_ignored)
    edge, _, clip_b = _edge_loss(ms.log_pairwise_beliefs, labels, k,
                                 renormalize_ignored)
    return LossReport(total=node + edge, node_term=node, edge_term=edge,
                      clipped=clip_a or clip_b)


def example_candidates(example: TrainingExample,
                       sampler_cfg: SamplerConfig) -> list[CandidateSet]:
    out = []
    for i, past in enumerate(example.pasts):
        state = estimate_state(past)
        cfg = replace(sampler_cfg, seed=derived_seed(example.seed, i))
        out.append(sample_candidates(state, cfg))
    return out


def features_and_pairwise(example: TrainingExample, sampler_cfg: SamplerConfig,
                          params: EnergyParams):
    """Candidate sets, feature tensor (M, K, F) and fixed pairwise energies."""
    candidates = example_candidates(example, sampler_cfg)
    feats = extract_features_batch(candidates, example.lanes, example.ref_speeds)
    pairwise = interaction_tables(candidates, example.boxes,
                                  params.gamma, params.d_safe)
    return candidates, feats, pairwise


def _weights_to_unary(feats: np.ndarray, w_ego: np.ndarray,
                      w_actor: np.ndarray) -> np.ndarray:
    unary = feats @ w_actor
    unary[0] = feats[0] @ w_ego
    return unary


def _unary_tangents(feats: np.ndarray) -> np.ndarray:
    """d(log node potential)/d(weights), shape (2F, M, K)."""
    m, k, f = feats.shape
    dot = np.zeros((2 * f, m, k))
    for p in range(f):
        dot[p, 0] = -feats[0, :, p]
        dot[f + p, 1:] = -feats[1:, :, p]
    return dot


def example_loss(params: EnergyParams, example: TrainingExample,
                 sampler_cfg: SamplerConfig, train_cfg: TrainConfig,
                 with_gradient: bool = False) -> LossReport:
    """Loss (and optionally its weight gradient) for one example."""
    candidates, feats, pairwise = features_and_pairwise(example, sampler_cfg, params)
    labels = label_and_ignore(candidates, example.futures, train_cfg.k_ignore)
    unary = _weights_to_unary(feats, params.w_ego, params.w_actor)
    node_dot = _unary_tangents(feats) if with_gradient else None
    res = lbp_pass(-unary, edge_potentials(pairwise), train_cfg.lbp, node_dot=node_dot)
    k = unary.shape[1]
    renorm = train_cfg.renormalize_ignored
    node, gn, clip_a = _node_loss(res.log_marginals, labels, k, renorm,
                                  res.d_log_marginals)
    edge, ge, clip_b = _edge_loss(res.log_pairwise, labels, k, renorm,
                                  res.d_log_pairwise)
    grad = None
    if with_gradient:
        grad = gn + ge
        if not np.all(np.isfinite(grad)):
            raise NumericalFailure("non-finite gradient")
    return LossReport(total=node + edge, node_term=node, edge_term=edge,
                      gradient=grad, clipped=clip_a or clip_b)


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
    candidates, feats, pairwise = features_and_pairwise(example, sampler_cfg, params)
    labels = label_and_ignore(candidates, example.futures, 0)
    unary = _weights_to_unary(feats, params.w_ego, params.w_actor)
    res = lbp_pass(-unary, edge_potentials(pairwise), lbp_cfg)
    pred = np.argmax(res.log_marginals, axis=1)
    return [int(pred[i]) == gt for i, (gt, _) in enumerate(labels)]


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

        pasts, candidates, refs = [], [], []
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
            cfg = replace(sampler_cfg, seed=derived_seed(ex_seed, a))
            pasts.append(past)
            candidates.append(sample_candidates(estimate_state(past), cfg))
            refs.append(ref_speed)
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
