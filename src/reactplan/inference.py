"""Marginal inference on the pairwise model over candidates.

Sum-product message passing runs in the log domain with damped synchronous
updates on a fixed schedule, so a run is deterministic given tables and
config. Messages travel only between actors whose combined pairwise block
holds a non-zero energy: an identically zero block is a constant factor whose
messages are uniform, so dropping its edge changes no belief beyond rounding.
The same engine optionally propagates forward-mode tangents of the node
potentials, which is how training differentiates through the fixed number of
iterations. An exact enumeration oracle covers small instances.

Layout: each pass stores the active edges' potentials once as a contiguous
(K, E, K) array indexed (a, e, b), so the logsumexp over the sender's
candidate a reduces over the leading axis and walks contiguous rows. The
sum still adds the rows a = 0..K-1 one after another, as a reduction over
the middle axis of an (E, K, K) array does, so every message is
bit-identical to that layout's.

Conventions: node potential of actor i is exp(-unary[i]); the edge factor of
the unordered pair {i, j} combines both stored directions,
exp(-(pairwise[i, j, a, b] + pairwise[j, i, b, a])), matching the ordered
double sum in the joint energy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyTables
from .errors import (DegenerateCondition, EmptyConditioningSet,
                     NumericalFailure, StateSpaceTooLarge, check_counts,
                     check_weights)

MAX_JOINT_STATES = 10_000_000
DEGENERATE_MASS = 1e-12      # ego mass at or below which conditioning is refused


@dataclass(frozen=True)
class LbpConfig:
    max_iters: int = 50
    damping: float = 0.5
    tol: float = 1e-6
    fixed_iterations: bool = False

    def __post_init__(self):
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        check_weights(True, tol=self.tol)
        check_counts(max_iters=self.max_iters)

    def to_dict(self) -> dict:
        return {"max_iters": self.max_iters, "damping": self.damping,
                "tol": self.tol, "fixed_iterations": self.fixed_iterations}

    @classmethod
    def from_dict(cls, data: dict) -> "LbpConfig":
        return cls(**data)


@dataclass
class MarginalSet:
    """Per-actor marginals and pairwise beliefs over candidates.

    Linear-domain arrays satisfy the usual normalization; the log-domain
    copies stay meaningful even for candidates whose mass underflows.
    Diagonal pairwise blocks are unused and stored as zeros.
    """

    marginals: np.ndarray            # (N+1, K)
    pairwise_beliefs: np.ndarray     # (N+1, N+1, K, K)
    converged: bool
    iters_used: int
    log_marginals: np.ndarray
    log_pairwise_beliefs: np.ndarray
    residuals: list[float] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return self.marginals.shape[0]

    @property
    def k(self) -> int:
        return self.marginals.shape[1]


def _lse(x, axis=-1, keepdims=False):
    m = x.max(axis=axis, keepdims=True)
    out = m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def _softmax(x, axis=-1):
    return np.exp(x - _lse(x, axis=axis, keepdims=True))


def edge_potentials(pairwise: np.ndarray) -> np.ndarray:
    """Combined log edge potentials (M, M, K, K) from stored pair energies."""
    return -(pairwise + pairwise.transpose(1, 0, 3, 2))


def tables_to_potentials(tables: EnergyTables) -> tuple[np.ndarray, np.ndarray]:
    """Log node and combined log edge potentials from energy tables."""
    return -tables.unary, edge_potentials(tables.pairwise)


@dataclass
class _EngineResult:
    log_marginals: np.ndarray
    log_pairwise: np.ndarray
    converged: bool
    iters_used: int
    residuals: list[float]
    d_log_marginals: np.ndarray | None = None
    d_log_pairwise: np.ndarray | None = None


def _edge_list(log_edge: np.ndarray):
    """Directed edges (src, dst, reverse index) of the pairs whose combined
    block holds a non-zero entry, in row-major order of (src, dst)."""
    m_nodes = log_edge.shape[0]
    active = np.any(log_edge != 0.0, axis=(2, 3))
    active = (active | active.T) & ~np.eye(m_nodes, dtype=bool)
    src, dst = np.nonzero(active)
    eid = np.zeros((m_nodes, m_nodes), dtype=int)
    eid[src, dst] = np.arange(len(src))
    return src, dst, eid[dst, src]


def lbp_pass(log_node: np.ndarray, log_edge: np.ndarray, cfg: LbpConfig,
             node_dot: np.ndarray | None = None) -> _EngineResult:
    """Damped synchronous sum-product message passing over the active edges.

    Messages m[i -> j](b) are proportional to
    sum_a exp(log_node[i, a] + log_edge[i, j, a, b]) * prod_{k != j} m[k -> i](a),
    mixed with the previous value as m <- damping * m_old + (1 - damping) * m_new
    (computed stably in the log domain) and renormalized each pass.

    Only pairs whose block of ``log_edge`` (in either direction) holds a
    non-zero entry carry messages, so an iteration costs O(E K^2) for E
    directed edges. A zero block sends a uniform message, which normalizes
    away, so dropping it changes no belief beyond rounding; the pairwise
    belief of such a pair is the product of its two node marginals.

    The edge potentials are stored once per call as a contiguous (K, E, K)
    array (a, e, b), and each update reduces over its leading axis. The rows
    a = 0..K-1 are summed in the same order as over the middle axis of an
    (E, K, K) array, so every message, belief and residual is bit-identical
    to that layout's; only the memory walk changes.

    With ``node_dot`` of shape (P, M, K), tangents of the log beliefs with
    respect to P scalar directions are propagated through every update; this
    requires ``fixed_iterations`` so the unrolled map has a fixed depth. The
    softmax weights of the tangent update are copied back to (E, K, K), so
    its einsums keep their summation order.
    """
    m_nodes, k = log_node.shape
    want_dot = node_dot is not None
    if want_dot and not cfg.fixed_iterations:
        raise ValueError("tangent propagation requires fixed_iterations")

    src, dst, rev = _edge_list(log_edge)
    n_edges = len(src)
    le = log_edge[src, dst]                                     # (E, K, K)
    le_t = np.ascontiguousarray(le.transpose(1, 0, 2))          # (K, E, K)
    incidence = np.zeros((m_nodes, n_edges))                    # node <- edge
    incidence[dst, np.arange(n_edges)] = 1.0

    lm = np.full((n_edges, k), -math.log(k))
    exp_lm = np.exp(lm)
    dlm = np.zeros((node_dot.shape[0], n_edges, k)) if want_dot else None

    log_d = math.log(cfg.damping) if cfg.damping > 0 else -np.inf
    log_1md = math.log1p(-cfg.damping)
    residuals: list[float] = []
    converged = False
    iters_used = 0

    for _ in range(cfg.max_iters):
        iters_used += 1
        pre = log_node + incidence @ lm                         # (M, K)
        g = pre[src] - lm[rev]                                  # (E, K) over a
        x = g.T[:, :, None] + le_t                              # (K, E, K)
        raw = _lse(x, axis=0)                                   # (E, K) over b
        new = raw - _lse(raw, axis=1, keepdims=True)

        if want_dot:
            w = np.exp(x - raw).transpose(1, 0, 2).copy()       # (E, K, K)
            dpre = node_dot + incidence @ dlm                   # (P, M, K)
            dg = dpre[:, src] - dlm[:, rev]
            dnew = np.einsum("eab,pea->peb", w, dg)
            # normalizer tangent; softmax is shift-invariant so the
            # normalized messages give the same weights
            dnew = dnew - np.einsum("eb,peb->pe", _softmax(new, axis=1), dnew)[..., None]

        if cfg.damping > 0:
            u = log_d + lm
            v = log_1md + new
            mixed = np.logaddexp(u, v)
            if want_dot:
                wu = np.exp(u - mixed)
                wv = np.exp(v - mixed)
                dmixed = wu[None] * dlm + wv[None] * dnew
            mixed = mixed - _lse(mixed, axis=1, keepdims=True)
            if want_dot:
                dmixed = dmixed - np.einsum(
                    "eb,peb->pe", _softmax(mixed, axis=1), dmixed)[..., None]
        else:
            mixed = new
            dmixed = dnew if want_dot else None

        exp_mixed = np.exp(mixed)
        residual = float(np.abs(exp_mixed - exp_lm).max()) if n_edges else 0.0
        residuals.append(residual)
        lm, exp_lm = mixed, exp_mixed
        if want_dot:
            dlm = dmixed
        if not cfg.fixed_iterations and residual < cfg.tol:
            converged = True
            break
    else:
        converged = residuals[-1] < cfg.tol if residuals else False

    pre = log_node + incidence @ lm
    log_z = _lse(pre, axis=1, keepdims=True)
    if not (np.all(np.isfinite(lm)) and np.all(np.isfinite(log_z))):
        raise NumericalFailure("non-finite message encountered")
    log_marg = pre - log_z
    g = pre[src] - lm[rev]
    edge_pb = g[:, :, None] + g[rev][:, None, :] + le           # (E, K, K)
    edge_pb = edge_pb - _lse(edge_pb.reshape(n_edges, k * k), axis=1)[:, None, None]
    lpb = log_marg[:, None, :, None] + log_marg[None, :, None, :]
    lpb[src, dst] = edge_pb
    idx = np.arange(m_nodes)
    lpb[idx, idx] = 0.0

    d_log_marg = d_lpb = None
    if want_dot:
        dpre = node_dot + incidence @ dlm
        d_log_marg = dpre - np.einsum("ia,pia->pi", _softmax(pre, axis=1), dpre)[..., None]
        dg = dpre[:, src] - dlm[:, rev]
        d_edge = dg[:, :, :, None] + dg[:, rev][:, :, None, :]
        wpb = _softmax(edge_pb.reshape(n_edges, k * k), axis=1)
        corr = np.einsum("ec,pec->pe", wpb, d_edge.reshape(d_edge.shape[:2] + (k * k,)))
        d_lpb = d_log_marg[:, :, None, :, None] + d_log_marg[:, None, :, None, :]
        d_lpb[:, src, dst] = d_edge - corr[:, :, None, None]
        d_lpb[:, idx, idx] = 0.0

    return _EngineResult(log_marginals=log_marg, log_pairwise=lpb,
                         converged=converged, iters_used=iters_used,
                         residuals=residuals,
                         d_log_marginals=d_log_marg, d_log_pairwise=d_lpb)


def _marginal_set_from_logs(log_marg, lpb, converged, iters_used, residuals) -> MarginalSet:
    m_nodes = log_marg.shape[0]
    marginals = np.exp(log_marg)
    beliefs = np.exp(lpb)
    idx = np.arange(m_nodes)
    beliefs[idx, idx] = 0.0
    if not (np.all(np.isfinite(marginals)) and np.all(np.isfinite(beliefs))):
        raise NumericalFailure("non-finite belief encountered")
    return MarginalSet(marginals=marginals, pairwise_beliefs=beliefs,
                       converged=converged, iters_used=iters_used,
                       log_marginals=log_marg, log_pairwise_beliefs=lpb,
                       residuals=list(residuals))


def lbp(tables: EnergyTables, cfg: LbpConfig = LbpConfig()) -> MarginalSet:
    """Approximate marginals and pairwise beliefs via loopy message passing."""
    log_node, log_edge = tables_to_potentials(tables)
    res = lbp_pass(log_node, log_edge, cfg)
    return _marginal_set_from_logs(res.log_marginals, res.log_pairwise,
                                   res.converged, res.iters_used, res.residuals)


def exact_marginals(tables: EnergyTables) -> MarginalSet:
    """Exact marginals by enumerating every joint candidate assignment.

    The joint energy is sum_i unary[i, y_i] plus the ordered double sum
    of pairwise[i, j, y_i, y_j] over i != j, normalized by the explicit
    partition function.
    """
    m_nodes, k = tables.unary.shape
    if k ** m_nodes > MAX_JOINT_STATES:
        raise StateSpaceTooLarge(
            f"{k}^{m_nodes} joint states exceed {MAX_JOINT_STATES}")

    energy = np.zeros((k,) * m_nodes)
    for i in range(m_nodes):
        shape = [1] * m_nodes
        shape[i] = k
        energy = energy + tables.unary[i].reshape(shape)
    for i in range(m_nodes):
        for j in range(i + 1, m_nodes):
            shape = [1] * m_nodes
            shape[i] = k
            shape[j] = k
            combined = tables.pairwise[i, j] + tables.pairwise[j, i].T
            energy = energy + combined.reshape(shape)

    neg = -energy
    log_z = _lse(neg.reshape(-1), axis=0)
    log_joint = neg - log_z

    log_marg = np.empty((m_nodes, k))
    if m_nodes == 1:
        log_marg[0] = log_joint
    else:
        for i in range(m_nodes):
            log_marg[i] = _lse(np.moveaxis(log_joint, i, 0).reshape(k, -1), axis=1)

    lpb = np.zeros((m_nodes, m_nodes, k, k))
    for i in range(m_nodes):
        for j in range(m_nodes):
            if i == j:
                continue
            moved = np.moveaxis(log_joint, (i, j), (0, 1)).reshape(k, k, -1)
            lpb[i, j] = _lse(moved, axis=2) if m_nodes > 2 else moved[:, :, 0]

    return _marginal_set_from_logs(log_marg, lpb, converged=True,
                                   iters_used=0, residuals=[])


def set_conditionals(ms: MarginalSet, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Actor marginals conditioned on the ego choosing from each row of the
    (R, s) index array ``members``, shape (R, N, K), and an (R,) mask of the
    degenerate rows.

    Every row is read off the ego-actor pairwise beliefs of one inference
    pass: a logsumexp over the row's members, in the row's order (sort rows
    ascending for a canonical result), then a log-normalization per actor. A
    row is degenerate when the ego mass of its members is at most
    DEGENERATE_MASS; with no actors nothing is conditioned, so no row is.
    """
    blocks = ms.log_pairwise_beliefs[0, 1:].transpose(1, 0, 2)[members]   # (R, s, N, K)
    rows = _lse(blocks, axis=1)
    conditionals = np.exp(rows - _lse(rows, axis=2, keepdims=True))
    mass = ms.marginals[0][members].sum(axis=1)
    return conditionals, (ms.n_nodes > 1) & (mass <= DEGENERATE_MASS)


def set_conditional_marginals(ms: MarginalSet, candidate_set) -> np.ndarray:
    """Actor marginals conditioned on the ego choosing from a set, shape (N, K)."""
    members = sorted(set(int(a) for a in candidate_set))
    if not members:
        raise EmptyConditioningSet("conditioning set must be non-empty")
    if members[0] < 0 or members[-1] >= ms.k:
        raise IndexError("conditioning set member out of range")
    conditionals, degenerate = set_conditionals(ms, np.array([members]))
    if degenerate[0]:
        raise DegenerateCondition(
            f"conditioning set {members} has mass <= {DEGENERATE_MASS}")
    return conditionals[0]


def conditional_marginals(ms: MarginalSet, ego_candidate: int) -> np.ndarray:
    """Actor marginals conditioned on one ego candidate, shape (N, K)."""
    return set_conditional_marginals(ms, [ego_candidate])
