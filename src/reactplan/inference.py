"""Marginal inference on the pairwise model over candidates.

Sum-product message passing runs with damped synchronous updates on a fixed
schedule, so a run is deterministic given tables and config. Messages travel
only between actors whose combined pairwise block holds a non-zero energy:
an identically zero block is a constant factor whose messages are uniform,
so dropping its edge changes no belief beyond rounding. The same engine
optionally propagates forward-mode tangents of the node potentials, which is
how training differentiates through the fixed number of iterations. An exact
enumeration oracle covers small instances.

Layout: the plain message loop runs in the linear domain. Each call
exponentiates the active edges' potentials once, as an (E, K, K) array
shifted per edge, and each iteration is one batched vector-matrix product
over it, so no exponent over (E, K, K) runs inside the loop. Its beliefs
match the log-domain loop's to rounding, not bit for bit. The log-domain
loop, a logsumexp over the leading axis of a contiguous (K, E, K) array,
carries the tangents, and reruns any plain call whose linear messages
underflow to zero.

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
from .errors import (NumericalFailure, StateSpaceTooLarge, check_counts,
                     check_weights)

MAX_JOINT_STATES = 10_000_000
DEGENERATE_MASS = 1e-12      # ego mass at or below which a conditional is degenerate


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


@dataclass
class MarginalSet:
    """Per-actor marginals and pairwise beliefs over candidates, stored once
    in log form.

    The log arrays stay meaningful even for candidates whose mass
    underflows; ``marginals`` and ``pairwise_beliefs`` are their linear
    views, with the unused diagonal pairwise blocks set to zero. With
    tangents, ``d_log_marginals`` (P, M, K) and ``d_log_pairwise_beliefs``
    (P, M, M, K, K) hold the derivatives of the logs in P directions.
    """

    log_marginals: np.ndarray            # (N+1, K)
    log_pairwise_beliefs: np.ndarray     # (N+1, N+1, K, K)
    converged: bool
    iters_used: int
    residuals: list[float] = field(default_factory=list)
    d_log_marginals: np.ndarray | None = None
    d_log_pairwise_beliefs: np.ndarray | None = None

    @property
    def marginals(self) -> np.ndarray:
        return np.exp(self.log_marginals)

    @property
    def pairwise_beliefs(self) -> np.ndarray:
        beliefs = np.exp(self.log_pairwise_beliefs)
        idx = np.arange(self.n_nodes)
        beliefs[idx, idx] = 0.0
        return beliefs

    @property
    def n_nodes(self) -> int:
        return self.log_marginals.shape[0]

    @property
    def k(self) -> int:
        return self.log_marginals.shape[1]


def _lse(x, axis=-1, keepdims=False):
    m = x.max(axis=axis, keepdims=True)
    out = m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def _softmax(x, axis=-1):
    return np.exp(x - _lse(x, axis=axis, keepdims=True))


def edge_potentials(pairwise: np.ndarray) -> np.ndarray:
    """Combined log edge potentials (M, M, K, K) from stored pair energies."""
    return -(pairwise + pairwise.transpose(1, 0, 3, 2))


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


def _linear_messages(log_node, le, src, rev, incidence, cfg: LbpConfig):
    """The plain message loop in the linear domain, or None if it underflows.

    The edge potentials are exponentiated once per call, shifted by each
    edge's maximum, as P of shape (E, K, K). An iteration then weights the
    rows of P by w = exp(g - max_a g), sums them in one batched product,
    normalises, mixes d * m_old + (1 - d) * m_new and normalises again, all on
    (E, K) arrays. Only the logs of the mixed messages enter the node sums.
    When a normalised message entry is 0 or not finite, which happens when P
    or the product underflows where the log domain still holds a finite
    value, the loop declines and returns None.
    """
    n_edges, k = len(src), log_node.shape[1]
    p = np.exp(le - le.max(axis=(1, 2), keepdims=True)) if n_edges else le
    lm = np.full((n_edges, k), -math.log(k))
    m = np.exp(lm)
    residuals: list[float] = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(cfg.max_iters):
            pre = log_node + incidence @ lm                     # (M, K)
            g = pre[src] - lm[rev]                              # (E, K) over a
            w = np.exp(g - g.max(axis=1, keepdims=True))
            new = np.matmul(w[:, None, :], p)[:, 0]             # (E, K) over b
            new /= new.sum(axis=1, keepdims=True)
            if cfg.damping > 0:
                new = cfg.damping * m + (1.0 - cfg.damping) * new
                new /= new.sum(axis=1, keepdims=True)
            if n_edges and not new.min() > 0.0:
                return None
            residual = float(np.abs(new - m).max()) if n_edges else 0.0
            residuals.append(residual)
            m, lm = new, np.log(new)
            if not cfg.fixed_iterations and residual < cfg.tol:
                return lm, None, True, residuals
    return lm, None, residuals[-1] < cfg.tol, residuals


def _log_messages(log_node, le, src, rev, incidence, cfg: LbpConfig,
                  node_dot: np.ndarray | None = None):
    """The message loop in the log domain, with optional tangents.

    Each update adds the messages to the (K, E, K) potential array (a, e, b)
    and takes a logsumexp over its leading axis; damping mixes in the log
    domain with ``logaddexp``. This is the tangent path and the fallback of
    ``_linear_messages``. The softmax weights of the tangent update are
    copied back to (E, K, K), so its einsums keep their summation order.
    """
    n_edges, k = len(src), log_node.shape[1]
    want_dot = node_dot is not None
    le_t = np.ascontiguousarray(le.transpose(1, 0, 2))          # (K, E, K)
    lm = np.full((n_edges, k), -math.log(k))
    exp_lm = np.exp(lm)
    dlm = np.zeros((node_dot.shape[0], n_edges, k)) if want_dot else None

    log_d = math.log(cfg.damping) if cfg.damping > 0 else -np.inf
    log_1md = math.log1p(-cfg.damping)
    residuals: list[float] = []

    for _ in range(cfg.max_iters):
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
            return lm, dlm, True, residuals
    return lm, dlm, residuals[-1] < cfg.tol, residuals


def lbp_pass(log_node: np.ndarray, log_edge: np.ndarray, cfg: LbpConfig,
             node_dot: np.ndarray | None = None) -> MarginalSet:
    """Damped synchronous sum-product message passing over the active edges.

    Messages m[i -> j](b) are proportional to
    sum_a exp(log_node[i, a] + log_edge[i, j, a, b]) * prod_{k != j} m[k -> i](a),
    mixed with the previous value as m <- damping * m_old + (1 - damping) * m_new
    and renormalized each pass.

    Only pairs whose block of ``log_edge`` (in either direction) holds a
    non-zero entry carry messages, so an iteration costs O(E K^2) for E
    directed edges. A zero block sends a uniform message, which normalizes
    away, so dropping it changes no belief beyond rounding; the pairwise
    belief of such a pair is the product of its two node marginals.

    Without tangents the messages are computed in the linear domain
    (``_linear_messages``), which agrees with the log-domain loop to rounding,
    not bit for bit; the tests hold the log beliefs to 1e-12 and the
    iteration count and convergence flag to equality. If a linear message
    underflows to 0, the whole call is rerun on the log-domain loop
    (``_log_messages``), so the choice is deterministic per call.

    With ``node_dot`` of shape (P, M, K), tangents of the log beliefs with
    respect to P scalar directions are propagated through every update of
    the log-domain loop; this requires ``fixed_iterations`` so the unrolled
    map has a fixed depth.
    """
    m_nodes, k = log_node.shape
    want_dot = node_dot is not None
    if want_dot and not cfg.fixed_iterations:
        raise ValueError("tangent propagation requires fixed_iterations")

    src, dst, rev = _edge_list(log_edge)
    n_edges = len(src)
    le = log_edge[src, dst]                                     # (E, K, K)
    incidence = np.zeros((m_nodes, n_edges))                    # node <- edge
    incidence[dst, np.arange(n_edges)] = 1.0

    run = None if want_dot else _linear_messages(log_node, le, src, rev, incidence, cfg)
    if run is None:
        run = _log_messages(log_node, le, src, rev, incidence, cfg, node_dot)
    lm, dlm, converged, residuals = run

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

    if not (np.all(np.isfinite(log_marg)) and np.all(np.isfinite(lpb))):
        raise NumericalFailure("non-finite belief encountered")

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

    return MarginalSet(log_marginals=log_marg, log_pairwise_beliefs=lpb,
                       converged=converged, iters_used=len(residuals),
                       residuals=residuals, d_log_marginals=d_log_marg,
                       d_log_pairwise_beliefs=d_lpb)


def lbp(tables: EnergyTables, cfg: LbpConfig = LbpConfig()) -> MarginalSet:
    """Approximate marginals and pairwise beliefs via loopy message passing."""
    return lbp_pass(-tables.unary, edge_potentials(tables.pairwise), cfg)


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

    return MarginalSet(log_marginals=log_marg, log_pairwise_beliefs=lpb,
                       converged=True, iters_used=0)


def set_conditionals(ms: MarginalSet, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Actor marginals conditioned on the ego choosing from each row of the
    (R, s) index array ``members``, shape (R, N, K), and an (R,) mask of the
    degenerate rows.

    Every row is read off the ego-actor pairwise beliefs of one inference
    pass: a logsumexp over the row's members, in the row's order (sort rows
    ascending for a canonical result), then a log-normalization per actor. A
    row is degenerate when the ego mass of its members is at most
    DEGENERATE_MASS; with no actors nothing is conditioned, so no row is.
    A member outside [0, K) or repeated within its row raises IndexError.
    """
    members = np.asarray(members)
    if members.size and not (members.min() >= 0 and members.max() < ms.k):
        raise IndexError(f"set members must lie in [0, {ms.k})")
    ordered = np.sort(members, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise IndexError("a set lists a member twice")
    blocks = ms.log_pairwise_beliefs[0, 1:].transpose(1, 0, 2)[members]   # (R, s, N, K)
    rows = _lse(blocks, axis=1)
    conditionals = np.exp(rows - _lse(rows, axis=2, keepdims=True))
    mass = ms.marginals[0][members].sum(axis=1)
    return conditionals, (ms.n_nodes > 1) & (mass <= DEGENERATE_MASS)
