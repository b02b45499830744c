"""Shared builders and oracles for the test suite."""
import math

import numpy as np

from reactplan.energy import BoxDims, EnergyTables
from reactplan.geometry import (OrientedBox, Polyline, Pose2, _sat_gaps,
                                boxes_overlap, boxes_overlap_grid,
                                point_to_box_distance_grid,
                                wrap_angle)
from reactplan.errors import HorizonMismatch
from reactplan.inference import _edge_list, _lse, _softmax, lbp
from reactplan.learning import LOG_CLIP
from reactplan.planner import PlanResult
from reactplan.sampler import (INTEGRATION_SUBSTEPS, MODE_CIRCLE, MODE_LINE,
                               MODE_SPIRAL, CandidateSet, KinematicState,
                               SamplerConfig, Trajectory, _draw_control_arrays,
                               sample_candidates)
from reactplan.simulator import CORRIDOR_MARGIN


def tv_distance(p, q) -> float:
    """Total variation between two distributions (last axis or flattened)."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def max_node_tv(ms_a, ms_b) -> float:
    return max(tv_distance(ms_a.marginals[i], ms_b.marginals[i])
               for i in range(ms_a.n_nodes))


def random_tables(rng, m=3, k=4, coupling=0.5, gamma=None, gamma_frac=0.1,
                  goal_scale=1.0) -> EnergyTables:
    """Random instance: N(0,1) unaries, mild random pairwise coupling and an
    optional symmetric collision mask."""
    unary = rng.normal(size=(m, k))
    pw = np.zeros((m, m, k, k))
    for i in range(m):
        for j in range(i + 1, m):
            pw[i, j] = coupling * rng.normal(size=(k, k))
            pw[j, i] = coupling * rng.normal(size=(k, k))
            if gamma is not None:
                mask = rng.random(size=(k, k)) < gamma_frac
                pw[i, j] = pw[i, j] + gamma * mask
                pw[j, i] = pw[j, i] + gamma * mask.T
    goal = goal_scale * np.abs(rng.normal(size=k))
    return EnergyTables(unary=unary, pairwise=pw, goal=goal)


def tree_tables(rng, m=4, k=4, coupling=1.0):
    """Random spanning-tree structured instance; returns (tables, edges)."""
    unary = rng.normal(size=(m, k))
    pw = np.zeros((m, m, k, k))
    nodes = list(range(m))
    rng.shuffle(nodes)
    edges = []
    for idx in range(1, m):
        child = nodes[idx]
        parent = nodes[int(rng.integers(0, idx))]
        i, j = min(child, parent), max(child, parent)
        edges.append((i, j))
        pw[i, j] = coupling * rng.normal(size=(k, k))
        pw[j, i] = coupling * rng.normal(size=(k, k))
    return EnergyTables(unary=unary, pairwise=pw, goal=np.zeros(k)), edges


def joint_distribution(tables: EnergyTables) -> np.ndarray:
    """Exact joint over all candidate assignments, shape (K,) * (N+1).

    Joint energy: sum_i unary[i, y_i] + sum over ordered pairs i != j of
    pairwise[i, j, y_i, y_j]. Independent of the inference module.
    """
    m, k = tables.unary.shape
    energy = np.zeros((k,) * m)
    for i in range(m):
        shape = [1] * m
        shape[i] = k
        energy = energy + tables.unary[i].reshape(shape)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            shape = [1] * m
            shape[min(i, j)] = k
            shape[max(i, j)] = k
            block = tables.pairwise[i, j] if i < j else tables.pairwise[i, j].T
            energy = energy + block.reshape(shape)
    w = np.exp(-(energy - energy.min()))
    return w / w.sum()


def joint_energy_grid(tables: EnergyTables, include_actor_actor=True,
                      ego_interaction="both") -> np.ndarray:
    """Planning cost of every joint assignment, shape (K,) * (N+1).

    ``ego_interaction``: 'both' sums pairwise[0, i] and pairwise[i, 0];
    'none' drops ego-actor terms. Actor unaries always included; the ego
    unary always included; no goal term.
    """
    m, k = tables.unary.shape
    cost = np.zeros((k,) * m)
    for i in range(m):
        shape = [1] * m
        shape[i] = k
        cost = cost + tables.unary[i].reshape(shape)
    pairs = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if 0 in (i, j):
                if ego_interaction == "both":
                    pairs.append((i, j))
            elif include_actor_actor:
                pairs.append((i, j))
    for i, j in pairs:
        shape = [1] * m
        shape[min(i, j)] = k
        shape[max(i, j)] = k
        block = tables.pairwise[i, j] if i < j else tables.pairwise[i, j].T
        cost = cost + block.reshape(shape)
    return cost


def straight_trajectory(start, heading, speed, steps=8, dt=0.5, start_time=0.0):
    """Constant-velocity straight-line trajectory."""
    direction = np.array([math.cos(heading), math.sin(heading)])
    pts = np.asarray(start, dtype=float) + \
        np.arange(steps)[:, None] * speed * dt * direction
    poses = np.column_stack([pts, np.full(steps, heading)])
    return Trajectory(start_time=start_time, dt=dt, poses=poses,
                      speeds=np.full(steps, float(speed)))


def stationary_trajectory(point, heading=0.0, steps=8, dt=0.5):
    poses = np.tile([point[0], point[1], heading], (steps, 1))
    return Trajectory(start_time=0.0, dt=dt, poses=poses, speeds=np.zeros(steps))


def candidate_set(trajectories) -> CandidateSet:
    """One vehicle's candidate set from hand-made trajectories that share a
    start time, dt and length; the first trajectory gives start time and dt."""
    first = trajectories[0]
    return CandidateSet(start_time=first.start_time, dt=first.dt,
                        poses=np.stack([t.poses for t in trajectories]),
                        speeds=np.stack([t.speeds for t in trajectories]))


def random_box(rng, half_max=0.5, span=1.5) -> OrientedBox:
    center = Pose2(rng.uniform(-span, span), rng.uniform(-span, span),
                   rng.uniform(-math.pi, math.pi))
    return OrientedBox(center=center,
                       half_length=rng.uniform(0.1, half_max),
                       half_width=rng.uniform(0.1, half_max))


def random_scene(rng, n_actors=2, k=3, steps=6, dt=0.5, span=10.0):
    """Random candidate sets plus feature/interaction context for table tests;
    actors start uniformly within ``span`` m of the origin in x and y."""
    candidates = []
    boxes = []
    lanes = []
    refs = []
    for _ in range(n_actors + 1):
        pose = Pose2(rng.uniform(-span, span), rng.uniform(-span, span),
                     rng.uniform(-math.pi, math.pi))
        state = KinematicState(pose=pose, speed=rng.uniform(0, 10))
        cfg = SamplerConfig(k=k, horizon_steps=steps, dt=dt,
                            seed=int(rng.integers(0, 2 ** 31)))
        candidates.append(sample_candidates(state, cfg))
        boxes.append(BoxDims(rng.uniform(1.5, 2.5), rng.uniform(0.7, 1.1)))
        origin = np.array([pose.x, pose.y]) + rng.normal(0, 2.0, size=2)
        direction = np.array([math.cos(pose.heading), math.sin(pose.heading)])
        lanes.append(Polyline([origin - 30 * direction, origin + 60 * direction]))
        refs.append(rng.uniform(3, 10))
    return candidates, boxes, lanes, refs


def _zero_diag(arr: np.ndarray) -> None:
    idx = np.arange(arr.shape[-3])
    if arr.ndim == 3:        # (M, M, K)
        arr[idx, idx, :] = 0.0
    else:                    # (P, M, M, K)
        arr[:, idx, idx, :] = 0.0


def dense_lbp_pass(log_node, log_edge, cfg, node_dot=None):
    """Reference message passing on the fully connected graph.

    Every ordered pair carries a message, zero blocks included, so an
    iteration costs O(M^2 K^2). Returns (log_marginals, log_pairwise_beliefs,
    converged, iters_used, residuals, d_log_marginals, d_log_pairwise_beliefs).
    """
    m_nodes, k = log_node.shape
    want_dot = node_dot is not None
    lm = np.full((m_nodes, m_nodes, k), -math.log(k))
    _zero_diag(lm)
    dlm = np.zeros((node_dot.shape[0],) + lm.shape) if want_dot else None
    log_d = math.log(cfg.damping) if cfg.damping > 0 else -np.inf
    log_1md = math.log1p(-cfg.damping)
    residuals = []
    converged = False
    iters_used = 0
    for _ in range(cfg.max_iters):
        iters_used += 1
        pre = log_node + lm.sum(axis=0)
        g = pre[:, None, :] - lm.transpose(1, 0, 2)
        x = g[:, :, :, None] + log_edge
        w = _softmax(x, axis=2)
        new = _lse(x, axis=2)
        new = new - _lse(new, axis=2, keepdims=True)
        _zero_diag(new)
        if want_dot:
            dpre = node_dot + dlm.sum(axis=1)
            dg = dpre[:, :, None, :] - dlm.transpose(0, 2, 1, 3)
            dnew = np.einsum("ijab,pija->pijb", w, dg)
            dnew = dnew - np.einsum("ijb,pijb->pij", _softmax(new, axis=2), dnew)[..., None]
            _zero_diag(dnew)
        if cfg.damping > 0:
            u = log_d + lm
            v = log_1md + new
            mixed = np.logaddexp(u, v)
            if want_dot:
                dmixed = np.exp(u - mixed)[None] * dlm + np.exp(v - mixed)[None] * dnew
            mixed = mixed - _lse(mixed, axis=2, keepdims=True)
            _zero_diag(mixed)
            if want_dot:
                dmixed = dmixed - np.einsum(
                    "ijb,pijb->pij", _softmax(mixed, axis=2), dmixed)[..., None]
                _zero_diag(dmixed)
        else:
            mixed = new
            dmixed = dnew if want_dot else None
        residuals.append(float(np.max(np.abs(np.exp(mixed) - np.exp(lm)))))
        lm = mixed
        if want_dot:
            dlm = dmixed
        if not cfg.fixed_iterations and residuals[-1] < cfg.tol:
            converged = True
            break
    else:
        converged = residuals[-1] < cfg.tol

    pre = log_node + lm.sum(axis=0)
    log_marg = pre - _lse(pre, axis=1, keepdims=True)
    g = pre[:, None, :] - lm.transpose(1, 0, 2)
    lpb = g[:, :, :, None] + g.transpose(1, 0, 2)[:, :, None, :] + log_edge
    lpb = lpb - _lse(lpb.reshape(m_nodes, m_nodes, -1), axis=2)[:, :, None, None]
    idx = np.arange(m_nodes)
    lpb[idx, idx] = 0.0
    d_log_marg = d_lpb = None
    if want_dot:
        dpre = node_dot + dlm.sum(axis=1)
        d_log_marg = dpre - np.einsum("ia,pia->pi", _softmax(pre, axis=1), dpre)[..., None]
        dg = dpre[:, :, None, :] - dlm.transpose(0, 2, 1, 3)
        d_lpb = dg[:, :, :, :, None] + dg.transpose(0, 2, 1, 3)[:, :, :, None, :]
        wpb = _softmax(lpb.reshape(m_nodes, m_nodes, -1), axis=2)
        corr = np.einsum("ijc,pijc->pij", wpb,
                         d_lpb.reshape(d_lpb.shape[0], m_nodes, m_nodes, -1))
        d_lpb = d_lpb - corr[:, :, :, None, None]
        d_lpb[:, idx, idx] = 0.0
    return log_marg, lpb, converged, iters_used, residuals, d_log_marg, d_lpb


def edge_lbp_reference(log_node, log_edge, cfg, node_dot=None):
    """Reference message passing over the active edges in the (E, K, K)
    layout: each update reduces the middle axis of ``g[:, :, None] + le``.

    With tangents, and on the plain calls whose linear-domain messages
    underflow, ``inference.lbp_pass`` runs the same log-domain loop and must
    equal it bit for bit; its other plain calls agree to rounding. Returns the
    same tuple as ``dense_lbp_pass``.
    """
    m_nodes, k = log_node.shape
    want_dot = node_dot is not None
    src, dst, rev = _edge_list(log_edge)
    n_edges = len(src)
    le = log_edge[src, dst]
    incidence = np.zeros((m_nodes, n_edges))
    incidence[dst, np.arange(n_edges)] = 1.0
    lm = np.full((n_edges, k), -math.log(k))
    dlm = np.zeros((node_dot.shape[0], n_edges, k)) if want_dot else None
    log_d = math.log(cfg.damping) if cfg.damping > 0 else -np.inf
    log_1md = math.log1p(-cfg.damping)
    residuals = []
    converged = False
    iters_used = 0
    for _ in range(cfg.max_iters):
        iters_used += 1
        pre = log_node + incidence @ lm
        g = pre[src] - lm[rev]
        x = g[:, :, None] + le
        new = _lse(x, axis=1)
        new = new - _lse(new, axis=1, keepdims=True)
        if want_dot:
            w = _softmax(x, axis=1)
            dpre = node_dot + incidence @ dlm
            dg = dpre[:, src] - dlm[:, rev]
            dnew = np.einsum("eab,pea->peb", w, dg)
            dnew = dnew - np.einsum("eb,peb->pe", _softmax(new, axis=1), dnew)[..., None]
        if cfg.damping > 0:
            u = log_d + lm
            v = log_1md + new
            mixed = np.logaddexp(u, v)
            if want_dot:
                dmixed = np.exp(u - mixed)[None] * dlm + np.exp(v - mixed)[None] * dnew
            mixed = mixed - _lse(mixed, axis=1, keepdims=True)
            if want_dot:
                dmixed = dmixed - np.einsum(
                    "eb,peb->pe", _softmax(mixed, axis=1), dmixed)[..., None]
        else:
            mixed = new
            dmixed = dnew if want_dot else None
        residuals.append(float(np.max(np.abs(np.exp(mixed) - np.exp(lm))))
                         if n_edges else 0.0)
        lm = mixed
        if want_dot:
            dlm = dmixed
        if not cfg.fixed_iterations and residuals[-1] < cfg.tol:
            converged = True
            break
    else:
        converged = residuals[-1] < cfg.tol

    pre = log_node + incidence @ lm
    log_marg = pre - _lse(pre, axis=1, keepdims=True)
    g = pre[src] - lm[rev]
    edge_pb = g[:, :, None] + g[rev][:, None, :] + le
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
    return log_marg, lpb, converged, iters_used, residuals, d_log_marg, d_lpb


def interaction_tables_reference(candidates, boxes, gamma, d_safe):
    """Per-pair reference for ``energy.interaction_tables``: one grid call per
    unordered pair for collision, then one per ordered pair for safety."""
    m = len(candidates)
    k = len(candidates[0])
    pos = np.stack([c.positions for c in candidates])
    heads = np.stack([c.headings for c in candidates])
    speeds = np.stack([c.speeds for c in candidates])
    pairwise = np.zeros((m, m, k, k))
    fut = slice(1, None)
    for i in range(m):
        for j in range(i + 1, m):
            hit = boxes_overlap_grid(
                pos[i][:, None, fut, :], heads[i][:, None, fut], boxes[i],
                pos[j][None, :, fut, :], heads[j][None, :, fut], boxes[j])
            coll = gamma * np.any(hit, axis=-1)
            pairwise[i, j] += coll
            pairwise[j, i] += coll.T
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            dist = point_to_box_distance_grid(
                pos[i][:, None, fut, :],
                pos[j][None, :, fut, :], heads[j][None, :, fut], boxes[j])
            pen = np.maximum(0.0, d_safe - dist)
            pairwise[i, j] += np.einsum("at,abt->ab", speeds[i][:, fut], pen ** 2)
    return pairwise


def _check_horizons(a, b) -> None:
    if len(a) != len(b) or a.dt != b.dt:
        raise HorizonMismatch("trajectories must share horizon and dt")


def waypoint_box(traj, dims, t) -> OrientedBox:
    p = traj.poses[t]
    return OrientedBox(center=Pose2(p[0], p[1], p[2]),
                       half_length=dims.half_length, half_width=dims.half_width)


def collision_energy(ti, dims_i, tj, dims_j, gamma) -> float:
    """Scalar reference for the collision part of ``interaction_tables``:
    gamma if the two boxes overlap at any future waypoint, else 0."""
    _check_horizons(ti, tj)
    for t in range(1, len(ti)):
        if boxes_overlap(waypoint_box(ti, dims_i, t), waypoint_box(tj, dims_j, t)):
            return float(gamma)
    return 0.0


def safety_energy(ti, tj, dims_j, d_safe) -> float:
    """Scalar reference for the safety part of ``interaction_tables``: the sum
    of speed_i(t) * max(0, d_safe - dist(center_i(t), box_j(t)))^2 over future
    waypoints; asymmetric in (i, j) by construction."""
    _check_horizons(ti, tj)
    total = 0.0
    for t in range(1, len(ti)):
        d = point_to_box_distance(ti.positions[t], waypoint_box(tj, dims_j, t))
        violation = max(0.0, d_safe - d)
        total += ti.speeds[t] * violation * violation
    return total


def point_to_box_distance(point, box: OrientedBox) -> float:
    """Euclidean distance to the box boundary; 0 for interior points."""
    return float(point_to_box_distance_grid(
        np.asarray(point, dtype=float), box.center.position, box.center.heading,
        (box.half_length, box.half_width)))


def box_arrays(boxes) -> tuple[np.ndarray, np.ndarray]:
    """Centre poses (n, 3) and half extents (n, 2) of a sequence of
    OrientedBox, the layout the simulator's array kernels take."""
    poses = np.array([[b.center.x, b.center.y, b.center.heading] for b in boxes])
    dims = np.array([[b.half_length, b.half_width] for b in boxes])
    return poses.reshape(-1, 3), dims.reshape(-1, 2)


def penetration_depth(a: OrientedBox, b: OrientedBox) -> float:
    """Minimum separating-axis overlap; positive iff the boxes overlap with
    some depth."""
    gaps = _sat_gaps(a.center.position, a.center.heading,
                     (a.half_length, a.half_width),
                     b.center.position, b.center.heading,
                     (b.half_length, b.half_width))
    return float(np.min(gaps))


def actor_policy_step_reference(s, v, pose, lane, own_box, hazards, params, dt):
    """Scalar reference for one actor of ``simulator.actor_policy_step``, the
    actor at arclength ``s`` with speed ``v`` and Pose2 ``pose``: one
    ``boxes_overlap`` call per hazard, then the nearest blocking hazard by
    scalar point-to-box distance. Returns (arclength, speed, Pose2,
    realized accel)."""
    heading = pose.heading
    u = np.array([math.cos(heading), math.sin(heading)])
    front = pose.position + own_box.half_length * u
    corridor_center = front + 0.5 * params.hazard_lookahead * u
    corridor = OrientedBox(
        center=Pose2(corridor_center[0], corridor_center[1], heading),
        half_length=0.5 * params.hazard_lookahead,
        half_width=own_box.half_width + 0.5 * CORRIDOR_MARGIN)

    blocking = [b for b in hazards if boxes_overlap(corridor, b)]
    if not blocking:
        accel = min(params.max_accel, (params.desired_speed - v) / dt)
        accel = max(accel, -params.comfortable_decel)
    else:
        nearest = min(point_to_box_distance(front, b) for b in blocking)
        factor = 2.0 if nearest < params.min_gap else 1.0
        accel = -factor * params.comfortable_decel

    new_speed = max(0.0, v + accel * dt)
    realized = (new_speed - v) / dt
    new_s = s + new_speed * dt
    if new_s >= lane.line.length:
        new_s = lane.line.length
        new_speed = 0.0
    point = lane.line.point_at(new_s)
    new_pose = Pose2(point[0], point[1], lane.line.tangent_at(new_s))
    return new_s, new_speed, new_pose, realized


def draw_controls(cfg, indices):
    """``sampler._draw_control_arrays`` for the candidates ``indices`` (each
    >= 1) of the vehicle stream ``PCG64(SeedSequence(cfg.seed))``, candidate
    a reading its words 4(a - 1) to 4a - 1: (mode, accel, curvature,
    curvature rate)."""
    idx = np.asarray(indices, dtype=np.int64)
    stream = np.random.PCG64(np.random.SeedSequence(cfg.seed))
    return _draw_control_arrays(cfg, stream.random_raw((idx.max(initial=0), 4))[idx - 1])


def draw_controls_reference(cfg, n):
    """Reference for ``sampler._draw_control_arrays`` on candidates 1..n of
    one vehicle: one ``Generator`` seeded by ``cfg.seed`` that takes four
    ``uniform`` doubles per candidate, in order, whatever the mode. Returns n
    (mode, accel, curvature, curvature rate) tuples."""
    rng = np.random.default_rng(np.random.SeedSequence(int(cfg.seed)))
    p_line, p_circle, _ = cfg.mode_probs
    draws = []
    for _ in range(n):
        u = rng.uniform()
        accel = rng.uniform(*cfg.accel_range)
        curvature = rng.uniform(*cfg.curvature_range)
        rate = rng.uniform(*cfg.spiral_rate_range)
        if u < p_line:
            draws.append((MODE_LINE, accel, 0.0, 0.0))
        elif u < p_line + p_circle:
            draws.append((MODE_CIRCLE, accel, curvature, 0.0))
        else:
            draws.append((MODE_SPIRAL, accel, curvature, rate))
    return draws


def extract_features_reference(candidates, lane, ref_speed):
    """Per-vehicle reference for ``energy.extract_features_batch``: the
    feature matrix (K, 6) of one candidate set against its own lane."""
    pos, heads, speeds = candidates.positions, candidates.headings, candidates.speeds
    k, T = speeds.shape
    dt = candidates.dt

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


def integrate_controls_reference(state, accel, kappa0, rate, cfg):
    """Substep-by-substep reference for ``sampler._rollout``: poses (n, T, 3)
    and speeds (n, T) of the control arrays, each (n,)."""
    n = len(accel)
    T = cfg.horizon_steps
    h0 = state.pose.heading
    v0 = state.speed
    poses = np.empty((n, T, 3))
    speeds = np.empty((n, T))
    poses[:, 0] = [state.pose.x, state.pose.y, h0]
    speeds[:, 0] = min(max(v0, 0.0), cfg.v_max)
    x = np.full(n, state.pose.x)
    y = np.full(n, state.pose.y)
    s = np.zeros(n)
    h_sub = cfg.dt / INTEGRATION_SUBSTEPS
    sub = 0
    for step in range(1, T):
        for _ in range(INTEGRATION_SUBSTEPS):
            t_mid = (sub + 0.5) * h_sub
            v_mid = np.clip(v0 + accel * t_mid, 0.0, cfg.v_max)
            ds = v_mid * h_sub
            s_mid = s + 0.5 * ds
            theta = h0 + kappa0 * s_mid + 0.5 * rate * s_mid ** 2
            x = x + ds * np.cos(theta)
            y = y + ds * np.sin(theta)
            s = s + ds
            sub += 1
        poses[:, step, 0] = x
        poses[:, step, 1] = y
        poses[:, step, 2] = wrap_angle(h0 + kappa0 * s + 0.5 * rate * s ** 2)
        speeds[:, step] = np.clip(v0 + accel * (sub * h_sub), 0.0, cfg.v_max)
    return poses, speeds


def trajectory_l2(a, b) -> float:
    """Sum over waypoints of squared positional distance."""
    if len(a) != len(b) or a.dt != b.dt:
        raise HorizonMismatch("trajectories must share length and dt")
    diff = a.positions - b.positions
    return float(np.sum(diff * diff))


def plan_reference(ego_candidates, tables, cfg):
    """Per-candidate reference for ``planner.plan``: one objective evaluation
    per ego candidate, with conditioning sets sorted from ``trajectory_l2``.

    A candidate is degenerate, and scores an infinite interaction and no
    actor term, when the scene has actors and its conditioning set holds ego
    mass at most 1e-12.
    """
    k = tables.k
    ms = lbp(tables, cfg.lbp)
    pair = tables.pairwise[0, 1:] + tables.pairwise[1:, 0].transpose(0, 2, 1)
    lpb = ms.log_pairwise_beliefs[0, 1:]
    ego, inter, actor, goal = (np.empty(k) for _ in range(4))
    for a0 in range(k):
        members = [a0]
        if cfg.variant == "nonreactive":
            pred, include_actor = ms.marginals[1:], False
        elif cfg.variant == "reactive":
            rows = lpb[:, a0, :]
            pred = np.exp(rows - _lse(rows, axis=1, keepdims=True))
            include_actor = True
        else:
            others = sorted((trajectory_l2(c, ego_candidates[a0]), idx)
                            for idx, c in enumerate(ego_candidates) if idx != a0)
            members = sorted([a0] + [idx for _, idx in others[:cfg.set_size - 1]])
            rows = _lse(lpb[:, members, :], axis=1)
            pred = np.exp(rows - _lse(rows, axis=1, keepdims=True))
            include_actor = cfg.set_size < k
        ego[a0] = float(tables.unary[0, a0])
        goal[a0] = cfg.w_goal * float(tables.goal[a0])
        if (cfg.variant != "nonreactive" and tables.n_actors > 0
                and float(ms.marginals[0, members].sum()) <= 1e-12):
            inter[a0], actor[a0] = np.inf, 0.0
            continue
        inter[a0] = cfg.lambda_b * float(np.sum(pred * pair[:, a0, :]))
        actor[a0] = (cfg.lambda_c * float(np.sum(pred * tables.unary[1:]))
                     if include_actor else 0.0)
    values = ego + inter + actor + goal
    return PlanResult(chosen=int(np.argmin(values)), objective_values=values,
                      ego_unary=ego, interaction=inter, actor_unary=actor,
                      goal=goal, converged=ms.converged, iters_used=ms.iters_used,
                      residual=ms.residuals[-1])


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


def loss_terms_reference(log_marg, lpb, labels, d_log_marg=None, d_lpb=None):
    """The training loss as one loop over actors and one over actor pairs:
    (node term, edge term, weight gradient or None, whether any probability
    was clipped). Oracle of ``learning.loss``."""
    k = log_marg.shape[1]
    node, g_node, clip_node = _node_loss(log_marg, labels, k, True, d_log_marg)
    edge, g_edge, clip_edge = _edge_loss(lpb, labels, k, True, d_lpb)
    grad = None if d_log_marg is None else g_node + g_edge
    return node, edge, grad, clip_node or clip_edge
