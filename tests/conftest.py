"""Shared builders and oracles for the test suite."""
import math

import numpy as np

from reactplan.energy import BoxDims, EnergyTables, _check_horizons
from reactplan.geometry import (OrientedBox, Polyline, Pose2, _sat_gaps,
                                boxes_overlap, boxes_overlap_grid,
                                point_to_box_distance, point_to_box_distance_grid,
                                wrap_angle)
from reactplan.inference import _lse, _softmax
from reactplan.sampler import (INTEGRATION_SUBSTEPS, MODE_CIRCLE, MODE_LINE,
                               MODE_SPIRAL, CandidateControls, KinematicState,
                               SamplerConfig, Trajectory, sample_candidates)
from reactplan.simulator import CORRIDOR_MARGIN, ActorState


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
    iteration costs O(M^2 K^2). Returns (log_marginals, log_pairwise,
    converged, iters_used, residuals, d_log_marginals, d_log_pairwise).
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


def interaction_tables_reference(candidates, boxes, gamma, d_safe):
    """Per-pair reference for ``energy.interaction_tables``: one grid call per
    unordered pair for collision, then one per ordered pair for safety."""
    m = len(candidates)
    k = len(candidates[0])
    pos = np.stack([np.stack([c.positions for c in cands]) for cands in candidates])
    heads = np.stack([np.stack([c.headings for c in cands]) for cands in candidates])
    speeds = np.stack([np.stack([c.speeds for c in cands]) for cands in candidates])
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


def penetration_depth(a: OrientedBox, b: OrientedBox) -> float:
    """Minimum separating-axis overlap; positive iff the boxes overlap with
    some depth."""
    gaps = _sat_gaps(a.center.position, a.center.heading,
                     (a.half_length, a.half_width),
                     b.center.position, b.center.heading,
                     (b.half_length, b.half_width))
    return float(np.min(gaps))


def actor_policy_step_reference(state, lane, own_box, hazards, params, dt):
    """Scalar reference for one actor of ``simulator.actor_policy_step``: one
    ``boxes_overlap`` call per hazard, then the nearest blocking hazard by
    scalar point-to-box distance. Returns (ActorState, realized accel)."""
    heading = state.pose.heading
    u = np.array([math.cos(heading), math.sin(heading)])
    front = state.pose.position + own_box.half_length * u
    corridor_center = front + 0.5 * params.hazard_lookahead * u
    corridor = OrientedBox(
        center=Pose2(corridor_center[0], corridor_center[1], heading),
        half_length=0.5 * params.hazard_lookahead,
        half_width=own_box.half_width + 0.5 * CORRIDOR_MARGIN)

    blocking = [b for b in hazards if boxes_overlap(corridor, b)]
    if not blocking:
        accel = min(params.max_accel, (params.desired_speed - state.speed) / dt)
        accel = max(accel, -params.comfortable_decel)
    else:
        nearest = min(point_to_box_distance(front, b) for b in blocking)
        factor = 2.0 if nearest < params.min_gap else 1.0
        accel = -factor * params.comfortable_decel

    new_speed = max(0.0, state.speed + accel * dt)
    realized = (new_speed - state.speed) / dt
    new_s = state.arclength + new_speed * dt
    if new_s >= lane.line.length:
        new_s = lane.line.length
        new_speed = 0.0
    point = lane.line.point_at(new_s)
    pose = Pose2(point[0], point[1], lane.line.tangent_at(new_s))
    return ActorState(arclength=new_s, speed=new_speed, pose=pose), realized


def draw_controls_reference(cfg, index):
    """Reference for ``sampler.draw_controls``: one ``Generator`` per
    candidate, seeded by (seed, index), with one ``uniform`` call per drawn
    parameter."""
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), int(index)]))
    u = rng.uniform()
    p_line, p_circle, _ = cfg.mode_probs
    if u < p_line:
        mode = MODE_LINE
    elif u < p_line + p_circle:
        mode = MODE_CIRCLE
    else:
        mode = MODE_SPIRAL
    accel = rng.uniform(*cfg.accel_range)
    curvature = 0.0
    rate = 0.0
    if mode in (MODE_CIRCLE, MODE_SPIRAL):
        curvature = rng.uniform(*cfg.curvature_range)
    if mode == MODE_SPIRAL:
        rate = rng.uniform(*cfg.spiral_rate_range)
    return CandidateControls(mode=mode, accel=accel, curvature=curvature,
                             curvature_rate=rate)


def integrate_controls_reference(state, controls, cfg, start_time=0.0):
    """Substep-by-substep reference for ``sampler.integrate_controls``."""
    if isinstance(controls, CandidateControls):
        controls = [controls]
    n = len(controls)
    T = cfg.horizon_steps
    accel = np.array([c.accel for c in controls])
    kappa0 = np.array([c.curvature for c in controls])
    rate = np.array([c.curvature_rate for c in controls])
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
    return [Trajectory(start_time=start_time, dt=cfg.dt,
                       poses=poses[i], speeds=speeds[i]) for i in range(n)]
