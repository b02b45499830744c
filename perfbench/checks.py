"""Correctness checks for the benchmark's workloads, written apart from the program.

Every check takes plain outputs (parsed trace files, numpy arrays, numbers)
and returns a list of problems; an empty list means the outputs passed. The
geometry and the objective arithmetic here are this file's own numpy code and
import nothing from ``reactplan``, so a fault in the program's kernels cannot
hide itself by also being in the oracle.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------- geometry


def box_gap(ca, ha, da, cb, hb, db):
    """Smallest separating-axis overlap of oriented boxes; >= 0 means overlap.

    ``c*`` are centres (..., 2), ``h*`` headings (...), ``d*`` half extents
    (..., 2) as (half_length, half_width). Shapes broadcast.
    """
    ca, cb = np.asarray(ca, float), np.asarray(cb, float)
    ha, hb = np.asarray(ha, float), np.asarray(hb, float)
    da, db = np.asarray(da, float), np.asarray(db, float)
    ua = np.stack([np.cos(ha), np.sin(ha)], -1)
    va = np.stack([-np.sin(ha), np.cos(ha)], -1)
    ub = np.stack([np.cos(hb), np.sin(hb)], -1)
    vb = np.stack([-np.sin(hb), np.cos(hb)], -1)
    d = cb - ca
    gaps = []
    for axis in np.broadcast_arrays(ua, va, ub, vb):
        sep = np.abs(np.sum(d * axis, -1))
        ra = (da[..., 0] * np.abs(np.sum(ua * axis, -1))
              + da[..., 1] * np.abs(np.sum(va * axis, -1)))
        rb = (db[..., 0] * np.abs(np.sum(ub * axis, -1))
              + db[..., 1] * np.abs(np.sum(vb * axis, -1)))
        gaps.append(ra + rb - sep)
    return np.min(np.stack(gaps, -1), -1)


def point_box_distance(p, c, h, d):
    """Distance from points to oriented boxes (0 inside); shapes broadcast."""
    rel = np.asarray(p, float) - np.asarray(c, float)
    h = np.asarray(h, float)
    d = np.asarray(d, float)
    lx = np.cos(h) * rel[..., 0] + np.sin(h) * rel[..., 1]
    ly = -np.sin(h) * rel[..., 0] + np.cos(h) * rel[..., 1]
    return np.hypot(np.maximum(np.abs(lx) - d[..., 0], 0.0),
                    np.maximum(np.abs(ly) - d[..., 1], 0.0))


def project(points, line):
    """Distance to a polyline and arclength of the nearest point, per point."""
    p = np.atleast_2d(np.asarray(points, float))
    line = np.asarray(line, float)
    a, seg = line[:-1], np.diff(line, axis=0)
    seg_len2 = np.sum(seg * seg, 1)
    t = np.clip(np.einsum("nmd,md->nm", p[:, None] - a[None], seg) / seg_len2, 0, 1)
    foot = a[None] + t[..., None] * seg[None]
    dist2 = np.sum((p[:, None] - foot) ** 2, -1)
    best = np.argmin(dist2, 1)
    rows = np.arange(len(p))
    cum = np.concatenate([[0.0], np.cumsum(np.sqrt(seg_len2))])
    return (np.sqrt(dist2[rows, best]),
            cum[best] + t[rows, best] * np.sqrt(seg_len2[best]))


def lane_pose(line, s):
    """Point and segment heading at arclength ``s`` along a polyline."""
    line = np.asarray(line, float)
    seg = np.diff(line, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])
    s = min(max(s, 0.0), cum[-1])
    i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
    frac = (s - cum[i]) / (cum[i + 1] - cum[i])
    return line[i] + frac * seg[i], math.atan2(seg[i, 1], seg[i, 0])

# ------------------------------------------------------------------- suite


def read_episodes(path):
    """Episode headers and their step records from a simulate trace file."""
    episodes = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "step" in rec:
                episodes[-1]["records"].append(rec["step"])
            else:
                episodes.append({"header": rec, "records": []})
    return episodes


def check_episode(ep, scenario, hold_steps, dt):
    """Independent checks of one closed-loop episode against its scenario."""
    problems = []
    head, recs = ep["header"], ep["records"]
    name = f"{head['template']}/{head['variant']}"
    if not recs:
        return [f"{name}: no step records"]
    ego_dims = np.asarray(scenario["ego"]["box"], float)
    actors = scenario["actors"]
    act_dims = np.asarray([a["box"] for a in actors], float)
    ego = np.asarray([r["ego"] for r in recs], float)               # (S, 4)
    act = np.asarray([r["actors"] for r in recs], float)            # (S, A, 4)

    # footprints: no ego-actor overlap except on the last record of a collision
    hit = box_gap(ego[:, None, :2], ego[:, None, 2], ego_dims,
                  act[..., :2], act[..., 2], act_dims) >= 0.0
    hit_steps = np.flatnonzero(hit.any(axis=1))
    collided = head["outcome"] == "Collision"
    if collided != bool(head["collision"]):
        problems.append(f"{name}: outcome {head['outcome']} vs collision flag")
    if collided:
        if list(hit_steps) != [len(recs) - 1]:
            problems.append(f"{name}: collision episode overlaps at steps "
                            f"{hit_steps.tolist()}, expected only the last")
    elif hit_steps.size:
        problems.append(f"{name}: ego overlaps an actor at step {hit_steps[0]}")

    # goal: held inside the goal lane for the last hold_steps records
    success = head["outcome"] == "GoalReached"
    if success != bool(head["success"]) or success != (head["ttc"] is not None):
        problems.append(f"{name}: outcome, success flag and ttc disagree")
    goal_lane = scenario["lanes"][scenario["ego"]["goal"]["lane"]]
    lat, _ = project(ego[:, :2], goal_lane["points"])
    if success:
        if len(recs) < hold_steps or np.any(
                lat[-hold_steps:] >= 0.5 * goal_lane["width"] + 1e-9):
            problems.append(f"{name}: goal claimed but ego not held in goal lane")
        if abs(head["ttc"] - recs[-1]["t"]) > 1e-6:
            problems.append(f"{name}: ttc {head['ttc']} != last t {recs[-1]['t']}")
    if abs(head["goal_distance"] - lat[-1]) > 1e-6:
        problems.append(f"{name}: goal_distance {head['goal_distance']} != {lat[-1]}")

    # actors: speed range, car-following limits, monotone route arclength
    for i, spec in enumerate(actors):
        beh = spec["behavior"]
        v0 = spec["state"]["speed"]
        speeds = np.concatenate([[v0], act[:, i, 3]])
        line = scenario["lanes"][spec["route"]]["points"]
        _, s = project(act[:, i, :2], line)
        length = float(np.sum(np.hypot(*np.diff(np.asarray(line, float), axis=0).T)))
        top = max(beh["desired_speed"], v0)
        if np.any(speeds < 0.0) or np.any(speeds > top + 1e-9):
            problems.append(f"{name}: actor {i + 1} speed outside [0, {top}]")
        dv = np.diff(speeds)
        at_end = s >= length - 1e-6
        lo = -2.0 * beh["comfortable_decel"] * dt - 1e-9
        hi = beh["max_accel"] * dt + 1e-9
        bad = ((dv < lo) & ~at_end) | (dv > hi)
        if np.any(bad):
            problems.append(f"{name}: actor {i + 1} speed step {dv[bad][0]:.4f} "
                            f"outside car-following limits")
        if np.any(np.diff(s) < -1e-9):
            problems.append(f"{name}: actor {i + 1} route arclength decreases")

    # plans: chosen is the argmin of the finite objective values
    for r in recs:
        plan = r.get("plan")
        if plan is None:
            continue
        vals = np.array([np.inf if v is None else v
                         for v in plan["objective_values"]])
        if not np.isfinite(vals).any() or plan["chosen"] != int(np.argmin(vals)):
            problems.append(f"{name}: t={r['t']} chosen {plan['chosen']} is not "
                            f"the argmin of its objective values")
            break
    return problems


def aggregate_of(headers):
    """Per-planner aggregate recomputed from episode headers."""
    n = len(headers)
    ttcs = [h["ttc"] for h in headers if h["success"]]
    return {
        "episodes": n,
        "success_rate": 100.0 * sum(bool(h["success"]) for h in headers) / n,
        "mean_ttc": sum(ttcs) / len(ttcs) if ttcs else None,
        "mean_goal_distance": sum(h["goal_distance"] for h in headers) / n,
        "collision_rate": 100.0 * sum(bool(h["collision"]) for h in headers) / n,
        "mean_brake_events": sum(h["brake_events"] for h in headers) / n,
    }


def _close(a, b, tol):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(a))


def check_summaries(out_dir, planners, headers_by_planner):
    """aggregate.json and comparison.csv against the per-episode headers."""
    problems = []
    rows = {}
    with open(Path(out_dir) / "comparison.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["planner"]] = row
    columns = (("success_pct", "success_rate"), ("ttc_s", "mean_ttc"),
               ("goal_m", "mean_goal_distance"),
               ("collision_pct", "collision_rate"),
               ("brake_events", "mean_brake_events"))
    for planner in planners:
        want = aggregate_of(headers_by_planner[planner])
        with open(Path(out_dir) / planner / "aggregate.json") as fh:
            got = json.load(fh)
        if set(got) != set(want) or got["episodes"] != want["episodes"]:
            problems.append(f"{planner}: aggregate.json keys or episode count")
            continue
        for key, value in want.items():
            if not _close(got[key], value, 1e-9):
                problems.append(f"{planner}: aggregate {key} {got[key]} != {value}")
        row = rows.get(planner)
        if row is None:
            problems.append(f"{planner}: missing from comparison.csv")
            continue
        for col, key in columns:
            cell = float(row[col]) if row[col] else None
            if (cell is None) != (want[key] is None) or (
                    cell is not None and abs(cell - want[key]) > 5e-4 + 1e-9):
                problems.append(f"{planner}: comparison {col} {row[col]} != {want[key]}")
    return problems

# ------------------------------------------------------------ replan_dense


def _lse(x, axis):
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)), axis)


def expected_objectives(unary, pairwise, goal, log_beliefs, marginals, ego_xy,
                        variant, set_size, lambda_b, lambda_c, w_goal):
    """All K objective values of one planner variant, from the energy tables
    and the pairwise beliefs, written from the planning definitions."""
    k = unary.shape[1]
    pair = pairwise[0, 1:] + np.transpose(pairwise[1:, 0], (0, 2, 1))   # (N, Ke, Ka)
    base = unary[0] + w_goal * goal
    rows = log_beliefs[0, 1:]                                           # (N, Ke, Ka)
    if variant == "nonreactive":
        p = marginals[1:]
        return base + lambda_b * np.einsum("na,nea->e", p, pair)
    if variant == "reactive":
        sets = [[a] for a in range(k)]
        with_actor = True
    else:
        d2 = np.sum((ego_xy[:, None] - ego_xy[None]) ** 2, axis=(2, 3))
        sets = []
        for a in range(k):
            others = sorted((d2[a, b], b) for b in range(k) if b != a)
            sets.append([a] + [b for _, b in others[:set_size - 1]])
        with_actor = set_size < k
    out = np.empty(k)
    for a, members in enumerate(sets):
        if marginals[0, members].sum() <= 1e-12:
            out[a] = np.inf
            continue
        cond = _lse(rows[:, members, :], axis=1)
        q = np.exp(cond - _lse(cond, axis=1)[:, None])
        out[a] = base[a] + lambda_b * np.sum(q * pair[:, a])
        if with_actor:
            out[a] += lambda_c * np.sum(q * unary[1:])
    return out


def check_objectives(values, expected, chosen, tol=1e-9):
    problems = []
    fin = np.isfinite(expected)
    if not np.array_equal(fin, np.isfinite(values)):
        problems.append("degenerate candidates differ from the recomputation")
    elif np.any(np.abs(values[fin] - expected[fin])
                > tol * np.maximum(1.0, np.abs(expected[fin]))):
        err = np.max(np.abs(values[fin] - expected[fin]))
        problems.append(f"objective values differ from recomputation by {err:.3e}")
    if chosen != int(np.argmin(values)):
        problems.append(f"chosen {chosen} is not the argmin")
    return problems


def pair_entry(pos_i, head_i, speed_i, dims_i, pos_j, head_j, dims_j, gamma, d_safe):
    """Collision plus safety energy of one ordered candidate pair (i, a; j, b)."""
    fut = slice(1, None)
    hit = box_gap(pos_i[fut], head_i[fut], dims_i, pos_j[fut], head_j[fut], dims_j) >= 0
    dist = point_box_distance(pos_i[fut], pos_j[fut], head_j[fut], dims_j)
    return (gamma if hit.any() else 0.0) + float(
        np.sum(speed_i[fut] * np.maximum(0.0, d_safe - dist) ** 2))


def check_pair_samples(pairwise, cand_pos, cand_head, cand_speed, dims, gamma,
                       d_safe, rng, n_samples=32):
    """Recompute sampled pairwise entries; half of them are non-zero entries."""
    m, _, k, _ = pairwise.shape
    off = ~np.eye(m, dtype=bool)[:, :, None, None] & np.ones((1, 1, k, k), bool)
    nonzero = np.argwhere(off & (pairwise != 0.0))
    anywhere = np.argwhere(off)
    picks = [nonzero[i] for i in rng.choice(len(nonzero), min(len(nonzero), n_samples // 2),
                                            replace=False)] if len(nonzero) else []
    picks += [anywhere[i] for i in rng.choice(len(anywhere), n_samples - len(picks),
                                              replace=False)]
    problems = []
    for i, j, a, b in picks:
        want = pair_entry(cand_pos[i, a], cand_head[i, a], cand_speed[i, a], dims[i],
                          cand_pos[j, b], cand_head[j, b], dims[j], gamma, d_safe)
        got = pairwise[i, j, a, b]
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            problems.append(f"pairwise[{i},{j},{a},{b}] = {got} != {want}")
    if len(nonzero) < n_samples // 2:
        problems.append(f"only {len(nonzero)} non-zero pairwise entries to sample")
    return problems


def check_beliefs(marginals, beliefs, converged, tol, damping):
    """Normalisation, and pairwise-to-node consistency for converged calls.

    At a fixed point, summing a pairwise belief over one index gives the node
    marginal. A converged call stops once a damped update moves no message
    entry by ``tol``, so the undamped update is within d = tol / (1 - damping)
    of the messages in use. A belief row sum differs from the marginal by that
    error divided by the message entry; with K candidates and entries no
    smaller than 1/K of uniform, the bound is K^2 d.
    """
    problems = []
    m, k = marginals.shape
    if np.any(np.abs(marginals.sum(1) - 1.0) > 1e-9):
        problems.append("node marginals are not normalised")
    off = ~np.eye(m, dtype=bool)
    sums = beliefs.sum(axis=(2, 3))
    if np.any(np.abs(sums[off] - 1.0) > 1e-9):
        problems.append("pairwise beliefs are not normalised")
    if converged:
        bound = k * k * tol / (1.0 - damping)
        row = np.abs(beliefs.sum(axis=3) - marginals[:, None, :])[off]
        if row.max() > bound:
            problems.append(f"pairwise belief disagrees with node marginal by "
                            f"{row.max():.3e} > {bound:.3e}")
    return problems


def check_rigid_motion(values, moved_values, tol=1e-6):
    """Objective values of a rigidly moved scene match; so does the choice,
    unless the two best candidates are within the tolerance."""
    fin = np.isfinite(values)
    scale = max(1.0, float(np.max(np.abs(values[fin]))))
    if not np.array_equal(fin, np.isfinite(moved_values)):
        return ["rigid motion changed which candidates are degenerate"]
    err = float(np.max(np.abs(values[fin] - moved_values[fin])))
    if err > tol * scale:
        return [f"rigid motion changed objective values by {err:.3e}"]
    top = np.sort(values[fin])
    tie = len(top) > 1 and top[1] - top[0] <= tol * scale
    if not tie and int(np.argmin(values)) != int(np.argmin(moved_values)):
        return ["rigid motion changed the chosen candidate"]
    return []

# ------------------------------------------------------------------- train


def check_gradient(grad, fd, losses):
    problems = []
    if not all(math.isfinite(x) for x in losses):
        problems.append("non-finite loss")
    rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
    if not rel < 1e-4:
        problems.append(f"gradient vs central differences: relative error {rel:.2e}")
    return problems
