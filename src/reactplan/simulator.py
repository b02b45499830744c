"""Closed-loop scenario execution: replanning ego, car-following actors.

The ego replans every ``replan_steps`` simulation steps and tracks its
committed candidate exactly between replans (waypoint interpolation, no
controller error). Background actors follow their route centerline with a
heuristic car-following rule: cruise toward the desired speed, brake at the
comfortable rate when any vehicle occupies the lookahead corridor, twice as
hard when the nearest hazard is inside the minimum gap. Collision checks run
every step, not only at replan boundaries.

An episode ends when the ego reaches the goal, the timer expires, or the ego
collides. Only ego collisions terminate; actor-actor contact is recorded in
the trace.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import EnergyParams, build_tables
from .errors import InfeasiblePerturbation, InvalidScenario, check_counts
from .geometry import (Pose2, boxes_overlap_grid, overlap_matrix,
                       point_to_box_distance_grid, wrap_angle)
# Not called here: perfbench's tracer counts scalar overlap calls made through
# this module's ``boxes_overlap`` name, so the name must stay resolvable.
from .geometry import boxes_overlap  # noqa: F401
from .planner import PlannerConfig, plan
from .sampler import KinematicState, SamplerConfig, derived_seed, sample_candidates
from .scenarios import Actors, Scenario

OUTCOME_GOAL = "GoalReached"
OUTCOME_TIMER = "TimerExpired"
OUTCOME_COLLISION = "Collision"

CORRIDOR_MARGIN = 2.5          # added to the actor's own width, meters
BRAKE_THRESHOLD = -2.0         # m/s^2; stronger deceleration counts as braking


@dataclass(frozen=True)
class SimConfig:
    replan_steps: int = 3
    goal_radius: float = 2.0
    hold_steps: int = 10       # consecutive in-lane steps for a lane goal

    def __post_init__(self):
        check_counts(replan_steps=self.replan_steps, hold_steps=self.hold_steps)

    def to_dict(self) -> dict:
        return {"replan_steps": self.replan_steps,
                "goal_radius": self.goal_radius, "hold_steps": self.hold_steps}

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        return cls(**data)


@dataclass
class EpisodeResult:
    outcome: str
    success: bool
    ttc: float | None          # time to completion, valid iff success
    goal_distance: float
    collision: bool
    brake_events: int
    trace: list[dict]

    def summary(self) -> dict:
        return {"outcome": self.outcome, "success": self.success,
                "ttc": self.ttc, "goal_distance": self.goal_distance,
                "collision": self.collision, "brake_events": self.brake_events}


@dataclass
class SuiteResult:
    episodes: list[tuple[str, int, EpisodeResult]]
    skipped: list[tuple[str, int]] = field(default_factory=list)

    def aggregates(self) -> dict:
        return aggregate([ep for _, _, ep in self.episodes])


def aggregate(episodes: list[EpisodeResult]) -> dict:
    n = len(episodes)
    if n == 0:
        return {"episodes": 0, "success_rate": None, "mean_ttc": None,
                "mean_goal_distance": None, "collision_rate": None,
                "mean_brake_events": None}
    ttcs = [ep.ttc for ep in episodes if ep.success]
    return {
        "episodes": n,
        "success_rate": 100.0 * sum(ep.success for ep in episodes) / n,
        "mean_ttc": float(np.mean(ttcs)) if ttcs else None,
        "mean_goal_distance": float(np.mean([ep.goal_distance for ep in episodes])),
        "collision_rate": 100.0 * sum(ep.collision for ep in episodes) / n,
        "mean_brake_events": float(np.mean([ep.brake_events for ep in episodes])),
    }


def actor_policy_step(s: np.ndarray, v: np.ndarray, poses: np.ndarray,
                      actors: Actors, hazard_poses: np.ndarray,
                      hazard_dims: np.ndarray, dt: float):
    """One car-following step of every actor along its route centerline.

    Actor i is at arclength ``s[i]``, speed ``v[i]`` and pose ``poses[i]``
    (x, y, heading); all decide from this snapshot. Actor i's hazards are
    the shared boxes (centre poses ``hazard_poses`` (h, 3), half extents
    ``hazard_dims`` (h, 2); the ego, in a simulation) plus every other
    actor. Its hazard corridor is an oriented rectangle starting at the
    front bumper, ``hazard_lookahead`` long and ``own width +
    CORRIDOR_MARGIN`` wide. One grid overlap test of every corridor against
    every hazard and one grid of bumper-to-hazard distances answer all
    actors at once. Returns the new arclengths, speeds and poses, and the
    realized accelerations (clamped so no actor reverses).
    """
    heading = poses[:, 2]
    u = np.stack([np.cos(heading), np.sin(heading)], axis=1)
    half_length, half_width = actors.dims.T
    desired, max_accel, decel, lookahead, min_gap = actors.follow.T
    front = poses[:, :2] + half_length[:, None] * u
    corridor_center = front + (0.5 * lookahead)[:, None] * u
    corridor_dims = (0.5 * lookahead[:, None],
                     half_width[:, None] + 0.5 * CORRIDOR_MARGIN)

    boxes = np.concatenate([hazard_poses, poses])
    hl, hw = np.concatenate([hazard_dims, actors.dims]).T
    centers, headings = boxes[None, :, :2], boxes[None, :, 2]
    own = np.eye(len(s), len(boxes), k=len(hazard_poses), dtype=bool)
    # corridor headings are normalized like every Pose2 heading
    blocking = boxes_overlap_grid(
        corridor_center[:, None], wrap_angle(heading)[:, None], corridor_dims,
        centers, headings, (hl[None], hw[None])) & ~own
    dist = point_to_box_distance_grid(front[:, None], centers, headings,
                                      (hl[None], hw[None]))
    nearest = np.where(blocking, dist, np.inf).min(axis=1, initial=np.inf)

    cruise = np.maximum(np.minimum(max_accel, (desired - v) / dt), -decel)
    brake = -np.where(nearest < min_gap, 2.0, 1.0) * decel
    accel = np.where(blocking.any(axis=1), brake, cruise)

    new_v = np.maximum(0.0, v + accel * dt)
    realized = (new_v - v) / dt
    new_s = s + new_v * dt
    at_end = new_s >= actors.lengths
    new_s = np.where(at_end, actors.lengths, new_s)
    new_v = np.where(at_end, 0.0, new_v)
    return new_s, new_v, actors.poses(new_s), realized


def _goal_progress(scenario: Scenario, position: np.ndarray) -> float:
    kind, target = scenario.ego.goal
    if kind == "point":
        return float(np.hypot(position[0] - target[0], position[1] - target[1]))
    lane = scenario.lanes[target]
    dist, _ = lane.line.project(position)
    return float(dist)


def step_episode(scenario: Scenario, planner_cfg: PlannerConfig,
                 energy_params: EnergyParams, sampler_cfg: SamplerConfig,
                 sim_cfg: SimConfig, seed: int) -> EpisodeResult:
    """Run one scenario to termination; deterministic given the seed."""
    scenario.validate()
    dt = scenario.dt
    n_steps = int(round(scenario.timer / dt))
    goal_kind, goal_name = scenario.ego.goal
    goal_target = scenario.goal_target()

    actors, actor_s, actor_poses = scenario.actor_start()
    actor_v = np.array([a.state.speed for a in scenario.actors], dtype=float)
    boxes = [scenario.ego.box] + [a.box for a in scenario.actors]
    all_dims = np.array(boxes, dtype=float)

    pose = scenario.ego.state.pose
    ego_pose = np.array([pose.x, pose.y, pose.heading])
    ego_speed = scenario.ego.state.speed
    lanes_for_tables = [scenario.lanes[v.route].line
                        for v in (scenario.ego, *scenario.actors)]
    ref_speeds = [scenario.ego.ref_speed] + [a.behavior.desired_speed
                                             for a in scenario.actors]

    committed = None
    commit_time = 0.0
    hold_counter = 0
    braking = np.zeros(len(scenario.actors), dtype=bool)
    brake_events = 0
    trace: list[dict] = []
    outcome = OUTCOME_TIMER
    ttc = None
    collision = False

    for step in range(n_steps):
        t = step * dt
        plan_record = None
        if step % sim_cfg.replan_steps == 0:
            # the arrays hold wrapped headings, which Pose2 keeps bit for bit
            all_states = [KinematicState(Pose2(*p), v) for p, v in zip(
                np.vstack([ego_pose, actor_poses]).tolist(),
                [ego_speed] + actor_v.tolist())]
            candidates = []
            for idx, state in enumerate(all_states):
                cfg = replace(sampler_cfg, seed=derived_seed(seed, step, idx))
                candidates.append(sample_candidates(state, cfg, start_time=t))
            tables = build_tables(candidates, boxes, lanes_for_tables,
                                  ref_speeds, goal_target, energy_params)
            result = plan(candidates[0], tables, planner_cfg)
            committed = candidates[0][result.chosen]
            commit_time = t
            plan_record = {
                "chosen": result.chosen,
                "objective_values": [v if np.isfinite(v) else None
                                     for v in result.objective_values.tolist()],
                "breakdown": {
                    "ego_unary": float(result.ego_unary[result.chosen]),
                    "interaction": float(result.interaction[result.chosen]),
                    "actor_unary": float(result.actor_unary[result.chosen]),
                    "goal": float(result.goal[result.chosen]),
                },
                "converged": result.converged,
                "iters_used": result.iters_used,
            }

        # decisions from the common snapshot, then simultaneous motion
        actor_s, actor_v, actor_poses, accels = actor_policy_step(
            actor_s, actor_v, actor_poses, actors, ego_pose[None], all_dims[:1], dt)
        ego_pose, ego_speed = committed.state_at((t + dt) - commit_time)
        t_next = t + dt

        now_braking = accels < BRAKE_THRESHOLD
        brake_events += int(np.count_nonzero(now_braking & ~braking))
        braking = now_braking

        # row 0 is the ego; the strict upper triangle of the rest is
        # actor-actor contact
        hit = overlap_matrix(np.vstack([ego_pose, actor_poses]), all_dims)
        ego_hit = bool(hit[0, 1:].any())
        actor_contact = bool(np.triu(hit[1:, 1:], 1).any())

        record = {
            "t": round(t_next, 6),
            "ego": ego_pose.tolist() + [ego_speed],
            "actors": np.column_stack([actor_poses, actor_v]).tolist(),
            "actor_contact": actor_contact,
        }
        if plan_record is not None:
            record["plan"] = plan_record
        trace.append(record)

        if ego_hit:
            outcome = OUTCOME_COLLISION
            collision = True
            break

        if goal_kind == "point":
            if _goal_progress(scenario, ego_pose[:2]) <= sim_cfg.goal_radius:
                outcome = OUTCOME_GOAL
                ttc = t_next
                break
        else:
            lane = scenario.lanes[goal_name]
            lat, _ = lane.line.project(ego_pose[:2])
            hold_counter = hold_counter + 1 if lat < 0.5 * lane.width else 0
            if hold_counter >= sim_cfg.hold_steps:
                outcome = OUTCOME_GOAL
                ttc = t_next
                break

    success = outcome == OUTCOME_GOAL
    return EpisodeResult(outcome=outcome, success=success, ttc=ttc,
                         goal_distance=_goal_progress(scenario, ego_pose[:2]),
                         collision=collision, brake_events=brake_events,
                         trace=trace)


def perturb_scenario(scenario: Scenario, rng: np.random.Generator,
                     max_tries: int = 100) -> Scenario:
    """Gaussian position/speed perturbation of every actor, redrawn until the
    initial footprints do not overlap."""
    for _ in range(max_tries):
        actors = []
        for actor in scenario.actors:
            dx, dy = rng.normal(0.0, scenario.position_sigma, size=2)
            dv = rng.normal(0.0, scenario.speed_sigma)
            pose = actor.state.pose
            state = KinematicState(
                Pose2(pose.x + dx, pose.y + dy, pose.heading),
                max(0.0, actor.state.speed + dv))
            actors.append(replace(actor, state=state))
        candidate = replace(scenario, actors=tuple(actors))
        try:
            candidate.validate()
        except InvalidScenario:
            continue
        return candidate
    raise InfeasiblePerturbation(
        f"no valid perturbation of {scenario.name!r} in {max_tries} tries")


def _episode_job(args):
    scenario, planner_cfg, energy_params, sampler_cfg, sim_cfg, seed = args
    return step_episode(scenario, planner_cfg, energy_params, sampler_cfg,
                        sim_cfg, seed)


def run_suite(templates: list[Scenario], n_variants: int,
              planner_cfg: PlannerConfig, energy_params: EnergyParams,
              sampler_cfg: SamplerConfig, sim_cfg: SimConfig, seed: int,
              workers: int = 1) -> SuiteResult:
    """Perturbed variants of each template, executed and aggregated.

    Episode seeds derive from (suite seed, template index, variant index), so
    a suite is reproducible and episodes are independent of execution order.
    """
    if n_variants < 1:
        raise ValueError("n_variants must be >= 1")
    jobs = []
    meta = []
    skipped: list[tuple[str, int]] = []
    for t_idx, template in enumerate(templates):
        for v_idx in range(n_variants):
            pert_rng = np.random.default_rng(
                np.random.SeedSequence([int(seed), t_idx, v_idx, 0]))
            episode_seed = derived_seed(seed, t_idx, v_idx, 1)
            try:
                scenario = perturb_scenario(template, pert_rng)
            except InfeasiblePerturbation:
                skipped.append((template.name, v_idx))
                continue
            jobs.append((scenario, planner_cfg, energy_params, sampler_cfg,
                         sim_cfg, episode_seed))
            meta.append((template.name, v_idx))

    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_episode_job, jobs))
    else:
        results = [_episode_job(job) for job in jobs]

    episodes = [(name, v_idx, ep)
                for (name, v_idx), ep in zip(meta, results)]
    return SuiteResult(episodes=episodes, skipped=skipped)
