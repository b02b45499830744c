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

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import BoxDims, EnergyParams, build_tables
from .errors import InfeasiblePerturbation, InvalidScenario
from .geometry import OrientedBox, Pose2, boxes_overlap, point_to_box_distance
from .planner import PlannerConfig, plan
from .sampler import KinematicState, SamplerConfig, sample_candidates
from .scenarios import CarFollowingParams, Lane, Scenario, vehicle_box

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

    def to_dict(self) -> dict:
        return {"replan_steps": self.replan_steps,
                "goal_radius": self.goal_radius, "hold_steps": self.hold_steps}

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        return cls(**data)


@dataclass
class ActorState:
    arclength: float
    speed: float
    pose: Pose2


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


def _lane_pose(lane: Lane, s: float) -> Pose2:
    point = lane.line.point_at(s)
    return Pose2(point[0], point[1], lane.line.tangent_at(s))


def actor_policy_step(state: ActorState, lane: Lane, own_box: BoxDims,
                      hazards: list[OrientedBox], params: CarFollowingParams,
                      dt: float) -> tuple[ActorState, float]:
    """One car-following step along the route centerline.

    The hazard corridor is an oriented rectangle starting at the front
    bumper, ``hazard_lookahead`` long and ``own width + CORRIDOR_MARGIN``
    wide. Returns the new state and the realized acceleration (clamped so the
    actor never reverses).
    """
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
    return ActorState(arclength=new_s, speed=new_speed,
                      pose=_lane_pose(lane, new_s)), realized


def _derived_seed(parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


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

    actor_lanes = [scenario.lanes[a.route] for a in scenario.actors]
    actor_states = []
    for actor, lane in zip(scenario.actors, actor_lanes):
        _, s = lane.line.project(actor.state.pose.position)
        actor_states.append(ActorState(arclength=s, speed=actor.state.speed,
                                       pose=_lane_pose(lane, s)))

    ego_pose = scenario.ego.state.pose
    ego_speed = scenario.ego.state.speed
    ego_lane = scenario.lanes[scenario.ego.route]
    lanes_for_tables = [ego_lane.line] + [lane.line for lane in actor_lanes]
    boxes = [scenario.ego.box] + [a.box for a in scenario.actors]
    ref_speeds = [scenario.ego.ref_speed] + [a.behavior.desired_speed
                                             for a in scenario.actors]

    committed = None
    commit_time = 0.0
    hold_counter = 0
    braking = [False] * len(scenario.actors)
    brake_events = 0
    trace: list[dict] = []
    outcome = OUTCOME_TIMER
    ttc = None
    collision = False

    for step in range(n_steps):
        t = step * dt
        plan_record = None
        if step % sim_cfg.replan_steps == 0:
            all_states = [KinematicState(ego_pose, ego_speed)] + \
                [KinematicState(st.pose, st.speed) for st in actor_states]
            candidates = []
            for idx, state in enumerate(all_states):
                cfg = replace(sampler_cfg, seed=_derived_seed((seed, step, idx)))
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
            }

        # decisions from the common snapshot, then simultaneous motion
        ego_box_now = vehicle_box(ego_pose, scenario.ego.box)
        actor_boxes_now = [vehicle_box(st.pose, a.box)
                           for st, a in zip(actor_states, scenario.actors)]
        new_actor_states = []
        accels = []
        for i, (actor, lane, st) in enumerate(
                zip(scenario.actors, actor_lanes, actor_states)):
            hazards = [ego_box_now] + [b for j, b in enumerate(actor_boxes_now)
                                       if j != i]
            new_state, accel = actor_policy_step(st, lane, actor.box, hazards,
                                                 actor.behavior, dt)
            new_actor_states.append(new_state)
            accels.append(accel)

        ego_pose, ego_speed = committed.state_at((t + dt) - commit_time)
        actor_states = new_actor_states
        t_next = t + dt

        for i, accel in enumerate(accels):
            now_braking = accel < BRAKE_THRESHOLD
            if now_braking and not braking[i]:
                brake_events += 1
            braking[i] = now_braking

        ego_box = vehicle_box(ego_pose, scenario.ego.box)
        actor_boxes = [vehicle_box(st.pose, a.box)
                       for st, a in zip(actor_states, scenario.actors)]
        ego_hit = any(boxes_overlap(ego_box, b) for b in actor_boxes)
        actor_contact = any(
            boxes_overlap(actor_boxes[i], actor_boxes[j])
            for i in range(len(actor_boxes)) for j in range(i + 1, len(actor_boxes)))

        record = {
            "t": round(t_next, 6),
            "ego": [ego_pose.x, ego_pose.y, ego_pose.heading, ego_speed],
            "actors": [[st.pose.x, st.pose.y, st.pose.heading, st.speed]
                       for st in actor_states],
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
            if _goal_progress(scenario, ego_pose.position) <= sim_cfg.goal_radius:
                outcome = OUTCOME_GOAL
                ttc = t_next
                break
        else:
            lane = scenario.lanes[goal_name]
            lat, _ = lane.line.project(ego_pose.position)
            hold_counter = hold_counter + 1 if lat < 0.5 * lane.width else 0
            if hold_counter >= sim_cfg.hold_steps:
                outcome = OUTCOME_GOAL
                ttc = t_next
                break

    success = outcome == OUTCOME_GOAL
    return EpisodeResult(outcome=outcome, success=success, ttc=ttc,
                         goal_distance=_goal_progress(scenario, ego_pose.position),
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
            episode_seed = _derived_seed((seed, t_idx, v_idx, 1))
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
