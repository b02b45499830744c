"""Closed-loop execution: actor policy, episode mechanics, suites."""
import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from conftest import actor_policy_step_reference, box_arrays
from reactplan import simulator
from reactplan.config import RunConfig
from reactplan.energy import BoxDims
from reactplan.errors import InfeasiblePerturbation, InvalidScenario
from reactplan.geometry import OrientedBox, Polyline, Pose2, boxes_overlap
from reactplan.sampler import KinematicState, SamplerConfig
from reactplan.scenarios import (ActorSpec, Actors, CarFollowingParams, EgoSpec,
                                 Lane, Scenario, builtin_templates)
from reactplan.simulator import (CORRIDOR_MARGIN, SimConfig,
                                 actor_policy_step, aggregate,
                                 perturb_scenario, run_suite, step_episode)

CAR = BoxDims(2.25, 0.9)
LONG_LANE = Lane(Polyline([[-50.0, 0.0], [500.0, 0.0]]))


def cruise(speed=8.0, **kw):
    return CarFollowingParams(desired_speed=speed, **kw)


def open_road_scenario(goal=("point", (60.0, 0.0)), timer=12.0, actors=()):
    lanes = {"main": LONG_LANE}
    ego = EgoSpec(state=KinematicState(Pose2(0.0, 0.0, 0.0), 8.0), box=CAR,
                  route="main", goal=goal, ref_speed=8.0)
    return Scenario(name="open", lanes=lanes, ego=ego, actors=tuple(actors),
                    timer=timer, position_sigma=0.0, speed_sigma=0.0)


# one actor's state as the tests write it; the simulator holds columns of these
Actor = namedtuple("Actor", "arclength speed pose")


def step_actors(states, lanes, dims, params, hazards, dt):
    """``actor_policy_step`` on Actor rows and OrientedBox shared
    hazards; returns its arclength, speed, pose and acceleration arrays."""
    actors = Actors.pack([lane.line for lane in lanes], dims, params)
    s = np.array([st.arclength for st in states], dtype=float)
    v = np.array([st.speed for st in states], dtype=float)
    poses = np.array([[st.pose.x, st.pose.y, st.pose.heading]
                      for st in states]).reshape(-1, 3)
    return actor_policy_step(s, v, poses, actors, *box_arrays(hazards), dt)


def step_one(state, hazards, params):
    """One actor alone on LONG_LANE, with ``hazards`` as its shared hazards."""
    s, v, poses, accel = step_actors([state], [LONG_LANE], [CAR], [params],
                                     hazards, 0.1)
    return Actor(s[0], v[0], Pose2(*poses[0])), accel[0]


class TestActorPolicyStep:
    def test_empty_road_ramps_to_desired_speed(self):
        params = cruise(8.0)
        state = Actor(arclength=50.0, speed=0.0, pose=Pose2(0.0, 0.0, 0.0))
        for _ in range(100):
            state, _ = step_one(state, [], params)
        assert state.speed == pytest.approx(8.0)

    def test_never_reverses(self):
        params = cruise(8.0)
        blocker = OrientedBox(Pose2(8.0, 0.0, 0.0), 2.25, 0.9)
        state = Actor(arclength=50.0, speed=1.0, pose=Pose2(0.0, 0.0, 0.0))
        for _ in range(50):
            state, _ = step_one(state, [blocker], params)
            assert state.speed >= 0.0

    def test_stops_before_stopped_leader(self):
        # initial gap comfortably above v^2 / (2 * decel) plus the minimum gap
        params = cruise(10.0, comfortable_decel=3.0, hazard_lookahead=25.0,
                        min_gap=5.0)
        v0 = 10.0
        stopping = v0 ** 2 / (2 * params.comfortable_decel)
        leader_front = 50.0 + 2.25 + stopping + params.min_gap + 2.0
        leader = OrientedBox(Pose2(leader_front + 2.25, 0.0, 0.0), 2.25, 0.9)
        state = Actor(arclength=100.0, speed=v0, pose=Pose2(50.0, 0.0, 0.0))
        for _ in range(300):
            state, _ = step_one(state, [leader], params)
            own = OrientedBox(state.pose, *CAR)
            assert not boxes_overlap(own, leader)
            if state.speed == 0.0:
                break
        assert state.speed == 0.0

    def test_corridor_boundary_toggles_deceleration(self):
        params = cruise(8.0, hazard_lookahead=15.0)
        state = Actor(arclength=50.0, speed=8.0, pose=Pose2(0.0, 0.0, 0.0))
        # corridor spans [front bumper, front bumper + lookahead]
        front = 2.25
        for offset, expect_brake in ((front + 15.0 - 0.05, True),
                                     (front + 15.0 + 2.25 + 0.05, False)):
            hazard = OrientedBox(Pose2(offset, 0.0, 0.0), 2.25, 0.9)
            _, accel = step_one(state, [hazard], params)
            assert (accel < 0) == expect_brake

    def test_corridor_lateral_extent(self):
        params = cruise(8.0)
        state = Actor(arclength=50.0, speed=8.0, pose=Pose2(0.0, 0.0, 0.0))
        half_width = CAR.half_width + 0.5 * CORRIDOR_MARGIN
        for lateral, expect_brake in ((half_width + 0.9 - 0.05, True),
                                      (half_width + 0.9 + 0.05, False)):
            hazard = OrientedBox(Pose2(8.0, lateral, 0.0), 2.25, 0.9)
            _, accel = step_one(state, [hazard], params)
            assert (accel < 0) == expect_brake

    def test_hard_braking_inside_min_gap(self):
        params = cruise(8.0, comfortable_decel=3.0, min_gap=5.0)
        state = Actor(arclength=50.0, speed=8.0, pose=Pose2(0.0, 0.0, 0.0))
        near = OrientedBox(Pose2(2.25 + 3.0 + 2.25, 0.0, 0.0), 2.25, 0.9)
        far = OrientedBox(Pose2(2.25 + 8.0 + 2.25, 0.0, 0.0), 2.25, 0.9)
        _, accel_near = step_one(state, [near], params)
        _, accel_far = step_one(state, [far], params)
        assert accel_near == pytest.approx(-6.0)
        assert accel_far == pytest.approx(-3.0)

    def test_other_actors_are_hazards_but_not_self(self):
        params = cruise(8.0)
        rear = Actor(arclength=50.0, speed=6.0, pose=Pose2(0.0, 0.0, 0.0))
        lead = Actor(arclength=60.0, speed=6.0, pose=Pose2(10.0, 0.0, 0.0))
        # the corridor starts at the front bumper, so each actor's own box
        # touches its corridor; only the other actor may count as a hazard
        _, _, _, (accel_rear, accel_lead) = step_actors(
            [rear, lead], [LONG_LANE] * 2, [CAR] * 2, [params] * 2, [], 0.1)
        assert accel_rear < 0
        assert accel_lead > 0


def random_actor_scene(rng, m):
    """``m`` actors on random two-segment lanes within a 30 m square, random
    footprints and car-following parameters, plus a random ego box."""
    states, lanes, dims, params = [], [], [], []
    for _ in range(m):
        origin = rng.uniform(-15, 15, size=2)
        theta = rng.uniform(-math.pi, math.pi)
        bend = theta + rng.uniform(-0.5, 0.5)
        mid = origin + rng.uniform(5, 30) * np.array([math.cos(theta), math.sin(theta)])
        end = mid + rng.uniform(5, 30) * np.array([math.cos(bend), math.sin(bend)])
        lane = Lane(Polyline([origin, mid, end]))
        s = rng.uniform(0.0, lane.line.length)
        point = lane.line.point_at(s)
        speed = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 15.0)
        states.append(Actor(arclength=s, speed=speed,
                            pose=Pose2(point[0], point[1], lane.line.tangent_at(s))))
        lanes.append(lane)
        dims.append(BoxDims(rng.uniform(1.5, 2.5), rng.uniform(0.7, 1.1)))
        lookahead = rng.uniform(6.0, 25.0)
        params.append(CarFollowingParams(
            desired_speed=rng.uniform(3.0, 15.0), max_accel=rng.uniform(0.5, 3.0),
            comfortable_decel=rng.uniform(1.0, 6.0), hazard_lookahead=lookahead,
            min_gap=rng.uniform(0.5, lookahead - 0.1)))
    ego = OrientedBox(Pose2(*rng.uniform(-15, 15, size=2), rng.uniform(-math.pi, math.pi)),
                      2.25, 0.9)
    return states, lanes, dims, params, ego


def assert_matches_reference(states, lanes, dims, params, shared, dt):
    """Batched step equals the scalar reference for every actor, bit for
    bit; returns the reference accelerations."""
    got_s, got_v, got_poses, got_accels = step_actors(states, lanes, dims, params,
                                                      shared, dt)
    boxes = [OrientedBox(st.pose, *d) for st, d in zip(states, dims)]
    accels = []
    for i, st in enumerate(states):
        hazards = list(shared) + boxes[:i] + boxes[i + 1:]
        s, v, pose, accel = actor_policy_step_reference(
            *st, lanes[i], dims[i], hazards, params[i], dt)
        got = np.array([got_s[i], got_v[i], *got_poses[i], got_accels[i]])
        want = np.array([s, v, pose.x, pose.y, pose.heading, accel])
        assert got.tobytes() == want.tobytes()
        accels.append(accel)
    return accels


class TestActorPolicyStepMatchesReference:
    def test_random_scenes(self):
        rng = np.random.default_rng(41)
        seen = {"cruise": 0, "brake": 0, "hard": 0, "stopped": 0, "lane_end": 0}
        for trial in range(200):
            m = int(rng.integers(1, 9))
            states, lanes, dims, params, ego = random_actor_scene(rng, m)
            dt = float(rng.choice([0.1, 0.25, 1.0]))
            accels = assert_matches_reference(states, lanes, dims, params, [ego], dt)
            new_s, new_v, _, _ = step_actors(states, lanes, dims, params, [ego], dt)
            for st, s, v, p, a, lane in zip(states, new_s, new_v, params, accels, lanes):
                seen["cruise"] += a > -p.comfortable_decel
                seen["brake"] += a == -p.comfortable_decel
                seen["hard"] += a == -2.0 * p.comfortable_decel
                seen["stopped"] += v == 0.0 and st.speed > 0.0
                seen["lane_end"] += s == lane.line.length
        assert min(seen.values()) > 0, seen

    def test_one_actor_and_no_shared_hazards(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            states, lanes, dims, params, ego = random_actor_scene(rng, 1)
            assert_matches_reference(states, lanes, dims, params, [ego], 0.1)
            assert_matches_reference(states, lanes, dims, params, [], 0.1)
        s, v, poses, accels = step_actors([], [], [], [], [], 0.1)
        assert s.shape == v.shape == accels.shape == (0,) and poses.shape == (0, 3)

    def test_speed_clipped_at_zero_and_lane_end(self):
        params = cruise(8.0, comfortable_decel=3.0)
        blocker = OrientedBox(Pose2(8.0, 0.0, 0.0), 2.25, 0.9)
        slow = Actor(arclength=50.0, speed=0.1, pose=Pose2(0.0, 0.0, 0.0))
        [accel] = assert_matches_reference([slow], [LONG_LANE], [CAR], [params],
                                           [blocker], 0.1)
        assert accel == pytest.approx(-1.0)           # realized, not commanded -6
        short = Lane(Polyline([[0.0, 0.0], [20.0, 0.0]]))
        near_end = Actor(arclength=19.5, speed=8.0, pose=Pose2(19.5, 0.0, 0.0))
        assert_matches_reference([near_end], [short], [CAR], [params], [], 0.1)
        [s], [v], _, _ = step_actors([near_end], [short], [CAR], [params], [], 0.1)
        assert s == short.line.length and v == 0.0
        # cruising at the desired speed lands exactly on the end: 19.5 + 8 / 16
        exact = Actor(arclength=19.5, speed=8.0, pose=Pose2(19.5, 0.0, 0.0))
        assert_matches_reference([exact], [short], [CAR], [params], [], 0.0625)
        [s], [v], _, _ = step_actors([exact], [short], [CAR], [params], [], 0.0625)
        assert s == 20.0 and v == 0.0

    def test_hazard_exactly_touching_the_corridor(self):
        # axis-aligned corridor: x in [2, 18], |y| <= 0.75 + CORRIDOR_MARGIN / 2
        # = 2; a hazard with half width 1 centred at y = 3 touches its edge
        dims = BoxDims(2.0, 0.75)
        params = cruise(8.0, hazard_lookahead=16.0)
        state = Actor(arclength=50.0, speed=8.0, pose=Pose2(0.0, 0.0, 0.0))
        touching = OrientedBox(Pose2(10.0, 3.0, 0.0), 2.0, 1.0)
        apart = OrientedBox(Pose2(10.0, 3.0 + 1e-9, 0.0), 2.0, 1.0)
        ahead = OrientedBox(Pose2(20.0, 0.0, 0.0), 2.0, 1.0)   # rear at x = 18
        [a_touch] = assert_matches_reference([state], [LONG_LANE], [dims], [params],
                                             [touching], 0.1)
        [a_apart] = assert_matches_reference([state], [LONG_LANE], [dims], [params],
                                             [apart], 0.1)
        [a_ahead] = assert_matches_reference([state], [LONG_LANE], [dims], [params],
                                             [ahead], 0.1)
        assert a_touch < 0 and a_ahead < 0
        assert a_apart == 0.0


class TestActorArrays:
    def lines(self, rng, n):
        return [Polyline(np.cumsum(rng.uniform(-10, 10, size=(4, 2)), axis=0))
                for _ in range(n)]

    def test_poses_match_scalar_lane_pose_one_lookup_per_line(self, monkeypatch):
        rng = np.random.default_rng(5)
        lines = self.lines(rng, 3)
        routes = [lines[i] for i in (0, 2, 0, 0, 2, 2, 0)]
        s = np.array([rng.uniform(-5.0, line.length + 5.0) for line in routes])
        actors = Actors.pack(routes, [CAR] * 7, [cruise()] * 7)
        assert actors.lines == (lines[0], lines[2])
        assert actors.route.tolist() == [0, 1, 0, 0, 1, 1, 0]
        assert actors.lengths.tolist() == [line.length for line in routes]
        assert actors.dims.shape == (7, 2) and actors.follow.shape == (7, 5)
        calls = []
        real_point_at = Polyline.point_at
        monkeypatch.setattr(Polyline, "point_at",
                            lambda line, s: calls.append(s) or real_point_at(line, s))
        poses = actors.poses(s)
        monkeypatch.undo()
        assert len(calls) == 2
        for line, s_i, got in zip(routes, s, poses):
            point = line.point_at(s_i)
            want = Pose2(point[0], point[1], line.tangent_at(s_i))
            assert got.tobytes() == np.array([want.x, want.y, want.heading]).tobytes()

    def test_actor_start_snaps_each_actor_to_its_route(self):
        rng = np.random.default_rng(6)
        lines = self.lines(rng, 2)
        lanes = {"a": Lane(lines[0]), "b": Lane(lines[1])}
        specs = [ActorSpec(state=KinematicState(Pose2(*rng.uniform(-20, 20, 2), 0.0), 1.0),
                           box=CAR, route=route, behavior=cruise())
                 for route in "baab"]
        scenario = replace(open_road_scenario(), lanes={**lanes, "main": LONG_LANE},
                           actors=tuple(specs))
        _, s, poses = scenario.actor_start()
        for spec, s_i, pose in zip(specs, s, poses):
            line = lanes[spec.route].line
            assert s_i == line.project(spec.state.pose.position)[1]
            point = line.point_at(s_i)
            assert pose.tolist() == [point[0], point[1],
                                     Pose2(0.0, 0.0, line.tangent_at(s_i)).heading]


class TestSimConfig:
    @pytest.mark.parametrize("option", [
        {"replan_steps": 0}, {"replan_steps": 2.5}, {"hold_steps": 0},
        {"hold_steps": 1.5}, {"hold_steps": True}])
    def test_rejects_bad_counts(self, option):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            SimConfig(**option)


class TestStepEpisode:
    def test_non_replan_steps_build_no_pose_or_box_objects(self, monkeypatch):
        built = {Pose2: 0, OrientedBox: 0}
        for cls in built:
            def counting(self, cls=cls, init=cls.__post_init__):
                built[cls] += 1
                init(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        # counts seen at each actor step; from one call to the next, the
        # simulator finishes a step and starts the next one
        seen = []
        real_step = simulator.actor_policy_step

        def recording_step(*args):
            seen.append(dict(built))
            return real_step(*args)

        monkeypatch.setattr(simulator, "actor_policy_step", recording_step)
        cfg = RunConfig(sampler=SamplerConfig(k=4, horizon_steps=6))
        sim_cfg = SimConfig(replan_steps=5)
        step_episode(builtin_templates()["merge_dense"], cfg.planner_config(),
                     cfg.energy, cfg.sampler, sim_cfg, seed=0)
        assert len(seen) > 3 * sim_cfg.replan_steps
        assert seen[0][Pose2] > 0                 # replans build sampler states
        for step in range(1, len(seen)):
            if step % sim_cfg.replan_steps:
                assert seen[step] == seen[step - 1], step

    def test_replans_build_no_state_config_or_seed_objects(self, monkeypatch):
        built = dict.fromkeys((KinematicState, Pose2, SamplerConfig, "SeedSequence"), 0)
        for cls in (KinematicState, Pose2, SamplerConfig):
            def counting(self, cls=cls, init=cls.__post_init__):
                built[cls] += 1
                init(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        real_seq = np.random.SeedSequence

        def counting_seq(*args, **kwargs):
            built["SeedSequence"] += 1
            return real_seq(*args, **kwargs)
        monkeypatch.setattr(np.random, "SeedSequence", counting_seq)
        # counts at the end of every step (its actor step) and once each
        # replan has sampled (its tables)
        marks = []
        for name in ("actor_policy_step", "build_tables"):
            def recording(*args, name=name, real=getattr(simulator, name)):
                marks.append((name, dict(built)))
                return real(*args)
            monkeypatch.setattr(simulator, name, recording)
        cfg = RunConfig(sampler=SamplerConfig(k=4, horizon_steps=6))
        scenario, planner_cfg = builtin_templates()["merge_dense"], cfg.planner_config()
        built.update(dict.fromkeys(built, 0))
        step_episode(scenario, planner_cfg, cfg.energy, cfg.sampler,
                     SimConfig(replan_steps=2), seed=3)
        replans = [i for i, (name, _) in enumerate(marks) if name == "build_tables"]
        assert len(replans) > 3 and replans[0] == 0
        for i in replans[1:]:
            assert marks[i - 1][0] == "actor_policy_step"
            assert marks[i][1] == marks[i - 1][1], i
        totals = marks[-1][1]
        assert totals[KinematicState] == totals[SamplerConfig] == totals["SeedSequence"] == 0

    def test_open_road_reaches_goal_in_expected_time(self):
        cfg = RunConfig()
        scenario = open_road_scenario()
        ep = step_episode(scenario, cfg.planner_config(), cfg.energy,
                          cfg.sampler, cfg.sim, seed=0)
        assert ep.outcome == "GoalReached"
        assert ep.success and not ep.collision
        # deceleration to land the final waypoint on the goal stretches the
        # last meters, so allow a generous band around the cruise estimate
        expected = (60.0 - cfg.sim.goal_radius) / 8.0
        assert ep.ttc == pytest.approx(expected, abs=2.0)

    def test_short_timer_expires(self):
        cfg = RunConfig()
        scenario = replace(open_road_scenario(), timer=0.1)
        ep = step_episode(scenario, cfg.planner_config(), cfg.energy,
                          cfg.sampler, cfg.sim, seed=0)
        assert ep.outcome == "TimerExpired"
        assert not ep.success and ep.ttc is None

    def test_forced_collision_terminates(self):
        # stationary ego (K = 1 yields only the stopping candidate), one
        # actor with feeble brakes driving straight at it
        cfg = RunConfig(sampler=SamplerConfig(k=1))
        runner = ActorSpec(
            state=KinematicState(Pose2(-30.0, 0.0, 0.0), 10.0), box=CAR,
            route="main",
            behavior=CarFollowingParams(desired_speed=10.0, max_accel=2.0,
                                        comfortable_decel=0.05,
                                        hazard_lookahead=2.0, min_gap=1.0))
        scenario = open_road_scenario(actors=[runner], timer=10.0)
        ego_stationary = replace(
            scenario, ego=replace(scenario.ego,
                                  state=KinematicState(Pose2(0.0, 0.0, 0.0), 0.0)))
        ep = step_episode(ego_stationary, cfg.planner_config(), cfg.energy,
                          cfg.sampler, cfg.sim, seed=0)
        assert ep.outcome == "Collision"
        assert ep.collision and not ep.success

    def test_collision_checked_every_step_not_only_replans(self):
        cfg = RunConfig(sampler=SamplerConfig(k=1))
        runner = ActorSpec(
            state=KinematicState(Pose2(-29.3, 0.0, 0.0), 10.0), box=CAR,
            route="main",
            behavior=CarFollowingParams(desired_speed=10.0, max_accel=2.0,
                                        comfortable_decel=0.05,
                                        hazard_lookahead=2.0, min_gap=1.0))
        scenario = open_road_scenario(actors=[runner], timer=10.0)
        ego_stationary = replace(
            scenario, ego=replace(scenario.ego,
                                  state=KinematicState(Pose2(0.0, 0.0, 0.0), 0.0)))
        ep = step_episode(ego_stationary, cfg.planner_config(), cfg.energy,
                          cfg.sampler, cfg.sim, seed=0)
        assert ep.outcome == "Collision"
        final_step = round(ep.trace[-1]["t"] / scenario.dt)
        assert final_step % cfg.sim.replan_steps != 0

    def test_lane_goal_requires_holding(self):
        cfg = RunConfig()
        lanes = {"main": LONG_LANE,
                 "target": Lane(Polyline([[-50.0, 3.5], [500.0, 3.5]]))}
        ego = EgoSpec(state=KinematicState(Pose2(0.0, 0.0, 0.0), 8.0), box=CAR,
                      route="main", goal=("lane", "target"), ref_speed=8.0)
        scenario = Scenario(name="free_merge", lanes=lanes, ego=ego, actors=(),
                            timer=16.0, position_sigma=0.0, speed_sigma=0.0)
        ep = step_episode(scenario, cfg.planner_config(), cfg.energy,
                          cfg.sampler, cfg.sim, seed=3)
        assert ep.outcome == "GoalReached"
        # the last hold_steps steps must all lie within half a lane width
        target = lanes["target"].line
        tail = ep.trace[-cfg.sim.hold_steps:]
        for rec in tail:
            dist, _ = target.project(np.array(rec["ego"][:2]))
            assert dist < 0.5 * lanes["target"].width

    def test_deterministic_traces(self):
        cfg = RunConfig()
        scenario = builtin_templates()["merge_dense"]
        a = step_episode(scenario, cfg.planner_config(), cfg.energy,
                         cfg.sampler, cfg.sim, seed=7)
        b = step_episode(scenario, cfg.planner_config(), cfg.energy,
                         cfg.sampler, cfg.sim, seed=7)
        assert a.trace == b.trace
        assert a.summary() == b.summary()

    def test_plan_records_carry_iters_used(self, monkeypatch):
        results = []
        real_plan = simulator.plan

        def recording_plan(*args):
            results.append(real_plan(*args))
            return results[-1]

        cfg = RunConfig()
        monkeypatch.setattr(simulator, "plan", recording_plan)
        ep = step_episode(builtin_templates()["merge_dense"], cfg.planner_config(),
                          cfg.energy, cfg.sampler, cfg.sim, seed=7)
        records = [rec["plan"] for rec in ep.trace if "plan" in rec]
        assert len(records) == len(results) > 1
        assert [(r["chosen"], r["converged"], r["iters_used"]) for r in records] == \
            [(res.chosen, res.converged, res.iters_used) for res in results]

    def test_actor_contact_recorded_but_not_terminal(self):
        # two actors on crossing lanes with no hazard reaction distance
        cfg = RunConfig(sampler=SamplerConfig(k=1))
        lanes = {
            "main": LONG_LANE,
            "ns": Lane(Polyline([[30.0, -40.0], [30.0, 40.0]])),
            "ew": Lane(Polyline([[-10.0, -0.4], [70.0, -0.4]])),
        }
        blind = CarFollowingParams(desired_speed=9.0, max_accel=3.0,
                                   comfortable_decel=0.01,
                                   hazard_lookahead=0.5, min_gap=0.2)
        actors = (
            ActorSpec(state=KinematicState(Pose2(30.0, -18.0, math.pi / 2), 9.0),
                      box=CAR, route="ns", behavior=blind),
            ActorSpec(state=KinematicState(Pose2(12.0, -0.4, 0.0), 9.0),
                      box=CAR, route="ew", behavior=blind),
        )
        ego = EgoSpec(state=KinematicState(Pose2(0.0, 30.0, 0.0), 0.0), box=CAR,
                      route="main", goal=("point", (500.0, 0.0)), ref_speed=0.0)
        scenario = Scenario(name="crossing", lanes=lanes, ego=ego, actors=actors,
                            timer=6.0, position_sigma=0.0, speed_sigma=0.0)
        ep = step_episode(scenario, cfg.planner_config(), cfg.energy,
                          cfg.sampler, cfg.sim, seed=0)
        assert any(rec["actor_contact"] for rec in ep.trace)
        assert ep.outcome == "TimerExpired"

    def test_overlapping_start_rejected(self):
        cfg = RunConfig()
        blocked = open_road_scenario(actors=[
            ActorSpec(state=KinematicState(Pose2(1.0, 0.0, 0.0), 0.0), box=CAR,
                      route="main", behavior=cruise(5.0))])
        with pytest.raises(InvalidScenario):
            step_episode(blocked, cfg.planner_config(), cfg.energy,
                         cfg.sampler, cfg.sim, seed=0)

    def test_outcome_taxonomy(self):
        cfg = RunConfig()
        scenario = builtin_templates()["arc_merge"]
        ep = step_episode(scenario, cfg.planner_config(), cfg.energy,
                          cfg.sampler, cfg.sim, seed=5)
        assert ep.outcome in ("GoalReached", "TimerExpired", "Collision")
        assert ep.success == (ep.outcome == "GoalReached")
        if ep.success:
            assert ep.ttc is not None and ep.ttc <= scenario.timer
            assert not ep.collision


class TestPerturbation:
    def test_zero_sigma_is_identity(self):
        rng = np.random.default_rng(0)
        scenario = replace(builtin_templates()["merge_dense"],
                           position_sigma=0.0, speed_sigma=0.0)
        perturbed = perturb_scenario(scenario, rng)
        for a, b in zip(scenario.actors, perturbed.actors):
            assert a.state.pose == b.state.pose
            assert a.state.speed == b.state.speed

    def test_perturbed_scenarios_stay_valid(self):
        rng = np.random.default_rng(1)
        scenario = builtin_templates()["left_turn"]
        for _ in range(20):
            perturb_scenario(scenario, rng).validate()

    def test_infeasible_perturbation_raises(self):
        lanes = {"main": LONG_LANE}
        a = ActorSpec(state=KinematicState(Pose2(10.0, 0.0, 0.0), 5.0), box=CAR,
                      route="main", behavior=cruise(5.0))
        b = ActorSpec(state=KinematicState(Pose2(11.0, 0.0, 0.0), 5.0), box=CAR,
                      route="main", behavior=cruise(5.0))
        ego = EgoSpec(state=KinematicState(Pose2(-30.0, 0.0, 0.0), 5.0), box=CAR,
                      route="main", goal=("point", (100.0, 0.0)), ref_speed=5.0)
        overlapping = Scenario(name="jam", lanes=lanes, ego=ego, actors=(a, b),
                               timer=5.0, position_sigma=1e-6, speed_sigma=0.0)
        with pytest.raises(InfeasiblePerturbation):
            perturb_scenario(overlapping, np.random.default_rng(2))

    def test_other_validation_errors_propagate(self, monkeypatch):
        def broken_validate(self):
            raise ZeroDivisionError("bug in validate")

        monkeypatch.setattr(Scenario, "validate", broken_validate)
        template = builtin_templates()["merge_dense"]
        with pytest.raises(ZeroDivisionError):
            perturb_scenario(template, np.random.default_rng(3))
        cfg = RunConfig()
        with pytest.raises(ZeroDivisionError):
            run_suite([template], 1, cfg.planner_config(), cfg.energy,
                      cfg.sampler, cfg.sim, seed=4)


class TestRunSuite:
    def test_single_unperturbed_variant_equals_direct_episode(self):
        cfg = RunConfig()
        template = replace(open_road_scenario(), position_sigma=0.0,
                           speed_sigma=0.0)
        suite = run_suite([template], 1, cfg.planner_config(), cfg.energy,
                          cfg.sampler, cfg.sim, seed=31)
        assert len(suite.episodes) == 1
        from reactplan.sampler import derived_seed
        episode_seed = derived_seed(31, 0, 0, 1)
        direct = step_episode(template, cfg.planner_config(), cfg.energy,
                              cfg.sampler, cfg.sim, seed=episode_seed)
        assert suite.episodes[0][2].trace == direct.trace

    def test_same_seed_reproduces_suite(self):
        cfg = RunConfig()
        templates = [builtin_templates()["arc_merge"]]
        a = run_suite(templates, 3, cfg.planner_config(), cfg.energy,
                      cfg.sampler, cfg.sim, seed=5)
        b = run_suite(templates, 3, cfg.planner_config(), cfg.energy,
                      cfg.sampler, cfg.sim, seed=5)
        assert [(n, v, ep.summary()) for n, v, ep in a.episodes] == \
            [(n, v, ep.summary()) for n, v, ep in b.episodes]

    def test_aggregates_match_hand_recompute(self):
        cfg = RunConfig()
        templates = [builtin_templates()["arc_merge"]]
        suite = run_suite(templates, 4, cfg.planner_config(), cfg.energy,
                          cfg.sampler, cfg.sim, seed=9)
        eps = [ep for _, _, ep in suite.episodes]
        agg = suite.aggregates()
        assert agg["episodes"] == len(eps)
        assert agg["success_rate"] == pytest.approx(
            100.0 * sum(e.success for e in eps) / len(eps))
        assert agg["collision_rate"] == pytest.approx(
            100.0 * sum(e.collision for e in eps) / len(eps))
        ttcs = [e.ttc for e in eps if e.success]
        if ttcs:
            assert agg["mean_ttc"] == pytest.approx(float(np.mean(ttcs)))
        assert agg["mean_brake_events"] == pytest.approx(
            float(np.mean([e.brake_events for e in eps])))

    def test_empty_aggregate(self):
        agg = aggregate([])
        assert agg["episodes"] == 0 and agg["success_rate"] is None

    def test_parallel_workers_match_serial(self):
        cfg = RunConfig()
        templates = [replace(open_road_scenario(), position_sigma=0.2)]
        serial = run_suite(templates, 3, cfg.planner_config(), cfg.energy,
                           cfg.sampler, cfg.sim, seed=13, workers=1)
        parallel = run_suite(templates, 3, cfg.planner_config(), cfg.energy,
                             cfg.sampler, cfg.sim, seed=13, workers=2)
        assert [(n, v, ep.summary()) for n, v, ep in serial.episodes] == \
            [(n, v, ep.summary()) for n, v, ep in parallel.episodes]


class TestScenarioSerialization:
    def test_json_round_trip(self, tmp_path):
        for name, scenario in builtin_templates().items():
            path = tmp_path / f"{name}.json"
            scenario.save(path)
            loaded = Scenario.load(path)
            assert loaded.to_dict() == scenario.to_dict()

    def test_round_trip_preserves_episode(self, tmp_path):
        cfg = RunConfig()
        scenario = builtin_templates()["merge_dense"]
        path = tmp_path / "scenario.json"
        scenario.save(path)
        loaded = Scenario.load(path)
        a = step_episode(scenario, cfg.planner_config(), cfg.energy,
                         cfg.sampler, cfg.sim, seed=2)
        b = step_episode(loaded, cfg.planner_config(), cfg.energy,
                         cfg.sampler, cfg.sim, seed=2)
        assert a.trace == b.trace
