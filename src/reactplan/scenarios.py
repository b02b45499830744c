"""Scenario model, JSON schema and the shipped template library.

A scenario is the unit of simulation: named lanes, one controlled ego with a
goal (point or lane), reactive background actors glued to their route
centerlines, a timer, and perturbation widths for suite generation.

JSON schema (one object per file)::

    {
      "name": str,
      "timer": float seconds, "dt": float seconds,
      "position_sigma": float m, "speed_sigma": float m/s,
      "lanes": {name: {"points": [[x, y], ...], "width": float}},
      "ego": {"state": {"x","y","heading","speed"},
               "box": [half_length, half_width],
               "route": lane name, "ref_speed": float,
               "goal": {"point": [x, y]} or {"lane": name}},
      "actors": [{"state": {...}, "box": [...], "route": name,
                   "behavior": {"desired_speed","max_accel",
                                 "comfortable_decel","hazard_lookahead",
                                 "min_gap"}}]
    }
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .energy import BoxDims
from .errors import InvalidScenario
from .geometry import Polyline, Pose2, overlap_matrix, wrap_angle
# Not called here: perfbench's tracer counts scalar overlap calls made through
# this module's ``boxes_overlap`` name, so the name must stay resolvable.
from .geometry import boxes_overlap  # noqa: F401
from .sampler import KinematicState


@dataclass(frozen=True)
class Lane:
    line: Polyline
    width: float = 3.5


@dataclass(frozen=True)
class CarFollowingParams:
    desired_speed: float
    max_accel: float = 2.0
    comfortable_decel: float = 3.0
    hazard_lookahead: float = 15.0
    min_gap: float = 5.0

    def __post_init__(self):
        if min(self.desired_speed, self.max_accel, self.comfortable_decel,
               self.hazard_lookahead, self.min_gap) <= 0:
            raise ValueError("car-following parameters must be positive")
        if self.hazard_lookahead <= self.min_gap:
            raise ValueError("hazard_lookahead must exceed min_gap")


@dataclass(frozen=True)
class ActorSpec:
    state: KinematicState
    box: BoxDims
    route: str
    behavior: CarFollowingParams


@dataclass(frozen=True)
class EgoSpec:
    state: KinematicState
    box: BoxDims
    route: str
    goal: tuple           # ("point", (x, y)) or ("lane", lane name)
    ref_speed: float


@dataclass(frozen=True)
class Actors:
    """Constants of m actors, packed once per episode. Actor i follows the
    centerline ``lines[route[i]]`` of length ``lengths[i]``, each distinct
    line held once; ``dims`` (m, 2) are half extents and ``follow`` (m, 5)
    the CarFollowingParams fields."""

    lines: tuple[Polyline, ...]
    route: np.ndarray
    lengths: np.ndarray
    dims: np.ndarray
    follow: np.ndarray

    @classmethod
    def pack(cls, lines, boxes, behaviors) -> "Actors":
        slot: dict[Polyline, int] = {}
        route = np.array([slot.setdefault(ln, len(slot)) for ln in lines], dtype=int)
        return cls(tuple(slot), route, np.array([ln.length for ln in slot])[route],
                   np.array(boxes, dtype=float).reshape(-1, 2),
                   np.array([astuple(b) for b in behaviors], dtype=float).reshape(-1, 5))

    def poses(self, s: np.ndarray) -> np.ndarray:
        """Centerline poses (m, 3) at arclengths ``s`` (m,), clamped to each
        route, headings normalized as in Pose2; one lookup per distinct line."""
        out = np.empty((len(s), 3))
        for j, line in enumerate(self.lines):
            on = self.route == j
            out[on, :2], out[on, 2] = line.point_at(s[on]), line.tangent_at(s[on])
        out[:, 2] = wrap_angle(out[:, 2])
        return out


@dataclass(frozen=True)
class Scenario:
    name: str
    lanes: dict[str, Lane]
    ego: EgoSpec
    actors: tuple[ActorSpec, ...]
    timer: float
    dt: float = 0.1
    position_sigma: float = 0.5
    speed_sigma: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "actors", tuple(self.actors))
        if self.timer <= 0 or self.dt <= 0:
            raise InvalidScenario("timer and dt must be positive")
        if self.ego.route not in self.lanes:
            raise InvalidScenario(f"unknown ego route {self.ego.route!r}")
        kind, target = self.ego.goal
        if kind not in ("point", "lane"):
            raise InvalidScenario(f"unknown goal kind {kind!r}")
        if kind == "lane" and target not in self.lanes:
            raise InvalidScenario(f"unknown goal lane {target!r}")
        for actor in self.actors:
            if actor.route not in self.lanes:
                raise InvalidScenario(f"unknown actor route {actor.route!r}")

    def goal_target(self):
        """The point (ndarray) or the goal lane's Polyline."""
        kind, target = self.ego.goal
        if kind == "point":
            return np.asarray(target, dtype=float)
        return self.lanes[target].line

    def vehicle_context(self) -> tuple[list[BoxDims], list[Polyline], list[float]]:
        """Boxes, route centerlines and reference speeds of every vehicle,
        ego first: the per-vehicle inputs of ``build_tables``."""
        vehicles = (self.ego, *self.actors)
        return ([v.box for v in vehicles], [self.lanes[v.route].line for v in vehicles],
                [self.ego.ref_speed] + [a.behavior.desired_speed for a in self.actors])

    def actor_start(self) -> tuple[Actors, np.ndarray, np.ndarray]:
        """The actors packed, and their arclengths (m,) and poses (m, 3) at
        t = 0, each snapped to the nearest point of its route centerline."""
        actors = Actors.pack([self.lanes[a.route].line for a in self.actors],
                             [a.box for a in self.actors],
                             [a.behavior for a in self.actors])
        xy = np.array([[a.state.pose.x, a.state.pose.y] for a in self.actors])
        s = np.zeros(len(self.actors))
        for j, line in enumerate(actors.lines):
            s[actors.route == j] = line.project_many(xy[actors.route == j])[1]
        return actors, s, actors.poses(s)

    def validate(self) -> None:
        """Raise InvalidScenario when any two vehicles overlap at t = 0."""
        ego = self.ego.state.pose
        actors, _, poses = self.actor_start()
        hit = overlap_matrix(np.vstack([[ego.x, ego.y, ego.heading], poses]),
                             np.vstack([self.ego.box, actors.dims]))
        pairs = np.argwhere(np.triu(hit, 1))
        if len(pairs):
            i, j = pairs[0]
            raise InvalidScenario(
                f"vehicles {i} and {j} overlap at t=0 in {self.name!r}")

    def to_dict(self) -> dict:
        def state_dict(state: KinematicState) -> dict:
            return {"x": state.pose.x, "y": state.pose.y,
                    "heading": state.pose.heading, "speed": state.speed}

        kind, target = self.ego.goal
        goal = {"point": list(target)} if kind == "point" else {"lane": target}
        return {
            "name": self.name, "timer": self.timer, "dt": self.dt,
            "position_sigma": self.position_sigma, "speed_sigma": self.speed_sigma,
            "lanes": {name: {"points": lane.line.points.tolist(),
                             "width": lane.width}
                      for name, lane in self.lanes.items()},
            "ego": {"state": state_dict(self.ego.state),
                    "box": list(self.ego.box), "route": self.ego.route,
                    "ref_speed": self.ego.ref_speed, "goal": goal},
            "actors": [{"state": state_dict(a.state), "box": list(a.box),
                        "route": a.route, "behavior": asdict(a.behavior)}
                       for a in self.actors],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        def parse_state(d: dict) -> KinematicState:
            return KinematicState(pose=Pose2(d["x"], d["y"], d["heading"]),
                                  speed=d["speed"])

        lanes = {name: Lane(line=Polyline(spec["points"]), width=spec["width"])
                 for name, spec in data["lanes"].items()}
        goal_spec = data["ego"]["goal"]
        if "point" in goal_spec:
            goal = ("point", tuple(goal_spec["point"]))
        else:
            goal = ("lane", goal_spec["lane"])
        ego = EgoSpec(state=parse_state(data["ego"]["state"]),
                      box=BoxDims(*data["ego"]["box"]),
                      route=data["ego"]["route"], goal=goal,
                      ref_speed=data["ego"]["ref_speed"])
        actors = tuple(
            ActorSpec(state=parse_state(a["state"]), box=BoxDims(*a["box"]),
                      route=a["route"],
                      behavior=CarFollowingParams(**a["behavior"]))
            for a in data["actors"])
        return cls(name=data["name"], lanes=lanes, ego=ego, actors=actors,
                   timer=data["timer"], dt=data["dt"],
                   position_sigma=data["position_sigma"],
                   speed_sigma=data["speed_sigma"])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _arc(center, radius: float, start_deg: float, end_deg: float,
         step_deg: float = 10.0) -> list[list[float]]:
    n = max(2, int(abs(end_deg - start_deg) / step_deg) + 1)
    angles = np.radians(np.linspace(start_deg, end_deg, n))
    return [[center[0] + radius * math.cos(a), center[1] + radius * math.sin(a)]
            for a in angles]


VEHICLE = BoxDims(2.25, 0.9)


def _cruise(speed: float) -> CarFollowingParams:
    return CarFollowingParams(desired_speed=speed, comfortable_decel=4.0,
                              hazard_lookahead=20.0, min_gap=6.0)


def merge_dense_template() -> Scenario:
    """Lane merge into a moving platoon with no free gap at the start."""
    lanes = {
        "ego_lane": Lane(Polyline([[-60.0, 0.0], [260.0, 0.0]])),
        "target_lane": Lane(Polyline([[-60.0, 3.5], [260.0, 3.5]])),
    }
    speed = 8.0
    actors = tuple(
        ActorSpec(state=KinematicState(Pose2(x, 3.5, 0.0), speed),
                  box=VEHICLE, route="target_lane", behavior=_cruise(speed))
        for x in (42.0, 30.0, 18.0, 6.0, -6.0, -18.0))
    ego = EgoSpec(state=KinematicState(Pose2(24.0, 0.0, 0.0), speed),
                  box=VEHICLE, route="ego_lane", goal=("lane", "target_lane"),
                  ref_speed=speed)
    return Scenario(name="merge_dense", lanes=lanes, ego=ego, actors=actors,
                    timer=14.0, position_sigma=0.5, speed_sigma=0.3)


def left_turn_template() -> Scenario:
    """Unprotected left turn across an oncoming stream with short gaps."""
    turn_points = [[0.0, -40.0], [0.0, -8.0]]
    turn_points += _arc(center=(-10.0, -8.0), radius=10.0,
                        start_deg=0.0, end_deg=90.0)[1:]
    turn_points += [[-50.0, 2.0]]
    lanes = {
        "turn_path": Lane(Polyline(turn_points)),
        "exit_lane": Lane(Polyline([[-12.0, 2.0], [-50.0, 2.0]])),
        "oncoming": Lane(Polyline([[-5.0, 170.0], [-5.0, -60.0]])),
    }
    actors = tuple(
        ActorSpec(state=KinematicState(Pose2(-5.0, y, -math.pi / 2), 7.5),
                  box=VEHICLE, route="oncoming", behavior=_cruise(7.5))
        for y in (20.0, 48.0, 76.0, 104.0, 132.0))
    ego = EgoSpec(state=KinematicState(Pose2(0.0, -26.0, math.pi / 2), 7.0),
                  box=VEHICLE, route="turn_path", goal=("lane", "exit_lane"),
                  ref_speed=7.0)
    return Scenario(name="left_turn", lanes=lanes, ego=ego, actors=actors,
                    timer=16.0, position_sigma=0.5, speed_sigma=0.3)


def arc_merge_template() -> Scenario:
    """Merge onto a clockwise ring road between circulating vehicles."""
    ring_radius = 15.0
    ring_points = _arc(center=(0.0, 0.0), radius=ring_radius,
                       start_deg=170.0, end_deg=-170.0, step_deg=8.0)
    entry_points = [[45.0, -11.5]]
    entry_points += _arc(center=(0.0, 0.0), radius=ring_radius,
                         start_deg=-75.0, end_deg=-170.0, step_deg=8.0)
    lanes = {
        "ring": Lane(Polyline(ring_points)),
        "entry": Lane(Polyline(entry_points)),
    }
    speed = 7.0
    actor_angles = (-55.0, -20.0, 15.0, 50.0, 85.0, 120.0)
    actors = tuple(
        ActorSpec(state=KinematicState(
            Pose2(ring_radius * math.cos(math.radians(a)),
                  ring_radius * math.sin(math.radians(a)),
                  math.radians(a) - math.pi / 2), speed),
            box=VEHICLE, route="ring", behavior=_cruise(speed))
        for a in actor_angles)
    ego = EgoSpec(state=KinematicState(Pose2(40.0, -11.8, math.pi), speed),
                  box=VEHICLE, route="entry", goal=("lane", "ring"),
                  ref_speed=speed)
    return Scenario(name="arc_merge", lanes=lanes, ego=ego, actors=actors,
                    timer=11.0, position_sigma=0.5, speed_sigma=0.3)


def builtin_templates() -> dict[str, Scenario]:
    templates = [merge_dense_template(), left_turn_template(), arc_merge_template()]
    return {t.name: t for t in templates}
