"""The three workloads: inputs from a seed, one timed round, checks of its outputs.

A round is the unit a run repeats. Every round of a run issues the same
operations on the same inputs, so each round after the first must reproduce
the first round's outputs bit for bit; the first round's outputs are also
checked in depth. ``Round.calls`` holds the wall time of each call the
benchmark timed, ``Round.work`` the work items the round completed.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import hostspeed
from reactplan import cli, energy, learning, planner, sampler
from reactplan.config import RunConfig
from reactplan.energy import BoxDims, EnergyParams
from reactplan.geometry import Polyline, Pose2
from reactplan.learning import TrainConfig
from reactplan.sampler import KinematicState, SamplerConfig
from reactplan.scenarios import builtin_templates


@dataclass
class Round:
    calls: list = field(default_factory=list)      # corrected seconds per timed call
    real: float = 0.0                              # real seconds of the timed calls
    ops: int = 0                                   # operations attempted
    failed: set = field(default_factory=set)       # ids of failed operations
    work: int = 0                                  # work items completed
    digest: str = ""                               # fingerprint of all outputs
    problems: list = field(default_factory=list)   # failed checks

    def timed(self, start):
        """Record a timed call begun at ``start = hostspeed.now()``."""
        end = hostspeed.now()
        self.calls.append(end[0] - start[0])
        self.real += end[1] - start[1]

    def fail(self, op, message):
        self.failed.add(op)
        self.problems.append(message)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


# --------------------------------------------------------------------- suite

class Suite:
    """``reactplan simulate`` through ``cli.main`` over perturbed builtin scenes.

    The benchmark draws the perturbed variants itself from the seed (position
    and speed noise with the widths each template declares) and hands them to
    the CLI as scenario files with zero perturbation widths, so it knows every
    initial state the checks need.
    """

    planners = ("reactive", "nonreactive")

    def __init__(self, seed, out, variants=3, templates=None):
        self.seed = seed
        self.out = Path(out)
        scen_dir = self.out / "scenarios"
        scen_dir.mkdir(parents=True)
        self.scenarios = {}
        chosen = builtin_templates()
        for t_idx, name in enumerate(templates or chosen):
            base = chosen[name].to_dict()
            for v in range(variants):
                scen = self._perturb(base, _rng(seed, t_idx, v))
                scen["name"] = f"{name}-{v:02d}"
                with open(scen_dir / f"{t_idx}_{v:02d}_{name}.json", "w") as fh:
                    json.dump(scen, fh, sort_keys=True)
                self.scenarios[scen["name"]] = scen
        self.argv = ["--seed", str(seed), "--out", str(self.out / "sim"),
                     "simulate", "--templates", str(scen_dir),
                     "--planners", ",".join(self.planners), "--variants", "1"]
        self.sim = RunConfig().sim

    @staticmethod
    def _perturb(base, rng):
        """Gaussian actor noise, redrawn until the initial footprints (actors
        snapped to their route, as the simulator places them) are 0.1 m apart."""
        ego = base["ego"]["state"]
        for _ in range(100):
            actors = []
            centers = [(ego["x"], ego["y"])]
            heads = [ego["heading"]]
            dims = [base["ego"]["box"]]
            for actor in base["actors"]:
                dx, dy = rng.normal(0.0, base["position_sigma"], size=2)
                dv = rng.normal(0.0, base["speed_sigma"])
                st = dict(actor["state"], x=actor["state"]["x"] + dx,
                          y=actor["state"]["y"] + dy,
                          speed=max(0.0, actor["state"]["speed"] + dv))
                actors.append(dict(actor, state=st))
                line = base["lanes"][actor["route"]]["points"]
                _, s = checks.project([st["x"], st["y"]], line)
                point, heading = checks.lane_pose(line, float(s[0]))
                centers.append(point)
                heads.append(heading)
                dims.append(actor["box"])
            c, h, d = np.asarray(centers), np.asarray(heads), np.asarray(dims)
            gaps = checks.box_gap(c[:, None], h[:, None], d[:, None], c[None], h[None], d[None])
            if np.all(gaps[~np.eye(len(c), dtype=bool)] < -0.1):
                return dict(base, actors=actors, position_sigma=0.0, speed_sigma=0.0)
        raise RuntimeError(f"no separated perturbation of {base['name']}")

    def round(self, first, tracer=None):
        r = Round(ops=len(self.planners) * len(self.scenarios))
        before = tracer.snapshot() if tracer else None
        start = hostspeed.now()
        try:
            code = cli.main(self.argv)
        except Exception as exc:                  # the round's episodes all failed
            code = repr(exc)
        r.timed(start)
        if code != 0:
            for op in range(r.ops):
                r.fail(op, f"simulate returned {code}")
            return r

        sim_dir = self.out / "sim"
        files = [sim_dir / "comparison.csv"]
        headers = {}
        plans = 0
        for p_idx, planner_name in enumerate(self.planners):
            files += [sim_dir / planner_name / "episodes.jsonl",
                      sim_dir / planner_name / "aggregate.json"]
            episodes = checks.read_episodes(sim_dir / planner_name / "episodes.jsonl")
            headers[planner_name] = [ep["header"] for ep in episodes]
            seen = {ep["header"]["template"]: ep for ep in episodes}
            for s_idx, name in enumerate(self.scenarios):
                op = p_idx * len(self.scenarios) + s_idx
                ep = seen.get(name)
                if ep is None:
                    r.fail(op, f"{planner_name}: episode {name} missing")
                    continue
                r.work += len(ep["records"])
                plans += sum("plan" in rec for rec in ep["records"])
                if first:
                    scen = self.scenarios[name]
                    for msg in checks.check_episode(ep, scen, self.sim.hold_steps, scen["dt"]):
                        r.fail(op, f"{planner_name}: {msg}")
        if first:
            for msg in checks.check_summaries(sim_dir, self.planners, headers):
                r.fail(0, msg)
        r.digest = _digest(*(f.read_bytes() for f in files))
        if tracer:
            _check_counts(r, tracer, before, {"inference.lbp_calls": plans,
                                              "simulator.steps": r.work})
        return r


def _check_counts(r, tracer, before, expected):
    after = tracer.snapshot()
    for key, want in expected.items():
        got = after.get(key, 0) - before.get(key, 0)
        if got != want:
            r.fail(0, f"traced {key} {got} != {want} counted from the outputs")


# -------------------------------------------------------------- replan_dense

@dataclass
class Scene:
    states: list
    sampler_cfgs: list
    boxes: list
    lanes: list
    refs: list
    goal: Polyline


class ReplanDense:
    """Replan cycles on dense multi-lane scenes, one timed call per cycle.

    Each cycle does what the simulator does at a replan step:
    ``sample_candidates`` per vehicle, ``build_tables``, then ``plan``. Every
    cycle of a round has its own scene, so a round averages over as many LBP
    convergence behaviours as it has cycles; scene ``i`` has
    ``sizes[i % len(sizes)]`` actors and is planned by variant ``i % 3``.
    """

    sizes = tuple(range(12, 25))           # non-ego actors per scene
    k = 16
    lanes_y = (0.0, 3.5, 7.0, 10.5)
    road = 300.0                           # length over which vehicles spread, m

    def __init__(self, seed, out, n_scenes=78, sizes=None):
        self.seed = seed
        cfg = RunConfig()
        self.params = cfg.energy
        variants = [replace(cfg, set_size=4 if v == "interpolated" else None)
                    .planner_config(variant=v)
                    for v in ("reactive", "nonreactive", "interpolated")]
        sizes = sizes or self.sizes
        self.specs = [self._spec(_rng(seed, 1, i), sizes[i % len(sizes)])
                      for i in range(n_scenes)]
        self.scenes = [(self._scene(spec, seed, i), variants[i % 3])
                       for i, spec in enumerate(self.specs)]
        rng = _rng(seed, 2)
        self.motion = (float(rng.uniform(-math.pi, math.pi)), *rng.uniform(-500, 500, 2))
        self.check_rng = _rng(seed, 3)

    def _spec(self, rng, n):
        """Vehicle placements on a straight four-lane road, 8 m apart per lane:
        (lane, x, lateral offset, heading offset, speed, reference speed)."""
        vehicles = [(1, 0.5 * self.road, 0.0, 0.0, 8.0, 8.0)]          # ego
        occupied = {1: [0.5 * self.road]}
        while len(vehicles) < n + 1:
            lane = int(rng.integers(0, len(self.lanes_y)))
            x = float(rng.uniform(0.0, self.road))
            if any(abs(x - o) < 8.0 for o in occupied.get(lane, [])):
                continue
            occupied.setdefault(lane, []).append(x)
            vehicles.append((lane, x, float(rng.normal(0.0, 0.3)),
                             float(rng.normal(0.0, 0.03)),
                             float(rng.uniform(4.0, 12.0)), float(rng.uniform(6.0, 12.0))))
        return vehicles

    def _scene(self, spec, seed, idx, motion=(0.0, 0.0, 0.0)):
        """Program inputs for one scene, rigidly rotated by ``motion[0]`` and
        translated by ``motion[1:]``; the ego's goal is the next lane over."""
        theta, tx, ty = motion
        c, s = math.cos(theta), math.sin(theta)

        def move(x, y):
            return c * x - s * y + tx, s * x + c * y + ty

        lanes = [Polyline([move(-100.0, y), move(self.road + 100.0, y)])
                 for y in self.lanes_y]
        states, cfgs = [], []
        for v_idx, (lane, x, dy, dh, speed, _) in enumerate(spec):
            px, py = move(x, self.lanes_y[lane] + dy)
            states.append(KinematicState(Pose2(px, py, theta + dh), speed))
            cfgs.append(SamplerConfig(k=self.k, seed=int(
                np.random.SeedSequence([int(seed), idx, v_idx]).generate_state(1)[0])))
        return Scene(states=states, sampler_cfgs=cfgs,
                     boxes=[BoxDims(2.25, 0.9)] * len(spec),
                     lanes=[lanes[v[0]] for v in spec], refs=[v[5] for v in spec],
                     goal=lanes[2])

    def cycle(self, scene, pcfg):
        cands = [sampler.sample_candidates(st, cfg)
                 for st, cfg in zip(scene.states, scene.sampler_cfgs)]
        tables = energy.build_tables(cands, scene.boxes, scene.lanes, scene.refs,
                                     scene.goal, self.params)
        return cands, tables, planner.plan(cands[0], tables, pcfg)

    def round(self, first, tracer=None):
        r = Round(ops=len(self.scenes))
        before = tracer.snapshot() if tracer else None
        digest = hashlib.sha256()
        for op, (scene, pcfg) in enumerate(self.scenes):
            start = hostspeed.now()
            try:
                cands, tables, result = self.cycle(scene, pcfg)
            except Exception as exc:
                r.timed(start)
                r.fail(op, f"scene {op} {pcfg.variant}: {exc!r}")
                continue
            r.timed(start)
            r.work += 1
            digest.update(_digest(result.objective_values.tobytes(), result.chosen,
                                  result.converged, result.iters_used, tables.unary.tobytes(),
                                  tables.pairwise.tobytes(), tables.goal.tobytes()).encode())
            if first:
                for msg in self.check_cycle(scene, cands, tables, result, pcfg):
                    r.fail(op, f"scene {op} {pcfg.variant}: {msg}")
        if first:
            for msg in self.check_rigid_motion():
                r.fail(0, f"scene 0: {msg}")
        r.digest = digest.hexdigest()
        if tracer:
            _check_counts(r, tracer, before, {"inference.lbp_calls": r.work})
        return r

    def check_cycle(self, scene, cands, tables, result, pcfg):
        """Pairwise samples, belief consistency and all K objective values.

        The beliefs come from a second, untimed ``lbp`` call on the same
        tables, which is deterministic and so equals the one inside ``plan``.
        """
        ms = planner.lbp(tables, pcfg.lbp)
        pos = np.array([[c.positions for c in cs] for cs in cands])
        heads = np.array([[c.headings for c in cs] for cs in cands])
        speeds = np.array([[c.speeds for c in cs] for cs in cands])
        dims = np.array(scene.boxes, dtype=float)
        problems = checks.check_pair_samples(tables.pairwise, pos, heads, speeds, dims,
                                             self.params.gamma, self.params.d_safe,
                                             self.check_rng)
        problems += checks.check_beliefs(ms.marginals, ms.pairwise_beliefs, ms.converged,
                                         pcfg.lbp.tol, pcfg.lbp.damping)
        expected = checks.expected_objectives(
            tables.unary, tables.pairwise, tables.goal, ms.log_pairwise_beliefs,
            ms.marginals, pos[0], pcfg.variant, pcfg.set_size, pcfg.lambda_b,
            pcfg.lambda_c, pcfg.w_goal)
        return problems + checks.check_objectives(result.objective_values, expected,
                                                  result.chosen)

    def check_rigid_motion(self):
        scene, pcfg = self.scenes[0]
        _, _, here = self.cycle(scene, pcfg)
        moved = self._scene(self.specs[0], self.seed, 0, self.motion)
        _, _, there = self.cycle(moved, pcfg)
        return checks.check_rigid_motion(here.objective_values, there.objective_values)


# --------------------------------------------------------------------- train

class Train:
    """``learning.train`` on a synthetic dataset of four-vehicle scenes, with
    fixed-iteration message passing and forward-mode tangents (12 directions)."""

    def __init__(self, seed, out, n_examples=16, epochs=3, n_actors=4):
        self.scfg = SamplerConfig()
        self.data = learning.synthetic_dataset(n_examples, seed, self.scfg,
                                               n_actors=n_actors)
        self.tcfg = TrainConfig(epochs=epochs)
        self.params0 = EnergyParams()
        self.n_actors = n_actors

    def round(self, first, tracer=None):
        n = len(self.data) * self.tcfg.epochs
        r = Round(ops=n)
        before = tracer.snapshot() if tracer else None
        start = hostspeed.now()
        try:
            params, curve = learning.train(self.params0, self.data, self.scfg, self.tcfg)
        except Exception as exc:
            r.timed(start)
            for op in range(n):
                r.fail(op, f"train raised {exc!r}")
            return r
        r.timed(start)
        r.work = n
        r.digest = _digest(params.w_ego.tobytes(), params.w_actor.tobytes(),
                           np.asarray(curve).tobytes())
        if first:
            for msg in checks.check_gradient(*self.fd_gradient(params, curve)):
                r.fail(0, msg)
        if tracer:
            _check_counts(r, tracer, before, {
                "learning.example_evals": n,
                "sampler.candidates": n * self.n_actors * self.scfg.k})
        return r

    def fd_gradient(self, params, curve, n_batch=3, h=1e-5):
        """The program's gradient on a few examples, central differences of
        its batch loss, and every loss seen (the training curve included)."""
        batch = self.data[:n_batch]
        grad = learning.gradient(params, batch, self.scfg, self.tcfg)
        w = np.concatenate([params.w_ego, params.w_actor])
        f = len(params.w_ego)
        fd = np.zeros_like(w)
        losses = list(curve)
        for p in range(len(w)):
            for sign in (1.0, -1.0):
                x = w.copy()
                x[p] += sign * h
                value = learning.batch_loss(replace(params, w_ego=x[:f], w_actor=x[f:]),
                                            batch, self.scfg, self.tcfg)
                losses.append(value)
                fd[p] += sign * value
        return grad, fd / (2 * h), losses


WORKLOADS = {"suite": Suite, "replan_dense": ReplanDense, "train": Train}
