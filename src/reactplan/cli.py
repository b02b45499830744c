"""Command-line surface: sample | infer | plan | train | simulate.

Every command is replay-deterministic for a fixed seed; no emitted file
contains timestamps. Exit codes: 0 success, 2 usage or input error,
3 numerical failure, 4 training divergence, 5 empty suite.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, to_dict
from .energy import build_tables
from .errors import DivergenceError, NumericalFailure, ReactplanError
from .inference import lbp
from .learning import TrainConfig, load_dataset, train
from .planner import plan
from .sampler import sample_scene
from .scenarios import Scenario, builtin_templates
from .simulator import run_suite

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGENCE = 4
EXIT_EMPTY_SUITE = 5


class CliError(Exception):
    """Input problem that maps to exit code 2."""


def _load_file(path, loader, what: str):
    """``loader`` applied to the file at ``path``; a missing file, or one the
    loader rejects for any reason, is a CliError."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"{what} file not found: {path}")
    try:
        return loader(p)
    except Exception as exc:
        raise CliError(f"malformed {what} file {path}: {exc}")


def _run_config(args) -> RunConfig:
    """The ``--config`` file (defaults without one), seeded by ``--seed`` when
    given and by the file's own seed otherwise."""
    cfg = RunConfig() if args.config is None else _load_file(
        args.config, RunConfig.load, "config")
    return cfg.with_seed(cfg.seed if args.seed is None else args.seed)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scene_candidates(scenario: Scenario, cfg: RunConfig):
    """Candidate sets of every vehicle of the scenario at t = 0, ego first."""
    states = [scenario.ego.state] + [actor.state for actor in scenario.actors]
    return sample_scene([(s.pose.x, s.pose.y, s.pose.heading) for s in states],
                        [s.speed for s in states], cfg.sampler, (cfg.seed,))


def _scene_inputs(scenario: Scenario, cfg: RunConfig):
    """Candidate sets and tables for the scenario at t = 0."""
    candidates = _scene_candidates(scenario, cfg)
    tables = build_tables(candidates, *scenario.vehicle_context(),
                          scenario.goal_target(), cfg.energy)
    return candidates, tables


def cmd_sample(args) -> int:
    cfg = _run_config(args)
    scenario = _load_file(args.scenario, Scenario.load, "scenario")
    n_vehicles = 1 + len(scenario.actors)
    if not 0 <= args.actor < n_vehicles:
        raise CliError(f"actor id {args.actor} out of range [0, {n_vehicles})")
    candidates = _scene_candidates(scenario, cfg)[args.actor]
    out = _out_dir(args)
    path = out / "candidates.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["candidate", "t", "x", "y", "heading", "speed"])
        rows = zip(candidates.poses.tolist(), candidates.speeds.tolist())
        for idx, (poses, speeds) in enumerate(rows):
            for w, ((x, y, heading), speed) in enumerate(zip(poses, speeds)):
                writer.writerow([idx, repr(float(w * candidates.dt)), repr(x),
                                 repr(y), repr(heading), repr(speed)])
    print(f"wrote {len(candidates)} candidates to {path}")
    return EXIT_OK


def cmd_infer(args) -> int:
    cfg = _run_config(args)
    scenario = _load_file(args.scenario, Scenario.load, "scenario")
    _, tables = _scene_inputs(scenario, cfg)
    ms = lbp(tables, cfg.lbp)
    out = _out_dir(args)
    with open(out / "marginals.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["actor", "candidate", "probability"])
        for i in range(ms.n_nodes):
            for a in range(ms.k):
                writer.writerow([i, a, repr(float(ms.marginals[i, a]))])
    with open(out / "residuals.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "max_residual"])
        for it, r in enumerate(ms.residuals):
            writer.writerow([it, repr(float(r))])
    if args.dump_pairwise:
        np.save(out / "pairwise_beliefs.npy", ms.pairwise_beliefs)
    if args.dump_tables:
        tables.dump_json(out / "tables.json")
    print(f"converged={ms.converged} iters={ms.iters_used} "
          f"final_residual={ms.residuals[-1] if ms.residuals else 0.0:.3e}")
    return EXIT_OK


def cmd_plan(args) -> int:
    cfg = _run_config(args)
    if args.variant:
        cfg = replace(cfg, variant=args.variant)
    scenario = _load_file(args.scenario, Scenario.load, "scenario")
    candidates, tables = _scene_inputs(scenario, cfg)
    result = plan(candidates[0], tables, cfg.planner_config())
    out = _out_dir(args)
    result.to_json(out / "plan.json")
    print(f"chosen={result.chosen} converged={result.converged}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _run_config(args)
    try:
        train_cfg = TrainConfig(lr=args.lr, epochs=args.epochs,
                                k_ignore=args.k_ignore,
                                divergence_threshold=args.divergence_threshold)
    except ValueError as exc:
        raise CliError(f"invalid training option: {exc}")
    dataset = _load_file(args.dataset, load_dataset, "dataset")
    if not dataset:
        raise CliError("dataset is empty")
    fitted, curve = train(cfg.energy, dataset, cfg.sampler, train_cfg)
    out = _out_dir(args)
    with open(out / "params.json", "w") as fh:
        json.dump(to_dict(fitted), fh, indent=2, sort_keys=True)
    with open(out / "loss.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, value in enumerate(curve):
            writer.writerow([epoch, repr(float(value))])
    print(f"epochs={len(curve)} initial_loss={curve[0]:.6f} "
          f"final_loss={curve[-1]:.6f}")
    return EXIT_OK


def _resolve_templates(args) -> list[Scenario]:
    if args.templates == "builtin":
        return list(builtin_templates().values())
    path = Path(args.templates)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise CliError(f"no scenario files in {path}")
        return [_load_file(f, Scenario.load, "scenario") for f in files]
    if path.exists():
        return [_load_file(path, Scenario.load, "scenario")]
    raise CliError(f"templates path not found: {args.templates}")


def cmd_simulate(args) -> int:
    cfg = _run_config(args)
    templates = _resolve_templates(args)
    variants = [v.strip() for v in args.planners.split(",") if v.strip()]
    if not variants:
        raise CliError("no planner variants given")
    if args.variants is not None and args.variants < 1:
        raise CliError(f"--variants must be >= 1, got {args.variants}")
    n_variants = args.variants if args.variants is not None else cfg.n_variants
    try:
        planner_cfgs = [cfg.planner_config(variant=v) for v in variants]
    except ValueError as exc:
        raise CliError(f"invalid --planners entry: {exc}")
    out = _out_dir(args)

    rows = []
    any_episode = False
    for variant, planner_cfg in zip(variants, planner_cfgs):
        suite = run_suite(templates, n_variants, planner_cfg, cfg.energy,
                          cfg.sampler, cfg.sim, cfg.seed, workers=args.workers)
        for name, v_idx in suite.skipped:
            logger.warning("skipped infeasible variant %s/%d", name, v_idx)
        agg = suite.aggregates()
        vdir = out / variant
        vdir.mkdir(parents=True, exist_ok=True)
        with open(vdir / "episodes.jsonl", "w") as fh:
            for name, v_idx, ep in suite.episodes:
                head = {"template": name, "variant": v_idx, **ep.summary()}
                fh.write(json.dumps(head, sort_keys=True) + "\n")
                for record in ep.trace:
                    fh.write(json.dumps(
                        {"template": name, "variant": v_idx, "step": record},
                        sort_keys=True) + "\n")
        with open(vdir / "aggregate.json", "w") as fh:
            json.dump(agg, fh, indent=2, sort_keys=True)
        rows.append((variant, agg))
        any_episode = any_episode or bool(suite.episodes)

    if not any_episode:
        print("every episode was skipped", file=sys.stderr)
        return EXIT_EMPTY_SUITE

    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["planner", "success_pct", "ttc_s", "goal_m",
                         "collision_pct", "brake_events"])
        for variant, agg in rows:
            writer.writerow([
                variant,
                _fmt(agg["success_rate"]), _fmt(agg["mean_ttc"]),
                _fmt(agg["mean_goal_distance"]), _fmt(agg["collision_rate"]),
                _fmt(agg["mean_brake_events"]),
            ])
    for variant, agg in rows:
        print(f"{variant}: success={_fmt(agg['success_rate'])}% "
              f"ttc={_fmt(agg['mean_ttc'])}s goal={_fmt(agg['mean_goal_distance'])}m "
              f"cr={_fmt(agg['collision_rate'])}% brake={_fmt(agg['mean_brake_events'])}")
    return EXIT_OK


def _fmt(value) -> str:
    return "" if value is None else f"{value:.3f}"


def _seed(text: str) -> int:
    """``--seed``: an integer >= 0 (argparse reports a non-integer itself)."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reactplan",
        description="Joint prediction-and-planning toolkit: candidate sampling, "
                    "marginal inference, planning, training, closed-loop suites.")
    parser.add_argument("--config", default=None, help="run config JSON")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="run seed (default: the config's seed, else 0)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="dump candidate trajectories for one actor")
    p.add_argument("scenario")
    p.add_argument("--actor", type=int, default=0, help="0 = ego")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("infer", help="dump marginals for a scenario at t=0")
    p.add_argument("scenario")
    p.add_argument("--dump-pairwise", action="store_true")
    p.add_argument("--dump-tables", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("plan", help="single-shot plan at t=0")
    p.add_argument("scenario")
    p.add_argument("--variant", choices=["reactive", "nonreactive", "interpolated"],
                   default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("train", help="fit unary weights on a dataset")
    p.add_argument("dataset")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--k-ignore", type=int, default=2)
    p.add_argument("--divergence-threshold", type=float, default=1e10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="closed-loop suite over templates")
    p.add_argument("--templates", default="builtin",
                   help="'builtin', a scenario file, or a directory of them")
    p.add_argument("--planners", default="reactive",
                   help="comma-separated planner variants")
    p.add_argument("--variants", type=int, default=None,
                   help="perturbed variants per template")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ReactplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
