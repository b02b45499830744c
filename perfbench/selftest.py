"""Self-test of the benchmark's checks: each must pass real outputs and reject
one tampered copy of them.

    python3 perfbench/selftest.py

Runs every workload once at a tiny size, checks its outputs, then feeds each
check an output altered in one place and expects a complaint. Exits 0 when
every check passed the real outputs and rejected every tampered one.
"""
import contextlib
import copy
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run

run.import_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from reactplan import learning, planner  # noqa: E402

OUT = run.HERE / "out" / "selftest"
results = []


def expect(label, problems, should_fail, match=""):
    """Record whether a check passed (or rejected, naming ``match``) as it should."""
    ok = (bool(problems) and any(match in p for p in problems)) if should_fail else not problems
    results.append(ok)
    verdict = "rejected" if problems else "passed"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))


def tiny_round(workload):
    with contextlib.redirect_stdout(io.StringIO()):
        return workload.round(first=True)


def suite():
    wl = workloads.Suite(0, OUT / "suite", variants=1, templates=["merge_dense"])
    r = tiny_round(wl)
    expect("suite: real outputs", r.problems, False)
    sim = OUT / "suite" / "sim"
    episodes = checks.read_episodes(sim / "reactive" / "episodes.jsonl")
    ep = episodes[0]
    scen = wl.scenarios[ep["header"]["template"]]
    hold, dt = wl.sim.hold_steps, scen["dt"]

    def tampered(edit):
        bad = copy.deepcopy(ep)
        edit(bad)
        return checks.check_episode(bad, scen, hold, dt)

    def claim_collision(e):
        e["header"].update(outcome="Collision", collision=True, success=False, ttc=None)

    def overlap(e):
        e["records"][5]["actors"][0][:3] = e["records"][5]["ego"][:3]

    def shift_ttc(e):
        e["header"]["ttc"] += 0.1

    def speeding(e):
        e["records"][5]["actors"][1][3] += 5.0

    def backwards(e):
        e["records"][5]["actors"][2][0] -= 3.0

    def wrong_choice(e):
        rec = next(x for x in e["records"] if "plan" in x)
        rec["plan"]["chosen"] = (rec["plan"]["chosen"] + 1) % len(rec["plan"]["objective_values"])

    if ep["header"]["outcome"] != "GoalReached":
        raise SystemExit("selftest needs a GoalReached episode at seed 0")
    expect("suite: collision claimed where boxes are apart", tampered(claim_collision), True,
           "collision episode overlaps")
    expect("suite: overlap in a non-final record", tampered(overlap), True, "overlaps an actor")
    expect("suite: shifted ttc", tampered(shift_ttc), True, "ttc")
    expect("suite: actor speed beyond its limits", tampered(speeding), True, "speed")
    expect("suite: route arclength decreasing", tampered(backwards), True, "arclength")
    expect("suite: wrong chosen candidate", tampered(wrong_choice), True, "argmin")

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copytree(sim, tmp, dirs_exist_ok=True)
        agg_path = Path(tmp) / "reactive" / "aggregate.json"
        agg = json.loads(agg_path.read_text())
        agg["success_rate"] = 50.0 if agg["success_rate"] != 50.0 else 0.0
        agg_path.write_text(json.dumps(agg))
        headers = {p: [e["header"] for e in checks.read_episodes(sim / p / "episodes.jsonl")]
                   for p in wl.planners}
        expect("suite: aggregate.json disagreeing with headers",
               checks.check_summaries(tmp, wl.planners, headers), True, "success_rate")


def replan_dense():
    wl = workloads.ReplanDense(0, OUT, n_scenes=3, sizes=(12,))
    r = tiny_round(wl)
    expect("replan_dense: real outputs", r.problems, False)
    scene, pcfg = wl.scenes[0]
    cands, tables, result = wl.cycle(scene, pcfg)
    ms = planner.lbp(tables, pcfg.lbp)
    expected = checks.expected_objectives(
        tables.unary, tables.pairwise, tables.goal, ms.log_pairwise_beliefs,
        ms.marginals, np.array([c.positions for c in cands[0]]), pcfg.variant,
        pcfg.set_size, pcfg.lambda_b, pcfg.lambda_c, pcfg.w_goal)
    values = result.objective_values.copy()
    values[np.isfinite(values)] *= 1.0 + 1e-7
    expect("replan_dense: objective values off by 1e-7",
           checks.check_objectives(values, expected, result.chosen), True, "differ")
    second = int(np.argsort(result.objective_values)[1])
    expect("replan_dense: wrong chosen candidate",
           checks.check_objectives(result.objective_values, expected, second), True, "argmin")

    pos = np.array([[c.positions for c in cs] for cs in cands])
    heads = np.array([[c.headings for c in cs] for cs in cands])
    speeds = np.array([[c.speeds for c in cs] for cs in cands])
    dims = np.array(scene.boxes, dtype=float)
    expect("replan_dense: pairwise entries scaled by 1 + 1e-6", checks.check_pair_samples(
        tables.pairwise * (1 + 1e-6), pos, heads, speeds, dims, wl.params.gamma,
        wl.params.d_safe, np.random.default_rng(0)), True, "pairwise[")

    marg = ms.marginals.copy()
    marg[1] *= 1.01
    expect("replan_dense: unnormalised marginal", checks.check_beliefs(
        marg, ms.pairwise_beliefs, ms.converged, pcfg.lbp.tol, pcfg.lbp.damping), True,
           "marginals are not normalised")
    if not ms.converged:
        raise SystemExit("selftest needs a converged LBP call at seed 0")
    beliefs = ms.pairwise_beliefs.copy()
    moved = 1e-2 * beliefs[0, 1].sum()
    beliefs[0, 1, 0, 0] += moved                     # same total mass, wrong row sums
    beliefs[0, 1, 1, 0] -= min(moved, beliefs[0, 1, 1, 0])
    beliefs[0, 1] /= beliefs[0, 1].sum()
    expect("replan_dense: pairwise belief inconsistent with its marginal",
           checks.check_beliefs(ms.marginals, beliefs, True, pcfg.lbp.tol,
                                pcfg.lbp.damping), True, "disagrees")
    expect("replan_dense: rigid motion changing objective values by 1e-4",
           checks.check_rigid_motion(result.objective_values,
                                     result.objective_values + 1e-4), True, "rigid motion")


def train():
    wl = workloads.Train(0, OUT, n_examples=3, epochs=1)
    r = tiny_round(wl)
    expect("train: real outputs", r.problems, False)
    params, curve = learning.train(wl.params0, wl.data, wl.scfg, wl.tcfg)
    grad, fd, losses = wl.fd_gradient(params, curve)
    expect("train: gradient scaled by 1 + 1e-3",
           checks.check_gradient(grad * (1 + 1e-3), fd, losses), True, "relative error")
    expect("train: a non-finite loss",
           checks.check_gradient(grad, fd, losses + [float("nan")]), True, "non-finite")


class _Drifting:
    """A workload whose second round's outputs differ from its first."""

    def __init__(self):
        self.n = 0

    def round(self, first, tracer=None):
        self.n += 1
        return workloads.Round(calls=[1.0], real=1.0, ops=1, work=1, digest=str(self.n))


def determinism():
    rounds = run.run_rounds(_Drifting(), 2, None)
    expect("runner: a round differing from round 1",
           [p for r in rounds for p in r.problems], True, "differ from round 1")


if __name__ == "__main__":
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    for part in (suite, replan_dense, train, determinism):
        part()
    print(f"{sum(results)}/{len(results)} checks behaved as expected")
    sys.exit(0 if all(results) else 1)
