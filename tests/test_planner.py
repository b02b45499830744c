"""Planning objectives vs brute-force expectations, argmin behavior."""
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (candidate_set, joint_distribution, joint_energy_grid,
                      plan_reference, random_scene, random_tables,
                      straight_trajectory)
from reactplan import planner, sampler
from reactplan.energy import EnergyParams, EnergyTables, build_tables
from reactplan.inference import LbpConfig, exact_marginals, lbp
from reactplan.errors import InvalidSetSize
from reactplan.geometry import Polyline, Pose2
from reactplan.planner import (PlannerConfig, conditioning_sets,
                               ego_pair_energy, plan, score)
from reactplan.sampler import KinematicState
from reactplan.scenarios import builtin_templates

TIGHT = LbpConfig(max_iters=300, damping=0.5, tol=1e-13)


def cfg_for(variant="reactive", lambda_b=1.0, lambda_c=1.0, w_goal=0.0,
            set_size=None):
    return PlannerConfig(variant=variant, set_size=set_size, lambda_b=lambda_b,
                         lambda_c=lambda_c, w_goal=w_goal, lbp=TIGHT)


def objective_values(tables, ms, cfg, variant, set_size=None, cands=None):
    """All K objective values of ``variant`` under ``cfg``'s weights."""
    cfg = replace(cfg, variant=variant, set_size=set_size)
    return score(cands, tables, ms, cfg).objective_values


def make_ego_candidates(k, spacing=1.0):
    """Straight candidates at distinct lateral offsets (distinct l2 distances)."""
    return candidate_set([straight_trajectory((0.0, spacing * i ** 2), 0.0, 5.0)
                          for i in range(k)])


def ego_only_tables(rng, k=4):
    unary = rng.normal(size=(1, k))
    return EnergyTables(unary=unary, pairwise=np.zeros((1, 1, k, k)),
                        goal=np.abs(rng.normal(size=k)))


class TestReactiveObjective:
    def test_no_actors(self):
        rng = np.random.default_rng(0)
        tables = ego_only_tables(rng)
        ms = exact_marginals(tables)
        cfg = cfg_for(w_goal=2.0)
        expected = tables.unary[0] + 2.0 * tables.goal
        assert objective_values(tables, ms, cfg, "reactive") == pytest.approx(expected)

    def test_independence_collapses_to_nonreactive(self):
        rng = np.random.default_rng(1)
        tables = random_tables(rng, m=3, k=4, coupling=0.8)
        pw = tables.pairwise.copy()
        pw[0, :] = 0.0
        pw[:, 0] = 0.0
        tables = EnergyTables(unary=tables.unary, pairwise=pw, goal=tables.goal)
        ms = lbp(tables, TIGHT)
        cfg = cfg_for(lambda_c=0.0, w_goal=1.0)
        assert objective_values(tables, ms, cfg, "reactive") == pytest.approx(
            objective_values(tables, ms, cfg, "nonreactive"), abs=1e-9)

    def test_matches_direct_conditional_expectation(self):
        # brute force: expectation of (ego unary + ego/actor interaction +
        # actor unaries) over the exact conditional joint of the actors,
        # actor-actor terms excluded from the cost on both sides
        rng = np.random.default_rng(2)
        for _ in range(10):
            tables = random_tables(rng, m=3, k=3, coupling=0.7)
            ms = exact_marginals(tables)
            joint = joint_distribution(tables)
            grid = joint_energy_grid(tables, include_actor_actor=False,
                                     ego_interaction="both")
            values = objective_values(tables, ms, cfg_for(w_goal=0.7), "reactive")
            for a0 in range(3):
                cond = joint[a0] / joint[a0].sum()
                brute = float((cond * grid[a0]).sum()) + 0.7 * tables.goal[a0]
                assert values[a0] == pytest.approx(brute, abs=1e-9)


class TestNonReactiveObjective:
    def test_no_actors(self):
        rng = np.random.default_rng(3)
        tables = ego_only_tables(rng)
        ms = exact_marginals(tables)
        cfg = cfg_for(variant="nonreactive", w_goal=1.0)
        expected = tables.unary[0] + tables.goal
        assert objective_values(tables, ms, cfg, "nonreactive") == pytest.approx(expected)

    def test_symmetric_interaction_decided_by_unary_plus_goal(self):
        rng = np.random.default_rng(4)
        k = 4
        unary = rng.normal(size=(2, k))
        pw = np.zeros((2, 2, k, k))
        pw[0, 1] = 1.3          # identical for every ego candidate
        pw[1, 0] = 0.4
        tables = EnergyTables(unary=unary, pairwise=pw, goal=np.abs(rng.normal(size=k)))
        ms = exact_marginals(tables)
        cfg = cfg_for(variant="nonreactive", w_goal=1.0)
        values = objective_values(tables, ms, cfg, "nonreactive")
        expected = np.argmin(tables.unary[0] + tables.goal)
        assert np.argmin(values) == expected

    def test_argmin_matches_full_expected_joint_energy(self):
        # brute force argmin of E_{Y_r ~ p(Y_r)}[C(Y)] with the full joint
        # energy (actor-actor terms included; they are constant in the ego
        # candidate under the unconditioned prediction)
        rng = np.random.default_rng(5)
        for _ in range(20):
            tables = random_tables(rng, m=3, k=4, coupling=0.6)
            ms = exact_marginals(tables)
            joint = joint_distribution(tables)
            p_actors = joint.sum(axis=0)               # marginal over (y1, y2)
            grid = joint_energy_grid(tables, include_actor_actor=True,
                                     ego_interaction="both")
            brute = [(p_actors * grid[a0]).sum() for a0 in range(4)]
            cfg = cfg_for(variant="nonreactive", w_goal=0.0)
            values = objective_values(tables, ms, cfg, "nonreactive")
            assert int(np.argmin(values)) == int(np.argmin(brute))


class TestInterpolatedObjective:
    def test_set_size_one_equals_reactive_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            tables = random_tables(rng, m=3, k=5, coupling=0.5)
            ms = lbp(tables, TIGHT)
            cands = make_ego_candidates(5)
            cfg = cfg_for(w_goal=0.3)
            assert np.array_equal(
                objective_values(tables, ms, cfg, "interpolated", 1, cands),
                objective_values(tables, ms, cfg, "reactive"))

    def test_full_set_argmin_equals_nonreactive_argmin(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            tables = random_tables(rng, m=3, k=5, coupling=0.5)
            ms = lbp(tables, TIGHT)
            cands = make_ego_candidates(5)
            cfg = cfg_for(w_goal=0.3)
            inter = objective_values(tables, ms, cfg, "interpolated", 5, cands)
            nonre = objective_values(tables, ms, cfg, "nonreactive")
            assert int(np.argmin(inter)) == int(np.argmin(nonre))

    def test_pair_set_matches_enumeration(self):
        rng = np.random.default_rng(8)
        tables = random_tables(rng, m=3, k=4, coupling=0.6)
        ms = exact_marginals(tables)
        joint = joint_distribution(tables)
        cands = make_ego_candidates(4)
        cfg = cfg_for(w_goal=0.0)
        pair = ego_pair_energy(tables)
        values = objective_values(tables, ms, cfg, "interpolated", 2, cands)
        for a0 in range(4):
            members = conditioning_sets(cands, 2)[a0].tolist()
            slice_ = joint[members].sum(axis=0)
            cond = slice_ / slice_.sum()
            q = np.stack([cond.sum(axis=1), cond.sum(axis=0)])
            brute = tables.unary[0, a0] + float(np.sum(q * pair[:, a0, :])) \
                + float(np.sum(q * tables.unary[1:]))
            assert values[a0] == pytest.approx(brute, abs=1e-9)

    def test_invalid_set_size(self):
        rng = np.random.default_rng(9)
        tables = random_tables(rng, m=2, k=3)
        ms = lbp(tables, TIGHT)
        cands = make_ego_candidates(3)
        with pytest.raises(InvalidSetSize):
            objective_values(tables, ms, cfg_for(), "interpolated", 4, cands)

    def test_conditioning_set_contains_candidate_and_nearest(self):
        cands = make_ego_candidates(5)      # lateral offsets 0, 1, 4, 9, 16
        assert conditioning_sets(cands, 1)[0].tolist() == [0]
        assert conditioning_sets(cands, 3)[2].tolist() == [2, 1, 0]
        assert conditioning_sets(cands, 2)[4].tolist() == [4, 3]

    def test_conditioning_set_ties_go_to_lower_index_after_itself(self):
        # offsets 0, 1, -1, 1, 0: candidates 0 and 4 coincide, and 1, 2, 3
        # are equally far from both
        cands = candidate_set([straight_trajectory((0.0, y), 0.0, 5.0)
                               for y in (0, 1, -1, 1, 0)])
        assert conditioning_sets(cands, 3)[0].tolist() == [0, 4, 1]
        assert conditioning_sets(cands, 3)[4].tolist() == [4, 0, 1]
        assert conditioning_sets(cands, 4)[3].tolist() == [3, 1, 0, 4]
        np.testing.assert_array_equal(conditioning_sets(cands, 1), [[0], [1], [2], [3], [4]])


class TestPlan:
    def test_single_candidate(self):
        rng = np.random.default_rng(10)
        tables = ego_only_tables(rng, k=1)
        result = plan(make_ego_candidates(1), tables, cfg_for(w_goal=1.0))
        assert result.chosen == 0

    def test_goal_dominates(self):
        rng = np.random.default_rng(11)
        tables = random_tables(rng, m=3, k=4, coupling=0.3, goal_scale=1.0)
        cfg = cfg_for(w_goal=1e7)
        result = plan(make_ego_candidates(4), tables, cfg)
        assert result.chosen == int(np.argmin(tables.goal))

    def test_merge_scene_reactive_vs_nonreactive(self):
        # hand-built tables: ego candidate 1 is the merge; actor 1 candidate
        # 0 keeps speed (collides with the merge), candidate 1 yields.
        k = 5
        gamma = 100.0
        unary = np.zeros((3, k))
        unary[1] = np.array([0.0, 0.8, 6.0, 6.0, 6.0])   # actor prefers to keep speed
        unary[2] = np.array([0.0, 3.0, 6.0, 6.0, 6.0])   # far-away actor
        goal = np.array([2.0, 0.0, 3.0, 3.0, 3.0])       # merge reaches the goal
        pw = np.zeros((3, 3, k, k))
        pw[0, 1][1, 0] = gamma                            # merge vs keep-speed
        pw[1, 0] = pw[0, 1].T
        tables = EnergyTables(unary=unary, pairwise=pw, goal=goal)
        cands = make_ego_candidates(k)
        reactive = plan(cands, tables, cfg_for("reactive", lambda_c=0.1, w_goal=1.0))
        nonreactive = plan(cands, tables, cfg_for("nonreactive", lambda_c=0.1,
                                                  w_goal=1.0))
        assert reactive.chosen == 1
        assert nonreactive.chosen == 0
        # verify both argmins against enumeration
        joint = joint_distribution(tables)
        grid_re = joint_energy_grid(tables, include_actor_actor=False,
                                    ego_interaction="both")
        brute_re = []
        for a0 in range(k):
            cond = joint[a0] / joint[a0].sum()
            brute_re.append((cond * grid_re[a0]).sum() + goal[a0])
        assert int(np.argmin(brute_re)) == 1
        grid_full = joint_energy_grid(tables, include_actor_actor=True,
                                      ego_interaction="both")
        p_actors = joint.sum(axis=0)
        brute_non = [(p_actors * grid_full[a0]).sum() + goal[a0] for a0 in range(k)]
        assert int(np.argmin(brute_non)) == 0

    def test_breakdown_sums_to_objective(self):
        rng = np.random.default_rng(12)
        for variant, set_size in (("reactive", None), ("nonreactive", None),
                                  ("interpolated", 2)):
            tables = random_tables(rng, m=3, k=4, coupling=0.4)
            cfg = cfg_for(variant, lambda_c=0.3, w_goal=0.9, set_size=set_size)
            result = plan(make_ego_candidates(4), tables, cfg)
            total = (result.ego_unary + result.interaction + result.actor_unary
                     + result.goal)
            np.testing.assert_allclose(total, result.objective_values, atol=1e-9)

    def test_interaction_term_nonnegative_for_nonnegative_pairwise(self):
        rng = np.random.default_rng(13)
        k = 4
        unary = rng.normal(size=(3, k))
        pw = np.zeros((3, 3, k, k))
        for i in range(3):
            for j in range(3):
                if i != j:
                    pw[i, j] = np.abs(rng.normal(size=(k, k)))
        tables = EnergyTables(unary=unary, pairwise=pw, goal=np.zeros(k))
        result = plan(make_ego_candidates(k), tables, cfg_for())
        assert np.all(result.interaction >= 0.0)

    def test_degenerate_candidate_gets_infinite_objective(self):
        rng = np.random.default_rng(14)
        tables = random_tables(rng, m=3, k=4, coupling=0.4)
        unary = tables.unary.copy()
        unary[0, 2] += 1e4
        tables = EnergyTables(unary=unary, pairwise=tables.pairwise,
                              goal=tables.goal)
        result = plan(make_ego_candidates(4), tables, cfg_for(w_goal=0.5))
        assert np.isinf(result.objective_values[2])
        assert result.chosen != 2

    def test_nonconverged_run_still_plans(self, caplog, capsys):
        tables = random_tables(np.random.default_rng(15), m=3, k=4, coupling=1.5)
        cfg = PlannerConfig(variant="reactive", lambda_b=1.0, lambda_c=0.1,
                            w_goal=0.5, lbp=LbpConfig(max_iters=1, tol=1e-12))
        with caplog.at_level(logging.WARNING, logger="reactplan.planner"):
            result = plan(make_ego_candidates(4), tables, cfg)
        assert result.converged is False
        assert 0 <= result.chosen < 4
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "1 iterations" in record.getMessage()
        residual = lbp(tables, cfg.lbp).residuals[-1]
        assert f"final residual {residual:.3g}" in record.getMessage()
        assert capsys.readouterr().out == ""

    def test_converged_run_does_not_warn(self, caplog):
        tables = random_tables(np.random.default_rng(15), m=3, k=4, coupling=0.3)
        with caplog.at_level(logging.WARNING, logger="reactplan.planner"):
            result = plan(make_ego_candidates(4), tables, cfg_for())
        assert result.converged is True
        assert caplog.records == []


class TestBatchedScoring:
    def test_equals_per_candidate_reference(self):
        # random scenes with 0-3 actors, degenerate ego candidates, exactly
        # tied and duplicated candidate distances, and converged as well as
        # stopped LBP runs; every set size 1..K
        rng = np.random.default_rng(18)
        for _ in range(60):
            m, k = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            tables = random_tables(rng, m=m, k=k, coupling=rng.uniform(0.1, 1.5),
                                   goal_scale=rng.uniform(0.0, 2.0))
            unary = tables.unary.copy()
            unary[0, rng.random(k) < 0.3] += 1e4
            tables = EnergyTables(unary=unary, pairwise=tables.pairwise,
                                  goal=tables.goal)
            cands = candidate_set([straight_trajectory((0.0, float(y)), 0.0, 5.0)
                                   for y in rng.integers(-2, 3, size=k)])
            lbp_cfg = LbpConfig(max_iters=int(rng.integers(1, 60)))
            variants = [("reactive", None), ("nonreactive", None)]
            variants += [("interpolated", s) for s in range(1, k + 1)]
            for variant, set_size in variants:
                cfg = PlannerConfig(variant=variant, set_size=set_size,
                                    lambda_b=rng.uniform(0, 2), lambda_c=rng.uniform(0, 2),
                                    w_goal=rng.uniform(0, 2), lbp=lbp_cfg)
                got, want = plan(cands, tables, cfg), plan_reference(cands, tables, cfg)
                for name in ("objective_values", "ego_unary", "interaction",
                             "actor_unary", "goal"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
                assert (got.chosen, got.converged, got.iters_used) == \
                    (want.chosen, want.converged, want.iters_used)

    def test_no_actors_means_no_degenerate_candidate(self):
        # candidate 2 holds ego mass ~4e-18, but with no actors nothing is
        # conditioned, so every variant scores it finitely and picks it
        tables = EnergyTables(unary=np.array([[0.0, 1.0, 40.0]]),
                              pairwise=np.zeros((1, 1, 3, 3)), goal=np.array([5.0, 5.0, 0.0]))
        cands = make_ego_candidates(3)
        for variant, set_size in (("reactive", None), ("nonreactive", None),
                                  ("interpolated", 1), ("interpolated", 2),
                                  ("interpolated", 3)):
            result = plan(cands, tables, cfg_for(variant, w_goal=10.0, set_size=set_size))
            np.testing.assert_array_equal(result.objective_values, [50.0, 51.0, 40.0])
            assert result.chosen == 2

    def test_one_lbp_call_through_planner_namespace(self, monkeypatch):
        calls = []

        def counting_lbp(*args, **kwargs):
            calls.append(1)
            return lbp(*args, **kwargs)

        monkeypatch.setattr(planner, "lbp", counting_lbp)
        tables = random_tables(np.random.default_rng(19), m=3, k=4)
        for variant, set_size in (("reactive", None), ("nonreactive", None),
                                  ("interpolated", 2)):
            calls.clear()
            plan(make_ego_candidates(4), tables, cfg_for(variant, set_size=set_size))
            assert len(calls) == 1


class TestPlannerConfigValidation:
    @pytest.mark.parametrize("set_size", [2.5, True, 0])
    def test_interpolated_rejects_non_count_set_size(self, set_size):
        with pytest.raises(ValueError, match="set_size must be an integer >= 1"):
            PlannerConfig(variant="interpolated", set_size=set_size)

    def test_interpolated_needs_set_size(self):
        with pytest.raises(InvalidSetSize):
            PlannerConfig(variant="interpolated")

    @pytest.mark.parametrize("field,value", [
        ("lambda_b", math.nan), ("lambda_b", -1.0), ("lambda_c", math.inf),
        ("w_goal", math.nan)])
    def test_rejects_non_finite_and_negative_weights(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number >= 0"):
            PlannerConfig(**{field: value})


class TestCandidateArrays:
    def test_replan_builds_no_trajectory(self, monkeypatch):
        # sampling, tables and every planning variant read the candidate
        # arrays directly; none of them splits a set into trajectories
        made = []
        check = sampler.Trajectory.__post_init__

        def counting_post_init(self):
            made.append(1)
            check(self)

        monkeypatch.setattr(sampler.Trajectory, "__post_init__", counting_post_init)
        candidates, boxes, lanes, refs = random_scene(np.random.default_rng(20),
                                                      n_actors=3, k=5, span=6.0)
        assert made == []
        tables = build_tables(candidates, boxes, lanes, refs, lanes[0], EnergyParams())
        for variant, set_size in (("reactive", None), ("nonreactive", None),
                                  ("interpolated", 3)):
            plan(candidates[0], tables, cfg_for(variant, set_size=set_size))
        assert made == []
        candidates[0][2]
        assert made == [1]


class TestArgminShiftInvariance:
    def test_constant_shift_moves_values_not_argmin(self):
        rng = np.random.default_rng(16)
        for variant, set_size in (("reactive", None), ("nonreactive", None),
                                  ("interpolated", 3)):
            for _ in range(20):
                tables = random_tables(rng, m=3, k=4, coupling=0.5)
                cfg = cfg_for(variant, lambda_c=0.2, w_goal=0.6, set_size=set_size)
                cands = make_ego_candidates(4)
                base = plan(cands, tables, cfg)
                shift = float(rng.normal()) * 3.0
                unary = tables.unary.copy()
                unary[0] += shift
                shifted_tables = EnergyTables(unary=unary,
                                              pairwise=tables.pairwise,
                                              goal=tables.goal)
                shifted = plan(cands, shifted_tables, cfg)
                assert shifted.chosen == base.chosen
                np.testing.assert_allclose(
                    shifted.objective_values, base.objective_values + shift,
                    atol=1e-9)


class TestPlanResultSerialization:
    def test_round_trips_through_json(self, tmp_path):
        rng = np.random.default_rng(17)
        tables = random_tables(rng, m=2, k=3, coupling=0.4)
        result = plan(make_ego_candidates(3), tables, cfg_for(w_goal=0.4))
        path = tmp_path / "plan.json"
        result.to_json(path)
        import json
        with open(path) as fh:
            data = json.load(fh)
        assert data["chosen"] == result.chosen
        assert len(data["objective_values"]) == 3
        assert set(data["breakdown"]) == {"ego_unary", "interaction",
                                          "actor_unary", "goal"}


class TestPlanDiagnostics:
    def test_residual_is_the_last_lbp_residual(self):
        tables = random_tables(np.random.default_rng(18), m=4, k=5, coupling=1.2)
        for lbp_cfg in (LbpConfig(), LbpConfig(max_iters=2), LbpConfig(damping=0.0)):
            cfg = replace(cfg_for(w_goal=0.4), lbp=lbp_cfg)
            result = plan(make_ego_candidates(5), tables, cfg)
            ms = lbp(tables, lbp_cfg)
            assert result.residual == ms.residuals[-1]
            assert (result.converged, result.iters_used) == (ms.converged, ms.iters_used)
            assert result.to_dict()["residual"] == result.residual

    def test_gap_is_runner_up_minus_chosen(self):
        rng = np.random.default_rng(19)
        for variant, set_size in (("reactive", None), ("nonreactive", None),
                                  ("interpolated", 2)):
            tables = random_tables(rng, m=3, k=6, coupling=0.5, goal_scale=1.0)
            result = plan(make_ego_candidates(6), tables,
                          cfg_for(variant, w_goal=1.0, set_size=set_size))
            values = result.objective_values
            runner_up = min(v for a, v in enumerate(values) if a != result.chosen)
            assert result.gap == runner_up - values[result.chosen] > 0.0
            assert result.to_dict()["gap"] == result.gap

    def test_exact_tie_has_zero_gap_and_lower_index(self):
        # ego candidates 1 and 3 carry identical rows everywhere, as two
        # identical rolled-out trajectories of a standing ego would
        tables = random_tables(np.random.default_rng(20), m=3, k=4, coupling=0.4)
        unary, pw, goal = tables.unary.copy(), tables.pairwise.copy(), tables.goal.copy()
        unary[0, 3], goal[3] = unary[0, 1], goal[1]
        pw[0, :, 3], pw[:, 0, :, 3] = pw[0, :, 1], pw[:, 0, :, 1]
        unary[0, 1] -= 5.0
        unary[0, 3] -= 5.0
        tied = EnergyTables(unary=unary, pairwise=pw, goal=goal)
        result = plan(make_ego_candidates(4), tied, cfg_for("nonreactive", w_goal=1.0))
        assert result.chosen == 1
        assert result.objective_values[3] == result.objective_values[1]
        assert result.gap == 0.0

    def test_gap_is_none_with_fewer_than_two_finite_values(self):
        tables = random_tables(np.random.default_rng(21), m=3, k=4, coupling=0.4)
        unary = tables.unary.copy()
        unary[0, 1:] += 1e4                  # every candidate but 0 degenerate
        tables = EnergyTables(unary=unary, pairwise=tables.pairwise, goal=tables.goal)
        result = plan(make_ego_candidates(4), tables, cfg_for(w_goal=0.5))
        assert np.isfinite(result.objective_values).sum() == 1
        assert result.gap is None and result.to_dict()["gap"] is None
        single = plan(make_ego_candidates(1), ego_only_tables(np.random.default_rng(22), k=1),
                      cfg_for(w_goal=1.0))
        assert single.gap is None


class TestActorRelabelling:
    def test_permuting_actors_permutes_marginals_and_keeps_plan(self):
        # seeded crowded scenes: the sampler, features and tables are per
        # vehicle, so only message passing sees the new order
        rng = np.random.default_rng(23)
        params = EnergyParams()
        variants = [("reactive", None), ("nonreactive", None), ("interpolated", 3)]
        for _ in range(4):
            n_actors = int(rng.integers(3, 7))
            cands, boxes, lanes, refs = random_scene(rng, n_actors=n_actors, k=6, span=5.0)
            order = [0, *(1 + rng.permutation(n_actors))]
            goal = np.array([20.0, 0.0])
            base = build_tables(cands, boxes, lanes, refs, goal, params)
            moved = build_tables(*([seq[i] for i in order]
                                   for seq in (cands, boxes, lanes, refs)), goal, params)
            assert np.array_equal(moved.unary, base.unary[order])
            assert np.array_equal(moved.pairwise, base.pairwise[order][:, order])
            assert np.count_nonzero(base.pairwise) > 0

            ms_base, ms_moved = lbp(base), lbp(moved)
            np.testing.assert_allclose(ms_moved.marginals, ms_base.marginals[order],
                                       rtol=0, atol=1e-9)
            for variant, set_size in variants:
                cfg = PlannerConfig(variant=variant, set_size=set_size, lambda_b=1.0,
                                    lambda_c=1.0, w_goal=0.5, lbp=LbpConfig())
                want, got = plan(cands[0], base, cfg), plan(cands[0], moved, cfg)
                assert got.chosen == want.chosen
                np.testing.assert_allclose(got.objective_values, want.objective_values,
                                           rtol=0, atol=1e-9)


def moved_scenario(scenario, theta, shift):
    """``scenario`` rotated by ``theta`` about the origin, then translated by
    ``shift``: lanes, vehicle states and a point goal all move."""
    c, s = math.cos(theta), math.sin(theta)

    def move(x, y):
        return c * x - s * y + shift[0], s * x + c * y + shift[1]

    def move_state(state):
        x, y = move(state.pose.x, state.pose.y)
        return KinematicState(Pose2(x, y, state.pose.heading + theta), state.speed)

    lanes = {name: replace(lane, line=Polyline([move(*p) for p in lane.line.points]))
             for name, lane in scenario.lanes.items()}
    kind, target = scenario.ego.goal
    goal = ("point", move(*target)) if kind == "point" else scenario.ego.goal
    ego = replace(scenario.ego, state=move_state(scenario.ego.state), goal=goal)
    actors = tuple(replace(a, state=move_state(a.state)) for a in scenario.actors)
    return replace(scenario, lanes=lanes, ego=ego, actors=actors)


def replan(scenario, planner_cfg, sampler_cfg, params, seed):
    """One replan at t = 0: per-vehicle candidates with fixed sampler seeds,
    tables, plan."""
    vehicles = [scenario.ego, *scenario.actors]
    refs = [scenario.ego.ref_speed] + [a.behavior.desired_speed for a in scenario.actors]
    cands = [sampler.sample_candidates(v.state, replace(
                 sampler_cfg, seed=sampler.derived_seed(seed, idx)))
             for idx, v in enumerate(vehicles)]
    tables = build_tables(cands, [v.box for v in vehicles],
                          [scenario.lanes[v.route].line for v in vehicles], refs,
                          scenario.goal_target(), params)
    return plan(cands[0], tables, planner_cfg)


class TestRigidMotion:
    def test_moving_the_whole_scene_keeps_objectives_and_choice(self):
        # the rule of perfbench's check_rigid_motion: objective values within
        # 1e-6 x scale, the same choice unless the two best values tie
        params = EnergyParams(w_goal=0.5)
        sampler_cfg = sampler.SamplerConfig(k=8)
        variants = [("reactive", None), ("nonreactive", None), ("interpolated", 3)]
        point_goal = builtin_templates()["merge_dense"]
        point_goal = replace(point_goal, ego=replace(point_goal.ego,
                                                     goal=("point", (60.0, 3.5))))
        scenes = [*builtin_templates().values(), point_goal]
        rng = np.random.default_rng(29)
        compared = 0
        for scenario in scenes:
            theta = float(rng.uniform(-math.pi, math.pi))
            moved = moved_scenario(scenario, theta, rng.uniform(-500, 500, size=2))
            for variant, set_size in variants:
                cfg = PlannerConfig(variant=variant, set_size=set_size, lambda_b=1.0,
                                    lambda_c=1.0, w_goal=params.w_goal, lbp=LbpConfig())
                here = replan(scenario, cfg, sampler_cfg, params, seed=3)
                there = replan(moved, cfg, sampler_cfg, params, seed=3)
                values, moved_values = here.objective_values, there.objective_values
                fin = np.isfinite(values)
                assert np.array_equal(fin, np.isfinite(moved_values))
                scale = max(1.0, float(np.max(np.abs(values[fin]))))
                assert np.max(np.abs(values[fin] - moved_values[fin])) <= 1e-6 * scale
                top = np.sort(values[fin])
                if len(top) < 2 or top[1] - top[0] > 1e-6 * scale:
                    assert there.chosen == here.chosen
                    compared += 1
        assert compared > 0
