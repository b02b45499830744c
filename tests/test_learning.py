"""Labels, cross-entropy loss, gradients through message passing, training."""
import math

import numpy as np
import pytest

from conftest import candidate_set, random_tables, straight_trajectory, trajectory_l2
from reactplan.energy import EnergyParams, EnergyTables
from reactplan.errors import DivergenceError, InvalidIgnoreSize
from reactplan.geometry import OrientedBox, Pose2, boxes_overlap
from reactplan.inference import LbpConfig, exact_marginals, lbp, lbp_pass
from reactplan.learning import (LOG_CLIP, TrainConfig,
                                _edge_loss, _node_loss, _unary_tangents,
                                batch_loss, example_loss, gradient,
                                label_and_ignore, load_dataset, loss,
                                predict_top1, save_dataset, synthetic_dataset,
                                train)
from reactplan.sampler import SamplerConfig

SCFG = SamplerConfig(k=6, horizon_steps=6, dt=0.5)
TCFG = TrainConfig(k_ignore=1, lbp=LbpConfig(max_iters=10, fixed_iterations=True))


def fd_gradient(params, batch, scfg, tcfg, h=1e-5):
    """Central finite differences of the mean loss over all 2F weights."""
    out = np.zeros(12)
    for p in range(12):
        for sign in (1.0, -1.0):
            w_ego = params.w_ego.copy()
            w_actor = params.w_actor.copy()
            if p < 6:
                w_ego[p] += sign * h
            else:
                w_actor[p - 6] += sign * h
            pert = EnergyParams(w_ego=w_ego, w_actor=w_actor)
            out[p] += sign * batch_loss(pert, batch, scfg, tcfg)
    return out / (2 * h)


class TestLabelAndIgnore:
    def test_zero_ignore_is_empty(self):
        cands = candidate_set([straight_trajectory((0, i), 0.0, 2.0) for i in range(4)])
        labels = label_and_ignore([cands], [cands[2]], k_ignore=0)
        assert labels == [(2, ())]

    def test_full_complement(self):
        cands = candidate_set([straight_trajectory((0, i), 0.0, 2.0) for i in range(3)])
        labels = label_and_ignore([cands], [cands[1]], k_ignore=2)
        gt, ignore = labels[0]
        assert gt == 1
        assert sorted(ignore) == [0, 2]

    def test_matches_distance_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            cands = [straight_trajectory(rng.uniform(-5, 5, 2),
                                         rng.uniform(-2, 2), rng.uniform(0, 8))
                     for _ in range(7)]
            target = straight_trajectory(rng.uniform(-5, 5, 2),
                                         rng.uniform(-2, 2), rng.uniform(0, 8))
            gt, ignore = label_and_ignore([candidate_set(cands)], [target], k_ignore=3)[0]
            dists = [trajectory_l2(c, target) for c in cands]
            order = sorted(range(7), key=lambda i: (dists[i], i))
            assert gt == order[0]
            assert list(ignore) == order[1:4]

    def test_ties_resolve_toward_lower_index(self):
        # offsets 1, -1, 0, 1, -1 from a target at 0: candidate 2 is the
        # ground truth and the other four are equally far
        cands = candidate_set([straight_trajectory((0, y), 0.0, 2.0)
                               for y in (1, -1, 0, 1, -1)])
        target = straight_trajectory((0, 0), 0.0, 2.0)
        assert label_and_ignore([cands], [target], k_ignore=3) == [(2, (0, 1, 3))]

    def test_ignore_size_bound(self):
        cands = candidate_set([straight_trajectory((0, i), 0.0, 2.0) for i in range(3)])
        with pytest.raises(InvalidIgnoreSize):
            label_and_ignore([cands], [cands[0]], k_ignore=3)


class TestLoss:
    def test_uniform_single_node(self):
        k = 4
        tables = EnergyTables(unary=np.zeros((1, k)),
                              pairwise=np.zeros((1, 1, k, k)), goal=np.zeros(k))
        ms = exact_marginals(tables)
        report = loss(tables, ms, [(0, ())])
        assert report.node_term == pytest.approx(-(1 / 4) * math.log(1 / 4))
        assert report.edge_term == 0.0
        assert report.total == pytest.approx(report.node_term)

    def test_confident_model_has_near_zero_loss(self):
        k = 4
        unary = np.full((1, k), 50.0)
        unary[0, 2] = 0.0
        tables = EnergyTables(unary=unary, pairwise=np.zeros((1, 1, k, k)),
                              goal=np.zeros(k))
        ms = exact_marginals(tables)
        report = loss(tables, ms, [(2, ())])
        assert report.total == pytest.approx(0.0, abs=1e-12)

    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(1)
        tables = random_tables(rng, m=2, k=3, coupling=0.6)
        ms = exact_marginals(tables)
        labels = [(0, (2,)), (1, ())]
        report = loss(tables, ms, labels, renormalize_ignored=True)
        k = 3
        lm = ms.log_marginals
        p0 = np.exp(lm[0])
        node0 = -(1 / k) * math.log(p0[0] / (p0[0] + p0[1]))
        node1 = -(1 / k) * lm[1, 1]
        block = ms.pairwise_beliefs[0, 1]
        sub = block[[0, 1]][:, [0, 1, 2]]
        edge = -(1 / k ** 2) * math.log(block[0, 1] / sub.sum())
        assert report.node_term == pytest.approx(node0 + node1, abs=1e-12)
        assert report.edge_term == pytest.approx(edge, abs=1e-12)
        assert report.total == pytest.approx(report.node_term + report.edge_term,
                                             abs=1e-12)

    def test_no_renormalization_flag(self):
        rng = np.random.default_rng(2)
        tables = random_tables(rng, m=2, k=3, coupling=0.6)
        ms = exact_marginals(tables)
        labels = [(0, (2,)), (1, (0,))]
        raw = loss(tables, ms, labels, renormalize_ignored=False)
        k = 3
        expected_nodes = -(1 / k) * (ms.log_marginals[0, 0] + ms.log_marginals[1, 1])
        assert raw.node_term == pytest.approx(expected_nodes, abs=1e-12)

    def test_zero_ignore_reduces_to_plain_cross_entropy(self):
        rng = np.random.default_rng(3)
        tables = random_tables(rng, m=2, k=4, coupling=0.5)
        ms = exact_marginals(tables)
        labels = [(1, ()), (3, ())]
        renorm = loss(tables, ms, labels, renormalize_ignored=True)
        raw = loss(tables, ms, labels, renormalize_ignored=False)
        assert renorm.total == pytest.approx(raw.total, abs=1e-12)

    def test_vanishing_ground_truth_mass_is_clipped(self):
        k = 3
        unary = np.zeros((1, k))
        unary[0, 0] = 200.0
        tables = EnergyTables(unary=unary, pairwise=np.zeros((1, 1, k, k)),
                              goal=np.zeros(k))
        ms = exact_marginals(tables)
        report = loss(tables, ms, [(0, ())])
        assert report.clipped
        assert report.node_term == pytest.approx(-(1 / k) * LOG_CLIP)

    def test_unary_shift_invariance(self):
        rng = np.random.default_rng(4)
        tables = random_tables(rng, m=3, k=4, coupling=0.5)
        ms = lbp(tables, LbpConfig(max_iters=100, tol=1e-12))
        labels = [(0, (1,)), (2, ()), (3, (0,))]
        base = loss(tables, ms, labels)
        unary = tables.unary.copy()
        unary[1] += 7.3
        shifted_tables = EnergyTables(unary=unary, pairwise=tables.pairwise,
                                      goal=tables.goal)
        shifted = loss(shifted_tables, lbp(shifted_tables,
                                           LbpConfig(max_iters=100, tol=1e-12)),
                       labels)
        assert shifted.total == pytest.approx(base.total, abs=1e-9)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            data = synthetic_dataset(2, seed=trial, sampler_cfg=SCFG)
            params = EnergyParams(w_ego=0.2 * rng.normal(size=6),
                                  w_actor=0.2 * rng.normal(size=6))
            g = gradient(params, data, SCFG, TCFG)
            g_fd = fd_gradient(params, data, SCFG, TCFG)
            rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
            assert rel < 1e-4

    def test_duplicated_feature_columns_get_equal_gradient(self):
        # white-box check on the tangent path: two identical feature columns
        # must receive identical gradient components at any weights
        rng = np.random.default_rng(6)
        m, k = 2, 4
        feats = rng.normal(size=(m, k, 6))
        feats[:, :, 3] = feats[:, :, 1]
        pairwise = np.zeros((m, m, k, k))
        pairwise[0, 1] = 0.5 * np.abs(rng.normal(size=(k, k)))
        pairwise[1, 0] = 0.5 * np.abs(rng.normal(size=(k, k)))
        unary = np.stack([feats[0] @ np.zeros(6), feats[1] @ np.zeros(6)])
        res = lbp_pass(-unary, -(pairwise + pairwise.transpose(1, 0, 3, 2)),
                       TCFG.lbp, node_dot=_unary_tangents(feats))
        labels = [(0, ()), (1, ())]
        _, gn, _ = _node_loss(res.log_marginals, labels, k, True,
                              res.d_log_marginals)
        _, ge, _ = _edge_loss(res.log_pairwise, labels, k, True,
                              res.d_log_pairwise)
        g = gn + ge
        assert g[1] == pytest.approx(g[3], abs=1e-8)
        assert g[7] == pytest.approx(g[9], abs=1e-8)

    def test_descent_direction_reduces_loss(self):
        data = synthetic_dataset(3, seed=9, sampler_cfg=SCFG)
        params = EnergyParams(w_ego=np.zeros(6), w_actor=np.zeros(6))
        g = gradient(params, data, SCFG, TCFG)
        before = batch_loss(params, data, SCFG, TCFG)
        eta = 1e-3
        stepped = EnergyParams(w_ego=params.w_ego - eta * g[:6],
                               w_actor=params.w_actor - eta * g[6:])
        after = batch_loss(stepped, data, SCFG, TCFG)
        assert after < before


class TestTrain:
    def test_zero_learning_rate_keeps_params(self):
        data = synthetic_dataset(3, seed=11, sampler_cfg=SCFG)
        params0 = EnergyParams(w_ego=np.full(6, 0.3), w_actor=np.full(6, -0.2))
        cfg = TrainConfig(lr=0.0, epochs=3, k_ignore=1,
                          lbp=LbpConfig(max_iters=8, fixed_iterations=True))
        fitted, curve = train(params0, data, SCFG, cfg)
        np.testing.assert_array_equal(fitted.w_ego, params0.w_ego)
        np.testing.assert_array_equal(fitted.w_actor, params0.w_actor)
        assert curve[0] == pytest.approx(curve[-1], abs=1e-12)

    def test_loss_decreases_on_synthetic_data(self):
        data = synthetic_dataset(30, seed=12, sampler_cfg=SCFG)
        params0 = EnergyParams(w_ego=np.zeros(6), w_actor=np.zeros(6))
        cfg = TrainConfig(lr=0.3, epochs=10, k_ignore=1,
                          lbp=LbpConfig(max_iters=8, fixed_iterations=True))
        fitted, curve = train(params0, data, SCFG, cfg)
        assert curve[-1] < curve[0]
        assert fitted.w_actor[1] > 0.0    # lateral offset is penalized

    def test_divergence_aborts(self):
        data = synthetic_dataset(2, seed=13, sampler_cfg=SCFG)
        cfg = TrainConfig(lr=0.1, epochs=3, k_ignore=0,
                          lbp=LbpConfig(max_iters=5, fixed_iterations=True),
                          divergence_threshold=1e-12)
        with pytest.raises(DivergenceError):
            train(EnergyParams(), data, SCFG, cfg)

    def test_non_finite_step_diverges(self):
        # a finite learning rate whose first step overflows the weights (the
        # largest gradient component here is about 1.18)
        data = synthetic_dataset(2, seed=9, sampler_cfg=SCFG)
        cfg = TrainConfig(lr=1.79e308, epochs=3, k_ignore=1,
                          lbp=LbpConfig(max_iters=5, fixed_iterations=True))
        with pytest.raises(DivergenceError, match="non-finite"):
            train(EnergyParams(), data, SCFG, cfg)

    @pytest.mark.parametrize("option", [{"epochs": 0}, {"k_ignore": -3},
                                        {"epochs": 2.5}, {"k_ignore": 1.5},
                                        {"epochs": True}, {"k_ignore": True},
                                        {"lr": -0.1}, {"lr": math.nan},
                                        {"lr": math.inf},
                                        {"divergence_threshold": math.nan}])
    def test_config_rejects_bad_options(self, option):
        with pytest.raises(ValueError):
            TrainConfig(**option)

    def test_deterministic(self):
        data = synthetic_dataset(4, seed=14, sampler_cfg=SCFG)
        cfg = TrainConfig(lr=0.2, epochs=3, k_ignore=1,
                          lbp=LbpConfig(max_iters=6, fixed_iterations=True))
        a_params, a_curve = train(EnergyParams(), data, SCFG, cfg)
        b_params, b_curve = train(EnergyParams(), data, SCFG, cfg)
        assert a_curve == b_curve
        np.testing.assert_array_equal(a_params.w_ego, b_params.w_ego)


class TestSyntheticDataset:
    @pytest.mark.parametrize("n_actors", [4, 6])
    def test_initial_footprints_do_not_overlap(self, n_actors):
        for ex in synthetic_dataset(8, seed=21, sampler_cfg=SCFG, n_actors=n_actors):
            footprints = [OrientedBox(Pose2(*past.poses[-1]), *dims)
                          for past, dims in zip(ex.pasts, ex.boxes)]
            for i in range(n_actors):
                for j in range(i + 1, n_actors):
                    assert not boxes_overlap(footprints[i], footprints[j])


class TestDatasetIO:
    def test_jsonl_round_trip(self, tmp_path):
        data = synthetic_dataset(3, seed=15, sampler_cfg=SCFG)
        path = tmp_path / "dataset.jsonl"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert len(loaded) == 3
        for a, b in zip(data, loaded):
            assert a.seed == b.seed
            assert a.ref_speeds == pytest.approx(b.ref_speeds)
            for ta, tb in zip(a.pasts, b.pasts):
                np.testing.assert_array_equal(ta.poses, tb.poses)
            for ta, tb in zip(a.futures, b.futures):
                np.testing.assert_array_equal(ta.poses, tb.poses)

    def test_loaded_dataset_trains_identically(self, tmp_path):
        data = synthetic_dataset(3, seed=16, sampler_cfg=SCFG)
        path = tmp_path / "dataset.jsonl"
        save_dataset(data, path)
        loaded = load_dataset(path)
        cfg = TrainConfig(lr=0.2, epochs=2, k_ignore=1,
                          lbp=LbpConfig(max_iters=6, fixed_iterations=True))
        _, curve_a = train(EnergyParams(), data, SCFG, cfg)
        _, curve_b = train(EnergyParams(), loaded, SCFG, cfg)
        assert curve_a == curve_b
