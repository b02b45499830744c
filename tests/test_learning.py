"""Labels, cross-entropy loss, gradients through message passing, training."""
import math

import numpy as np
import pytest

from conftest import (candidate_set, loss_terms_reference, random_tables,
                      straight_trajectory, trajectory_l2)
from reactplan import learning
from reactplan.energy import EnergyParams, EnergyTables
from reactplan.errors import DivergenceError, InvalidIgnoreSize
from reactplan.geometry import OrientedBox, Pose2, boxes_overlap
from reactplan.inference import (LbpConfig, edge_potentials, exact_marginals, lbp,
                                 lbp_pass)
from reactplan.learning import (LOG_CLIP, TrainConfig, _unary_tangents,
                                batch_loss, gradient,
                                label_and_ignore, load_dataset, loss,
                                save_dataset, synthetic_dataset, train)
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
        report = loss(ms, [(0, ())])
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
        report = loss(ms, [(2, ())])
        assert report.total == pytest.approx(0.0, abs=1e-12)

    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(1)
        tables = random_tables(rng, m=2, k=3, coupling=0.6)
        ms = exact_marginals(tables)
        labels = [(0, (2,)), (1, ())]
        report = loss(ms, labels)
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

    def test_empty_ignore_sets_are_not_renormalized(self):
        rng = np.random.default_rng(2)
        tables = random_tables(rng, m=2, k=3, coupling=0.6)
        ms = exact_marginals(tables)
        labels = [(0, ()), (1, ())]
        raw = loss(ms, labels)
        k = 3
        expected_nodes = -(1 / k) * (ms.log_marginals[0, 0] + ms.log_marginals[1, 1])
        assert raw.node_term == pytest.approx(expected_nodes, abs=1e-12)

    def test_zero_ignore_reduces_to_plain_cross_entropy(self):
        rng = np.random.default_rng(3)
        tables = random_tables(rng, m=2, k=4, coupling=0.5)
        ms = exact_marginals(tables)
        labels = [(1, ()), (3, ())]
        report = loss(ms, labels)
        k = 4
        plain = (-(1 / k) * (math.log(ms.marginals[0, 1]) + math.log(ms.marginals[1, 3]))
                 - (1 / k ** 2) * math.log(ms.pairwise_beliefs[0, 1, 1, 3]))
        assert report.total == pytest.approx(plain, abs=1e-12)

    def test_vanishing_ground_truth_mass_is_clipped(self):
        k = 3
        unary = np.zeros((1, k))
        unary[0, 0] = 200.0
        tables = EnergyTables(unary=unary, pairwise=np.zeros((1, 1, k, k)),
                              goal=np.zeros(k))
        ms = exact_marginals(tables)
        report = loss(ms, [(0, ())])
        assert report.clipped
        assert report.node_term == pytest.approx(-(1 / k) * LOG_CLIP)

    def test_unary_shift_invariance(self):
        rng = np.random.default_rng(4)
        tables = random_tables(rng, m=3, k=4, coupling=0.5)
        ms = lbp(tables, LbpConfig(max_iters=100, tol=1e-12))
        labels = [(0, (1,)), (2, ()), (3, (0,))]
        base = loss(ms, labels)
        unary = tables.unary.copy()
        unary[1] += 7.3
        shifted_tables = EnergyTables(unary=unary, pairwise=tables.pairwise,
                                      goal=tables.goal)
        shifted = loss(lbp(shifted_tables, LbpConfig(max_iters=100, tol=1e-12)),
                       labels)
        assert shifted.total == pytest.approx(base.total, abs=1e-9)

    def test_relabelling_vehicles_keeps_loss(self):
        # the rule of test_planner.py::TestActorRelabelling: permute the
        # vehicles of a scene together with their labels
        rng = np.random.default_rng(24)
        cfg = LbpConfig(max_iters=200, tol=1e-12)
        for m in (3, 5):
            tables = random_tables(rng, m=m, k=5, coupling=0.5)
            labels = random_labels(rng, m, 5, rng.integers(0, 3, size=m))
            order = rng.permutation(m)
            moved = EnergyTables(unary=tables.unary[order],
                                 pairwise=tables.pairwise[order][:, order],
                                 goal=tables.goal)
            base = loss(lbp(tables, cfg), labels)
            again = loss(lbp(moved, cfg), [labels[i] for i in order])
            assert again.total == pytest.approx(base.total, abs=1e-9)
            assert again.node_term == pytest.approx(base.node_term, abs=1e-9)


def random_labels(rng, m, k, ignore_sizes):
    """Ground truth per vehicle plus an ignore set of the given size drawn
    from the other candidates."""
    labels = []
    for size in ignore_sizes:
        gt = int(rng.integers(k))
        others = [a for a in range(k) if a != gt]
        labels.append((gt, tuple(int(a) for a in rng.choice(others, size, replace=False))))
    return labels


def beliefs_with_tangents(rng, m, k, tables=None):
    """Beliefs of a random scene with their tangents along four random
    node-potential directions, after a few fixed message-passing iterations."""
    tables = tables or random_tables(rng, m=m, k=k, coupling=0.5)
    return lbp_pass(-tables.unary, edge_potentials(tables.pairwise),
                    LbpConfig(max_iters=6, fixed_iterations=True),
                    node_dot=rng.normal(size=(4, m, k)))


def assert_matches_reference(ms, labels):
    """Totals and gradient within 1e-12 relative of the loop oracle, with the
    same clip flag; returns the report."""
    node, edge, grad, clipped = loss_terms_reference(
        ms.log_marginals, ms.log_pairwise_beliefs, labels, ms.d_log_marginals,
        ms.d_log_pairwise_beliefs)
    report = loss(ms, labels)
    assert report.node_term == pytest.approx(node, rel=1e-12, abs=0)
    assert report.edge_term == pytest.approx(edge, rel=1e-12, abs=0)
    assert report.total == pytest.approx(node + edge, rel=1e-12, abs=0)
    assert np.max(np.abs(report.gradient - grad)) <= 1e-12 * np.max(np.abs(grad))
    assert report.clipped == clipped
    return report


class TestLossKernel:
    # the masked cross-entropy against the loops over actors and actor pairs
    # (conftest.loss_terms_reference); M = 1 has no pairs

    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    @pytest.mark.parametrize("k_ignore", [0, 1, 2, 3])
    def test_matches_loop_reference(self, m, k_ignore):
        rng = np.random.default_rng(100 * m + k_ignore)
        for _ in range(3):
            beliefs = beliefs_with_tangents(rng, m, 5)
            labels = random_labels(rng, m, 5, [k_ignore] * m)
            assert not assert_matches_reference(beliefs, labels).clipped

    @pytest.mark.parametrize("m", [2, 4, 9])
    def test_ragged_hand_written_labels(self, m):
        rng = np.random.default_rng(m)
        for _ in range(3):
            beliefs = beliefs_with_tangents(rng, m, 5)
            labels = random_labels(rng, m, 5, rng.integers(0, 4, size=m))
            assert_matches_reference(beliefs, labels)

    def test_clipped_terms_match(self):
        rng = np.random.default_rng(7)
        tables = random_tables(rng, m=3, k=4, coupling=0.5)
        unary = tables.unary.copy()
        unary[0, 1] = 200.0                    # the ground truth of vehicle 0
        tables = EnergyTables(unary=unary, pairwise=tables.pairwise, goal=tables.goal)
        beliefs = beliefs_with_tangents(rng, 3, 4, tables)
        labels = [(1, (2,)), (0, ()), (3, (0, 1))]
        report = assert_matches_reference(beliefs, labels)
        assert report.clipped
        assert report.node_term > -(1 / 4) * LOG_CLIP


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
        g = loss(res, labels).gradient
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

    def test_train_calls_traced_names_once_per_example_per_epoch(self, monkeypatch):
        # the counts perfbench's Train.round checks on traced runs: sampling
        # and the loss go through these module names, once per vehicle and
        # once per example in every epoch
        n_examples, epochs, n_actors = 3, 2, 3
        data = synthetic_dataset(n_examples, seed=17, sampler_cfg=SCFG, n_actors=n_actors)
        counts = {"candidates": 0, "examples": 0}

        def counting(name, key, size):
            original = getattr(learning, name)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                counts[key] += size(out)
                return out
            monkeypatch.setattr(learning, name, wrapper)

        counting("sample_candidates", "candidates", len)
        counting("example_loss", "examples", lambda out: 1)
        cfg = TrainConfig(lr=0.1, epochs=epochs, k_ignore=1,
                          lbp=LbpConfig(max_iters=4, fixed_iterations=True))
        train(EnergyParams(), data, SCFG, cfg)
        assert counts == {"examples": n_examples * epochs,
                          "candidates": n_examples * epochs * n_actors * SCFG.k}

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
