"""Message passing vs exact enumeration, conditionals, invariants."""
import warnings

import numpy as np
import pytest

from conftest import (dense_lbp_pass, edge_lbp_reference, joint_distribution,
                      max_node_tv, random_tables, tree_tables, tv_distance)
from reactplan.energy import EnergyTables
from reactplan.errors import NumericalFailure, StateSpaceTooLarge
from reactplan.inference import (LbpConfig, _edge_list, _linear_messages,
                                 edge_potentials, exact_marginals, lbp, lbp_pass,
                                 set_conditionals)

TIGHT = LbpConfig(max_iters=300, damping=0.5, tol=1e-13)


def collision_instance(seed, m=3, k=4):
    """Random unaries plus symmetric hard-constraint pairwise structure."""
    rng = np.random.default_rng(seed)
    unary = rng.normal(size=(m, k))
    pw = np.zeros((m, m, k, k))
    for i in range(m):
        for j in range(i + 1, m):
            mask = rng.random(size=(k, k)) < 0.1
            pw[i, j] = 100.0 * mask
            pw[j, i] = 100.0 * mask.T
    return EnergyTables(unary=unary, pairwise=pw, goal=np.zeros(k))


def singleton_conditionals(ms):
    """Actor marginals conditioned on each single ego candidate, (K, N, K),
    and the (K,) degenerate mask."""
    return set_conditionals(ms, np.arange(ms.k)[:, None])


class TestLbpBasics:
    def test_single_node_is_softmax(self):
        rng = np.random.default_rng(0)
        unary = rng.normal(size=(1, 5))
        tables = EnergyTables(unary=unary, pairwise=np.zeros((1, 1, 5, 5)),
                              goal=np.zeros(5))
        ms = lbp(tables, TIGHT)
        expected = np.exp(-unary[0]) / np.exp(-unary[0]).sum()
        np.testing.assert_allclose(ms.marginals[0], expected, atol=1e-12)

    def test_two_nodes_exact(self):
        rng = np.random.default_rng(1)
        tables = random_tables(rng, m=2, k=5, coupling=1.0)
        exact = exact_marginals(tables)
        approx = lbp(tables, TIGHT)
        assert max_node_tv(exact, approx) < 1e-9
        assert tv_distance(exact.pairwise_beliefs[0, 1],
                           approx.pairwise_beliefs[0, 1]) < 1e-9

    def test_triangle_close_to_enumeration(self):
        for seed in range(10):
            tables = collision_instance(seed)
            exact = exact_marginals(tables)
            approx = lbp(tables, LbpConfig(max_iters=50, damping=0.5, tol=1e-6))
            assert approx.converged
            assert max_node_tv(exact, approx) < 2e-2

    def test_deterministic(self):
        tables = collision_instance(3)
        a = lbp(tables, LbpConfig())
        b = lbp(tables, LbpConfig())
        assert np.array_equal(a.marginals, b.marginals)
        assert np.array_equal(a.pairwise_beliefs, b.pairwise_beliefs)
        assert a.iters_used == b.iters_used

    def test_fixed_iterations_mode_runs_exactly_max_iters(self):
        tables = collision_instance(4)
        ms = lbp(tables, LbpConfig(max_iters=17, fixed_iterations=True))
        assert ms.iters_used == 17
        assert len(ms.residuals) == 17

    @pytest.mark.parametrize("option", [{"tol": float("nan")}, {"tol": 0.0},
                                        {"damping": float("nan")}, {"max_iters": 0},
                                        {"max_iters": 2.5}, {"max_iters": True},
                                        {"tol": float("inf")}])
    def test_config_rejects_bad_options(self, option):
        # residual < nan never holds, so a NaN tol could never converge
        with pytest.raises(ValueError):
            LbpConfig(**option)


class TestTreeExactness:
    def test_spanning_tree_instances_match_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            k = int(rng.integers(2, 6))
            tables, edges = tree_tables(rng, m=m, k=k)
            exact = exact_marginals(tables)
            approx = lbp(tables, TIGHT)
            assert approx.converged
            assert max_node_tv(exact, approx) < 1e-9
            for i, j in edges:
                assert tv_distance(exact.pairwise_beliefs[i, j],
                                   approx.pairwise_beliefs[i, j]) < 1e-9


class TestMarginalSetInvariants:
    def test_normalization_and_consistency(self):
        cfg = LbpConfig(max_iters=300, damping=0.5, tol=1e-9)
        for seed in range(20):
            ms = lbp(collision_instance(seed), cfg)
            assert ms.converged
            np.testing.assert_allclose(ms.marginals.sum(axis=1), 1.0, atol=1e-9)
            m = ms.n_nodes
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    block = ms.pairwise_beliefs[i, j]
                    assert block.sum() == pytest.approx(1.0, abs=1e-9)
                    np.testing.assert_allclose(block.sum(axis=1),
                                               ms.marginals[i], atol=1e-6)
                    np.testing.assert_allclose(block.sum(axis=0),
                                               ms.marginals[j], atol=1e-6)

    def test_damping_residuals_nonincreasing_tail(self):
        # sanity flag, not a hard guarantee of message passing
        cfg = LbpConfig(max_iters=100, damping=0.5, tol=1e-10)
        for seed in range(10):
            ms = lbp(collision_instance(seed), cfg)
            if not ms.converged or len(ms.residuals) < 6:
                continue
            tail = ms.residuals[-5:]
            if any(b > a * (1 + 1e-9) for a, b in zip(tail, tail[1:])):
                warnings.warn(f"residual tail not monotone on seed {seed}")


def assert_linear_views_exact(ms):
    """``marginals`` and ``pairwise_beliefs`` are exp of the stored logs bit
    for bit, with zero diagonal pairwise blocks."""
    idx = np.arange(ms.n_nodes)
    beliefs = np.exp(ms.log_pairwise_beliefs)
    beliefs[idx, idx] = 0.0
    assert np.array_equal(ms.marginals, np.exp(ms.log_marginals))
    assert np.array_equal(ms.pairwise_beliefs, beliefs)
    assert not ms.pairwise_beliefs[idx, idx].any()


class TestOneResultType:
    """``lbp`` is ``lbp_pass`` on the tables' potentials, and every
    ``MarginalSet`` stores its beliefs once, in log form."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lbp_is_lbp_pass_on_table_potentials(self, seed):
        rng = np.random.default_rng(500 + seed)
        for tables in (collision_instance(seed),
                       random_tables(rng, m=4, k=5, coupling=0.8),
                       random_tables(rng, m=1, k=3)):
            for cfg in (LbpConfig(), LbpConfig(max_iters=6, damping=0.0)):
                ms = lbp(tables, cfg)
                res = lbp_pass(-tables.unary, edge_potentials(tables.pairwise), cfg)
                assert np.array_equal(ms.log_marginals, res.log_marginals)
                assert np.array_equal(ms.log_pairwise_beliefs, res.log_pairwise_beliefs)
                assert (ms.converged, ms.iters_used, ms.residuals) == \
                    (res.converged, res.iters_used, res.residuals)
                assert ms.d_log_marginals is None and ms.d_log_pairwise_beliefs is None
                assert_linear_views_exact(ms)

    def test_exact_marginals_views(self):
        for seed in range(3):
            ms = exact_marginals(collision_instance(seed))
            assert (ms.converged, ms.iters_used, ms.residuals) == (True, 0, [])
            assert_linear_views_exact(ms)

    def test_tangent_fields_only_with_tangents(self):
        rng = np.random.default_rng(9)
        tables = random_tables(rng, m=3, k=4, coupling=0.5)
        cfg = LbpConfig(max_iters=5, fixed_iterations=True)
        res = lbp_pass(-tables.unary, edge_potentials(tables.pairwise), cfg,
                       node_dot=rng.normal(size=(2, 3, 4)))
        assert res.d_log_marginals.shape == (2, 3, 4)
        assert res.d_log_pairwise_beliefs.shape == (2, 3, 3, 4, 4)
        assert_linear_views_exact(res)

    def test_non_finite_belief_raises(self):
        # finite but enormous potentials overflow a log belief to -inf
        # while every message stays finite
        log_node = np.array([[-1e308, 0.0], [-1e308, 0.0]])
        log_edge = np.zeros((2, 2, 2, 2))
        log_edge[0, 1, 0, 0] = log_edge[1, 0, 0, 0] = -1e308
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalFailure, match="non-finite belief"):
            lbp_pass(log_node, log_edge, LbpConfig(max_iters=3))


class TestExactMarginals:
    def test_zero_energy_uniform(self):
        k = 4
        tables = EnergyTables(unary=np.zeros((3, k)),
                              pairwise=np.zeros((3, 3, k, k)), goal=np.zeros(k))
        ms = exact_marginals(tables)
        np.testing.assert_allclose(ms.marginals, 1.0 / k, atol=1e-12)
        np.testing.assert_allclose(ms.pairwise_beliefs[0, 1], 1.0 / k ** 2,
                                   atol=1e-12)

    def test_unary_only_factorizes(self):
        rng = np.random.default_rng(3)
        unary = rng.normal(size=(3, 4))
        tables = EnergyTables(unary=unary, pairwise=np.zeros((3, 3, 4, 4)),
                              goal=np.zeros(4))
        ms = exact_marginals(tables)
        for i in range(3):
            expected = np.exp(-unary[i]) / np.exp(-unary[i]).sum()
            np.testing.assert_allclose(ms.marginals[i], expected, atol=1e-12)

    def test_huge_gamma_removes_joint_mass(self):
        rng = np.random.default_rng(4)
        tables = random_tables(rng, m=3, k=4, coupling=0.3)
        pw = tables.pairwise.copy()
        pw[0, 1, 2, 3] += 1e6
        pw[1, 0, 3, 2] += 1e6
        tables = EnergyTables(unary=tables.unary, pairwise=pw, goal=tables.goal)
        ms = exact_marginals(tables)
        assert ms.pairwise_beliefs[0, 1, 2, 3] < 1e-12

    def test_matches_independent_accumulation(self):
        rng = np.random.default_rng(5)
        tables = random_tables(rng, m=3, k=3, coupling=0.8)
        ms = exact_marginals(tables)
        joint = joint_distribution(tables)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        for i in range(3):
            axes = tuple(ax for ax in range(3) if ax != i)
            np.testing.assert_allclose(ms.marginals[i], joint.sum(axis=axes),
                                       atol=1e-12)

    def test_state_space_cap(self):
        k = 30
        with pytest.raises(StateSpaceTooLarge):
            exact_marginals(EnergyTables(unary=np.zeros((6, k)),
                                         pairwise=np.zeros((6, 6, k, k)),
                                         goal=np.zeros(k)))


class TestConditionals:
    def test_independent_node_conditionals_equal_marginals(self):
        rng = np.random.default_rng(6)
        tables = random_tables(rng, m=3, k=4, coupling=0.8)
        pw = tables.pairwise.copy()
        pw[0, :] = 0.0
        pw[:, 0] = 0.0
        tables = EnergyTables(unary=tables.unary, pairwise=pw, goal=tables.goal)
        ms = lbp(tables, TIGHT)
        for q in singleton_conditionals(ms)[0]:
            np.testing.assert_allclose(q, ms.marginals[1:], atol=1e-9)

    def test_star_tree_matches_clamped_rerun(self):
        # clamping the ego node by a large unary offset and rerunning is the
        # slow oracle. One-pass conditionals read the direct ego-actor edge
        # beliefs, so the tree instances are stars centered on the ego (the
        # structure every actual scene has, since the graph is fully
        # connected through the ego's interaction energies).
        rng = np.random.default_rng(7)
        for _ in range(10):
            m, k = 4, 3
            unary = rng.normal(size=(m, k))
            pw = np.zeros((m, m, k, k))
            for i in range(1, m):
                pw[0, i] = rng.normal(size=(k, k))
                pw[i, 0] = rng.normal(size=(k, k))
            tables = EnergyTables(unary=unary, pairwise=pw, goal=np.zeros(k))
            ms = lbp(tables, TIGHT)
            conds, degenerate = singleton_conditionals(ms)
            for a0 in range(3):
                if ms.marginals[0, a0] <= 1e-12:
                    continue
                assert not degenerate[a0]
                q = conds[a0]
                clamped_unary = tables.unary.copy()
                clamped_unary[0] += 500.0
                clamped_unary[0, a0] -= 500.0
                clamped = EnergyTables(unary=clamped_unary,
                                       pairwise=tables.pairwise,
                                       goal=tables.goal)
                rerun = lbp(clamped, TIGHT)
                np.testing.assert_allclose(q, rerun.marginals[1:], atol=1e-9)

    def test_enumerable_matches_exact_conditional(self):
        rng = np.random.default_rng(8)
        tables = random_tables(rng, m=3, k=4, coupling=0.6)
        joint = joint_distribution(tables)
        ms = exact_marginals(tables)
        for a0, q in enumerate(singleton_conditionals(ms)[0]):
            slice_ = joint[a0]                    # (K, K) over (y1, y2)
            cond = slice_ / slice_.sum()
            np.testing.assert_allclose(q[0], cond.sum(axis=1), atol=1e-12)
            np.testing.assert_allclose(q[1], cond.sum(axis=0), atol=1e-12)

    def test_lbp_conditionals_close_to_enumeration(self):
        # 1e-2 holds in the weak-coupling regime; conditioning renormalizes
        # single belief rows, so hard loopy instances carry more error than
        # the node marginals do (checked at a loose sanity bound below).
        rng_base = 100
        for seed in range(30):
            rng = np.random.default_rng(seed + rng_base)
            tables = random_tables(rng, m=3, k=4, coupling=0.1)
            ms = lbp(tables, LbpConfig(max_iters=200, tol=1e-10))
            joint = joint_distribution(tables)
            for a0, q in enumerate(singleton_conditionals(ms)[0]):
                slice_ = joint[a0]
                cond = slice_ / slice_.sum()
                assert tv_distance(q[0], cond.sum(axis=1)) < 1e-2
                assert tv_distance(q[1], cond.sum(axis=0)) < 1e-2
        for seed in range(10):
            tables = collision_instance(seed)
            ms = lbp(tables, LbpConfig(max_iters=100, tol=1e-8))
            joint = joint_distribution(tables)
            conds, degenerate = singleton_conditionals(ms)
            for a0 in range(4):
                if ms.marginals[0, a0] <= 1e-6:
                    continue
                assert not degenerate[a0]
                q = conds[a0]
                slice_ = joint[a0]
                cond = slice_ / slice_.sum()
                assert tv_distance(q[0], cond.sum(axis=1)) < 0.25
                assert tv_distance(q[1], cond.sum(axis=0)) < 0.25

    def test_degenerate_condition(self):
        tables = collision_instance(0)
        unary = tables.unary.copy()
        unary[0, 1] += 1e4                         # crush one candidate's mass
        tables = EnergyTables(unary=unary, pairwise=tables.pairwise,
                              goal=tables.goal)
        ms = lbp(tables, TIGHT)
        assert singleton_conditionals(ms)[1].tolist() == [False, True, False, False]


class TestSetConditionals:
    def test_full_set_equals_marginals(self):
        tables = collision_instance(2)
        ms = exact_marginals(tables)
        conds, degenerate = set_conditionals(ms, np.array([[0, 1, 2, 3]]))
        assert not degenerate[0]
        np.testing.assert_allclose(conds[0], ms.marginals[1:], atol=1e-12)

    def test_pair_set_matches_enumeration(self):
        rng = np.random.default_rng(9)
        tables = random_tables(rng, m=3, k=4, coupling=0.6)
        ms = exact_marginals(tables)
        joint = joint_distribution(tables)
        members = [1, 3]
        q = set_conditionals(ms, np.array([members]))[0][0]
        slice_ = joint[members].sum(axis=0)
        cond = slice_ / slice_.sum()
        np.testing.assert_allclose(q[0], cond.sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(q[1], cond.sum(axis=0), atol=1e-12)

    def test_no_actors_is_never_degenerate(self):
        # candidate 2 holds ego mass ~4e-18; with no actors nothing is
        # conditioned, so every row is the empty prediction
        tables = EnergyTables(unary=np.array([[0.0, 1.0, 40.0]]),
                              pairwise=np.zeros((1, 1, 3, 3)), goal=np.zeros(3))
        ms = lbp(tables, LbpConfig())
        assert ms.marginals[0, 2] < 1e-12
        conds, degenerate = set_conditionals(ms, np.array([[2]]))
        assert conds.shape == (1, 0, 3) and not degenerate[0]

    def test_batch_rows_equal_single_row_calls(self):
        tables = collision_instance(4)
        unary = tables.unary.copy()
        unary[0, 1:3] += 1e4
        ms = lbp(EnergyTables(unary=unary, pairwise=tables.pairwise,
                              goal=tables.goal), TIGHT)
        members = np.array([[0, 1], [1, 2], [2, 3], [0, 3], [1, 3]])
        conditionals, degenerate = set_conditionals(ms, members)
        assert degenerate.tolist() == [False, True, False, False, False]
        for row, cond, bad in zip(members, conditionals, degenerate):
            one, one_bad = set_conditionals(ms, row[None])
            assert one_bad.tolist() == [bad]
            if not bad:
                np.testing.assert_array_equal(cond, one[0])

    @pytest.mark.parametrize("members", [[[-1]], [[4]], [[0, -4]], [[1, 1]],
                                         [[0, 2], [3, 3]], [[2, 0, 2]]])
    def test_rejects_members_out_of_range_or_repeated(self, members):
        # three vehicles, K = 4: -1 would silently read candidate 3 and a
        # repeat would count its ego mass twice in the degenerate test
        ms = exact_marginals(collision_instance(0))
        assert (ms.n_nodes, ms.k) == (3, 4)
        with pytest.raises(IndexError):
            set_conditionals(ms, np.array(members))

    def test_accepts_every_in_range_set_in_any_order(self):
        ms = exact_marginals(collision_instance(0))
        forward, bad = set_conditionals(ms, np.array([[0, 1, 2, 3], [3, 0, 1, 2]]))
        assert not bad.any()
        np.testing.assert_allclose(forward[0], forward[1], atol=1e-15)
        assert set_conditionals(ms, np.zeros((0, 2), dtype=int))[0].shape == (0, 2, 4)


def sparse_potentials(rng, m, k, zero_frac, coupling=0.7):
    """Random log potentials in which about ``zero_frac`` of the unordered
    pairs have an identically zero combined block."""
    log_node = rng.normal(size=(m, k))
    pw = np.zeros((m, m, k, k))
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() >= zero_frac:
                pw[i, j] = coupling * rng.normal(size=(k, k))
                pw[j, i] = coupling * rng.normal(size=(k, k))
    return log_node, -(pw + pw.transpose(1, 0, 3, 2))


# (nodes, candidates, share of zero blocks): dense, half sparse, no edges at
# all, a single node and a two-node graph whose only block is zero
ORACLE_CASES = [(6, 5, 0.0), (7, 4, 0.5), (8, 3, 0.5), (5, 4, 1.0),
                (1, 6, 0.0), (2, 5, 1.0)]


class TestEdgeListMatchesDenseOracle:
    @pytest.mark.parametrize("m,k,zero_frac", ORACLE_CASES)
    def test_plain_mode(self, m, k, zero_frac):
        rng = np.random.default_rng(100 + 10 * m + k)
        for cfg in (LbpConfig(), LbpConfig(max_iters=7, damping=0.0)):
            log_node, log_edge = sparse_potentials(rng, m, k, zero_frac)
            res = lbp_pass(log_node, log_edge, cfg)
            lm, lpb, conv, iters, resid, _, _ = dense_lbp_pass(log_node, log_edge, cfg)
            np.testing.assert_allclose(res.log_marginals, lm, rtol=0, atol=1e-12)
            np.testing.assert_allclose(res.log_pairwise_beliefs, lpb, rtol=0, atol=1e-12)
            assert res.iters_used == iters
            assert res.converged == conv
            assert len(res.residuals) == len(resid)

    @pytest.mark.parametrize("m,k,zero_frac", ORACLE_CASES)
    def test_tangent_mode(self, m, k, zero_frac):
        rng = np.random.default_rng(200 + 10 * m + k)
        cfg = LbpConfig(max_iters=12, fixed_iterations=True)
        log_node, log_edge = sparse_potentials(rng, m, k, zero_frac)
        node_dot = rng.normal(size=(3, m, k))
        res = lbp_pass(log_node, log_edge, cfg, node_dot=node_dot)
        lm, lpb, conv, iters, resid, dlm, dlpb = dense_lbp_pass(
            log_node, log_edge, cfg, node_dot=node_dot)
        np.testing.assert_allclose(res.log_marginals, lm, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.log_pairwise_beliefs, lpb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.d_log_marginals, dlm, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.d_log_pairwise_beliefs, dlpb, rtol=0, atol=1e-12)
        assert res.iters_used == iters == cfg.max_iters
        assert res.converged == conv
        assert len(res.residuals) == len(resid)


def assert_engine_equal(res, want, tangents=False):
    lm, lpb, conv, iters, resid, dlm, dlpb = want
    assert np.array_equal(res.log_marginals, lm)
    assert np.array_equal(res.log_pairwise_beliefs, lpb)
    assert (res.converged, res.iters_used, res.residuals) == (conv, iters, resid)
    if tangents:
        assert np.array_equal(res.d_log_marginals, dlm)
        assert np.array_equal(res.d_log_pairwise_beliefs, dlpb)


# (nodes, candidates, share of zero blocks): K of 1, 12 and 16, a single
# node (M = 1), no active edges (E = 0) and sparse graphs
EXACT_CASES = [(5, 1, 0.0), (6, 12, 0.0), (9, 16, 0.6), (1, 16, 0.0),
               (4, 12, 1.0), (3, 5, 0.3)]


class TestCandidateAxisLayoutIsExact:
    """``lbp_pass`` against the (E, K, K) log-domain edge-list loop: without
    tangents the linear-domain messages agree to rounding, with the same
    iteration count and convergence flag; with tangents the log-domain loop
    over the (K, E, K) layout gives the same bits."""

    @pytest.mark.parametrize("m,k,zero_frac", EXACT_CASES)
    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_plain_mode(self, m, k, zero_frac, damping):
        rng = np.random.default_rng(300 + 10 * m + k)
        for coupling, max_iters in ((0.3, 50), (2.0, 9)):
            cfg = LbpConfig(max_iters=max_iters, damping=damping)
            log_node, log_edge = sparse_potentials(rng, m, k, zero_frac, coupling)
            res = lbp_pass(log_node, log_edge, cfg)
            lm, lpb, conv, iters, resid, _, _ = edge_lbp_reference(log_node, log_edge, cfg)
            np.testing.assert_allclose(res.log_marginals, lm, rtol=0, atol=1e-12)
            np.testing.assert_allclose(res.log_pairwise_beliefs, lpb, rtol=0, atol=1e-12)
            assert (res.converged, res.iters_used, len(res.residuals)) == (conv, iters,
                                                                           len(resid))

    @pytest.mark.parametrize("m,k,zero_frac", EXACT_CASES)
    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_tangent_mode(self, m, k, zero_frac, damping):
        rng = np.random.default_rng(400 + 10 * m + k)
        cfg = LbpConfig(max_iters=8, damping=damping, fixed_iterations=True)
        log_node, log_edge = sparse_potentials(rng, m, k, zero_frac)
        node_dot = rng.normal(size=(3, m, k))
        assert_engine_equal(lbp_pass(log_node, log_edge, cfg, node_dot=node_dot),
                            edge_lbp_reference(log_node, log_edge, cfg, node_dot=node_dot),
                            tangents=True)


def underflow_instance(log_block):
    """Two nodes, K = 3, joined by ``log_block`` as the combined log potential
    of the edge 0 -> 1 (its transpose for 1 -> 0)."""
    rng = np.random.default_rng(31)
    log_edge = np.zeros((2, 2, 3, 3))
    log_edge[0, 1] = log_block
    log_edge[1, 0] = log_block.T
    return rng.normal(size=(2, 3)), log_edge


class TestUnderflowGuard:
    """A plain call whose linear messages underflow to 0 is rerun on the
    log-domain loop, whose messages there are tiny but finite."""

    def check_falls_back(self, log_node, log_edge, cfg):
        src, dst, rev = _edge_list(log_edge)
        incidence = np.zeros((2, len(src)))
        incidence[dst, np.arange(len(src))] = 1.0
        assert _linear_messages(log_node, log_edge[src, dst], src, rev, incidence,
                                cfg) is None
        res = lbp_pass(log_node, log_edge, cfg)
        assert_engine_equal(res, edge_lbp_reference(log_node, log_edge, cfg))
        assert np.all(np.isfinite(res.log_marginals))

    def test_receiver_column_of_p_underflows(self):
        # column b = 1 sits 900 nats below the block's maximum, so every
        # P[:, 1] is 0 and the undamped message puts exactly 0 on it
        block = np.array([[0.0, -900.0, 0.5], [-0.3, -900.0, 0.0], [0.2, -900.0, -0.1]])
        self.check_falls_back(*underflow_instance(block), LbpConfig(damping=0.0))

    def test_dominant_sender_row_of_p_is_zero(self):
        # sender candidate 0 outweighs the others by 800 nats, so w = (1, 0, 0),
        # and its row of P is 0: the message row sums to 0 before damping
        log_node, log_edge = underflow_instance(
            np.array([[-900.0, -900.0, -900.0], [0.0, 0.3, -0.2], [0.1, 0.0, 0.4]]))
        log_node[0] = [0.0, -800.0, -800.0]
        self.check_falls_back(log_node, log_edge, LbpConfig(damping=0.5))
