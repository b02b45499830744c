"""Energy terms: features, unary, collision, safety, goal, table assembly."""
import math

import numpy as np
import pytest

from conftest import (collision_energy, interaction_tables_reference,
                      random_scene, safety_energy, stationary_trajectory,
                      straight_trajectory)
from reactplan.energy import (BoxDims, EnergyParams, EnergyTables, _reach_pairs,
                              build_tables, extract_features, goal_energy,
                              goal_energy_batch, interaction_tables,
                              unary_energy)
from reactplan.errors import DimensionMismatch, HorizonMismatch
from reactplan.geometry import Polyline
from reactplan.sampler import Trajectory

CAR = BoxDims(2.0, 1.0)


def straight_lane(y=0.0, heading=0.0, length=200.0):
    d = np.array([math.cos(heading), math.sin(heading)])
    start = np.array([0.0, y]) - 50.0 * d
    return Polyline([start, start + (length + 50.0) * d])


class TestExtractFeatures:
    def test_lane_tracing_trajectory(self):
        lane = straight_lane()
        traj = straight_trajectory((0, 0), 0.0, 6.0)
        f = extract_features(traj, lane, ref_speed=6.0)
        progress, lateral, accel_sq, curv_sq, speed_dev, align = f
        assert lateral == pytest.approx(0.0, abs=1e-12)
        assert align == pytest.approx(0.0, abs=1e-12)
        assert speed_dev == pytest.approx(0.0, abs=1e-12)
        assert progress == pytest.approx(6.0 * 0.5 * 7)

    def test_stationary_trajectory(self):
        f = extract_features(stationary_trajectory((2.0, 1.0)), straight_lane(), 5.0)
        assert f[0] == pytest.approx(0.0)   # progress
        assert f[2] == pytest.approx(0.0)   # accel
        assert f[4] == pytest.approx(5.0)   # speed deviation

    def test_constant_offset(self):
        traj = straight_trajectory((0, 2.0), 0.0, 5.0)
        f = extract_features(traj, straight_lane(), 5.0)
        assert f[1] == pytest.approx(2.0, abs=1e-9)


class TestUnaryEnergy:
    def test_zero_features(self):
        params = EnergyParams()
        assert unary_energy(np.zeros(6), params, is_ego=True) == 0.0

    def test_one_hot_linearity(self):
        w = np.zeros(6)
        w[1] = 0.7
        params = EnergyParams(w_ego=w, w_actor=np.zeros(6))
        f = np.zeros(6)
        f[1] = 2.0
        assert unary_energy(f, params, is_ego=True) == pytest.approx(2.0 * 0.7)

    def test_matches_dot_product(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            w_ego, w_actor = rng.normal(size=(2, 6))
            f = rng.normal(size=6)
            params = EnergyParams(w_ego=w_ego, w_actor=w_actor)
            expected = sum(f[i] * w_actor[i] for i in range(6))
            assert unary_energy(f, params, is_ego=False) == pytest.approx(expected)

    def test_linearity_in_features(self):
        rng = np.random.default_rng(1)
        params = EnergyParams(w_ego=rng.normal(size=6), w_actor=rng.normal(size=6))
        f = rng.normal(size=6)
        for alpha in (0.0, 0.5, 2.0, -3.0):
            assert unary_energy(alpha * f, params, True) == pytest.approx(
                alpha * unary_energy(f, params, True), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            unary_energy(np.zeros(4), EnergyParams(), is_ego=False)


class TestCollisionEnergy:
    def test_identical_trajectories(self):
        t = straight_trajectory((0, 0), 0.0, 5.0)
        assert collision_energy(t, CAR, t, CAR, gamma=100.0) == 100.0

    def test_parallel_far_apart(self):
        a = straight_trajectory((0, 0), 0.0, 5.0)
        b = straight_trajectory((0, 10.0), 0.0, 5.0)
        assert collision_energy(a, CAR, b, CAR, gamma=100.0) == 0.0

    def test_crossing_at_different_times(self):
        # both pass through the origin area, 2 s apart
        a = straight_trajectory((-5, 0), 0.0, 5.0, steps=9, dt=0.5)        # at x=0 at t=1
        b = straight_trajectory((0, -20), math.pi / 2, 5.0, steps=9, dt=0.5)  # at y=0 at t=4
        assert collision_energy(a, CAR, b, CAR, gamma=100.0) == 0.0
        # per-timestep oracle confirms no simultaneous overlap
        from reactplan.geometry import boxes_overlap, OrientedBox, Pose2
        for t in range(1, 9):
            pa, pb = a.poses[t], b.poses[t]
            assert not boxes_overlap(
                OrientedBox(Pose2(*pa), CAR.half_length, CAR.half_width),
                OrientedBox(Pose2(*pb), CAR.half_length, CAR.half_width))

    def test_present_waypoint_excluded(self):
        # overlap only at waypoint 0, diverging afterwards
        a = straight_trajectory((0, 0), 0.0, 8.0, steps=6, dt=0.5)
        b = straight_trajectory((0, 0), math.pi, 8.0, steps=6, dt=0.5)
        assert collision_energy(a, CAR, b, CAR, gamma=100.0) == 0.0

    def test_horizon_mismatch(self):
        with pytest.raises(HorizonMismatch):
            collision_energy(straight_trajectory((0, 0), 0, 1, steps=8), CAR,
                             straight_trajectory((0, 0), 0, 1, steps=4), CAR, 10.0)


class TestSafetyEnergy:
    def test_far_apart_is_zero(self):
        a = straight_trajectory((0, 0), 0.0, 5.0)
        b = straight_trajectory((0, 20.0), 0.0, 5.0)
        assert safety_energy(a, b, CAR, d_safe=4.0) == 0.0

    def test_stationary_ego_is_zero(self):
        a = stationary_trajectory((0, 2.5))
        b = stationary_trajectory((0, 0))
        assert safety_energy(a, b, CAR, d_safe=4.0) == 0.0

    def test_single_step_violation_value(self):
        # ego at 5 m/s whose center sits 3 m from the box boundary at exactly
        # one future waypoint: energy = 5 * (4 - 3)^2 = 5
        dt = 0.5
        ego_poses = np.array([[50.0, 0.0, 0.0], [0.0, 4.0, 0.0], [50.0, 0.0, 0.0]])
        ego = Trajectory(start_time=0.0, dt=dt, poses=ego_poses,
                         speeds=np.array([5.0, 5.0, 5.0]))
        other = stationary_trajectory((0.0, 0.0), steps=3, dt=dt)
        # box half_width 1.0: boundary at y=1, ego center at y=4 -> distance 3
        assert safety_energy(ego, other, CAR, d_safe=4.0) == pytest.approx(5.0)

    def test_asymmetry(self):
        a = straight_trajectory((0, 0), 0.0, 8.0)
        b = straight_trajectory((3.0, 0), 0.0, 2.0)
        ab = safety_energy(a, b, CAR, d_safe=4.0)
        ba = safety_energy(b, a, CAR, d_safe=4.0)
        assert ab > 0 and ba > 0 and ab != ba


class TestGoalEnergy:
    def test_final_waypoint_at_goal(self):
        traj = straight_trajectory((0, 0), 0.0, 5.0, steps=5, dt=0.5)
        assert goal_energy(traj, traj.positions[-1]) == 0.0

    def test_three_four_five(self):
        traj = stationary_trajectory((3.0, 4.0))
        assert goal_energy(traj, np.array([0.0, 0.0])) == pytest.approx(5.0)

    def test_offset_lane(self):
        traj = straight_trajectory((0, 2.0), 0.0, 5.0)
        assert goal_energy(traj, straight_lane()) == pytest.approx(2.0, abs=1e-9)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(2)
        traj = straight_trajectory((1.0, -2.0), 0.3, 6.0)
        lane = Polyline([[0, 0], [10, 2], [25, 2]])
        base = goal_energy(traj, lane)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi)
            shift = rng.uniform(-30, 30, size=2)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            moved_lane = Polyline(lane.points @ rot.T + shift)
            moved_pos = traj.positions @ rot.T + shift
            moved = Trajectory(
                start_time=0.0, dt=traj.dt,
                poses=np.column_stack([moved_pos, traj.headings + theta]),
                speeds=traj.speeds)
            assert goal_energy(moved, moved_lane) == pytest.approx(base, abs=1e-9)

    def test_lane_batch_equals_per_candidate_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            candidates, _, lanes, _ = random_scene(
                rng, n_actors=0, k=int(rng.integers(1, 20)),
                steps=int(rng.integers(1, 12)))
            lane = lanes[0]
            want = np.array([lane.project_many(t.positions[1:] if len(t) > 1
                                               else t.positions)[0].mean()
                             for t in candidates[0]])
            assert np.array_equal(goal_energy_batch(candidates[0], lane), want)


class TestBuildTables:
    def test_single_actor_zero_pairwise(self):
        rng = np.random.default_rng(3)
        candidates, boxes, lanes, refs = random_scene(rng, n_actors=0, k=4)
        tables = build_tables(candidates, boxes, lanes, refs,
                              np.array([5.0, 5.0]), EnergyParams())
        assert np.all(tables.pairwise == 0.0)

    def test_all_colliding_pair(self):
        params = EnergyParams()
        lane = straight_lane()
        # every candidate of both actors sits on the same spot
        cands = [[stationary_trajectory((0, 0))] * 3,
                 [stationary_trajectory((0.5, 0))] * 3]
        tables = build_tables(cands, [CAR, CAR], [lane, lane], [5.0, 5.0],
                              np.array([10.0, 0.0]), params)
        assert np.all(tables.pairwise[0, 1] >= params.gamma)
        assert np.all(tables.pairwise[1, 0] >= params.gamma)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        params = EnergyParams()
        for _ in range(3):
            candidates, boxes, lanes, refs = random_scene(rng, n_actors=2, k=3)
            goal = rng.uniform(-10, 10, size=2)
            tables = build_tables(candidates, boxes, lanes, refs, goal, params)
            m, k = tables.unary.shape
            for i in range(m):
                for a in range(k):
                    f = extract_features(candidates[i][a], lanes[i], refs[i])
                    expected = unary_energy(f, params, is_ego=(i == 0))
                    assert tables.unary[i, a] == pytest.approx(expected, abs=1e-12)
            for i in range(m):
                for j in range(m):
                    for a in range(k):
                        for b in range(k):
                            if i == j:
                                assert tables.pairwise[i, j, a, b] == 0.0
                                continue
                            expected = collision_energy(
                                candidates[i][a], boxes[i], candidates[j][b],
                                boxes[j], params.gamma)
                            expected += safety_energy(
                                candidates[i][a], candidates[j][b], boxes[j],
                                params.d_safe)
                            assert tables.pairwise[i, j, a, b] == pytest.approx(
                                expected, abs=1e-12)
            for a in range(k):
                assert tables.goal[a] == pytest.approx(
                    goal_energy(candidates[0][a], goal), abs=1e-12)

    def test_collision_component_symmetric_and_full_table_asymmetric(self):
        rng = np.random.default_rng(5)
        params = EnergyParams()
        found_asymmetric = False
        for _ in range(10):
            candidates, boxes, lanes, refs = random_scene(rng, n_actors=2, k=4)
            tables = build_tables(candidates, boxes, lanes, refs,
                                  np.zeros(2), params)
            m, k = tables.unary.shape
            coll = np.zeros((m, m, k, k))
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    for a in range(k):
                        for b in range(k):
                            coll[i, j, a, b] = collision_energy(
                                candidates[i][a], boxes[i], candidates[j][b],
                                boxes[j], params.gamma)
            assert np.array_equal(coll, coll.transpose(1, 0, 3, 2))
            if not np.allclose(tables.pairwise,
                               tables.pairwise.transpose(1, 0, 3, 2)):
                found_asymmetric = True
        assert found_asymmetric

    def test_collision_energy_is_binary(self):
        rng = np.random.default_rng(6)
        gamma = 17.5
        for _ in range(20):
            a = straight_trajectory(rng.uniform(-5, 5, 2), rng.uniform(-3, 3),
                                    rng.uniform(0, 10))
            b = straight_trajectory(rng.uniform(-5, 5, 2), rng.uniform(-3, 3),
                                    rng.uniform(0, 10))
            assert collision_energy(a, CAR, b, CAR, gamma) in (0.0, gamma)

    def test_safety_nonnegative_and_zero_when_clear(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = straight_trajectory(rng.uniform(-5, 5, 2), rng.uniform(-3, 3),
                                    rng.uniform(0, 10))
            b = straight_trajectory(rng.uniform(-5, 5, 2), rng.uniform(-3, 3),
                                    rng.uniform(0, 10))
            e = safety_energy(a, b, CAR, d_safe=4.0)
            assert e >= 0.0
            from reactplan.geometry import (OrientedBox, Pose2,
                                            point_to_box_distance)
            clear = all(
                point_to_box_distance(
                    a.positions[t],
                    OrientedBox(Pose2(*b.poses[t]), CAR.half_length,
                                CAR.half_width)) >= 4.0
                for t in range(1, len(a)))
            if clear:
                assert e == 0.0


def boundary_pair(rng, d_safe, offset, k=3):
    """Two actors whose stationary candidates sit ``offset`` m beyond the
    reach distance d_safe + r_i + r_j of each other, far from the origin."""
    boxes = [BoxDims(rng.uniform(1.5, 2.5), rng.uniform(0.7, 1.1)) for _ in range(2)]
    reach = d_safe + math.hypot(*boxes[0]) + math.hypot(*boxes[1])
    phi = rng.uniform(-math.pi, math.pi)
    a = rng.uniform(-1000, 1000, size=2)
    b = a + (reach + offset) * np.array([math.cos(phi), math.sin(phi)])
    cands = [[stationary_trajectory(p, heading=rng.uniform(-math.pi, math.pi), steps=6)
              for _ in range(k)] for p in (a, b)]
    return cands, boxes


# Box sizes for corner-touch pairs. For (2.25, 1.0) the squared centre
# distance rounds above (r_i + r_j)^2, so the entry filter needs its margin.
TOUCH_BOXES = (CAR, BoxDims(2.25, 1.0))


def corner_touch_pair(box, k=2):
    """Two equal boxes with the same heading whose corners touch: the centres
    are exactly r_i + r_j apart, along the boxes' diagonal."""
    far = (10.0 + 2 * box.half_length, 5.0 + 2 * box.half_width)
    cands = [[stationary_trajectory(p, steps=4) for _ in range(k)]
             for p in ((10.0, 5.0), far)]
    return cands, [box, box]


def safety_edge_pair(d_safe, speed=3.0):
    """A moving actor against a stationary CAR at the origin. Its candidate 0
    sits exactly d_safe above the box; candidates 1 and 2 sit on the box's
    diagonal, 1e-3 m outside and inside the centre distance d_safe + r_j."""
    diagonal = np.array([CAR.half_length, CAR.half_width]) / math.hypot(*CAR)
    reach = d_safe + math.hypot(*CAR)
    points = [(0.0, CAR.half_width + d_safe),
              tuple((reach + 1e-3) * diagonal), tuple((reach - 1e-3) * diagonal)]
    mover = [Trajectory(start_time=0.0, dt=0.5,
                        poses=np.array([[100.0, 100.0, 0.0], [x, y, 0.0]]),
                        speeds=np.full(2, speed)) for x, y in points]
    other = [stationary_trajectory((0.0, 0.0), steps=2) for _ in points]
    return [mover, other], [CAR, CAR]


class TestPrunedInteractionTables:
    def scenes(self, params):
        rng = np.random.default_rng(11)
        for n_actors in (0, 1, 6, 12):
            candidates, boxes, _, _ = random_scene(rng, n_actors=n_actors, k=3,
                                                   span=30.0)
            for offset in (-1e-3, 1e-3):
                extra, extra_boxes = boundary_pair(rng, params.d_safe, offset)
                candidates, boxes = candidates + extra, boxes + extra_boxes
            yield candidates, boxes
        yield random_scene(rng, n_actors=22, k=4, span=4.0)[:2]
        for box in TOUCH_BOXES:
            yield corner_touch_pair(box)
        yield safety_edge_pair(params.d_safe)

    def test_single_waypoint_horizon_has_no_interaction(self):
        params = EnergyParams()
        candidates, boxes, _, _ = random_scene(np.random.default_rng(13),
                                               n_actors=3, k=3, steps=1, span=1.0)
        got = interaction_tables(candidates, boxes, params.gamma, params.d_safe)
        assert got.shape == (4, 4, 3, 3) and np.all(got == 0.0)
        assert np.array_equal(got, interaction_tables_reference(
            candidates, boxes, params.gamma, params.d_safe))

    @pytest.mark.parametrize("box", TOUCH_BOXES)
    def test_corner_touch_counts_as_collision(self, box):
        params = EnergyParams()
        cands, boxes = corner_touch_pair(box)
        table = interaction_tables(cands, boxes, params.gamma, params.d_safe)
        assert np.all(table[0, 1] == params.gamma)
        assert np.all(table[1, 0] == params.gamma)

    def test_safety_entry_boundaries(self):
        params = EnergyParams()
        cands, boxes = safety_edge_pair(params.d_safe)
        table = interaction_tables(cands, boxes, params.gamma, params.d_safe)
        assert np.all(table[0, 1, :2] == 0.0)     # exactly d_safe; 1e-3 m outside
        assert np.all(table[0, 1, 2] > 0.0)       # 1e-3 m inside
        assert np.all(table[1, 0] == 0.0)         # the box does not move
        for b in range(3):
            assert table[0, 1, 2, b] == pytest.approx(
                safety_energy(cands[0][2], cands[1][b], CAR, params.d_safe), rel=1e-12)

    def test_bit_identical_to_per_pair_reference(self):
        params = EnergyParams()
        for candidates, boxes in self.scenes(params):
            got = interaction_tables(candidates, boxes, params.gamma, params.d_safe)
            want = interaction_tables_reference(candidates, boxes, params.gamma,
                                                params.d_safe)
            assert np.array_equal(got, want)

    def test_reach_boundary(self):
        params = EnergyParams()
        rng = np.random.default_rng(12)
        for offset, kept in ((-1e-3, True), (1e-3, False)):
            cands, boxes = boundary_pair(rng, params.d_safe, offset)
            pos = np.array([[c.positions[1:] for c in cs] for cs in cands])
            assert len(_reach_pairs(pos, boxes, params.d_safe)) == int(kept)

    def test_skipped_pairs_have_zero_scalar_energy(self):
        params = EnergyParams()
        skipped = computed_nonzero = 0
        for candidates, boxes in self.scenes(params):
            pos = np.array([[c.positions[1:] for c in cs] for cs in candidates])
            kept = {tuple(p) for p in _reach_pairs(pos, boxes, params.d_safe)}
            table = interaction_tables(candidates, boxes, params.gamma, params.d_safe)
            m = len(candidates)
            for i in range(m):
                for j in range(i + 1, m):
                    if (i, j) in kept:
                        computed_nonzero += bool(np.any(table[i, j] + table[j, i].T))
                        continue
                    skipped += 1
                    for ta in candidates[i]:
                        for tb in candidates[j]:
                            assert collision_energy(ta, boxes[i], tb, boxes[j],
                                                    params.gamma) == 0.0
                            assert safety_energy(ta, tb, boxes[j], params.d_safe) == 0.0
                            assert safety_energy(tb, ta, boxes[i], params.d_safe) == 0.0
        assert skipped > 0 and computed_nonzero > 0


class TestTableSerialization:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        candidates, boxes, lanes, refs = random_scene(rng, n_actors=1, k=3)
        tables = build_tables(candidates, boxes, lanes, refs,
                              np.zeros(2), EnergyParams())
        path = tmp_path / "tables.json"
        tables.dump_json(path)
        loaded = EnergyTables.load_json(path)
        np.testing.assert_array_equal(loaded.unary, tables.unary)
        np.testing.assert_array_equal(loaded.pairwise, tables.pairwise)
        np.testing.assert_array_equal(loaded.goal, tables.goal)
