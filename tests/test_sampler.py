"""Candidate sampling: state estimation, rollout modes, determinism."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (candidate_set, draw_controls, draw_controls_reference,
                      integrate_controls_reference, stationary_trajectory,
                      straight_trajectory, trajectory_l2)
from reactplan.errors import HorizonMismatch, InsufficientHistory
from reactplan.geometry import Pose2, wrap_angle
from reactplan.sampler import (MODE_CIRCLE, MODE_LINE, MODE_SPIRAL, CandidateSet,
                               KinematicState, SamplerConfig, Trajectory,
                               _rollout, _sample, derived_seed, estimate_state,
                               nearest_candidates, sample_candidates, sample_scene)


def rollout_one(state, controls, cfg):
    """``_rollout`` of one vehicle's control arrays from ``state``."""
    pose = state.pose
    poses, speeds = _rollout(np.array([[pose.x, pose.y, pose.heading]]),
                             np.array([state.speed]), *(c[None] for c in controls), cfg)
    return poses[0], speeds[0]


def make_past(step_lengths, dt=0.1, heading=0.0):
    """Past trajectory moving along +x with the given per-step displacements."""
    xs = np.concatenate([[0.0], np.cumsum(step_lengths)])
    poses = np.column_stack([xs, np.zeros_like(xs), np.full(xs.shape, heading)])
    return Trajectory(start_time=-dt * len(step_lengths), dt=dt, poses=poses,
                      speeds=np.zeros(len(xs)))


class TestEstimateState:
    def test_stationary_past(self):
        past = stationary_trajectory((3.0, -1.0), heading=0.4, steps=5, dt=0.1)
        state = estimate_state(past)
        assert state.speed == 0.0
        assert (state.pose.x, state.pose.y) == (3.0, -1.0)
        assert state.pose.heading == pytest.approx(0.4)

    def test_uniform_motion(self):
        past = make_past([1.0] * 5, dt=0.1)
        state = estimate_state(past)
        assert state.speed == pytest.approx(10.0)
        assert state.pose.heading == 0.0

    def test_decelerating_past_uses_mean_of_last_three(self):
        past = make_past([1.0, 0.9, 0.8], dt=0.1)
        assert estimate_state(past).speed == pytest.approx(9.0)

    def test_short_history_raises(self):
        with pytest.raises(InsufficientHistory):
            estimate_state(stationary_trajectory((0, 0), steps=1))


class TestSampleCandidates:
    def test_degenerate_ranges_yield_stationary(self):
        state = KinematicState(Pose2(1.0, 2.0, 0.3), speed=0.0)
        cfg = SamplerConfig(k=6, accel_range=(0.0, 0.0), seed=11)
        for cand in sample_candidates(state, cfg):
            np.testing.assert_array_equal(cand.positions,
                                          np.tile([1.0, 2.0], (cfg.horizon_steps, 1)))
            np.testing.assert_array_equal(cand.speeds, np.zeros(cfg.horizon_steps))

    def test_line_mode_constant_velocity_spacing(self):
        state = KinematicState(Pose2(0.0, 0.0, 0.0), speed=5.0)
        cfg = SamplerConfig(k=4, horizon_steps=8, dt=0.5, mode_probs=(1.0, 0.0, 0.0),
                            accel_range=(0.0, 0.0), seed=3)
        for cand in list(sample_candidates(state, cfg))[1:]:
            steps = np.diff(cand.positions, axis=0)
            np.testing.assert_allclose(steps[:, 0], 2.5, atol=1e-9)
            np.testing.assert_allclose(steps[:, 1], 0.0, atol=1e-9)

    def test_circle_mode_heading_change_is_curvature_times_arclength(self):
        state = KinematicState(Pose2(0.0, 0.0, 0.0), speed=5.0)
        cfg = SamplerConfig(k=3, horizon_steps=9, dt=0.5, mode_probs=(0.0, 1.0, 0.0),
                            accel_range=(0.0, 0.0), curvature_range=(0.1, 0.1), seed=5)
        for cand in list(sample_candidates(state, cfg))[1:]:
            change = wrap_angle(cand.headings[-1] - cand.headings[0])
            assert change == pytest.approx(0.1 * 5.0 * 4.0, abs=1e-6)

    def test_start_anchoring(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            pose = Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5),
                         rng.uniform(-math.pi, math.pi))
            state = KinematicState(pose, speed=rng.uniform(0, 12))
            cfg = SamplerConfig(k=8, seed=int(rng.integers(0, 2 ** 31)))
            for cand in sample_candidates(state, cfg):
                assert np.hypot(cand.poses[0, 0] - pose.x,
                                cand.poses[0, 1] - pose.y) < 1e-6

    def test_no_teleporting_and_speed_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = KinematicState(Pose2(0, 0, rng.uniform(-3, 3)),
                                   speed=rng.uniform(0, 15))
            cfg = SamplerConfig(k=10, seed=int(rng.integers(0, 2 ** 31)))
            for cand in sample_candidates(state, cfg):
                steps = np.linalg.norm(np.diff(cand.positions, axis=0), axis=1)
                assert np.all(steps <= cfg.v_max * cfg.dt + 1e-9)
                assert np.all(cand.speeds >= 0)
                assert np.all(cand.speeds <= cfg.v_max)
                assert np.all(cand.headings > -math.pi)
                assert np.all(cand.headings <= math.pi)

    def test_bit_identical_for_fixed_seed(self):
        state = KinematicState(Pose2(1.0, -2.0, 0.7), speed=6.0)
        cfg = SamplerConfig(k=12, seed=99)
        first = sample_candidates(state, cfg)
        second = sample_candidates(state, cfg)
        for a, b in zip(first, second):
            assert np.array_equal(a.poses, b.poses)
            assert np.array_equal(a.speeds, b.speeds)

    def test_prefix_stable_under_increasing_k(self):
        state = KinematicState(Pose2(0.0, 0.0, 0.0), speed=4.0)
        small = sample_candidates(state, SamplerConfig(k=6, seed=42))
        large = sample_candidates(state, SamplerConfig(k=12, seed=42))
        for a, b in zip(small, large):
            assert np.array_equal(a.poses, b.poses)
            assert np.array_equal(a.speeds, b.speeds)


class TestIntegrateControlsMatchesReference:
    def test_bit_identical_to_substep_loop(self):
        rng = np.random.default_rng(23)
        clipped_low = clipped_high = 0
        for _ in range(400):
            cfg = SamplerConfig(k=int(rng.integers(2, 20)),
                                horizon_steps=int(rng.integers(1, 12)),
                                dt=float(rng.uniform(0.05, 1.0)),
                                v_max=float(rng.uniform(3.0, 20.0)),
                                seed=int(rng.integers(0, 2 ** 31)))
            speed = float(rng.choice([0.0, rng.uniform(0.0, 1.5 * cfg.v_max)]))
            state = KinematicState(Pose2(*rng.uniform(-500, 500, size=2),
                                         rng.uniform(-math.pi, math.pi)), speed)
            controls = draw_controls(cfg, range(1, cfg.k))[1:]
            poses, speeds = rollout_one(state, controls, cfg)
            want_poses, want_speeds = integrate_controls_reference(state, *controls, cfg)
            got = sample_candidates(state, cfg, start_time=1.5)
            assert len(poses) == len(want_poses) + 1 == cfg.k
            assert got.start_time == 1.5 and got.dt == cfg.dt
            assert np.array_equal(got.poses, poses)
            assert np.array_equal(got.speeds, speeds)
            assert np.array_equal(poses[1:], want_poses)
            assert np.array_equal(speeds[1:], want_speeds)
            assert np.array_equal(poses[0], np.tile(
                [state.pose.x, state.pose.y, state.pose.heading], (cfg.horizon_steps, 1)))
            assert np.array_equal(speeds[0], np.zeros(cfg.horizon_steps))
            clipped_low += np.any(speeds[1:, 1:] == 0.0, axis=1).sum()
            clipped_high += np.any(speeds[1:, 1:] == cfg.v_max, axis=1).sum()
        assert clipped_low > 0 and clipped_high > 0

    def test_single_waypoint_horizon(self):
        cfg = SamplerConfig(k=5, horizon_steps=1, seed=4)
        state = KinematicState(Pose2(3.0, -2.0, 0.7), 6.0)
        controls = draw_controls(cfg, range(1, cfg.k))[1:]
        poses, speeds = rollout_one(state, controls, cfg)
        want_poses, want_speeds = integrate_controls_reference(state, *controls, cfg)
        assert poses.shape == (cfg.k, 1, 3)
        assert np.array_equal(poses[1:], want_poses)
        assert np.array_equal(speeds[1:], want_speeds)
        assert np.array_equal(poses[0], [[3.0, -2.0, state.pose.heading]])
        assert speeds[0, 0] == 0.0


class TestDrawControlsMatchesReference:
    def test_bit_identical_to_one_generator_per_vehicle(self):
        modes = set()
        # seeds of one to seven 32-bit words
        for seed in (0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 64 + 5,
                     2 ** 96 + 7, 2 ** 200 + 1):
            for probs in ((0.3, 0.2, 0.5), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                          (0.0, 0.0, 1.0)):
                cfg = SamplerConfig(k=19, seed=seed, mode_probs=probs,
                                    accel_range=(-4.0, 3.0),
                                    curvature_range=(-0.2, 0.25),
                                    spiral_rate_range=(-0.1, 0.05))
                mode, accel, curvature, rate = draw_controls(cfg, range(1, cfg.k))
                assert mode.dtype.kind == "i" and accel.dtype == np.float64
                assert list(zip(mode.tolist(), accel.tolist(), curvature.tolist(),
                                rate.tolist())) == draw_controls_reference(cfg, cfg.k - 1)
                modes.update(mode.tolist())
        assert modes == {MODE_LINE, MODE_CIRCLE, MODE_SPIRAL}

    def test_batch_draw_does_not_depend_on_k(self):
        cfg = SamplerConfig(k=19, seed=2 ** 33 + 5)
        singles = [tuple(x[0] for x in draw_controls(cfg, [idx]))
                   for idx in range(1, cfg.k)]
        for k in (2, 3, 11, 19):
            mode, accel, curvature, rate = draw_controls(cfg, range(1, k))
            assert len(mode) == k - 1
            for n, c in enumerate(singles[:k - 1]):
                assert (mode[n], accel[n], curvature[n], rate[n]) == c


class TestPcg64Words:
    def test_sampling_builds_no_generator_objects(self, monkeypatch):
        built = dict.fromkeys(("SeedSequence", "PCG64", "default_rng", "Generator"), 0)
        for name in built:
            real = getattr(np.random, name)

            def counting(*args, name=name, real=real, **kwargs):
                built[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(np.random, name, counting)
        # one SeedSequence and one PCG64 stream per vehicle, none per
        # candidate, and no Generator
        state = KinematicState(Pose2(1.0, -2.0, 0.7), speed=6.0)
        cands = sample_candidates(state, SamplerConfig(k=16, seed=2 ** 40 + 3))
        assert len(cands) == 16
        assert built == {"SeedSequence": 1, "PCG64": 1, "default_rng": 0, "Generator": 0}
        built.update(dict.fromkeys(built, 0))
        scene = sample_scene(np.zeros((5, 3)), np.ones(5), SamplerConfig(k=16), (7, 2 ** 40))
        assert len(scene) == 5
        # five derived seeds, then five streams
        assert built == {"SeedSequence": 10, "PCG64": 5, "default_rng": 0, "Generator": 0}
        built.update(dict.fromkeys(built, 0))
        assert derived_seed(3, 2 ** 70) >= 0
        assert built == {"SeedSequence": 1, "PCG64": 0, "default_rng": 0, "Generator": 0}


SEED_PARTS = st.lists(st.one_of(st.sampled_from([0, 2 ** 32, 2 ** 40 + 3, 2 ** 64 + 9,
                                                 2 ** 130 + 1]),
                                st.integers(0, 2 ** 200)), max_size=6)


def scene_states(rng, m):
    """Start poses (M, 3), headings beyond (-pi, pi] included, and speeds (M,)
    with exact zeros (both signs) and speeds above the default v_max."""
    poses = np.column_stack([rng.uniform(-500.0, 500.0, (m, 2)), rng.uniform(-20.0, 20.0, m)])
    speeds = rng.choice([0.0, -0.0, 3.0, rng.uniform(0.0, 25.0)], size=m)
    return poses, speeds


def bits(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


class TestSampleScene:
    @settings(max_examples=40, deadline=None, database=None)
    @given(m=st.integers(1, 25), k=st.integers(1, 29), horizon=st.integers(1, 11),
           parts=SEED_PARTS, state_seed=st.integers(0, 2 ** 32 - 1),
           start_time=st.sampled_from([0.0, 1.5]))
    def test_rows_equal_per_vehicle_calls_and_numpy_draws(self, m, k, horizon, parts,
                                                          state_seed, start_time):
        poses, speeds = scene_states(np.random.default_rng(state_seed), m)
        cfg = SamplerConfig(k=k, horizon_steps=horizon, seed=11)
        scene = sample_scene(poses, speeds, cfg, parts, start_time=start_time)
        assert len(scene) == m
        for i, cands in enumerate(scene):
            state = KinematicState(Pose2(*poses[i]), speeds[i])
            vehicle_cfg = SamplerConfig(k=k, horizon_steps=horizon,
                                        seed=derived_seed(*parts, i))
            one = sample_candidates(state, vehicle_cfg, start_time=start_time)
            assert (cands.start_time, cands.dt) == (start_time, cfg.dt)
            assert bits(cands.poses, cands.speeds) == bits(one.poses, one.speeds)
            draws = np.array(draw_controls_reference(vehicle_cfg, k - 1)).reshape(k - 1, 4)
            want_poses, want_speeds = integrate_controls_reference(state, *draws[:, 1:].T,
                                                                  vehicle_cfg)
            assert bits(cands.poses[1:], cands.speeds[1:]) == bits(want_poses, want_speeds)

    def test_sets_are_views_of_one_array(self):
        scene = sample_scene(np.zeros((4, 3)), np.ones(4), SamplerConfig(k=5), (1,))
        base = scene[0].poses.base
        assert base is not None and base.shape == (4, 5, 8, 3)
        assert all(cands.poses.base is base for cands in scene)

    @settings(max_examples=100, deadline=None, database=None)
    @given(parts=SEED_PARTS, count=st.integers(0, 40))
    @example(parts=[], count=3)
    @example(parts=[7, 2 ** 32], count=30)
    @example(parts=[2 ** 40 + 3, 2 ** 64 + 9, 1], count=30)
    def test_derived_seeds_equal_numpy(self, parts, count):
        want = [int(np.random.SeedSequence([*parts, i]).generate_state(1)[0])
                for i in range(count)]
        assert [derived_seed(*parts, i) for i in range(count)] == want
        assert derived_seed(*parts) == int(np.random.SeedSequence(parts).generate_state(1)[0])

    def test_kernel_rows_permute_with_their_inputs(self):
        # the public entry seeds row i with derived_seed(*parts, i), so a
        # vehicle's stream follows its row; the kernel below takes one seed
        # per row, and permuting states and seeds together permutes the sets
        rng = np.random.default_rng(12)
        cfg = SamplerConfig(k=9, horizon_steps=7)
        for m in (2, 7, 19):
            poses, speeds = scene_states(rng, m)
            poses[:, 2] = wrap_angle(poses[:, 2])
            seeds = rng.integers(0, 2 ** 40, m)
            perm = rng.permutation(m)
            base = _sample(poses, speeds, seeds, cfg, 0.0)
            moved = _sample(poses[perm], speeds[perm], seeds[perm], cfg, 0.0)
            for j, cands in enumerate(moved):
                assert bits(cands.poses, cands.speeds) == bits(base[perm[j]].poses,
                                                               base[perm[j]].speeds)

    @pytest.mark.parametrize("poses, speeds, match", [
        (np.zeros((3, 3)), np.ones(2), "poses must be an"),
        (np.zeros((3, 2)), np.ones(3), "poses must be an"),
        (np.zeros(3), np.ones(1), "poses must be an"),
        (np.zeros((2, 3)), np.ones((2, 1)), "poses must be an"),
        (np.array([[0.0, np.nan, 0.0]]), np.ones(1), "finite"),
        (np.array([[0.0, 0.0, np.inf]]), np.ones(1), "finite"),
        (np.zeros((3, 3)), np.array([1.0, -1e-9, 2.0]), r"speeds\[1\] must be a finite"),
        (np.zeros((2, 3)), np.array([np.nan, 1.0]), r"speeds\[0\] must be a finite"),
        (np.zeros((2, 3)), np.array([1.0, np.inf]), r"speeds\[1\] must be a finite"),
    ])
    def test_rejects_bad_input(self, poses, speeds, match):
        with pytest.raises(ValueError, match=match):
            sample_scene(poses, speeds, SamplerConfig(), (1,))

    def test_rejects_negative_seed_parts(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_scene(np.zeros((1, 3)), np.ones(1), SamplerConfig(), (3, -1))


class TestTrajectoryValidation:
    def make(self, poses=None, speeds=None, dt=0.5):
        poses = np.zeros((4, 3)) if poses is None else poses
        speeds = np.ones(4) if speeds is None else speeds
        return Trajectory(start_time=0.0, dt=dt, poses=poses, speeds=speeds)

    def test_valid(self):
        assert len(self.make()) == 4

    def test_bad_poses_shape(self):
        with pytest.raises(ValueError, match="poses must be a"):
            self.make(poses=np.zeros((4, 2)))

    def test_bad_speeds_shape(self):
        with pytest.raises(ValueError, match="speeds must be a"):
            self.make(speeds=np.ones(3))

    def test_non_finite_pose(self):
        poses = np.zeros((4, 3))
        poses[2, 1] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            self.make(poses=poses)

    def test_nan_speed(self):
        with pytest.raises(ValueError, match="must be finite"):
            self.make(speeds=np.array([1.0, np.nan, 1.0, 1.0]))

    def test_negative_speed(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.make(speeds=np.array([1.0, 1.0, -1e-9, 1.0]))

    @pytest.mark.parametrize("dt", [0.0, -0.5])
    def test_non_positive_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            self.make(dt=dt)


class TestSamplerConfigValidation:
    @pytest.mark.parametrize("option", [
        {"dt": math.nan}, {"dt": math.inf}, {"dt": 0.0}, {"v_max": -1.0},
        {"v_max": math.nan}, {"k": 0}, {"mode_probs": (math.nan, 0.5, 0.5)},
        {"mode_probs": (0.5, 0.5, 0.5)}, {"accel_range": (1.0, -1.0)},
        {"curvature_range": (math.nan, 0.2)}, {"k": 2.5}, {"horizon_steps": 0},
        {"horizon_steps": 8.0}, {"seed": -1}, {"seed": 2.5}, {"seed": True},
        {"seed": 7.0}, {"seed": "3"}, {"seed": None}])
    def test_rejects_bad_options(self, option):
        with pytest.raises(ValueError):
            SamplerConfig(**option)

    def test_zero_v_max_samples_standing_candidates(self):
        state = KinematicState(Pose2(0.0, 0.0, 0.0), 3.0)
        cands = sample_candidates(state, SamplerConfig(k=4, v_max=0.0))
        assert np.all(cands.speeds == 0.0)


class TestModeFrequencies:
    def test_matches_configured_probabilities_within_3_sigma(self):
        cfg = SamplerConfig(seed=123)
        n = 100_000
        counts = {MODE_LINE: 0, MODE_CIRCLE: 0, MODE_SPIRAL: 0}
        for mode in draw_controls(cfg, range(1, n + 1))[0].tolist():
            counts[mode] += 1
        for mode, p in zip((MODE_LINE, MODE_CIRCLE, MODE_SPIRAL), cfg.mode_probs):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[mode] - n * p) < 3 * sigma


class TestCandidateSetValidation:
    def make(self, poses=None, speeds=None, dt=0.5):
        poses = np.zeros((3, 4, 3)) if poses is None else poses
        speeds = np.ones((3, 4)) if speeds is None else speeds
        return CandidateSet(start_time=0.0, dt=dt, poses=poses, speeds=speeds)

    def test_valid(self):
        assert len(self.make()) == 3

    def test_bad_poses_shape(self):
        for poses in (np.zeros((3, 4, 2)), np.zeros((4, 3)), np.zeros((0, 4, 3))):
            with pytest.raises(ValueError, match="poses must be a"):
                self.make(poses=poses, speeds=np.ones(poses.shape[:-1]))

    def test_bad_speeds_shape(self):
        for speeds in (np.ones((3, 3)), np.ones(4), np.ones((2, 4))):
            with pytest.raises(ValueError, match="speeds must be a"):
                self.make(speeds=speeds)

    def test_non_finite_pose(self):
        poses = np.zeros((3, 4, 3))
        poses[1, 2, 1] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            self.make(poses=poses)

    def test_nan_speed(self):
        speeds = np.ones((3, 4))
        speeds[2, 1] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            self.make(speeds=speeds)

    def test_negative_speed(self):
        speeds = np.ones((3, 4))
        speeds[0, 3] = -1e-9
        with pytest.raises(ValueError, match="non-negative"):
            self.make(speeds=speeds)

    @pytest.mark.parametrize("dt", [0.0, -0.5])
    def test_non_positive_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            self.make(dt=dt)


class TestCandidateSetViews:
    # What perfbench reads from candidate sets: its tracer counts
    # len(sample_candidates(...)) as K candidates, and its replan checks
    # iterate each set for per-candidate positions, headings and speeds.
    def test_length_is_k(self):
        state = KinematicState(Pose2(1.0, -2.0, 0.7), speed=6.0)
        for k in (1, 2, 16):
            cfg = SamplerConfig(k=k, horizon_steps=5, seed=3)
            cands = sample_candidates(state, cfg, start_time=2.0)
            assert len(cands) == k
            assert cands.poses.shape == (k, 5, 3) and cands.speeds.shape == (k, 5)

    def test_iteration_yields_the_rows(self):
        state = KinematicState(Pose2(1.0, -2.0, 0.7), speed=6.0)
        cands = sample_candidates(state, SamplerConfig(k=9, seed=5), start_time=2.0)
        rows = list(cands)
        assert len(rows) == 9
        for a, traj in enumerate(rows):
            assert isinstance(traj, Trajectory)
            assert (traj.start_time, traj.dt) == (cands.start_time, cands.dt)
            assert np.array_equal(traj.positions, cands.positions[a])
            assert np.array_equal(traj.headings, cands.headings[a])
            assert np.array_equal(traj.speeds, cands.speeds[a])
            assert np.array_equal(cands[a].poses, cands.poses[a])

    def test_candidate_zero_is_stationary(self):
        state = KinematicState(Pose2(1.0, -2.0, 0.7), speed=6.0)
        cands = sample_candidates(state, SamplerConfig(k=4, seed=5))
        pose = state.pose
        np.testing.assert_array_equal(cands.poses[0],
                                      np.tile([pose.x, pose.y, pose.heading], (8, 1)))
        np.testing.assert_array_equal(cands.speeds[0], np.zeros(8))


class TestClosestCandidate:
    def test_exact_membership(self):
        cands = candidate_set([straight_trajectory((0, i), 0.0, 3.0) for i in range(5)])
        assert nearest_candidates(cands, cands[3])[0, 0] == 3

    def test_tie_breaks_to_lower_index(self):
        cands = candidate_set([straight_trajectory((0, 1), 0.0, 3.0),
                               straight_trajectory((0, -1), 0.0, 3.0)])
        target = straight_trajectory((0, 0), 0.0, 3.0)
        assert nearest_candidates(cands, target)[0, 0] == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            trajs = [straight_trajectory(rng.uniform(-5, 5, 2),
                                         rng.uniform(-3, 3), rng.uniform(0, 8))
                     for _ in range(7)]
            target = straight_trajectory(rng.uniform(-5, 5, 2),
                                         rng.uniform(-3, 3), rng.uniform(0, 8))
            expected = min(range(7), key=lambda i: float(
                np.sum((trajs[i].positions - target.positions) ** 2)))
            assert nearest_candidates(candidate_set(trajs), target)[0, 0] == expected

    def test_trajectory_target_equals_one_row_set_target(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            cands = candidate_set([straight_trajectory((0.0, float(y)), 0.0, float(v))
                                   for y, v in zip(rng.integers(-2, 3, size=6),
                                                   rng.integers(0, 3, size=6))])
            target = straight_trajectory(rng.integers(-2, 3, size=2), 0.0, 1.0)
            one = nearest_candidates(cands, target)
            assert one.shape == (1, 6)
            assert np.array_equal(one, nearest_candidates(cands, candidate_set([target])))

    def test_horizon_mismatch(self):
        with pytest.raises(HorizonMismatch):
            nearest_candidates(candidate_set([straight_trajectory((0, 0), 0, 1, steps=8)]),
                               straight_trajectory((0, 0), 0, 1, steps=6))
        with pytest.raises(HorizonMismatch):
            nearest_candidates(
                candidate_set([straight_trajectory((0, 0), 0, 1, steps=8, dt=0.5)]),
                straight_trajectory((0, 0), 0, 1, steps=8, dt=0.4))

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            CandidateSet(start_time=0.0, dt=0.5, poses=np.zeros((0, 8, 3)),
                         speeds=np.zeros((0, 8)))


class TestNearestCandidates:
    def test_matches_stable_sort_of_pairwise_distances(self):
        # integer lateral offsets make exact ties and duplicates common
        rng = np.random.default_rng(9)
        for _ in range(40):
            k = int(rng.integers(1, 9))
            cands = [straight_trajectory((0.0, float(y)), 0.0, float(v))
                     for y, v in zip(rng.integers(-2, 3, size=k), rng.integers(0, 3, size=k))]
            targets = cands + [straight_trajectory(rng.uniform(-2, 2, 2), 0.1, 1.0)]
            got = nearest_candidates(candidate_set(cands), candidate_set(targets))
            for row, target in zip(got, targets):
                want = sorted(range(k), key=lambda i: (trajectory_l2(cands[i], target), i))
                assert row.tolist() == want


class TestTrajectoryInterpolation:
    def test_state_at_midpoint(self):
        traj = straight_trajectory((0, 0), 0.0, 4.0, steps=5, dt=0.5)
        pose, speed = traj.state_at(0.25)
        assert pose[0] == pytest.approx(1.0)
        assert speed == pytest.approx(4.0)

    def test_state_at_clamps_beyond_end(self):
        traj = straight_trajectory((0, 0), 0.0, 4.0, steps=5, dt=0.5)
        pose, _ = traj.state_at(100.0)
        assert pose[0] == pytest.approx(traj.positions[-1, 0])

    def test_heading_interpolation_wraps(self):
        poses = np.array([[0, 0, 3.1], [0, 0, -3.1]])
        traj = Trajectory(start_time=0.0, dt=1.0, poses=poses, speeds=np.zeros(2))
        pose, _ = traj.state_at(0.5)
        assert abs(pose[2]) > 3.1  # goes through +/- pi, not through 0
