"""Candidate sampling: state estimation, rollout modes, determinism."""
import math

import numpy as np
import pytest

from conftest import (draw_controls_reference, integrate_controls_reference,
                      stationary_trajectory, straight_trajectory)
from reactplan.errors import HorizonMismatch, InsufficientHistory
from reactplan.geometry import Pose2, wrap_angle
from reactplan.sampler import (MODE_CIRCLE, MODE_LINE, MODE_SPIRAL,
                               KinematicState, SamplerConfig, Trajectory,
                               _draw_control_arrays, closest_candidate,
                               draw_controls, estimate_state, integrate_controls,
                               sample_candidates, trajectory_l2)


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
        for cand in sample_candidates(state, cfg)[1:]:
            steps = np.diff(cand.positions, axis=0)
            np.testing.assert_allclose(steps[:, 0], 2.5, atol=1e-9)
            np.testing.assert_allclose(steps[:, 1], 0.0, atol=1e-9)

    def test_circle_mode_heading_change_is_curvature_times_arclength(self):
        state = KinematicState(Pose2(0.0, 0.0, 0.0), speed=5.0)
        cfg = SamplerConfig(k=3, horizon_steps=9, dt=0.5, mode_probs=(0.0, 1.0, 0.0),
                            accel_range=(0.0, 0.0), curvature_range=(0.1, 0.1), seed=5)
        for cand in sample_candidates(state, cfg)[1:]:
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
            controls = [draw_controls(cfg, idx) for idx in range(1, cfg.k)]
            got = integrate_controls(state, controls, cfg, start_time=1.5)
            want = integrate_controls_reference(state, controls, cfg, start_time=1.5)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.start_time == w.start_time and g.dt == w.dt
                assert np.array_equal(g.poses, w.poses)
                assert np.array_equal(g.speeds, w.speeds)
                clipped_low += np.any(g.speeds[1:] == 0.0)
                clipped_high += np.any(g.speeds[1:] == cfg.v_max)
        assert clipped_low > 0 and clipped_high > 0

    def test_single_waypoint_horizon(self):
        cfg = SamplerConfig(k=5, horizon_steps=1, seed=4)
        state = KinematicState(Pose2(3.0, -2.0, 0.7), 6.0)
        controls = [draw_controls(cfg, idx) for idx in range(1, cfg.k)]
        got = integrate_controls(state, controls, cfg)
        want = integrate_controls_reference(state, controls, cfg)
        for g, w in zip(got, want):
            assert g.poses.shape == (1, 3)
            assert np.array_equal(g.poses, w.poses)
            assert np.array_equal(g.speeds, w.speeds)


class TestDrawControlsMatchesReference:
    def test_bit_identical_to_one_generator_per_candidate(self):
        modes = set()
        for seed in (0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3):
            for probs in ((0.3, 0.2, 0.5), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                          (0.0, 0.0, 1.0)):
                cfg = SamplerConfig(k=19, seed=seed, mode_probs=probs,
                                    accel_range=(-4.0, 3.0),
                                    curvature_range=(-0.2, 0.25),
                                    spiral_rate_range=(-0.1, 0.05))
                for idx in range(1, cfg.k):
                    got = draw_controls(cfg, idx)
                    assert got == draw_controls_reference(cfg, idx)
                    assert type(got.mode) is int and type(got.accel) is float
                    modes.add(got.mode)
        assert modes == {MODE_LINE, MODE_CIRCLE, MODE_SPIRAL}

    def test_batch_draw_does_not_depend_on_k(self):
        cfg = SamplerConfig(k=19, seed=2 ** 33 + 5)
        singles = [draw_controls(cfg, idx) for idx in range(1, cfg.k)]
        for k in (2, 3, 11, 19):
            mode, accel, curvature, rate = _draw_control_arrays(cfg, range(1, k))
            assert len(mode) == k - 1
            for n, c in enumerate(singles[:k - 1]):
                assert (mode[n], accel[n], curvature[n], rate[n]) == (
                    c.mode, c.accel, c.curvature, c.curvature_rate)


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


class TestModeFrequencies:
    def test_matches_configured_probabilities_within_3_sigma(self):
        cfg = SamplerConfig(seed=123)
        n = 100_000
        counts = {MODE_LINE: 0, MODE_CIRCLE: 0, MODE_SPIRAL: 0}
        for idx in range(1, n + 1):
            counts[draw_controls(cfg, idx).mode] += 1
        for mode, p in zip((MODE_LINE, MODE_CIRCLE, MODE_SPIRAL), cfg.mode_probs):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[mode] - n * p) < 3 * sigma


class TestClosestCandidate:
    def test_exact_membership(self):
        cands = [straight_trajectory((0, i), 0.0, 3.0) for i in range(5)]
        assert closest_candidate(cands, cands[3]) == 3

    def test_tie_breaks_to_lower_index(self):
        cands = [straight_trajectory((0, 1), 0.0, 3.0),
                 straight_trajectory((0, -1), 0.0, 3.0)]
        target = straight_trajectory((0, 0), 0.0, 3.0)
        assert closest_candidate(cands, target) == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cands = [straight_trajectory(rng.uniform(-5, 5, 2),
                                         rng.uniform(-3, 3), rng.uniform(0, 8))
                     for _ in range(7)]
            target = straight_trajectory(rng.uniform(-5, 5, 2),
                                         rng.uniform(-3, 3), rng.uniform(0, 8))
            expected = min(range(7), key=lambda i: float(
                np.sum((cands[i].positions - target.positions) ** 2)))
            assert closest_candidate(cands, target) == expected

    def test_horizon_mismatch(self):
        with pytest.raises(HorizonMismatch):
            trajectory_l2(straight_trajectory((0, 0), 0, 1, steps=8),
                          straight_trajectory((0, 0), 0, 1, steps=6))


class TestTrajectoryInterpolation:
    def test_state_at_midpoint(self):
        traj = straight_trajectory((0, 0), 0.0, 4.0, steps=5, dt=0.5)
        pose, speed = traj.state_at(0.25)
        assert pose.x == pytest.approx(1.0)
        assert speed == pytest.approx(4.0)

    def test_state_at_clamps_beyond_end(self):
        traj = straight_trajectory((0, 0), 0.0, 4.0, steps=5, dt=0.5)
        pose, _ = traj.state_at(100.0)
        assert pose.x == pytest.approx(traj.positions[-1, 0])

    def test_heading_interpolation_wraps(self):
        poses = np.array([[0, 0, 3.1], [0, 0, -3.1]])
        traj = Trajectory(start_time=0.0, dt=1.0, poses=poses, speeds=np.zeros(2))
        pose, _ = traj.state_at(0.5)
        assert abs(pose.heading) > 3.1  # goes through +/- pi, not through 0
