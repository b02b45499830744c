"""Discrete trajectory candidate generation from a kinematic state.

Each candidate is drawn from one of three motion modes (straight line,
circular arc, clothoid-style spiral) with uniformly sampled control
parameters, then rolled out with midpoint integration. Candidate 0 is always
the stationary trajectory so a stopping option exists.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonMismatch, InsufficientHistory
from .geometry import Pose2, wrap_angle

INTEGRATION_SUBSTEPS = 10

MODE_LINE = 0
MODE_CIRCLE = 1
MODE_SPIRAL = 2


@dataclass(frozen=True)
class Trajectory:
    """Timed sequence of poses with speed.

    Waypoint 0 anchors the current pose at ``start_time``; subsequent
    waypoints are spaced ``dt`` apart.
    """

    start_time: float
    dt: float
    poses: np.ndarray    # (T, 3): x, y, heading
    speeds: np.ndarray   # (T,)

    def __post_init__(self):
        poses = np.asarray(self.poses, dtype=float)
        speeds = np.asarray(self.speeds, dtype=float)
        if poses.ndim != 2 or poses.shape[1] != 3 or poses.shape[0] < 1:
            raise ValueError("poses must be a (T, 3) array with T >= 1")
        if speeds.shape != (poses.shape[0],):
            raise ValueError("speeds must be a (T,) array")
        if not (np.isfinite(poses).all() and np.isfinite(speeds).all()):
            raise ValueError("trajectory entries must be finite")
        if (speeds < 0).any():
            raise ValueError("speeds must be non-negative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "poses", poses)
        object.__setattr__(self, "speeds", speeds)

    def __len__(self) -> int:
        return self.poses.shape[0]

    @property
    def positions(self) -> np.ndarray:
        return self.poses[:, :2]

    @property
    def headings(self) -> np.ndarray:
        return self.poses[:, 2]

    @property
    def duration(self) -> float:
        return (len(self) - 1) * self.dt

    def state_at(self, tau: float) -> tuple[Pose2, float]:
        """Interpolated pose and speed at time offset tau from start_time.

        Clamped to the trajectory extent; heading interpolation is wrap-aware.
        """
        tau = min(max(tau, 0.0), self.duration)
        idx = min(int(tau / self.dt), len(self) - 1)
        if idx >= len(self) - 1:
            p = self.poses[-1]
            return Pose2(p[0], p[1], p[2]), float(self.speeds[-1])
        frac = tau / self.dt - idx
        a, b = self.poses[idx], self.poses[idx + 1]
        x = a[0] + frac * (b[0] - a[0])
        y = a[1] + frac * (b[1] - a[1])
        heading = wrap_angle(a[2] + frac * wrap_angle(b[2] - a[2]))
        speed = self.speeds[idx] + frac * (self.speeds[idx + 1] - self.speeds[idx])
        return Pose2(x, y, heading), float(speed)

    def to_dict(self) -> dict:
        return {
            "start_time": self.start_time,
            "dt": self.dt,
            "poses": self.poses.tolist(),
            "speeds": self.speeds.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trajectory":
        return cls(start_time=data["start_time"], dt=data["dt"],
                   poses=np.asarray(data["poses"], dtype=float),
                   speeds=np.asarray(data["speeds"], dtype=float))


@dataclass(frozen=True)
class KinematicState:
    pose: Pose2
    speed: float

    def __post_init__(self):
        if not np.isfinite(self.speed) or self.speed < 0:
            raise ValueError("speed must be finite and non-negative")


@dataclass(frozen=True)
class SamplerConfig:
    k: int = 12
    horizon_steps: int = 8
    dt: float = 0.5
    mode_probs: tuple[float, float, float] = (0.3, 0.2, 0.5)
    accel_range: tuple[float, float] = (-4.0, 3.0)
    curvature_range: tuple[float, float] = (-0.2, 0.2)
    spiral_rate_range: tuple[float, float] = (-0.1, 0.1)
    v_max: float = 15.0
    seed: int = 0

    def __post_init__(self):
        probs = np.asarray(self.mode_probs, dtype=float)
        if probs.shape != (3,) or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("mode_probs must be 3 non-negative values summing to 1")
        for lo, hi in (self.accel_range, self.curvature_range, self.spiral_rate_range):
            if hi < lo:
                raise ValueError("parameter ranges must be non-empty intervals")
        if self.k < 1 or self.horizon_steps < 1 or self.dt <= 0:
            raise ValueError("k, horizon_steps must be >= 1 and dt > 0")

    def to_dict(self) -> dict:
        return {
            "k": self.k, "horizon_steps": self.horizon_steps, "dt": self.dt,
            "mode_probs": list(self.mode_probs),
            "accel_range": list(self.accel_range),
            "curvature_range": list(self.curvature_range),
            "spiral_rate_range": list(self.spiral_rate_range),
            "v_max": self.v_max, "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SamplerConfig":
        return cls(k=data["k"], horizon_steps=data["horizon_steps"], dt=data["dt"],
                   mode_probs=tuple(data["mode_probs"]),
                   accel_range=tuple(data["accel_range"]),
                   curvature_range=tuple(data["curvature_range"]),
                   spiral_rate_range=tuple(data["spiral_rate_range"]),
                   v_max=data["v_max"], seed=data["seed"])


@dataclass(frozen=True)
class CandidateControls:
    mode: int
    accel: float
    curvature: float
    curvature_rate: float


def estimate_state(past: Trajectory) -> KinematicState:
    """Kinematic state from a past trajectory: last pose, recent mean speed.

    Speed is the mean of the last min(3, len-1) displacement magnitudes
    divided by dt.
    """
    if len(past) < 2:
        raise InsufficientHistory("need at least 2 past waypoints")
    n = min(3, len(past) - 1)
    steps = np.diff(past.positions[-(n + 1):], axis=0)
    speed = float(np.mean(np.hypot(steps[:, 0], steps[:, 1]))) / past.dt
    p = past.poses[-1]
    return KinematicState(pose=Pose2(p[0], p[1], p[2]), speed=speed)


def _draw_control_arrays(cfg: SamplerConfig, indices) -> tuple[np.ndarray, ...]:
    """Modes, accelerations, curvatures and curvature rates, each (n,), for
    the candidates ``indices`` (each >= 1).

    Each candidate owns an independent PCG64 stream seeded by (seed, index),
    so the draw for one candidate never depends on how many others exist.
    Its first four 64-bit words become uniform doubles as
    ``Generator.uniform`` makes them, (word >> 11) * 2**-53 scaled to the
    range, for all candidates at once: word 0 picks the mode, word 1 the
    acceleration, word 2 the curvature (circle and spiral) and word 3 the
    curvature rate (spiral).
    """
    words = np.array([np.random.PCG64(np.random.SeedSequence([int(cfg.seed), int(i)]))
                      .random_raw(4) for i in indices], dtype=np.uint64).reshape(-1, 4)
    unit = (words >> np.uint64(11)) * 2.0 ** -53

    def uniform(col, bounds):
        lo, hi = float(bounds[0]), float(bounds[1])
        return lo + (hi - lo) * unit[:, col]

    p_line, p_circle, _ = cfg.mode_probs
    u = unit[:, 0]
    mode = np.where(u < p_line, MODE_LINE,
                    np.where(u < p_line + p_circle, MODE_CIRCLE, MODE_SPIRAL))
    accel = uniform(1, cfg.accel_range)
    curvature = np.where(mode != MODE_LINE, uniform(2, cfg.curvature_range), 0.0)
    rate = np.where(mode == MODE_SPIRAL, uniform(3, cfg.spiral_rate_range), 0.0)
    return mode, accel, curvature, rate


def draw_controls(cfg: SamplerConfig, index: int) -> CandidateControls:
    """Control parameters for candidate ``index`` (index >= 1); see
    ``_draw_control_arrays``."""
    mode, accel, curvature, rate = (x[0] for x in _draw_control_arrays(cfg, [index]))
    return CandidateControls(mode=int(mode), accel=float(accel),
                             curvature=float(curvature), curvature_rate=float(rate))


def integrate_controls(state: KinematicState, controls, cfg: SamplerConfig,
                       start_time: float = 0.0) -> list[Trajectory]:
    """Roll out one or more control draws from a common start state.

    Speed follows v(t) = clip(v0 + a*t, 0, v_max); heading follows
    theta(s) = theta0 + kappa0*s + 0.5*rate*s^2 in arclength s. Positions use
    midpoint integration with INTEGRATION_SUBSTEPS substeps per dt.
    """
    if isinstance(controls, CandidateControls):
        controls = [controls]
    return _rollout(state, np.array([c.accel for c in controls]),
                    np.array([c.curvature for c in controls]),
                    np.array([c.curvature_rate for c in controls]), cfg, start_time)


def _rollout(state: KinematicState, accel: np.ndarray, kappa0: np.ndarray,
             rate: np.ndarray, cfg: SamplerConfig, start_time: float) -> list[Trajectory]:
    """``integrate_controls`` for control arrays, each (n,)."""
    n = len(accel)
    T = cfg.horizon_steps
    h0 = state.pose.heading
    v0 = state.speed
    poses = np.empty((n, T, 3))
    speeds = np.empty((n, T))
    poses[:, 0, 0] = state.pose.x
    poses[:, 0, 1] = state.pose.y
    poses[:, 0, 2] = h0
    speeds[:, 0] = min(max(v0, 0.0), cfg.v_max)

    # One column per substep. Each running sum starts from its start value
    # in column 0 and np.cumsum adds strictly left to right, so every
    # partial sum equals the one a substep-by-substep loop would produce.
    h_sub = cfg.dt / INTEGRATION_SUBSTEPS
    n_sub = (T - 1) * INTEGRATION_SUBSTEPS
    t_mid = (np.arange(n_sub) + 0.5) * h_sub
    v_mid = np.clip(v0 + accel[:, None] * t_mid, 0.0, cfg.v_max)
    ds = v_mid * h_sub
    s = np.cumsum(np.concatenate([np.zeros((n, 1)), ds], axis=1), axis=1)
    s_mid = s[:, :-1] + 0.5 * ds
    theta = h0 + kappa0[:, None] * s_mid + 0.5 * rate[:, None] * s_mid ** 2
    x = np.cumsum(np.concatenate([np.full((n, 1), state.pose.x),
                                  ds * np.cos(theta)], axis=1), axis=1)
    y = np.cumsum(np.concatenate([np.full((n, 1), state.pose.y),
                                  ds * np.sin(theta)], axis=1), axis=1)
    ends = np.arange(1, T) * INTEGRATION_SUBSTEPS     # substeps done at each waypoint
    s_end = s[:, ends]
    poses[:, 1:, 0] = x[:, ends]
    poses[:, 1:, 1] = y[:, ends]
    poses[:, 1:, 2] = wrap_angle(h0 + kappa0[:, None] * s_end
                                 + 0.5 * rate[:, None] * s_end ** 2)
    speeds[:, 1:] = np.clip(v0 + accel[:, None] * (ends * h_sub), 0.0, cfg.v_max)

    return [Trajectory(start_time=start_time, dt=cfg.dt,
                       poses=poses[i], speeds=speeds[i]) for i in range(n)]


def _stationary(state: KinematicState, cfg: SamplerConfig, start_time: float) -> Trajectory:
    T = cfg.horizon_steps
    poses = np.tile([state.pose.x, state.pose.y, state.pose.heading], (T, 1))
    return Trajectory(start_time=start_time, dt=cfg.dt, poses=poses, speeds=np.zeros(T))


def sample_candidates(state: KinematicState, cfg: SamplerConfig,
                      start_time: float = 0.0) -> list[Trajectory]:
    """Exactly K candidate trajectories anchored at the current pose.

    Candidate 0 is the stationary trajectory; candidates 1..K-1 come from
    per-candidate seeded control draws, which makes the output prefix-stable
    under increasing K and bit-identical for a fixed seed.
    """
    candidates = [_stationary(state, cfg, start_time)]
    if cfg.k > 1:
        _, accel, curvature, rate = _draw_control_arrays(cfg, range(1, cfg.k))
        candidates.extend(_rollout(state, accel, curvature, rate, cfg, start_time))
    return candidates


def trajectory_l2(a: Trajectory, b: Trajectory) -> float:
    """Sum over waypoints of squared positional distance."""
    if len(a) != len(b) or a.dt != b.dt:
        raise HorizonMismatch("trajectories must share length and dt")
    diff = a.positions - b.positions
    return float(np.sum(diff * diff))


def closest_candidate(candidates: list[Trajectory], target: Trajectory) -> int:
    """Index of the candidate with minimum squared distance; ties pick the lowest."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    dists = np.array([trajectory_l2(c, target) for c in candidates])
    return int(np.argmin(dists))
