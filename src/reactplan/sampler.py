"""Discrete trajectory candidate generation from a kinematic state.

Each candidate is drawn from one of three motion modes (straight line,
circular arc, clothoid-style spiral) with uniformly sampled control
parameters, then rolled out with midpoint integration. Candidate 0 is always
the stationary trajectory so a stopping option exists. A vehicle with seed s
draws from one numpy stream, ``PCG64(SeedSequence(s))``: candidate i >= 1
takes its words 4(i - 1) to 4i - 1, so its draw depends on (s, i) only. A
vehicle's K candidates travel together as one ``CandidateSet`` of (K, T)
arrays.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import HorizonMismatch, InsufficientHistory, check_counts, check_weights
from .geometry import Pose2, wrap_angle

INTEGRATION_SUBSTEPS = 10

MODE_LINE = 0
MODE_CIRCLE = 1
MODE_SPIRAL = 2


def _check_arrays(obj, lead: str) -> None:
    """Validate and store ``obj.poses`` (..., T, 3) and ``obj.speeds``
    (..., T) as float arrays; ``lead`` names the axes before T ("" for one
    trajectory, "K, " for a candidate set), and every axis must be >= 1."""
    poses = np.asarray(obj.poses, dtype=float)
    speeds = np.asarray(obj.speeds, dtype=float)
    if poses.ndim != 2 + bool(lead) or poses.shape[-1] != 3 or 0 in poses.shape:
        raise ValueError(f"poses must be a ({lead}T, 3) array with {lead}T >= 1")
    if speeds.shape != poses.shape[:-1]:
        raise ValueError(f"speeds must be a ({lead}T{'' if lead else ','}) array")
    if not (np.isfinite(poses).all() and np.isfinite(speeds).all()):
        raise ValueError("trajectory entries must be finite")
    if (speeds < 0).any():
        raise ValueError("speeds must be non-negative")
    if obj.dt <= 0:
        raise ValueError("dt must be positive")
    object.__setattr__(obj, "poses", poses)
    object.__setattr__(obj, "speeds", speeds)


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
        _check_arrays(self, "")

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

    def state_at(self, tau: float) -> tuple[np.ndarray, float]:
        """Interpolated pose array (x, y, heading) and speed at offset tau.

        Clamped to the trajectory extent; heading interpolation is wrap-aware.
        """
        tau = min(max(tau, 0.0), self.duration)
        idx = min(int(tau / self.dt), len(self) - 1)
        if idx >= len(self) - 1:
            p = self.poses[-1]
            return np.array([p[0], p[1], wrap_angle(p[2])]), float(self.speeds[-1])
        frac = tau / self.dt - idx
        a, b = self.poses[idx], self.poses[idx + 1]
        x = a[0] + frac * (b[0] - a[0])
        y = a[1] + frac * (b[1] - a[1])
        heading = wrap_angle(a[2] + frac * wrap_angle(b[2] - a[2]))
        speed = self.speeds[idx] + frac * (self.speeds[idx + 1] - self.speeds[idx])
        return np.array([x, y, heading]), float(speed)


@dataclass(frozen=True)
class CandidateSet:
    """The K candidate trajectories of one vehicle on one time grid.

    Row a of ``poses`` (K, T, 3) and ``speeds`` (K, T) is candidate a; the
    arrays are checked once for the whole set, by the rules of ``Trajectory``.
    """

    start_time: float
    dt: float
    poses: np.ndarray    # (K, T, 3): x, y, heading
    speeds: np.ndarray   # (K, T)

    def __post_init__(self):
        _check_arrays(self, "K, ")

    def __len__(self) -> int:
        return self.poses.shape[0]

    def __getitem__(self, a) -> Trajectory:
        a = operator.index(a)
        return Trajectory(start_time=self.start_time, dt=self.dt,
                          poses=self.poses[a], speeds=self.speeds[a])

    def __iter__(self):
        return (self[a] for a in range(len(self)))

    @property
    def positions(self) -> np.ndarray:
        return self.poses[..., :2]

    @property
    def headings(self) -> np.ndarray:
        return self.poses[..., 2]


@dataclass(frozen=True)
class KinematicState:
    pose: Pose2
    speed: float

    def __post_init__(self):
        check_weights(speed=self.speed)


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
        if (probs.shape != (3,) or not np.all(probs >= 0)
                or not abs(probs.sum() - 1.0) <= 1e-12):
            raise ValueError("mode_probs must be 3 non-negative values summing to 1")
        for lo, hi in (self.accel_range, self.curvature_range, self.spiral_rate_range):
            if not lo <= hi:
                raise ValueError("parameter ranges must be non-empty intervals")
        check_counts(k=self.k, horizon_steps=self.horizon_steps)
        check_counts(0, seed=self.seed)
        check_weights(True, dt=self.dt)
        if not self.v_max >= 0:
            raise ValueError(f"v_max must be non-negative, got {self.v_max}")


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


def derived_seed(*parts) -> int:
    """Stable seed derived from integer parts, e.g. (run seed, vehicle index):
    ``SeedSequence(parts).generate_state(1)[0]``."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _draw_control_arrays(cfg: SamplerConfig, words: np.ndarray) -> tuple[np.ndarray, ...]:
    """Modes, accelerations, curvatures and curvature rates, each of shape
    ``words.shape[:-1]``, from the (..., 4) raw 64-bit stream words of
    candidates, four per candidate.

    The words become uniform doubles as ``Generator.uniform`` makes them,
    (word >> 11) * 2**-53 scaled to the range: word 0 picks the mode, word 1
    the acceleration, word 2 the curvature (circle and spiral) and word 3 the
    curvature rate (spiral). All four are drawn whatever the mode.
    """
    unit = (words >> np.uint64(11)) * 2.0 ** -53

    def uniform(col, bounds):
        lo, hi = float(bounds[0]), float(bounds[1])
        return lo + (hi - lo) * unit[..., col]

    p_line, p_circle, _ = cfg.mode_probs
    u = unit[..., 0]
    curved = u >= p_line                    # not MODE_LINE
    spiral = u >= p_line + p_circle         # MODE_SPIRAL
    mode = curved.astype(np.int64) + spiral     # MODE_LINE, _CIRCLE, _SPIRAL = 0, 1, 2
    accel = uniform(1, cfg.accel_range)
    curvature = np.where(curved, uniform(2, cfg.curvature_range), 0.0)
    rate = np.where(spiral, uniform(3, cfg.spiral_rate_range), 0.0)
    return mode, accel, curvature, rate


def _rollout(start: np.ndarray, speed: np.ndarray, accel: np.ndarray, kappa0: np.ndarray,
             rate: np.ndarray, cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Poses (M, n + 1, T, 3) and speeds (M, n + 1, T) of M vehicles' n
    control draws each, control arrays (M, n), rolled out from vehicle i's
    start pose ``start[i]`` (x, y, heading) and speed ``speed[i]``: row 0 of
    a vehicle is its stationary trajectory, row r + 1 follows control r.

    Speed follows v(t) = clip(v0 + a*t, 0, v_max); heading follows
    theta(s) = theta0 + kappa0*s + 0.5*rate*s^2 in arclength s. Positions use
    midpoint integration with INTEGRATION_SUBSTEPS substeps per dt.
    """
    m, n = accel.shape
    T = cfg.horizon_steps
    h0, v0 = start[:, 2, None, None], speed[:, None, None]          # (M, 1, 1)
    accel, kappa0, rate = accel[:, :, None], kappa0[:, :, None], rate[:, :, None]
    poses = np.empty((m, n + 1, T, 3))
    speeds = np.empty((m, n + 1, T))
    lead = start[:, None]
    poses[:, 0] = lead                      # the stationary candidate
    poses[:, 1:, 0] = lead
    speeds[:, 0] = 0.0
    speeds[:, 1:, 0] = np.clip(v0[:, 0], 0.0, cfg.v_max)

    # One column per substep. Each running sum starts from its start value
    # in column 0 and np.cumsum adds strictly left to right, so every
    # partial sum equals the one a substep-by-substep loop would produce.
    h_sub = cfg.dt / INTEGRATION_SUBSTEPS
    n_sub = (T - 1) * INTEGRATION_SUBSTEPS
    t_mid = (np.arange(n_sub) + 0.5) * h_sub
    v_mid = np.clip(v0 + accel * t_mid, 0.0, cfg.v_max)
    ds = v_mid * h_sub
    s = np.zeros((m, n, n_sub + 1))
    s[:, :, 1:] = ds
    np.cumsum(s, axis=2, out=s)
    s_mid = s[:, :, :-1] + 0.5 * ds
    theta = h0 + kappa0 * s_mid + 0.5 * rate * s_mid ** 2
    xy = np.empty((2, m, n, n_sub + 1))
    xy[:, :, :, 0] = start[:, :2].T[:, :, None]
    np.multiply(ds, np.cos(theta), out=xy[0, :, :, 1:])
    np.multiply(ds, np.sin(theta), out=xy[1, :, :, 1:])
    np.cumsum(xy, axis=3, out=xy)
    ends = slice(INTEGRATION_SUBSTEPS, None, INTEGRATION_SUBSTEPS)  # waypoints 1..T-1
    s_end = s[:, :, ends]
    poses[:, 1:, 1:, :2] = xy[:, :, :, ends].transpose(1, 2, 3, 0)
    poses[:, 1:, 1:, 2] = wrap_angle(h0 + kappa0 * s_end + 0.5 * rate * s_end ** 2)
    t_end = np.arange(INTEGRATION_SUBSTEPS, n_sub + 1, INTEGRATION_SUBSTEPS) * h_sub
    speeds[:, 1:, 1:] = np.clip(v0 + accel * t_end, 0.0, cfg.v_max)

    return poses, speeds


def _sample(start: np.ndarray, speed: np.ndarray, seeds, cfg: SamplerConfig,
            start_time: float) -> list[CandidateSet]:
    """The K candidates of each of M vehicles, vehicle i starting from pose
    ``start[i]`` and speed ``speed[i]`` and drawing from seed ``seeds[i]``;
    the sets are views of one array.

    Vehicle i reads one stream, ``PCG64(SeedSequence(seeds[i]))``, and
    candidate a >= 1 takes its words 4(a - 1) to 4a - 1, so a candidate's
    draw depends on its seed and index only, never on K or on other vehicles.
    """
    words = np.empty((len(seeds), cfg.k - 1, 4), dtype=np.uint64)
    for row, seed in zip(words, seeds):
        row[:] = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(row.shape)
    _, accel, curvature, rate = _draw_control_arrays(cfg, words)
    poses, speeds = _rollout(start, speed, accel, curvature, rate, cfg)
    return [CandidateSet(start_time=start_time, dt=cfg.dt, poses=p, speeds=v)
            for p, v in zip(poses, speeds)]


def sample_candidates(state: KinematicState, cfg: SamplerConfig,
                      start_time: float = 0.0) -> CandidateSet:
    """Exactly K candidate trajectories anchored at the current pose.

    Candidate 0 is the stationary trajectory; candidate a >= 1 draws its
    controls from words 4(a - 1) to 4a - 1 of the stream
    ``PCG64(SeedSequence(cfg.seed))``, which makes the output prefix-stable
    under increasing K and bit-identical for a fixed seed.
    """
    pose = state.pose
    return _sample(np.array([[pose.x, pose.y, pose.heading]]), np.array([state.speed]),
                   [cfg.seed], cfg, start_time)[0]


def sample_scene(poses, speeds, cfg: SamplerConfig, seed_parts,
                 start_time: float = 0.0) -> list[CandidateSet]:
    """The K candidates of every vehicle of a scene, drawn in one pass.

    Vehicle i starts from row i of ``poses`` (M, 3) (x, y, heading) and of
    ``speeds`` (M,). Its candidates equal, bit for bit,
    ``sample_candidates(KinematicState(Pose2(*poses[i]), speeds[i]),
    replace(cfg, seed=derived_seed(*seed_parts, i)), start_time)``, so
    ``cfg.seed`` is not read. The M sets are views of one (M, K, T, 3) array.
    Poses must be finite and speeds finite and >= 0, as for one vehicle.
    """
    start = np.array(poses, dtype=float)
    speed = np.asarray(speeds, dtype=float)
    if start.ndim != 2 or start.shape[1] != 3 or speed.shape != start.shape[:1]:
        raise ValueError(f"poses must be an (M, 3) array and speeds an (M,) array, "
                         f"got shapes {start.shape} and {speed.shape}")
    if not np.isfinite(start).all():
        raise ValueError("start poses must be finite")
    bad = np.flatnonzero(~(np.isfinite(speed) & (speed >= 0)))
    if bad.size:
        check_weights(**{f"speeds[{bad[0]}]": float(speed[bad[0]])})
    start[:, 2] = wrap_angle(start[:, 2])
    return _sample(start, speed, [derived_seed(*seed_parts, i) for i in range(len(speed))],
                   cfg, start_time)


def nearest_candidates(candidates: CandidateSet, targets) -> np.ndarray:
    """Candidate indices ranked for each target, shape (n, K), where
    ``targets`` is a set of n trajectories or one ``Trajectory`` (n = 1): by
    squared positional distance summed over waypoints, nearest first, ties
    toward the lower index."""
    pos = candidates.positions                                   # (K, T, 2)
    if targets.poses.shape[-2] != pos.shape[1] or targets.dt != candidates.dt:
        raise HorizonMismatch("trajectories must share length and dt")
    tgt = targets.positions.reshape(-1, *pos.shape[1:])          # (n, T, 2)
    diff = (pos[None] - tgt[:, None]).reshape(len(tgt), len(pos), -1)
    return np.argsort(np.sum(diff * diff, axis=2), axis=1, kind="stable")
