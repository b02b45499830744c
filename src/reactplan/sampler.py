"""Discrete trajectory candidate generation from a kinematic state.

Each candidate is drawn from one of three motion modes (straight line,
circular arc, clothoid-style spiral) with uniformly sampled control
parameters, then rolled out with midpoint integration. Candidate 0 is always
the stationary trajectory so a stopping option exists. A vehicle's K
candidates travel together as one ``CandidateSet`` of (K, T) arrays.
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# PCG64 LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) pairs of the first n hash steps of a SeedSequence
    hash chain, each (n,) uint32: step j xors with init * mult**j and then
    multiplies by init * mult**(j+1), mod 2**32. The chain does not depend
    on the data, so the constants of every step are known in advance."""
    chain = np.array([init * pow(mult, j, 1 << 32) & _MASK32 for j in range(n + 1)],
                     dtype=np.uint32)
    return chain[:-1], chain[1:]


def _pool_rounds(xor: np.ndarray, mul: np.ndarray) -> list:
    """Per source word of SeedSequence's pool mixing, the (xor, multiplier)
    constants of its three hash steps, laid out by destination word; the
    source's own slot is unused. The steps run in destination order after
    the 4 steps of the pool fill."""
    rounds, step = [], _POOL_SIZE
    for src in range(_POOL_SIZE):
        x, m = np.zeros(_POOL_SIZE, np.uint32), np.zeros(_POOL_SIZE, np.uint32)
        for dst in range(_POOL_SIZE):
            if dst != src:
                x[dst], m[dst] = xor[step], mul[step]
                step += 1
        rounds.append((src, x, m))
    return rounds


def _pcg_constants() -> tuple[np.ndarray, ...]:
    """PCG64 seeds its 128-bit state s from (initstate S, increment I) as
    s = (I + S) * A + I and steps s -> s * A + I before each output, so the
    state behind output k = 1..4 is S * A**(k+1) + I * (1 + A + ... + A**(k+1))
    mod 2**128. Returns the high and low 64-bit halves of those factors, each
    (2, 4) (row 0 multiplies S, row 1 multiplies I), and the two 32-bit
    halves of the low half."""
    mod = 1 << 128
    factors = [[pow(_PCG_MULT, k + 1, mod) for k in range(1, 5)],
               [sum(pow(_PCG_MULT, j, mod) for j in range(k + 2)) % mod
                for k in range(1, 5)]]
    hi = np.array([[f >> 64 for f in row] for row in factors], dtype=np.uint64)
    lo = np.array([[f & (1 << 64) - 1 for f in row] for row in factors], dtype=np.uint64)
    return hi, lo, lo & np.uint64(_MASK32), lo >> np.uint64(32)


_POOL_XOR, _POOL_MUL = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL_SIZE)
_POOL_ROUNDS = _pool_rounds(_POOL_XOR, _POOL_MUL)
_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 8)
_PCG_HI, _PCG_LO, _PCG_LO0, _PCG_LO1 = _pcg_constants()
_SHIFT16 = np.uint32(16)
_SHIFT32, _SHIFT58, _SHIFT63 = (np.uint64(b) for b in (32, 58, 63))
_SHIFT_01 = np.array([0, 1], dtype=np.uint64)


def _hash(value: np.ndarray, xor, mul) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> _SHIFT16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> _SHIFT16)


def _pcg64_words(seed: int, indices) -> np.ndarray:
    """The first four raw words of ``PCG64(SeedSequence([seed, i]))`` for
    every index i, (n, 4) uint64, computed for all indices at once and bit
    for bit as numpy computes them; ``seed`` >= 0 and 0 <= i < 2**32.

    The entropy is seed's 32-bit words, low first, then i. SeedSequence
    hashes it into a pool of 4 words, mixes every word into the other three
    (one (n, 4) step per source word, since the three updates of a round are
    independent), mixes in any entropy beyond the pool's 4 words, and
    generates 8 state words in one step. PCG64 then takes its initstate and
    increment from them, and each output is the XSL-RR permutation of a
    state from ``_pcg_constants``, multiplied out in 64-bit halves.
    """
    seed = operator.index(seed)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and not (idx.min() >= 0 and idx.max() <= _MASK32):
        raise ValueError("candidate indices must lie in [0, 2**32)")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    n_ent = len(words) + 1
    entropy = np.zeros((len(idx), max(n_ent, _POOL_SIZE)), dtype=np.uint32)
    entropy[:, :n_ent - 1] = words
    entropy[:, n_ent - 1] = idx

    pool = _hash(entropy[:, :_POOL_SIZE], _POOL_XOR[:_POOL_SIZE], _POOL_MUL[:_POOL_SIZE])
    for src, xor, mul in _POOL_ROUNDS:
        keep = pool[:, src].copy()
        pool = _mix(pool, _hash(pool[:, src, None], xor, mul))
        pool[:, src] = keep
    if n_ent > _POOL_SIZE:
        steps = 4 * _POOL_SIZE
        xor, mul = _hash_constants(_INIT_A, _MULT_A, steps + _POOL_SIZE * (n_ent - _POOL_SIZE))
        for src in range(_POOL_SIZE, n_ent):
            pool = _mix(pool, _hash(entropy[:, src, None], xor[steps:steps + _POOL_SIZE],
                                    mul[steps:steps + _POOL_SIZE]))
            steps += _POOL_SIZE

    state = _hash(np.concatenate([pool, pool], axis=1), _STATE_XOR, _STATE_MUL)
    state = state.astype(np.uint64)
    state = state[:, 0::2] | (state[:, 1::2] << _SHIFT32)           # (n, 4) uint64
    # 128-bit values as 64-bit (hi, lo) halves, (n, 2): initstate S and the
    # increment I = 2 * initseq + 1
    hi = state[:, 0::2] << _SHIFT_01
    hi[:, 1] |= state[:, 3] >> _SHIFT63
    lo = state[:, 1::2] << _SHIFT_01
    lo[:, 1] |= np.uint64(1)

    # S * factor and I * factor mod 2**128 for all four outputs, (n, 2, 4);
    # the high half of lo * factor_lo comes from 32-bit partial products
    hi, lo = hi[:, :, None], lo[:, :, None]
    lo0, lo1 = lo & np.uint64(_MASK32), lo >> _SHIFT32
    mid = lo1 * _PCG_LO0 + ((lo0 * _PCG_LO0) >> _SHIFT32)
    low_mid = (mid & np.uint64(_MASK32)) + lo0 * _PCG_LO1
    prod_hi = (lo1 * _PCG_LO1 + (mid >> _SHIFT32) + (low_mid >> _SHIFT32)
               + lo * _PCG_HI + hi * _PCG_LO)
    prod_lo = lo * _PCG_LO
    s_lo = prod_lo[:, 0] + prod_lo[:, 1]
    s_hi = prod_hi[:, 0] + prod_hi[:, 1] + (s_lo < prod_lo[:, 0])

    xored = s_hi ^ s_lo
    rot = s_hi >> _SHIFT58
    return (xored >> rot) | (xored << (-rot & _SHIFT63))


def _draw_control_arrays(cfg: SamplerConfig, indices) -> tuple[np.ndarray, ...]:
    """Modes, accelerations, curvatures and curvature rates, each (n,), for
    the candidates ``indices`` (each >= 1).

    Each candidate owns an independent PCG64 stream seeded by (seed, index),
    so the draw for one candidate never depends on how many others exist.
    Its first four 64-bit words (``_pcg64_words``) become uniform doubles as
    ``Generator.uniform`` makes them, (word >> 11) * 2**-53 scaled to the
    range: word 0 picks the mode, word 1 the acceleration, word 2 the
    curvature (circle and spiral) and word 3 the curvature rate (spiral).
    """
    unit = (_pcg64_words(cfg.seed, indices) >> np.uint64(11)) * 2.0 ** -53

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


def _rollout(state: KinematicState, accel: np.ndarray, kappa0: np.ndarray,
             rate: np.ndarray, cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Poses (n + 1, T, 3) and speeds (n + 1, T) of n control draws, each
    control array (n,), rolled out from a common start state: row 0 is the
    stationary trajectory, row r + 1 follows control r.

    Speed follows v(t) = clip(v0 + a*t, 0, v_max); heading follows
    theta(s) = theta0 + kappa0*s + 0.5*rate*s^2 in arclength s. Positions use
    midpoint integration with INTEGRATION_SUBSTEPS substeps per dt.
    """
    n = len(accel)
    T = cfg.horizon_steps
    x0, y0, h0 = state.pose.x, state.pose.y, state.pose.heading
    v0 = state.speed
    poses = np.empty((n + 1, T, 3))
    speeds = np.empty((n + 1, T))
    poses[0] = (x0, y0, h0)                 # the stationary candidate
    poses[1:, 0] = (x0, y0, h0)
    speeds[0] = 0.0
    speeds[1:, 0] = min(max(v0, 0.0), cfg.v_max)

    # One column per substep. Each running sum starts from its start value
    # in column 0 and np.cumsum adds strictly left to right, so every
    # partial sum equals the one a substep-by-substep loop would produce.
    h_sub = cfg.dt / INTEGRATION_SUBSTEPS
    n_sub = (T - 1) * INTEGRATION_SUBSTEPS
    t_mid = (np.arange(n_sub) + 0.5) * h_sub
    v_mid = np.clip(v0 + accel[:, None] * t_mid, 0.0, cfg.v_max)
    ds = v_mid * h_sub
    s = np.zeros((n, n_sub + 1))
    s[:, 1:] = ds
    np.cumsum(s, axis=1, out=s)
    s_mid = s[:, :-1] + 0.5 * ds
    theta = h0 + kappa0[:, None] * s_mid + 0.5 * rate[:, None] * s_mid ** 2
    xy = np.empty((2, n, n_sub + 1))
    xy[:, :, 0] = ((x0,), (y0,))
    xy[0, :, 1:] = ds * np.cos(theta)
    xy[1, :, 1:] = ds * np.sin(theta)
    np.cumsum(xy, axis=2, out=xy)
    ends = np.arange(1, T) * INTEGRATION_SUBSTEPS     # substeps done at each waypoint
    s_end = s[:, ends]
    poses[1:, 1:, :2] = xy[:, :, ends].transpose(1, 2, 0)
    poses[1:, 1:, 2] = wrap_angle(h0 + kappa0[:, None] * s_end
                                  + 0.5 * rate[:, None] * s_end ** 2)
    speeds[1:, 1:] = np.clip(v0 + accel[:, None] * (ends * h_sub), 0.0, cfg.v_max)

    return poses, speeds


def sample_candidates(state: KinematicState, cfg: SamplerConfig,
                      start_time: float = 0.0) -> CandidateSet:
    """Exactly K candidate trajectories anchored at the current pose.

    Candidate 0 is the stationary trajectory; candidates 1..K-1 come from
    per-candidate seeded control draws, which makes the output prefix-stable
    under increasing K and bit-identical for a fixed seed.
    """
    _, accel, curvature, rate = _draw_control_arrays(cfg, range(1, cfg.k))
    poses, speeds = _rollout(state, accel, curvature, rate, cfg)
    return CandidateSet(start_time=start_time, dt=cfg.dt, poses=poses, speeds=speeds)


def derived_seed(*parts) -> int:
    """Stable seed derived from integer parts, e.g. (run seed, vehicle index)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


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
