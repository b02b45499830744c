"""Planar primitives: poses, oriented boxes, polylines, distances and overlap.

All angles are radians normalized into (-pi, pi], all lengths are meters.
Everything here is a pure function over immutable values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Normalize an angle (scalar or array) into (-pi, pi]."""
    wrapped = np.mod(np.asarray(theta, dtype=float) + np.pi, TWO_PI) - np.pi
    wrapped = np.where(wrapped <= -np.pi, wrapped + TWO_PI, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class Pose2:
    """Position plus heading. Heading is stored normalized into (-pi, pi]."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise ValueError("Pose2 fields must be finite")
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle described by a center pose and half extents."""

    center: Pose2
    half_length: float
    half_width: float

    def __post_init__(self):
        if self.half_length <= 0 or self.half_width <= 0:
            raise ValueError("box half extents must be positive")

    def corners(self) -> np.ndarray:
        """Corner coordinates, shape (4, 2), ordered FL, FR, RR, RL."""
        c, s = math.cos(self.center.heading), math.sin(self.center.heading)
        u = np.array([c, s])
        v = np.array([-s, c])
        o = self.center.position
        hl, hw = self.half_length, self.half_width
        return np.stack([
            o + hl * u + hw * v,
            o + hl * u - hw * v,
            o - hl * u - hw * v,
            o - hl * u + hw * v,
        ])


class Polyline:
    """Ordered sequence of at least two distinct 2-D points.

    Consecutive points must be farther than 1e-9 m apart, which makes the
    cumulative arclength strictly increasing.
    """

    __slots__ = ("points", "_starts", "_dirs", "_seg_len", "_cum", "_headings")

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("polyline needs an (M, 2) array with M >= 2")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polyline points must be finite")
        deltas = np.diff(pts, axis=0)
        seg_len = np.hypot(deltas[:, 0], deltas[:, 1])
        if np.any(seg_len <= 1e-9):
            raise ValueError("consecutive polyline points must be distinct")
        self.points = pts
        self._starts = pts[:-1]
        self._dirs = deltas
        self._seg_len = seg_len
        self._cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        self._headings = np.arctan2(deltas[:, 1], deltas[:, 0])

    @property
    def length(self) -> float:
        return float(self._cum[-1])

    def project_many(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Project points onto the polyline.

        Returns (distance, arclength) arrays; ties in distance are broken
        toward the smaller arclength.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float))
        rel = p[:, None, :] - self._starts[None, :, :]          # (n, m, 2)
        t = np.einsum("nmd,md->nm", rel, self._dirs) / (self._seg_len ** 2)
        t = np.clip(t, 0.0, 1.0)
        foot = self._starts[None, :, :] + t[:, :, None] * self._dirs[None, :, :]
        diff = p[:, None, :] - foot
        d2 = np.einsum("nmd,nmd->nm", diff, diff)
        best = np.argmin(d2, axis=1)                             # first min = smaller arclength
        idx = np.arange(p.shape[0])
        dist = np.sqrt(d2[idx, best])
        arclen = self._cum[best] + t[idx, best] * self._seg_len[best]
        return dist, arclen

    def project(self, point) -> tuple[float, float]:
        dist, arclen = self.project_many(np.asarray(point, dtype=float)[None, :])
        return float(dist[0]), float(arclen[0])

    def _segment_index(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self._cum, s, side="right") - 1
        return np.clip(idx, 0, len(self._seg_len) - 1)

    def point_at(self, s):
        """Point at arclength s, clamped to [0, length]."""
        s_arr = np.clip(np.asarray(s, dtype=float), 0.0, self.length)
        idx = self._segment_index(s_arr)
        frac = (s_arr - self._cum[idx]) / self._seg_len[idx]
        out = self._starts[idx] + frac[..., None] * self._dirs[idx]
        if np.ndim(s) == 0:
            return out.reshape(2)
        return out

    def tangent_at(self, s):
        """Heading of the segment containing arclength s."""
        idx = self._segment_index(np.clip(np.asarray(s, dtype=float), 0.0, self.length))
        out = self._headings[idx]
        if np.ndim(s) == 0:
            return float(out)
        return out


def _projection_radii(c, s, half_length, half_width, ax, ay):
    """Projection half-extent onto the axis (ax, ay) of a box whose heading
    has cosine ``c`` and sine ``s``. Shapes broadcast."""
    along = np.abs(c * ax + s * ay)
    across = np.abs(-s * ax + c * ay)
    return half_length * along + half_width * across


def _sat_gaps(ca, ha, dims_a, cb, hb, dims_b):
    """Per-axis overlap amounts for the separating-axis test.

    Centres ``ca``/``cb`` have shape (..., 2); headings ``ha``/``hb`` and the
    half extents in ``dims_a``/``dims_b`` broadcast against the centres'
    leading shape. Cosine and sine are taken once per input box, and each
    term is evaluated at the smallest shape it depends on before the sum
    broadcasts to the full grid. Returns an array (..., 4), one entry per
    candidate axis (a's length, a's width, b's length, b's width); every
    entry >= 0 means overlap on that axis.
    """
    ha = np.asarray(ha, dtype=float)
    hb = np.asarray(hb, dtype=float)
    cos_a, sin_a = np.cos(ha), np.sin(ha)
    cos_b, sin_b = np.cos(hb), np.sin(hb)
    d = np.asarray(cb, dtype=float) - np.asarray(ca, dtype=float)
    dx, dy = d[..., 0], d[..., 1]
    gaps = []
    for ax, ay in ((cos_a, sin_a), (-sin_a, cos_a), (cos_b, sin_b), (-sin_b, cos_b)):
        sep = np.abs(dx * ax + dy * ay)
        ra = _projection_radii(cos_a, sin_a, dims_a[0], dims_a[1], ax, ay)
        rb = _projection_radii(cos_b, sin_b, dims_b[0], dims_b[1], ax, ay)
        gaps.append(ra + rb - sep)
    return np.stack(gaps, axis=-1)


def boxes_overlap_grid(ca, ha, dims_a, cb, hb, dims_b) -> np.ndarray:
    """Vectorized overlap test for broadcast batches of oriented boxes; the
    argument shapes are as in ``_sat_gaps``."""
    return np.all(_sat_gaps(ca, ha, dims_a, cb, hb, dims_b) >= 0.0, axis=-1)


def boxes_overlap(a: OrientedBox, b: OrientedBox) -> bool:
    """Separating-axis overlap test; touching boundaries count as overlap."""
    gaps = _sat_gaps(a.center.position, a.center.heading,
                     (a.half_length, a.half_width),
                     b.center.position, b.center.heading,
                     (b.half_length, b.half_width))
    return bool(np.all(gaps >= 0.0))


def box_arrays(boxes):
    """Centres (n, 2), headings (n,) and half extents ((n,), (n,)) of a
    sequence of OrientedBox, for the grid kernels."""
    centers = np.array([[b.center.x, b.center.y] for b in boxes]).reshape(-1, 2)
    headings = np.array([b.center.heading for b in boxes])
    dims = (np.array([b.half_length for b in boxes]),
            np.array([b.half_width for b in boxes]))
    return centers, headings, dims


def overlap_matrix(boxes) -> np.ndarray:
    """(n, n) grid whose entry [i, j] is ``boxes_overlap(boxes[i], boxes[j])``."""
    centers, headings, (hl, hw) = box_arrays(boxes)
    return boxes_overlap_grid(centers[:, None], headings[:, None],
                              (hl[:, None], hw[:, None]),
                              centers[None], headings[None], (hl[None], hw[None]))


def point_to_box_distance_grid(points, centers, headings, dims) -> np.ndarray:
    """Distance from points to oriented boxes, broadcast elementwise, 0 inside."""
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    headings = np.asarray(headings, dtype=float)
    rel = points - centers
    c, s = np.cos(headings), np.sin(headings)
    local_x = c * rel[..., 0] + s * rel[..., 1]
    local_y = -s * rel[..., 0] + c * rel[..., 1]
    dx = np.maximum(np.abs(local_x) - dims[0], 0.0)
    dy = np.maximum(np.abs(local_y) - dims[1], 0.0)
    return np.hypot(dx, dy)


def point_to_box_distance(point, box: OrientedBox) -> float:
    """Euclidean distance to the box boundary; 0 for interior points."""
    return float(point_to_box_distance_grid(
        np.asarray(point, dtype=float), box.center.position, box.center.heading,
        (box.half_length, box.half_width)))


def project_to_polyline(point, line: Polyline) -> tuple[float, float]:
    """Minimum distance to the polyline and the arclength of the nearest point."""
    return line.project(point)
