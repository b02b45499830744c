"""Geometry primitives: overlap, distances, projection."""
import math

import numpy as np
import pytest

from conftest import (box_arrays, penetration_depth, point_to_box_distance,
                      random_box)
from reactplan.geometry import (OrientedBox, Polyline, Pose2, _sat_gaps,
                                boxes_overlap, boxes_overlap_grid,
                                overlap_matrix, wrap_angle)


def unit_box(x=0.0, y=0.0, heading=0.0):
    """Box with unit half extents."""
    return OrientedBox(center=Pose2(x, y, heading), half_length=1.0, half_width=1.0)


def raster_overlap(a: OrientedBox, b: OrientedBox, res: float) -> bool:
    """Oracle: sample box a's area on a grid, test membership in b."""
    xs = np.arange(-a.half_length, a.half_length + res / 2, res)
    ys = np.arange(-a.half_width, a.half_width + res / 2, res)
    gx, gy = np.meshgrid(xs, ys)
    c, s = math.cos(a.center.heading), math.sin(a.center.heading)
    wx = a.center.x + c * gx - s * gy
    wy = a.center.y + s * gx + c * gy
    cb, sb = math.cos(b.center.heading), math.sin(b.center.heading)
    rx = wx - b.center.x
    ry = wy - b.center.y
    lx = cb * rx + sb * ry
    ly = -sb * rx + cb * ry
    return bool(np.any((np.abs(lx) <= b.half_length) & (np.abs(ly) <= b.half_width)))


class TestWrapAngle:
    def test_range(self):
        rng = np.random.default_rng(0)
        vals = wrap_angle(rng.uniform(-50, 50, size=10_000))
        assert np.all(vals > -np.pi) and np.all(vals <= np.pi)

    def test_boundary(self):
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_rewrapping_keeps_the_bits(self):
        # the simulator keeps wrapped headings in arrays and builds a Pose2
        # (which wraps again) from them only at replans; that is exact only
        # because a wrapped angle wraps to itself. Unwrapped angles may move:
        # 1e-10 wraps to 1.000000082740371e-10.
        rng = np.random.default_rng(3)
        edges = np.concatenate([np.nextafter(np.pi, 0) - np.arange(500) * 4.4e-16,
                                -np.pi + np.arange(500) * 4.4e-16,
                                np.arange(-500, 500) * 1e-17,
                                [np.pi, -np.pi, 0.0, -0.0, np.pi / 2, -np.pi / 2]])
        for angles in (rng.uniform(-50, 50, 100_000), edges,
                       np.arctan2(rng.normal(size=100_000), rng.normal(size=100_000))):
            once = wrap_angle(angles)
            assert wrap_angle(once).tobytes() == once.tobytes()
        assert wrap_angle(1e-10) != 1e-10


class TestBoxesOverlap:
    def test_identical_boxes(self):
        assert boxes_overlap(unit_box(), unit_box())

    def test_separated_on_axis(self):
        assert not boxes_overlap(unit_box(), unit_box(x=3.0))

    def test_touching_counts_as_overlap(self):
        assert boxes_overlap(unit_box(), unit_box(x=2.0))

    def test_rotated_case_matches_raster_oracle(self):
        a = unit_box()
        b = unit_box(x=0.9, heading=math.pi / 4)
        expected = raster_overlap(a, b, res=1e-3)
        assert expected is True
        assert boxes_overlap(a, b) == expected

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = random_box(rng), random_box(rng)
            assert boxes_overlap(a, b) == boxes_overlap(b, a)

    def test_agrees_with_raster_oracle(self):
        # Disagreements are only tolerated when the analytic penetration
        # depth is below the 2 mm grid resolution.
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(1000):
            a, b = random_box(rng), random_box(rng)
            depth = penetration_depth(a, b)
            if 0 < depth < 2e-3:
                continue
            analytic = boxes_overlap(a, b)
            if not analytic:
                # a grid confined to a's area can never claim overlap here
                ca = a.corners()
                cb = b.corners()
                if (ca[:, 0].max() < cb[:, 0].min() or cb[:, 0].max() < ca[:, 0].min()
                        or ca[:, 1].max() < cb[:, 1].min()
                        or cb[:, 1].max() < ca[:, 1].min()):
                    continue  # disjoint AABBs, oracle trivially agrees
            assert raster_overlap(a, b, res=2e-3) == analytic
            checked += 1
        assert checked > 200


def scalar_gaps(a: OrientedBox, b: OrientedBox) -> np.ndarray:
    return _sat_gaps(a.center.position, a.center.heading,
                     (a.half_length, a.half_width),
                     b.center.position, b.center.heading,
                     (b.half_length, b.half_width))


class TestGridKernelsMatchScalar:
    def boxes(self, rng):
        # random boxes plus exactly touching and exactly coincident pairs
        out = [random_box(rng, half_max=1.0, span=2.0) for _ in range(30)]
        return out + [unit_box(), unit_box(x=2.0), unit_box(y=-2.0),
                      unit_box(x=2.0, heading=math.pi / 2), unit_box()]

    def test_pair_grid_equals_scalar_entries(self):
        boxes = self.boxes(np.random.default_rng(7))
        poses, dims = box_arrays(boxes)
        centers, headings, (hl, hw) = poses[:, :2], poses[:, 2], dims.T
        args = (centers[:, None], headings[:, None], (hl[:, None], hw[:, None]),
                centers[None], headings[None], (hl[None], hw[None]))
        gaps = _sat_gaps(*args)
        hit = boxes_overlap_grid(*args)
        assert gaps.shape == (len(boxes), len(boxes), 4)
        assert np.array_equal(overlap_matrix(poses, dims), hit)
        for i, a in enumerate(boxes):
            for j, b in enumerate(boxes):
                assert np.array_equal(gaps[i, j], scalar_gaps(a, b))
                assert hit[i, j] == boxes_overlap(a, b)
        assert hit[-5, -4] and hit[-5, -3] and hit[-5, -1]

    def test_candidate_grid_equals_scalar_entries(self):
        # the layout interaction_tables uses: (P, K, 1, T) against (P, 1, K, T)
        # with one pair of box sizes per p
        rng = np.random.default_rng(8)
        p, k, t = 3, 4, 5
        ca, cb = rng.uniform(-3, 3, (p, k, 1, t, 2)), rng.uniform(-3, 3, (p, 1, k, t, 2))
        ha, hb = rng.uniform(-4, 4, (p, k, 1, t)), rng.uniform(-4, 4, (p, 1, k, t))
        dims_a = rng.uniform(0.3, 2.5, (2, p, 1, 1, 1))
        dims_b = rng.uniform(0.3, 2.5, (2, p, 1, 1, 1))
        gaps = _sat_gaps(ca, ha, dims_a, cb, hb, dims_b)
        hit = boxes_overlap_grid(ca, ha, dims_a, cb, hb, dims_b)
        assert 0 < hit.sum() < hit.size
        for idx in np.ndindex(p, k, k, t):
            q, a, b, w = idx
            expected = _sat_gaps(ca[q, a, 0, w], ha[q, a, 0, w], dims_a[:, q, 0, 0, 0],
                                 cb[q, 0, b, w], hb[q, 0, b, w], dims_b[:, q, 0, 0, 0])
            assert np.array_equal(gaps[idx], expected)
            assert hit[idx] == np.all(expected >= 0.0)


class TestCorners:
    def test_reconstructs_center_and_heading(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            box = random_box(rng)
            corners = box.corners()
            center = corners.mean(axis=0)
            np.testing.assert_allclose(center, box.center.position, atol=1e-9)
            front_mid = 0.5 * (corners[0] + corners[1])
            heading = math.atan2(*(front_mid - center)[::-1])
            assert abs(wrap_angle(heading - box.center.heading)) < 1e-9


class TestPointToBoxDistance:
    def test_center_is_inside(self):
        assert point_to_box_distance((0.0, 0.0), unit_box()) == 0.0

    def test_face_normal_case(self):
        assert point_to_box_distance((2.0, 0.0), unit_box()) == pytest.approx(1.0)

    def test_matches_boundary_sampling_oracle(self):
        box = OrientedBox(center=Pose2(1.0, -2.0, 0.7), half_length=2.0,
                          half_width=0.8)
        p = np.array([4.5, 1.5])
        corners = box.corners()
        boundary = []
        for i in range(4):
            a, b = corners[i], corners[(i + 1) % 4]
            ts = np.linspace(0, 1, 2500)
            boundary.append(a + ts[:, None] * (b - a))
        boundary = np.vstack(boundary)
        oracle = np.min(np.hypot(boundary[:, 0] - p[0], boundary[:, 1] - p[1]))
        assert point_to_box_distance(p, box) == pytest.approx(oracle, abs=1e-3)

    def test_zero_iff_inside(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            box = random_box(rng)
            p = rng.uniform(-2, 2, size=2)
            c, s = math.cos(box.center.heading), math.sin(box.center.heading)
            rel = p - box.center.position
            lx = c * rel[0] + s * rel[1]
            ly = -s * rel[0] + c * rel[1]
            inside = abs(lx) <= box.half_length and abs(ly) <= box.half_width
            assert (point_to_box_distance(p, box) == 0.0) == inside


class TestProjectToPolyline:
    def test_point_on_polyline(self):
        line = Polyline([[0, 0], [10, 0], [10, 5]])
        dist, s = line.project((10.0, 2.0))
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert s == pytest.approx(12.0)

    def test_perpendicular_foot(self):
        line = Polyline([[0, 0], [10, 0]])
        dist, s = line.project((5.0, 2.0))
        assert dist == pytest.approx(2.0)
        assert s == pytest.approx(5.0)

    def test_corner_case_matches_dense_sampling(self):
        line = Polyline([[0, 0], [10, 0], [10, 10]])
        p = np.array([11.5, -1.0])
        samples = np.linspace(0, line.length, int(line.length / 1e-3))
        pts = line.point_at(samples)
        d = np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1])
        best = np.argmin(d)
        dist, s = line.project(p)
        assert dist == pytest.approx(d[best], abs=1e-3)
        assert s == pytest.approx(samples[best], abs=2e-3)

    def test_tie_breaks_toward_smaller_arclength(self):
        # point equidistant from both arms of an L
        line = Polyline([[0, 0], [10, 0], [10, 10]])
        dist, s = line.project((9.0, 1.0))
        assert dist == pytest.approx(1.0)
        assert s == pytest.approx(9.0)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(5)
        base = Polyline([[0, 0], [4, 1], [6, 5], [9, 5]])
        for _ in range(200):
            p = rng.uniform(-3, 10, size=2)
            d0, s0 = base.project(p)
            theta = rng.uniform(-math.pi, math.pi)
            shift = rng.uniform(-20, 20, size=2)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            moved = Polyline(base.points @ rot.T + shift)
            d1, s1 = moved.project(rot @ p + shift)
            assert d1 == pytest.approx(d0, abs=1e-9)
            assert s1 == pytest.approx(s0, abs=1e-9)


class TestPolylineValidation:
    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            Polyline([[0, 0], [0, 0], [1, 0]])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            Polyline([[0, 0]])

    def test_arclength_strictly_increasing(self):
        line = Polyline([[0, 0], [1, 0], [1, 2], [3, 2]])
        assert np.all(np.diff(line._cum) > 0)
