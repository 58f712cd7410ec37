"""Tests for convex-hull peeling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import IndexError_
from repro.index.hull import hull_layers, hull_vertices, touches_hull

from tests.oracles import hull_layers_per_point


class TestHullVertices:
    def test_square_hull(self):
        points = np.array(
            [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]], dtype=float
        )
        vertices = hull_vertices(points)
        assert set(vertices) == {0, 1, 2, 3}

    def test_single_point(self):
        assert list(hull_vertices(np.array([[3.0, 4.0]]))) == [0]

    def test_empty_input(self):
        assert hull_vertices(np.zeros((0, 2))).size == 0

    def test_two_points(self):
        vertices = hull_vertices(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert set(vertices) == {0, 1}

    def test_collinear_points_return_extremes(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        vertices = hull_vertices(points)
        assert set(vertices) == {0, 3}

    def test_coplanar_in_3d(self):
        """Points on a 2-D plane embedded in 3-D (Qhull would choke)."""
        rng = np.random.default_rng(1)
        uv = rng.random((12, 2))
        points = np.column_stack([uv[:, 0], uv[:, 1], uv[:, 0] + uv[:, 1]])
        vertices = hull_vertices(points)
        assert 3 <= len(vertices) <= 12
        # Every point must be inside the 2-D hull of the projections.
        from scipy.spatial import ConvexHull

        expected = set(ConvexHull(uv).vertices)
        assert set(vertices) == expected

    def test_all_duplicates(self):
        points = np.tile([[2.0, 3.0]], (5, 1))
        assert len(hull_vertices(points)) == 1

    def test_non_2d_array_rejected(self):
        with pytest.raises(IndexError_):
            hull_vertices(np.zeros(5))

    def test_1d_points(self):
        points = np.array([[3.0], [1.0], [7.0], [5.0]])
        vertices = hull_vertices(points)
        assert set(vertices) == {1, 2}

    @given(st.integers(4, 60), st.integers(2, 4), st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_hull_contains_extreme_points(self, n_points, n_dims, seed):
        """argmax/argmin of every coordinate must be hull vertices."""
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n_points, n_dims))
        vertices = set(hull_vertices(points))
        for dim in range(n_dims):
            assert int(np.argmax(points[:, dim])) in vertices
            assert int(np.argmin(points[:, dim])) in vertices


class TestHullLayers:
    def test_layers_partition_points(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(100, 2))
        layers = hull_layers(points)
        combined = np.concatenate(layers)
        assert sorted(combined) == list(range(100))

    def test_layers_are_nested(self):
        """Each layer's hull must lie inside the previous layer's hull
        (checked via linear scores: layer i's max w.x <= layer i-1's)."""
        rng = np.random.default_rng(3)
        points = rng.normal(size=(200, 3))
        layers = hull_layers(points)
        for _ in range(10):
            weights = rng.normal(size=3)
            maxima = [
                (points[layer] @ weights).max() for layer in layers
            ]
            for outer, inner in zip(maxima, maxima[1:]):
                assert inner <= outer + 1e-9

    def test_max_layers_buckets_interior(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(100, 2))
        layers = hull_layers(points, max_layers=3)
        assert len(layers) == 3
        assert sum(layer.size for layer in layers) == 100

    def test_duplicates_terminate(self):
        points = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]] * 10)
        layers = hull_layers(points)
        combined = np.concatenate(layers)
        assert sorted(combined) == list(range(20))

    def test_small_inputs(self):
        assert hull_layers(np.zeros((0, 2))) == []
        layers = hull_layers(np.array([[1.0, 2.0]]))
        assert len(layers) == 1

    @given(
        n_points=st.integers(0, 80),
        n_dims=st.integers(1, 4),
        shape=st.sampled_from(["grid", "normal", "line", "plane"]),
        max_layers=st.one_of(st.none(), st.integers(1, 6)),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_per_point_peeling_array_for_array(
        self, n_points, n_dims, shape, max_layers, seed
    ):
        """De-duplicating once must not change a single layer: same
        arrays, same order, same dtype as the per-point oracle — on
        duplicate-heavy grids, collinear and coplanar sets, d = 1, and
        under the ``max_layers`` cap."""
        rng = np.random.default_rng(seed)
        if shape == "grid":
            # Few distinct values per axis: most points are duplicates.
            points = rng.integers(0, 4, size=(n_points, n_dims)).astype(float)
        elif shape == "normal":
            points = rng.normal(size=(n_points, n_dims))
            # Re-insert exact duplicates of a few rows.
            if n_points:
                points[rng.integers(0, n_points, n_points // 4)] = points[0]
        elif shape == "line":
            points = np.outer(
                rng.integers(-5, 6, n_points).astype(float),
                rng.normal(size=n_dims),
            )
        else:
            basis = rng.normal(size=(min(2, n_dims), n_dims))
            points = rng.integers(-3, 4, (n_points, basis.shape[0])) @ basis
        expected = hull_layers_per_point(points, max_layers=max_layers)
        actual = hull_layers(points, max_layers=max_layers)
        assert len(actual) == len(expected)
        for ours, theirs in zip(actual, expected):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)


class TestTouchesHull:
    SQUARE = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)

    def test_point_on_an_edge_touches(self):
        inside = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert touches_hull(self.SQUARE, inside)

    def test_interior_points_do_not_touch(self):
        inside = np.array([[1.0, 1.0], [0.5, 1.5]])
        assert not touches_hull(self.SQUARE, inside)
        assert not touches_hull(self.SQUARE, np.zeros((0, 2)))

    def test_a_flat_hull_has_no_interior(self):
        segment = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert touches_hull(segment, np.array([[1.0, 1.0]]))

    def test_one_dimension(self):
        ends = np.array([[0.0], [4.0]])
        assert not touches_hull(ends, np.array([[1.0], [3.0]]))
        assert touches_hull(np.array([[0.0], [4.0], [4.0]]), np.array([[4.0]]))
