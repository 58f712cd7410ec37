"""Tests for quadtree aggregates.

A node is a grid index ``(depth, i, j)`` into the per-depth aggregate
grids; every property is stated on those grids, against the top-down
reference build in :mod:`tests.oracles`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.raster import RasterLayer
from repro.pyramid.quadtree import QuadTree
from tests.oracles import build_recursive
from tests.test_index_vector import _poke


def _tree(values: np.ndarray, leaf_size: int = 4) -> QuadTree:
    return QuadTree(RasterLayer("x", values), leaf_size=leaf_size)


def _cover(tree: QuadTree, row0: int, col0: int, row1: int, col1: int):
    """Nodes whose aggregates assemble the window's envelope: descend
    from the root, stop at nodes the window contains and at leaves it
    touches. Returns ``(cover, visited)``."""
    cover, visited = [], 0
    stack = [(0, 0, 0)]
    while stack:
        depth, i, j = stack.pop()
        visited += 1
        n_row0, n_col0, n_row1, n_col1 = tree.index_window(depth, i, j)
        if not (n_row0 < row1 and row0 < n_row1 and n_col0 < col1 and col0 < n_col1):
            continue
        contained = (
            row0 <= n_row0 and n_row1 <= row1 and col0 <= n_col0 and n_col1 <= col1
        )
        if contained or tree.index_is_leaf(depth, i, j):
            cover.append((depth, i, j))
            continue
        stack.extend(
            (depth + 1, child_i, child_j)
            for child_i, child_j in tree.child_indices(depth, i, j)
        )
    return cover, visited


def _envelope(tree: QuadTree, cover) -> tuple[float, float]:
    return (
        min(float(tree.level_mins(d)[i, j]) for d, i, j in cover),
        max(float(tree.level_maxs(d)[i, j]) for d, i, j in cover),
    )


def _assert_grids_equal(left: QuadTree, right: QuadTree) -> None:
    for depth in range(left.n_depths):
        for grid in ("level_mins", "level_maxs", "level_means"):
            np.testing.assert_array_equal(
                getattr(left, grid)(depth), getattr(right, grid)(depth)
            )


class TestArrayBuildMatchesRecursive:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 33), st.integers(1, 33)),
            elements=st.floats(-1e6, 1e6),
        ),
        st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_node_for_node_equal(self, values, leaf_size):
        """The bottom-up array build must reproduce the recursive
        reference tree exactly: same windows, same depths, same child
        order, exact min/max, matching means and counts."""
        tree = _tree(values, leaf_size=leaf_size)
        reference = build_recursive(values, leaf_size)

        stack = [((0, 0, 0), reference)]
        deepest = 0
        while stack:
            (depth, i, j), expected = stack.pop()
            deepest = max(deepest, depth)
            assert tree.index_window(depth, i, j) == expected.window()
            assert depth == expected.depth
            assert tree.level_counts(depth)[i, j] == expected.count
            assert tree.level_mins(depth)[i, j] == expected.minimum
            assert tree.level_maxs(depth)[i, j] == expected.maximum
            assert tree.level_means(depth)[i, j] == pytest.approx(
                expected.mean, rel=1e-12
            )
            assert tree.index_is_leaf(depth, i, j) == (not expected.children)
            children = tree.child_indices(depth, i, j)
            assert len(children) == len(expected.children)
            stack.extend(
                ((depth + 1, child_i, child_j), child)
                for (child_i, child_j), child in zip(children, expected.children)
            )
        assert deepest == tree.max_depth

    def test_recursive_build_validates_leaf_size(self):
        with pytest.raises(ValueError):
            build_recursive(np.zeros((4, 4)), 0)


class TestConstruction:
    def test_root_covers_grid(self):
        tree = _tree(np.zeros((10, 14)))
        assert tree.level_shape(0) == (1, 1)
        assert tree.index_window(0, 0, 0) == (0, 0, 10, 14)

    def test_leaf_size_respected(self):
        tree = _tree(np.zeros((32, 32)), leaf_size=8)
        _, row_lengths, _, col_lengths = tree.level_intervals(tree.max_depth)
        assert row_lengths.max() <= 8 and col_lengths.max() <= 8

    def test_leaves_partition_grid(self):
        values = np.arange(9.0 * 13).reshape(9, 13)
        tree = _tree(values, leaf_size=4)
        covered = np.zeros(values.shape, dtype=int)
        n_i, n_j = tree.level_shape(tree.max_depth)
        for i in range(n_i):
            for j in range(n_j):
                assert tree.index_is_leaf(tree.max_depth, i, j)
                row0, col0, row1, col1 = tree.index_window(tree.max_depth, i, j)
                covered[row0:row1, col0:col1] += 1
        assert np.all(covered == 1)

    def test_node_aggregates_correct(self):
        values = np.arange(16.0).reshape(4, 4)
        tree = _tree(values, leaf_size=2)
        assert tree.level_mins(0)[0, 0] == 0.0
        assert tree.level_maxs(0)[0, 0] == 15.0
        assert tree.level_means(0)[0, 0] == pytest.approx(7.5)
        assert tree.level_counts(0)[0, 0] == 16

    def test_leaf_size_validation(self):
        with pytest.raises(ValueError):
            _tree(np.zeros((4, 4)), leaf_size=0)


class TestWindowEnvelope:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(3, 20), st.integers(3, 20)),
            elements=st.floats(-1e4, 1e4),
        ),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_envelope_is_sound(self, values, data):
        """(min, max) from aggregates must bound the true window extrema."""
        tree = _tree(values, leaf_size=3)
        rows, cols = values.shape
        row0 = data.draw(st.integers(0, rows - 1))
        row1 = data.draw(st.integers(row0 + 1, rows))
        col0 = data.draw(st.integers(0, cols - 1))
        col1 = data.draw(st.integers(col0 + 1, cols))
        cover, _ = _cover(tree, row0, col0, row1, col1)
        low, high = _envelope(tree, cover)
        window = values[row0:row1, col0:col1]
        assert low <= window.min()
        assert high >= window.max()

    def test_exact_on_aligned_windows(self):
        """Every grid entry holds the exact extrema of its own window."""
        rng = np.random.default_rng(3)
        values = rng.random((16, 20))
        tree = _tree(values, leaf_size=4)
        for depth in range(tree.n_depths):
            n_i, n_j = tree.level_shape(depth)
            for i in range(n_i):
                for j in range(n_j):
                    row0, col0, row1, col1 = tree.index_window(depth, i, j)
                    window = values[row0:row1, col0:col1]
                    assert tree.level_mins(depth)[i, j] == window.min()
                    assert tree.level_maxs(depth)[i, j] == window.max()

    def test_counter_tallies_nodes_not_cells(self):
        """A window's envelope is assembled from a few aggregate nodes
        and no raster cells: the descent visits far fewer nodes than
        the window has cells, and the grids do not alias the raster."""
        rng = np.random.default_rng(5)
        values = rng.random((64, 64))
        tree = _tree(values.copy(), leaf_size=4)
        cover, visited = _cover(tree, 5, 5, 30, 30)
        assert 0 < visited < 25 * 25 // 4
        before = _envelope(tree, cover)
        _poke(tree.layer, (0, 0, 64, 64), np.nan)
        assert _envelope(tree, cover) == before
        assert before[0] <= values[5:30, 5:30].min()
        assert before[1] >= values[5:30, 5:30].max()

    def test_empty_window_rejected(self):
        """A dirty window that is empty, or misses the grid, refreshes
        nothing — even though the values under it changed."""
        values = np.arange(64.0).reshape(8, 8)
        tree = _tree(values.copy())
        stale = _tree(values.copy())
        _poke(tree.layer, (0, 0, 8, 8), -1.0)
        tree.refresh_region((4, 4, 4, 8))
        tree.refresh_region((20, 20, 30, 30))
        _assert_grids_equal(tree, stale)

    def test_window_clipped_to_grid(self):
        """A dirty window overhanging the grid is clipped to it: the
        refreshed grids equal a from-scratch build."""
        values = np.arange(16.0).reshape(4, 4)
        tree = _tree(values.copy(), leaf_size=2)
        _poke(tree.layer, (0, 0, 4, 4), values[::-1] * 3.0)
        tree.refresh_region((-5, -5, 99, 99))
        _assert_grids_equal(tree, _tree(values[::-1] * 3.0, leaf_size=2))
        assert (tree.level_mins(0)[0, 0], tree.level_maxs(0)[0, 0]) == (0.0, 45.0)


class TestNodesAtDepth:
    def test_depth_zero_is_root(self):
        tree = _tree(np.zeros((16, 16)), leaf_size=4)
        assert tree.level_shape(0) == (1, 1)
        assert tree.level_counts(0)[0, 0] == 256

    def test_depth_tiles_grid(self):
        tree = _tree(np.zeros((16, 24)), leaf_size=2)
        for depth in range(tree.n_depths):
            assert tree.level_counts(depth).sum() == 16 * 24
            row_starts, row_lengths, col_starts, col_lengths = (
                tree.level_intervals(depth)
            )
            assert np.array_equal(row_starts[1:], np.cumsum(row_lengths)[:-1])
            assert np.array_equal(col_starts[1:], np.cumsum(col_lengths)[:-1])

    def test_deep_request_returns_leaves(self):
        """Leaves persist to the deepest grid: an axis that finished
        splitting early repeats its intervals, so the finest grid is
        exactly the leaf tiling."""
        tree = _tree(np.zeros((8, 32)), leaf_size=4)
        finest = tree.max_depth
        n_i, n_j = tree.level_shape(finest)
        assert all(
            tree.index_is_leaf(finest, i, j) and not tree.child_indices(finest, i, j)
            for i in range(n_i)
            for j in range(n_j)
        )
        assert tree.level_counts(finest).sum() == 8 * 32
        mins, maxs = tree.leaf_envelopes()
        assert mins.shape == maxs.shape == (n_i, n_j)

    def test_negative_depth_rejected(self):
        tree = _tree(np.zeros((4, 4)))
        for accessor in (tree.level_mins, tree.level_shape, tree.level_intervals):
            with pytest.raises(ValueError):
                accessor(-1)
            with pytest.raises(ValueError):
                accessor(tree.n_depths)
