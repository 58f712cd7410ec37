"""Tests for the quadtree of (min, max) envelopes.

The tree is the tile screen's flat node tables: a node is an integer id,
its window, depth, leaf flag and children are rows of the structure
tables, and its envelope is a column of ``envelope_table``. Every
property is stated on those tables, against the top-down reference
build in :mod:`tests.oracles`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.screening import TileScreen
from repro.data.raster import RasterLayer, RasterStack
from tests.oracles import build_recursive
from tests.test_index_vector import _poke


def _screen(values: np.ndarray, leaf_size: int = 4) -> TileScreen:
    return TileScreen(
        RasterStack({"x": RasterLayer("x", values)}), leaf_size=leaf_size
    )


def _children(screen: TileScreen, node: int) -> list[int]:
    return [child for child in screen.child[node].tolist() if child >= 0]


def _window(screen: TileScreen, node: int) -> tuple[int, int, int, int]:
    return tuple(screen.window[node].tolist())


def _area(screen: TileScreen, nodes) -> np.ndarray:
    window = screen.window[nodes]
    return (window[..., 2] - window[..., 0]) * (window[..., 3] - window[..., 1])


def _cover(screen: TileScreen, row0: int, col0: int, row1: int, col1: int):
    """Nodes whose envelopes assemble the window's: descend from the
    root over the child table, stop at nodes the window contains and at
    leaves it touches. Returns ``(cover ids in window order, visited)``."""
    cover, visited = [], 0
    stack = [0]
    while stack:
        node = stack.pop()
        visited += 1
        n_row0, n_col0, n_row1, n_col1 = _window(screen, node)
        if not (n_row0 < row1 and row0 < n_row1 and n_col0 < col1 and col0 < n_col1):
            continue
        contained = (
            row0 <= n_row0 and n_row1 <= row1 and col0 <= n_col0 and n_col1 <= col1
        )
        if contained or screen.leaf[node]:
            cover.append(node)
            continue
        stack.extend(_children(screen, node))
    return sorted(cover, key=lambda node: _window(screen, node)[:2]), visited


def _envelope(screen: TileScreen, cover) -> tuple[float, float]:
    return (
        float(screen.lows[0, cover].min()),
        float(screen.highs[0, cover].max()),
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
        """The bottom-up flat tables must reproduce the recursive
        reference tree exactly: same windows, same depths, same child
        order, exact min/max, matching cell counts."""
        screen = _screen(values, leaf_size=leaf_size)
        reference = build_recursive(values, leaf_size)

        stack = [(0, reference)]
        deepest = 0
        while stack:
            node, expected = stack.pop()
            deepest = max(deepest, int(screen.depth[node]))
            assert _window(screen, node) == expected.window()
            assert screen.depth[node] == expected.depth
            assert _area(screen, node) == expected.count
            assert screen.lows[0, node] == expected.minimum
            assert screen.highs[0, node] == expected.maximum
            assert screen.leaf[node] == (not expected.children)
            children = _children(screen, node)
            assert len(children) == len(expected.children)
            stack.extend(zip(children, expected.children))
        assert deepest == screen.n_depths - 1

    def test_recursive_build_validates_leaf_size(self):
        with pytest.raises(ValueError):
            build_recursive(np.zeros((4, 4)), 0)


class TestConstruction:
    def test_root_covers_grid(self):
        screen = _screen(np.zeros((10, 14)))
        assert (screen.depth == 0).sum() == 1
        assert _window(screen, 0) == (0, 0, 10, 14)

    def test_leaf_size_respected(self):
        screen = _screen(np.zeros((32, 32)), leaf_size=8)
        _, row_lengths, _, col_lengths = screen.level_intervals(-1)
        assert row_lengths.max() <= 8 and col_lengths.max() <= 8

    def test_leaves_partition_grid(self):
        values = np.arange(9.0 * 13).reshape(9, 13)
        screen = _screen(values, leaf_size=4)
        covered = np.zeros(values.shape, dtype=int)
        for node in np.flatnonzero(screen.depth == screen.n_depths - 1):
            assert screen.leaf[node]
            row0, col0, row1, col1 = _window(screen, node)
            covered[row0:row1, col0:col1] += 1
        assert np.all(covered == 1)

    def test_node_aggregates_correct(self):
        values = np.arange(16.0).reshape(4, 4)
        screen = _screen(values, leaf_size=2)
        assert screen.lows[0, 0] == 0.0
        assert screen.highs[0, 0] == 15.0
        assert _area(screen, 0) == 16

    def test_leaf_size_validation(self):
        with pytest.raises(ValueError):
            _screen(np.zeros((4, 4)), leaf_size=0)


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
        """(min, max) over a region's root cover must bound the true
        window extrema; the cover is the descent's."""
        screen = _screen(values, leaf_size=3)
        rows, cols = values.shape
        row0 = data.draw(st.integers(0, rows - 1))
        row1 = data.draw(st.integers(row0 + 1, rows))
        col0 = data.draw(st.integers(0, cols - 1))
        col1 = data.draw(st.integers(col0 + 1, cols))
        cover = screen.region_root_ids((row0, col0, row1, col1))
        assert cover.tolist() == _cover(screen, row0, col0, row1, col1)[0]
        low, high = _envelope(screen, cover)
        window = values[row0:row1, col0:col1]
        assert low <= window.min()
        assert high >= window.max()

    def test_exact_on_aligned_windows(self):
        """Every node holds the exact extrema of its own window."""
        rng = np.random.default_rng(3)
        values = rng.random((16, 20))
        screen = _screen(values, leaf_size=4)
        for node in range(screen.depth.size):
            row0, col0, row1, col1 = _window(screen, node)
            window = values[row0:row1, col0:col1]
            assert screen.lows[0, node] == window.min()
            assert screen.highs[0, node] == window.max()

    def test_counter_tallies_nodes_not_cells(self):
        """A window's envelope is assembled from a few aggregate nodes
        and no raster cells: the descent visits far fewer nodes than
        the window has cells, and the tables do not alias the raster."""
        rng = np.random.default_rng(5)
        values = rng.random((64, 64))
        screen = _screen(values.copy(), leaf_size=4)
        cover, visited = _cover(screen, 5, 5, 30, 30)
        assert 0 < visited < 25 * 25 // 4
        before = _envelope(screen, cover)
        _poke(screen.stack["x"], (0, 0, 64, 64), np.nan)
        assert _envelope(screen, cover) == before
        assert before[0] <= values[5:30, 5:30].min()
        assert before[1] >= values[5:30, 5:30].max()

    def test_empty_window_rejected(self):
        """A dirty window that is empty, or misses the grid, refreshes
        nothing — even though the values under it changed."""
        values = np.arange(64.0).reshape(8, 8)
        screen = _screen(values.copy())
        stale = _screen(values.copy())
        _poke(screen.stack["x"], (0, 0, 8, 8), -1.0)
        screen.refresh_region((4, 4, 4, 8))
        screen.refresh_region((20, 20, 30, 30))
        assert np.array_equal(screen.envelope_table, stale.envelope_table)

    def test_window_clipped_to_grid(self):
        """A dirty window overhanging the grid is clipped to it: the
        refreshed tables equal a from-scratch build."""
        values = np.arange(16.0).reshape(4, 4)
        screen = _screen(values.copy(), leaf_size=2)
        _poke(screen.stack["x"], (0, 0, 4, 4), values[::-1] * 3.0)
        screen.refresh_region((-5, -5, 99, 99))
        fresh = _screen(values[::-1] * 3.0, leaf_size=2)
        assert np.array_equal(screen.envelope_table, fresh.envelope_table)
        assert (screen.lows[0, 0], screen.highs[0, 0]) == (0.0, 45.0)


class TestNodesAtDepth:
    def test_depth_zero_is_root(self):
        screen = _screen(np.zeros((16, 16)), leaf_size=4)
        assert np.flatnonzero(screen.depth == 0).tolist() == [0]
        assert _area(screen, 0) == 256

    def test_depth_tiles_grid(self):
        screen = _screen(np.zeros((16, 24)), leaf_size=2)
        for depth in range(screen.n_depths):
            assert _area(screen, screen.depth == depth).sum() == 16 * 24
            row_starts, row_lengths, col_starts, col_lengths = (
                screen.level_intervals(depth)
            )
            assert np.array_equal(row_starts[1:], np.cumsum(row_lengths)[:-1])
            assert np.array_equal(col_starts[1:], np.cumsum(col_lengths)[:-1])

    def test_deep_request_returns_leaves(self):
        """Leaves persist to the deepest grid: an axis that finished
        splitting early repeats its intervals, so the finest grid is
        exactly the leaf tiling."""
        screen = _screen(np.zeros((8, 32)), leaf_size=4)
        finest = screen.depth == screen.n_depths - 1
        assert screen.leaf[finest].all()
        assert (screen.child[finest] < 0).all()
        assert _area(screen, finest).sum() == 8 * 32
        lows, highs = screen.leaf_envelopes()
        assert lows.shape == highs.shape == (1, finest.sum())
