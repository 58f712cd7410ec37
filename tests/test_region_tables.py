"""A search's bound table covers every node it reads, and no more.

Every tile search bounds the nodes its region can reach once, into one
table (``RasterRetrievalEngine._seed``); the rest of the screen reads
``+inf``. So the region's node list (``TileScreen.region_nodes``) must
hold every node any search over that region bounds — from the global
root over a sub-region, from the region's root cover, as a batch member
or as one of two row bands — and must be exactly the nodes whose window
meets the region. The fused search's caps come from the screen's own
min/max combine (``TileScreen.node_extrema``), which must equal a brute
force over each node's leaf tiles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import RasterRetrievalEngine
from repro.core.query import TopKQuery
from repro.core.screening import TileScreen
from repro.data.raster import RasterLayer, RasterStack
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from tests.oracles import exact_answers, exhaustive_fused


def _regions(rng, rows, cols, n):
    """``n`` random regions meeting the grid, some overhanging it."""
    regions = []
    while len(regions) < n:
        row0, row1 = sorted(rng.integers(-3, rows + 3, 2).tolist())
        col0, col1 = sorted(rng.integers(-3, cols + 3, 2).tolist())
        if max(row0, 0) < min(row1, rows) and max(col0, 0) < min(col1, cols):
            regions.append((row0, col0, row1, col1))
    return regions


def _leaf_tiles(screen: TileScreen, window):
    """Masks over the leaf tiling's rows and columns of the tiles that
    lie in ``window`` (a node's tiles start inside its window)."""
    row_starts, _, col_starts, _ = screen.level_intervals(-1)
    r0, c0, r1, c1 = window
    return (
        (r0 <= row_starts) & (row_starts < r1),
        (c0 <= col_starts) & (col_starts < c1),
    )


class TestRegionNodes:
    @given(
        rows=st.integers(1, 70),
        cols=st.integers(1, 70),
        leaf=st.integers(1, 17),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=250, cols=250, leaf=16, seed=1)  # 15- and 16-wide leaves
    @settings(max_examples=80, deadline=None)
    def test_are_the_windows_that_meet_the_region(
        self, rows, cols, leaf, seed
    ):
        """By brute force over every node id, for random regions (ragged
        grids and overhanging regions included): read-only, memoized in
        the region's cover entry, and the whole grid is ``slice(None)``."""
        stack = RasterStack({"a": RasterLayer("a", np.zeros((rows, cols)))})
        screen = TileScreen(stack, leaf_size=leaf)
        rng = np.random.default_rng(seed)
        for region in _regions(rng, rows, cols, 6):
            row0, col0 = max(region[0], 0), max(region[1], 0)
            row1, col1 = min(region[2], rows), min(region[3], cols)
            nodes = screen.region_nodes(region)
            if (row0, col0, row1, col1) == (0, 0, rows, cols):
                assert nodes == slice(None)
                continue
            assert not nodes.flags.writeable
            assert nodes.tolist() == [
                node
                for node, (r0, c0, r1, c1) in enumerate(screen.window.tolist())
                if r0 < row1 and row0 < r1 and c0 < col1 and col0 < c1
            ]
            key = (row0, col0, row1, col1)
            cover, kept = screen._covers[key]
            assert kept is nodes
            assert cover is screen.region_root_ids(region)
        assert screen.region_nodes((-2, -2, rows + 2, cols + 2)) == slice(None)


def _watch_uppers(patch) -> list[int]:
    """Wraps ``_uppers``: every id it is asked to bound must lie in the
    scan's ``nodes``, and its table must not read ``+inf`` there (a node
    of the region with no bound would never prune). Returns the sizes
    of the blocks it bounded."""
    calls = []
    real = RasterRetrievalEngine._uppers

    def uppers(self, state, ids, scan):
        every = np.arange(scan.depth.size)
        assert np.isin(ids, every[scan.nodes]).all()
        signed = real(self, state, ids, scan)
        assert np.isfinite(signed).all()
        calls.append(len(ids))
        return signed

    patch.setattr(RasterRetrievalEngine, "_uppers", uppers)
    return calls


class TestSearchesReadOnlyTheirNodes:
    @given(
        rows=st.integers(8, 60),
        cols=st.integers(8, 60),
        leaf=st.integers(1, 17),
        seed=st.integers(0, 2**32 - 1),
        maximize=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_entry_point(
        self, rows, cols, leaf, seed, maximize, make_noise_stack,
    ):
        """Shard-search cover scans and two-band sharding (the service),
        ``top_k_batch`` members and the engine's clipping
        ``progressive_top_k(region=...)`` over random regions, every
        answer the dense oracle's."""
        with pytest.MonkeyPatch.context() as patch:
            calls = _watch_uppers(patch)
            stack = make_noise_stack(rows, cols, 2, seed % 50)
            service = RetrievalService(stack, leaf_size=leaf, cache_size=0)
            engine = service.engine
            rng = np.random.default_rng(seed)
            model = LinearModel(
                dict(zip(stack.names, rng.normal(size=2).tolist()))
            )
            queries = [
                TopKQuery(model=model, k=3, maximize=maximize, region=region)
                for region in _regions(rng, rows, cols, 3)
            ]
            for query in queries:
                region = query.clip_region(stack.shape)
                oracle = exhaustive_fused(stack, None, query, region)[0]
                clipping = engine.progressive_top_k(
                    query, use_model_levels=False
                )
                assert exact_answers(clipping) == oracle
                for n_shards in (1, 2):
                    served = service.top_k(
                        query, n_shards=n_shards, strategy="quadtree"
                    )
                    assert exact_answers(served) == oracle
            for member, query in zip(service.top_k_batch(queries), queries):
                region = query.clip_region(stack.shape)
                oracle = exhaustive_fused(stack, None, query, region)[0]
                assert exact_answers(member) == oracle
            assert calls


class TestNodeExtrema:
    @given(
        rows=st.integers(1, 60),
        cols=st.integers(1, 60),
        leaf=st.integers(1, 17),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=250, cols=250, leaf=16, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_is_the_min_and_max_over_each_nodes_leaves(
        self, rows, cols, leaf, seed
    ):
        """The screen's combine over a per-leaf grid equals, with ``==``,
        the minimum and maximum of the grid over each node's leaf tiles,
        for every node id."""
        stack = RasterStack({"a": RasterLayer("a", np.zeros((rows, cols)))})
        screen = TileScreen(stack, leaf_size=leaf)
        row_starts, _, col_starts, _ = screen.level_intervals(-1)
        rng = np.random.default_rng(seed)
        grid = rng.choice(
            np.round(rng.normal(size=5), 2), (row_starts.size, col_starts.size)
        )
        table = screen.node_extrema(grid)
        assert table.shape == (2, screen.depth.size)
        for node, window in enumerate(screen.window.tolist()):
            tiles = grid[np.ix_(*_leaf_tiles(screen, window))]
            assert table[0, node] == tiles.min()
            assert table[1, node] == tiles.max()
