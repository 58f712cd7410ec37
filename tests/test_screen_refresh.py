"""One leaf-grid rule: a refreshed screen is the screen built fresh.

A tile screen reads its leaf (min, max) grids by one rule when it is
built and when an append refreshes it: copied from a store layer's own
grids (which the writer refreshed), else re-reduced from the values —
and then recombines only the dirty rectangle's ancestors. The envelopes
are the pruning bounds, so "close" is not enough: every comparison here
is of the table's bytes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import TopKQuery
from repro.core.screening import TileScreen
from repro.data.archive import Archive
from repro.data.raster import RasterLayer, RasterStack
from repro.data.store import ArchiveWriter, open_archive
from repro.exceptions import PlanError
from repro.models.linear import LinearModel
from repro.pyramid.quadtree import clip_region, interval_span
from repro.service.retrieval import RetrievalService
from tests.test_index_vector import _poke


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _region(rng, rows, cols):
    """A random non-empty rectangle inside a ``rows`` x ``cols`` grid."""
    row0, col0 = int(rng.integers(0, rows)), int(rng.integers(0, cols))
    return (
        row0, col0,
        int(rng.integers(row0 + 1, rows + 1)), int(rng.integers(col0 + 1, cols + 1)),
    )


def _values(rng, shape):
    """Few distinct values, signed zeros among them: ties and
    ``-0.0``/``0.0`` pairs make the combine's operand order visible in
    the bytes."""
    return np.where(
        rng.random(shape) < 0.5,
        rng.choice([-2.5, -0.0, 0.0, 1.25, 3.0], size=shape),
        rng.standard_normal(shape),
    )


class TestAppendedScreenIsAFreshScreen:
    @given(
        rows=st.integers(1, 90),
        cols=st.integers(1, 90),
        store_leaf=st.integers(1, 17),
        other_leaf=st.one_of(st.none(), st.integers(1, 17)),
        n_bands=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_after_every_append(
        self, rows, cols, store_leaf, other_leaf, n_bands, seed
    ):
        """After each append of one or more bands, a store-backed
        service's envelope table equals, byte for byte, a screen built
        fresh over the store's layers, the in-memory twin's screen
        (refreshed by re-reduction) and the reopened store's screen. A
        service leaf size other than the store's reads no stored grids
        and takes the re-reduction itself."""
        rng = np.random.default_rng(seed)
        leaf = store_leaf if other_leaf is None else other_leaf
        names = [f"b{band}" for band in range(n_bands)]
        source = Archive("twin")
        for name in names:
            source.add(RasterLayer(name, _values(rng, (rows, cols))))
        twin = RasterStack({n: RasterLayer(n, source.raster(n).values.copy()) for n in names})
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "store"
            ArchiveWriter.create(path, source, screen_leaf_size=store_leaf)
            disk = open_archive(path)
            service = RetrievalService.from_archive(
                disk, names, leaf_size=leaf, n_shards=1, cache_size=0
            )
            twin_screen = TileScreen(twin, leaf_size=leaf)
            query = TopKQuery(
                model=LinearModel({name: 1.0 for name in names}), k=1
            )
            for _ in range(int(rng.integers(1, 4))):
                region = _region(rng, rows, cols)
                shape = (region[2] - region[0], region[3] - region[1])
                written = rng.permutation(n_bands)[: rng.integers(1, n_bands + 1)]
                updates = {names[band]: _values(rng, shape) for band in written}
                disk.append_region(updates, region)
                for name, block in updates.items():
                    _poke(twin[name], region, block)
                twin_screen.refresh_region(region)
                service.top_k(query)
                table = service.engine.screen.envelope_table
                fresh = TileScreen(disk.stack(names), leaf_size=leaf)
                reopened = TileScreen(
                    open_archive(path).stack(names), leaf_size=leaf
                )
                assert _same_bytes(table, fresh.envelope_table)
                assert _same_bytes(table, twin_screen.envelope_table)
                assert _same_bytes(table, reopened.envelope_table)
                assert _same_bytes(
                    table, TileScreen(twin, leaf_size=leaf).envelope_table
                )


class TestScopedCombine:
    @given(
        rows=st.integers(1, 90),
        cols=st.integers(1, 90),
        leaf=st.integers(1, 17),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_a_full_combine(self, rows, cols, leaf, seed):
        """Rewrite the leaves a random region meets (overhanging the
        grid, or missing it, too), then combine only that region: the
        table is a full combine's, byte for byte."""
        rng = np.random.default_rng(seed)
        stack = RasterStack(
            {"x": RasterLayer("x", _values(rng, (rows, cols))),
             "y": RasterLayer("y", _values(rng, (rows, cols)))}
        )
        screen = TileScreen(stack, leaf_size=leaf)
        row_starts, _, col_starts, _ = screen.level_intervals(-1)
        table = screen.envelope_table.copy()
        for _ in range(4):
            region = tuple(
                int(v) for v in (
                    rng.integers(-10, rows + 5), rng.integers(-10, cols + 5),
                    rng.integers(-5, rows + 10), rng.integers(-5, cols + 10),
                )
            )
            clipped = clip_region(region, (rows, cols))
            if clipped is not None:
                i0, i1 = interval_span(row_starts, clipped[0], clipped[2])
                j0, j1 = interval_span(col_starts, clipped[1], clipped[3])
                leaves = screen._grids(table, -1)
                low = _values(rng, (2, i1 - i0, j1 - j0))
                leaves[:2, i0:i1, j0:j1] = low
                leaves[2:, i0:i1, j0:j1] = low + np.abs(
                    _values(rng, low.shape)
                )
            scoped = table.copy()
            screen._combine(scoped, region)
            screen._combine(table)
            assert _same_bytes(scoped, table)

    def test_a_region_off_the_grid_still_checks_the_whole_table(self):
        """Nothing is recombined for a rectangle that misses the grid,
        but ``min <= max`` is still checked everywhere."""
        stack = RasterStack({"x": RasterLayer("x", np.arange(64.0).reshape(8, 8))})
        screen = TileScreen(stack, leaf_size=2)
        leaf_lows, leaf_highs = screen.leaf_envelopes()
        leaf_lows[0, 3] = leaf_highs[0, 3] + 1.0
        with pytest.raises(PlanError, match="min above its max"):
            screen.refresh_region((20, 20, 30, 30))
