"""Property tests for the vector index and the tile embedder.

Pins the flat inner-product index bitwise to a numpy argsort oracle,
and the region-scoped embedding refresh contract (dirty tiles only,
bit-identical to a full rebuild).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import flat_ip_oracle
from repro.core.screening import TileScreen
from repro.embed.tiles import TileEmbedder, TileEmbeddings
from repro.exceptions import EmbeddingError, IndexError_
from repro.index.vector import FlatIPIndex, ip_scores
from repro.metrics.counters import CostCounter


def _vector_set(n, dim, seed, ties=False):
    rng = np.random.default_rng(seed)
    if ties:
        # Quantized coordinates force duplicate rows and score ties, so
        # the (row, col) tie-break actually gets exercised.
        vectors = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    else:
        vectors = rng.standard_normal((n, dim))
    cells = np.stack(
        [rng.permutation(n), rng.integers(0, 50, size=n)], axis=1
    )
    query = (
        rng.integers(-2, 3, size=dim).astype(np.float64)
        if ties
        else rng.standard_normal(dim)
    )
    return vectors, cells, query


class TestFlatIndex:
    @given(
        n=st.integers(1, 120),
        dim=st.integers(1, 12),
        k=st.integers(1, 20),
        seed=st.integers(0, 500),
        ties=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_flat_matches_argsort_oracle_bitwise(self, n, dim, k, seed, ties):
        vectors, cells, query = _vector_set(n, dim, seed, ties)
        index = FlatIPIndex(vectors, cells)
        assert index.search(query, k) == flat_ip_oracle(
            vectors, cells, query, k
        )

    def test_flat_counts_work(self):
        vectors, cells, query = _vector_set(30, 4, 0)
        counter = CostCounter()
        FlatIPIndex(vectors, cells).search(query, 5, counter=counter)
        assert counter.tuples_examined == 30
        assert counter.model_evals == 30
        assert counter.flops == 30 * 2 * 4

    def test_flat_rejects_bad_shapes(self):
        with pytest.raises(IndexError_):
            FlatIPIndex(np.zeros((0, 3)), np.zeros((0, 2)))
        with pytest.raises(IndexError_):
            FlatIPIndex(np.zeros((4, 3)), np.zeros((3, 2)))
        index = FlatIPIndex(np.ones((4, 3)), np.zeros((4, 2), dtype=int))
        with pytest.raises(IndexError_):
            index.search(np.ones(5), 2)

    def test_ip_scores_subset_is_bitwise_stable(self):
        """Scoring a gathered row subset reproduces the full-scan floats
        — the property every partition probe depends on."""
        vectors, _, query = _vector_set(64, 9, 7)
        full = ip_scores(vectors, query)
        subset = np.array([3, 17, 17, 40, 63])
        assert np.array_equal(ip_scores(vectors[subset], query), full[subset])


def _stack(rows, cols, seed, make_noise_stack):
    return make_noise_stack(rows, cols, 2, seed)


def _poke(layer, region, block):
    """In-place mutate a frozen layer window (what the disk store's
    ``append_region`` does through its memmap)."""
    layer.values.setflags(write=True)
    try:
        layer.values[region[0]:region[2], region[1]:region[3]] = block
    finally:
        layer.values.setflags(write=False)


class TestEmbeddingRefresh:
    @given(
        rows=st.integers(10, 48),
        cols=st.integers(10, 48),
        seed=st.integers(0, 200),
        r0=st.integers(0, 40),
        c0=st.integers(0, 40),
        height=st.integers(1, 20),
        width=st.integers(1, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_refresh_is_bitwise_identical_to_rebuild(
        self, rows, cols, seed, r0, c0, height, width, make_noise_stack
    ):
        """Mutate a rectangle, refresh it, and compare the whole vector
        grid against a from-scratch rebuild: bit-identical, and only the
        dirty tile block was re-embedded."""
        stack = _stack(rows, cols, seed, make_noise_stack)
        screen = TileScreen(stack, leaf_size=8)
        embeddings = TileEmbeddings.build(stack, screen, dim=8, seed=3)
        assert embeddings.embedded_tiles == embeddings.n_tiles
        r0, c0 = min(r0, rows - 1), min(c0, cols - 1)
        region = (r0, c0, min(rows, r0 + height), min(cols, c0 + width))
        rng = np.random.default_rng(seed + 1)
        for name in stack.names:
            _poke(
                stack[name],
                region,
                rng.standard_normal(
                    (region[2] - region[0], region[3] - region[1])
                ),
            )
        dirty = embeddings.refresh_region(region)
        rebuilt = TileEmbeddings.build(stack, screen, dim=8, seed=3)
        assert np.array_equal(embeddings.vectors, rebuilt.vectors)
        assert dirty >= 1
        assert embeddings.embedded_tiles == embeddings.n_tiles + dirty

    def test_refresh_touches_only_dirty_tiles(self, make_noise_stack):
        stack = _stack(32, 32, 5, make_noise_stack)
        screen = TileScreen(stack, leaf_size=8)
        embeddings = TileEmbeddings.build(stack, screen, dim=8, seed=0)
        before = embeddings.vectors.copy()
        # One cell inside tile (0, 0): exactly one tile is dirty.
        _poke(stack[stack.names[0]], (2, 3, 3, 4), 99.0)
        assert embeddings.refresh_region((2, 3, 3, 4)) == 1
        assert embeddings.embedded_tiles == embeddings.n_tiles + 1
        changed = ~np.all(embeddings.vectors == before, axis=-1)
        assert changed[0, 0]
        assert changed.sum() == 1

    def test_refresh_out_of_grid_is_a_noop(self, make_noise_stack):
        stack = _stack(16, 16, 1, make_noise_stack)
        screen = TileScreen(stack, leaf_size=8)
        embeddings = TileEmbeddings.build(stack, screen, dim=4, seed=0)
        assert embeddings.refresh_region((20, 20, 30, 30)) == 0
        assert embeddings.refresh_region((5, 5, 5, 9)) == 0
        assert embeddings.embedded_tiles == embeddings.n_tiles

    def test_cosines_match_term_order_reference(self, make_noise_stack):
        stack = _stack(24, 24, 2, make_noise_stack)
        screen = TileScreen(stack, leaf_size=8)
        embeddings = TileEmbeddings.build(stack, screen, dim=6, seed=2)
        query = embeddings.tile_vector((10, 10))
        grid = embeddings.cosines(query)
        n_i, n_j = embeddings.grid_shape
        flat = ip_scores(
            embeddings.vectors.reshape(n_i * n_j, embeddings.dim), query
        )
        assert np.array_equal(grid.reshape(-1), flat)
        # Unit vectors: the example tile's cosine with itself is ~1 and
        # is the grid maximum.
        i, j = embeddings.tile_index((10, 10))
        assert grid[i, j] == grid.max()

    def test_embedder_validation(self):
        with pytest.raises(EmbeddingError):
            TileEmbedder((), dim=4)
        with pytest.raises(EmbeddingError):
            TileEmbedder(("a",), dim=0)
        embedder = TileEmbedder(("a",), dim=4)
        with pytest.raises(EmbeddingError):
            embedder.embed_block(np.zeros((2, 2, 7)))
