"""Region-scoped cache invalidation over a disk-backed archive.

Counters are only deterministic on the single-shard path (sharded
execution shares one top-K heap across threads, so counted work is
timing-dependent), so every service here runs ``n_shards=1``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.data.archive import Archive
from repro.data.raster import RasterLayer, RasterStack
from repro.data.series import TimeSeries
from repro.data.store import ArchiveWriter, open_archive
from repro.models.linear import LinearModel
from repro.service.cache import regions_intersect
from repro.service.retrieval import RetrievalService


def build_store(tmp_path, seed=1, size=256):
    rng = np.random.default_rng(seed)
    source = Archive("demo")
    source.add(RasterLayer("a", rng.standard_normal((size, size))))
    source.add(RasterLayer("b", rng.standard_normal((size, size))))
    source.add(
        TimeSeries("clock", np.arange(5.0), {"tick": np.arange(5.0)})
    )
    ArchiveWriter.create(tmp_path / "store", source, screen_leaf_size=16)
    return open_archive(tmp_path / "store")


def service_for(archive):
    return RetrievalService.from_archive(archive, ["a", "b"], n_shards=1)


def answers(result):
    return [(a.row, a.col, a.score) for a in result.answers]


class TestRegionsIntersect:
    def test_half_open_semantics(self):
        assert regions_intersect((0, 0, 10, 10), (5, 5, 15, 15))
        assert not regions_intersect((0, 0, 10, 10), (10, 0, 20, 10))
        assert not regions_intersect((0, 0, 10, 10), (0, 10, 10, 20))

    def test_empty_region_intersects_nothing(self):
        assert not regions_intersect((0, 0, 0, 0), (0, 0, 10, 10))
        assert not regions_intersect((5, 5, 5, 9), (0, 0, 10, 10))


class TestRegionScopedInvalidation:
    def test_untouched_entries_survive_intersecting_drop(self, tmp_path):
        disk = build_store(tmp_path)
        service = service_for(disk)
        model = LinearModel({"a": 1.0, "b": 0.5})
        q_left = TopKQuery(model=model, k=3, region=(0, 0, 256, 100))
        q_right = TopKQuery(model=model, k=3, region=(0, 150, 256, 256))
        service.top_k(q_left)
        service.top_k(q_right)
        assert service.top_k(q_left).strategy.endswith("-cached")
        assert service.top_k(q_right).strategy.endswith("-cached")

        rng = np.random.default_rng(7)
        disk.append_region(
            {"a": rng.standard_normal((50, 50))}, (100, 200, 150, 250)
        )

        # Left never intersected the dirty rectangle: still served from
        # cache. Right did: dropped and recomputed.
        assert service.top_k(q_left).strategy.endswith("-cached")
        recomputed = service.top_k(q_right)
        assert not recomputed.strategy.endswith("-cached")

        fresh = service_for(open_archive(tmp_path / "store"))
        expected = fresh.top_k(q_right)
        assert answers(recomputed) == answers(expected)
        assert (
            recomputed.counter.data_points == expected.counter.data_points
        )
        assert answers(service.top_k(q_left)) == answers(
            fresh.top_k(q_left)
        )

    def test_surviving_onion_index_is_restamped_not_rebuilt(self, tmp_path):
        disk = build_store(tmp_path)
        service = service_for(disk)
        model = LinearModel({"a": 1.0, "b": 0.5})
        region = (0, 0, 128, 100)
        service.top_k(
            TopKQuery(model=model, k=3, region=region), strategy="onion"
        )
        built = service.router.index_cache.peek(
            region, ("a", "b"), service._seen_generation
        )
        assert built is not None

        rng = np.random.default_rng(7)
        disk.append_region(
            {"b": rng.standard_normal((20, 20))}, (200, 200, 220, 220)
        )
        service.top_k(TopKQuery(model=model, k=3, region=region))
        survivor = service.router.index_cache.peek(
            region, ("a", "b"), service._seen_generation
        )
        assert survivor is built

    def test_intersecting_onion_index_is_dropped(self, tmp_path):
        disk = build_store(tmp_path)
        service = service_for(disk)
        model = LinearModel({"a": 1.0, "b": 0.5})
        region = (0, 0, 128, 100)
        service.top_k(
            TopKQuery(model=model, k=3, region=region), strategy="onion"
        )
        rng = np.random.default_rng(7)
        disk.append_region(
            {"a": rng.standard_normal((8, 8))}, (50, 50, 58, 58)
        )
        service.top_k(TopKQuery(model=model, k=3, region=region))
        assert (
            service.router.index_cache.peek(
                region, ("a", "b"), service._seen_generation
            )
            is None
        )

    def test_screen_refreshed_answers_stay_sound(self, tmp_path):
        # The mutation flips the region's extremes; stale screen
        # envelopes would prune the new optimum away.
        disk = build_store(tmp_path)
        service = service_for(disk)
        model = LinearModel({"a": 1.0})
        query = TopKQuery(model=model, k=1)
        service.top_k(query)
        disk.append_region(
            {"a": np.full((16, 16), 1e6)}, (64, 64, 80, 80)
        )
        top = service.top_k(query)
        assert top.answers[0].score == pytest.approx(1e6)
        assert 64 <= top.answers[0].row < 80

    def test_series_append_invalidates_nothing_spatial(self, tmp_path):
        disk = build_store(tmp_path)
        service = service_for(disk)
        model = LinearModel({"a": 1.0, "b": 0.5})
        query = TopKQuery(model=model, k=3, region=(0, 0, 256, 100))
        service.top_k(query)
        assert service.top_k(query).strategy.endswith("-cached")
        disk.append_days(
            "clock", np.array([5.0, 6.0]), {"tick": np.array([5.0, 6.0])}
        )
        assert service.top_k(query).strategy.endswith("-cached")

    def test_unscoped_add_still_fully_invalidates(self, tmp_path):
        disk = build_store(tmp_path)
        service = service_for(disk)
        model = LinearModel({"a": 1.0, "b": 0.5})
        query = TopKQuery(model=model, k=3, region=(0, 0, 256, 100))
        service.top_k(query)
        assert service.top_k(query).strategy.endswith("-cached")
        disk.add(RasterLayer("c", np.ones((4, 4))))
        assert not service.top_k(query).strategy.endswith("-cached")

    def test_log_overflow_falls_back_to_full_invalidation(self, tmp_path):
        rng = np.random.default_rng(3)
        source = Archive("tiny")
        source.add(RasterLayer("a", rng.standard_normal((64, 64))))
        source.add(RasterLayer("b", rng.standard_normal((64, 64))))
        ArchiveWriter.create(tmp_path / "store", source, screen_leaf_size=8)
        disk = open_archive(tmp_path / "store")
        service = service_for(disk)
        model = LinearModel({"a": 1.0, "b": 0.5})
        query = TopKQuery(model=model, k=3, region=(0, 0, 64, 8))
        service.top_k(query)
        assert service.top_k(query).strategy.endswith("-cached")

        # Push the bounded mutation log past capacity with appends that
        # never touch the cached region.
        for _ in range(300):
            disk.append_region(
                {"b": rng.standard_normal((4, 4))}, (60, 60, 64, 64)
            )
        assert disk.mutations_since(service._seen_generation) is None

        # The service cannot prove the cached region untouched, so the
        # entry must go — soundness over retention.
        assert not service.top_k(query).strategy.endswith("-cached")

    def test_log_overflow_re_derives_the_screen(self, tmp_path):
        """A service more than the log's length behind cannot replay the
        dirty rectangles, so full invalidation must also re-derive the
        screen: the last append puts the optimum where every envelope
        from before it says nothing good can be, and a screen still
        holding those envelopes prunes it away."""
        rng = np.random.default_rng(1)
        source = Archive("witness")
        source.add(RasterLayer("a", rng.standard_normal((128, 128))))
        source.add(RasterLayer("b", rng.standard_normal((128, 128))))
        ArchiveWriter.create(tmp_path / "store", source, screen_leaf_size=8)
        disk = open_archive(tmp_path / "store")
        service = RetrievalService.from_archive(
            disk, ["a", "b"], leaf_size=8, n_shards=1
        )
        query = TopKQuery(model=LinearModel({"a": 1, "b": 1}), k=5)
        service.top_k(query)
        region = (96, 96, 104, 104)
        for _ in range(299):
            block = rng.standard_normal((8, 8))
            disk.append_region({"a": block, "b": block}, region)
        block = rng.standard_normal((8, 8))
        block[4, 4] = 50.0
        disk.append_region({"a": block, "b": block}, region)
        assert disk.mutations_since(service._seen_generation) is None

        served = service.top_k(query)
        assert (served.answers[0].row, served.answers[0].col) == (100, 100)
        assert answers(served) == answers(
            service.engine.exhaustive_top_k(query)
        )


def fused_query(model, region=None, cell=(10, 10), alpha=0.5, k=3):
    return TopKQuery(
        model=model, k=k, region=region, similar_to=cell, alpha=alpha
    )


class TestEmbeddingStoreIntegration:
    def test_memmap_twin_embeds_bit_identically(self, tmp_path):
        """A disk-backed (memory-mapped) archive and its in-memory twin
        must produce the same embedding grid to the last bit — the
        term-order discipline crossing the mmap boundary."""
        disk = build_store(tmp_path, seed=1)
        rng = np.random.default_rng(1)
        twin_stack = RasterStack(
            {
                "a": RasterLayer("a", rng.standard_normal((256, 256))),
                "b": RasterLayer("b", rng.standard_normal((256, 256))),
            }
        )
        on_disk = service_for(disk).embeddings()
        in_memory = RetrievalService(
            twin_stack, leaf_size=16, n_shards=1
        ).embeddings()
        assert np.array_equal(on_disk.vectors, in_memory.vectors)
        assert on_disk.grid_shape == in_memory.grid_shape

    def test_embeddings_save_load_round_trip(self, tmp_path):
        disk = build_store(tmp_path, seed=2)
        service = service_for(disk)
        embeddings = service.embeddings()
        path = tmp_path / "tiles.npz"
        embeddings.save(path)
        reloaded = type(embeddings).load(
            path, service.engine.stack, service.engine.screen
        )
        assert np.array_equal(reloaded.vectors, embeddings.vectors)
        assert reloaded.generation == embeddings.generation
        assert reloaded.dim == embeddings.dim
        assert reloaded.embedder.seed == embeddings.embedder.seed

    def test_append_region_refreshes_only_dirty_tiles(self, tmp_path):
        """A region-scoped mutation restamps the surviving embedding
        grid in place: same object, surviving vectors untouched bitwise,
        only the dirty tile block re-embedded, generation current."""
        disk = build_store(tmp_path, seed=3)
        service = service_for(disk)
        embeddings = service.embeddings()
        n_tiles = embeddings.n_tiles
        assert embeddings.embedded_tiles == n_tiles
        before = embeddings.vectors.copy()

        rng = np.random.default_rng(7)
        disk.append_region(
            {"a": rng.standard_normal((32, 32))}, (64, 64, 96, 96)
        )
        refreshed = service.embeddings()
        assert refreshed is embeddings
        assert refreshed.generation == service._seen_generation
        # leaf_size=16: rows 64..96 and cols 64..96 are a 2x2 tile block.
        assert refreshed.embedded_tiles == n_tiles + 4
        changed = ~np.all(refreshed.vectors == before, axis=-1)
        i0 = 64 // 16
        assert changed[:i0, :].sum() == 0 and changed[i0 + 2:, :].sum() == 0
        assert changed[:, :i0].sum() == 0 and changed[:, i0 + 2:].sum() == 0

        # And the refreshed grid equals what a cold service would build.
        fresh = service_for(open_archive(tmp_path / "store")).embeddings()
        assert np.array_equal(refreshed.vectors, fresh.vectors)

    def test_fused_answers_track_mutations(self, tmp_path):
        disk = build_store(tmp_path, seed=4)
        service = service_for(disk)
        model = LinearModel({"a": 1.0, "b": 0.5})
        query = fused_query(model, cell=(70, 70))
        stale = service.top_k(query)
        assert service.top_k(query).strategy.endswith("-cached")

        rng = np.random.default_rng(9)
        disk.append_region(
            {"a": rng.standard_normal((32, 32))}, (64, 64, 96, 96)
        )
        # The mutation dirtied the example tile: the cached fused answer
        # must go, and the recomputation must match a cold service.
        recomputed = service.top_k(query)
        assert not recomputed.strategy.endswith("-cached")
        fresh = service_for(open_archive(tmp_path / "store"))
        assert answers(recomputed) == answers(fresh.top_k(query))
        assert answers(recomputed) != answers(stale) or np.array_equal(
            service.embeddings().vectors, fresh.embeddings().vectors
        )

    def test_fused_cache_entry_scopes_to_example_tile(self, tmp_path):
        """A fused entry's cache region covers the example tile too: a
        mutation touching only that tile (not the query region) still
        drops the entry."""
        disk = build_store(tmp_path, seed=5)
        service = service_for(disk)
        model = LinearModel({"a": 1.0, "b": 0.5})
        query = fused_query(
            model, region=(0, 0, 64, 64), cell=(200, 200)
        )
        service.top_k(query)
        assert service.top_k(query).strategy.endswith("-cached")
        rng = np.random.default_rng(11)
        disk.append_region(
            {"b": rng.standard_normal((8, 8))}, (196, 196, 204, 204)
        )
        assert not service.top_k(query).strategy.endswith("-cached")

    def test_unscoped_add_drops_embeddings_entirely(self, tmp_path):
        disk = build_store(tmp_path, seed=6)
        service = service_for(disk)
        first = service.embeddings()
        disk.add(RasterLayer("c", np.ones((4, 4))))
        model = LinearModel({"a": 1.0})
        service.top_k(TopKQuery(model=model, k=1))
        assert service.embeddings() is not first
