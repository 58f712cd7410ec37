"""Tests for the sharded, cached retrieval service.

The service's contract is the engine's contract, concurrently: the
merged answer set must be *identical* to the single-engine answer at
every shard count — including on archives engineered to have score ties
at the K boundary, where the shared smallest-``(row, col)`` tie-break
is what keeps the four strategies and every shard count in agreement.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import RasterRetrievalEngine, TopKHeap
from repro.core.query import TopKQuery
from repro.data.archive import Archive
from repro.data.raster import RasterLayer, RasterStack
from repro.exceptions import PlanError, QueryError
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel, hps_risk_model
from repro.service import (
    QueryCache,
    RetrievalService,
    SharedTopKHeap,
    model_fingerprint,
    query_fingerprint,
    row_band_shards,
)


class TestCrossStrategyTieAgreement:
    """All four strategies and the sharded service return identical
    answers on tie-heavy archives (the satellite bugfix's contract)."""

    @given(
        rows=st.integers(4, 24),
        cols=st.integers(4, 24),
        n_layers=st.integers(1, 3),
        seed=st.integers(0, 1000),
        k=st.integers(1, 30),
        maximize=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_strategies_and_shards_agree_on_ties(
        self, rows, cols, n_layers, seed, k, maximize,
        make_tie_stack, answer_list,
    ):
        stack = make_tie_stack(rows, cols, n_layers, seed)
        rng = np.random.default_rng(seed + 1)
        coefficients = {
            name: float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
            for name in stack.names
        }
        model = LinearModel(coefficients, intercept=1.0)
        engine = RasterRetrievalEngine(stack, leaf_size=4)
        query = TopKQuery(model=model, k=k, maximize=maximize)

        expected = answer_list(engine.exhaustive_top_k(query))
        for use_tiles in (True, False):
            for use_levels in (True, False):
                result = engine.progressive_top_k(
                    query, use_tiles=use_tiles, use_model_levels=use_levels
                )
                assert answer_list(result) == expected, (
                    f"strategy ({use_tiles=}, {use_levels=}) diverged"
                )

        service = RetrievalService(stack, leaf_size=4, cache_size=0)
        for n_shards in (1, 2, 4):
            sharded = service.top_k(query, n_shards=n_shards)
            assert answer_list(sharded) == expected, (
                f"service at {n_shards} shards diverged"
            )

    def test_constant_layer_boundary_tie(self):
        """Every cell ties; the answer must be the k smallest (row, col)
        cells for every strategy and every shard count."""
        stack = RasterStack()
        stack.add(RasterLayer("a", np.full((8, 8), 3.0)))
        engine = RasterRetrievalEngine(stack, leaf_size=4)
        query = TopKQuery(model=LinearModel({"a": 1.0}), k=5)
        expected = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]

        assert engine.exhaustive_top_k(query).locations == expected
        for use_tiles in (True, False):
            for use_levels in (True, False):
                result = engine.progressive_top_k(
                    query, use_tiles=use_tiles, use_model_levels=use_levels
                )
                assert result.locations == expected

        service = RetrievalService(stack, leaf_size=4, cache_size=0)
        for n_shards in (1, 2, 4):
            assert service.top_k(query, n_shards=n_shards).locations == expected

    def test_minimize_direction_ties(self, make_tie_stack, answer_list):
        stack = make_tie_stack(12, 12, 2, seed=7)
        model = LinearModel({"layer0": -1.0, "layer1": 2.0})
        engine = RasterRetrievalEngine(stack, leaf_size=4)
        service = RetrievalService(stack, leaf_size=4, cache_size=0)
        query = TopKQuery(model=model, k=9, maximize=False)
        expected = answer_list(engine.exhaustive_top_k(query))
        assert answer_list(engine.progressive_top_k(query)) == expected
        for n_shards in (2, 4):
            assert answer_list(service.top_k(query, n_shards=n_shards)) == expected


class TestServiceExecution:
    @pytest.fixture(scope="class")
    def scene(self):
        from repro.synth.landsat import generate_scene
        from repro.synth.terrain import generate_dem

        dem = generate_dem((96, 96), seed=31)
        stack = generate_scene((96, 96), seed=32, terrain=dem)
        stack.add(dem)
        return stack

    def test_matches_engine_on_real_scene(self, scene, answer_list):
        service = RetrievalService(scene, leaf_size=8, cache_size=0)
        query = TopKQuery(model=hps_risk_model(), k=12)
        expected = answer_list(service.engine.progressive_top_k(query))
        for n_shards in (1, 2, 4, 7):
            assert answer_list(service.top_k(query, n_shards=n_shards)) == expected

    def test_region_restricted_sharded_query(self, scene, answer_list):
        service = RetrievalService(scene, leaf_size=8, cache_size=0)
        query = TopKQuery(
            model=hps_risk_model(), k=6, region=(10, 15, 70, 60)
        )
        expected = answer_list(service.engine.progressive_top_k(query))
        result = service.top_k(query, n_shards=4)
        assert answer_list(result) == expected
        for row, col in result.locations:
            assert 10 <= row < 70 and 15 <= col < 60

    def test_merged_counter_and_audit(self, scene):
        service = RetrievalService(scene, leaf_size=8, cache_size=0)
        query = TopKQuery(model=hps_risk_model(), k=10)
        result = service.top_k(query, n_shards=4)
        assert result.counter.notes["shards"] == 4
        assert result.counter.total_work > 0
        assert result.counter.wall_seconds > 0
        assert result.audit.tiles_screened > 0
        # The service scores leaves densely, and the label names what ran.
        assert result.strategy == "data-progressive-sharded[4]"

    def test_data_progressive_knob(self, scene, answer_list):
        service = RetrievalService(scene, leaf_size=8, cache_size=0)
        query = TopKQuery(model=hps_risk_model(), k=5)
        expected = answer_list(
            service.engine.progressive_top_k(query, use_model_levels=False)
        )
        result = service.top_k(query, n_shards=3)
        assert answer_list(result) == expected
        assert result.strategy == "data-progressive-sharded[3]"

    def test_invalid_arguments(self, scene):
        with pytest.raises(QueryError):
            RetrievalService(scene, n_shards=0)
        service = RetrievalService(scene, cache_size=0)
        query = TopKQuery(model=hps_risk_model(), k=3)
        with pytest.raises(QueryError):
            service.top_k(query, n_shards=0)
        with pytest.raises(QueryError):
            service.top_k(query, pruning="magic")

    @pytest.mark.parametrize(
        "strategy", ["quadtree", "auto", "onion", "scan", "fused", "embed-scan"]
    )
    @pytest.mark.parametrize("knob", [{"pruning": "magic"}, {"n_shards": 0}])
    def test_invalid_knobs_are_rejected_at_the_door(
        self, scene, strategy, knob
    ):
        """Every strategy rejects a bad knob, and rejects it before the
        stats, the cache or the router have seen the query — the same
        invalid call must not be an error or an answer depending on
        what ``auto`` would have picked."""
        registry = MetricsRegistry()
        service = RetrievalService(scene, leaf_size=8, registry=registry)
        fused = strategy in ("fused", "embed-scan")
        query = TopKQuery(
            model=hps_risk_model(), k=3,
            similar_to=(5, 5) if fused else None, alpha=0.5 if fused else 1.0,
        )
        before = (dataclasses.replace(service.stats), registry.snapshot())
        with pytest.raises(QueryError):
            service.top_k(query, strategy=strategy, **knob)
        with pytest.raises(QueryError):
            service.top_k_batch([query, query], **knob)
        assert (service.stats, registry.snapshot()) == before
        assert len(service.cache) == 0


class TestQueryCache:
    def _service(self, make_tie_stack, **kwargs):
        stack = make_tie_stack(16, 16, 2, seed=3)
        return RetrievalService(stack, leaf_size=4, **kwargs)

    def _query(self, k=5):
        return TopKQuery(model=LinearModel({"layer0": 2.0, "layer1": 1.0}), k=k)

    def test_cache_hit_returns_same_answers(
        self, make_tie_stack, answer_list
    ):
        service = self._service(make_tie_stack, cache_size=8)
        cold = service.top_k(self._query())
        warm = service.top_k(self._query())
        assert service.stats.cache_hits == 1
        assert service.stats.cache_misses == 1
        assert warm.strategy == cold.strategy + "-cached"
        assert answer_list(warm) == answer_list(cold)

    def test_cache_miss_on_different_question(self, make_tie_stack):
        service = self._service(make_tie_stack, cache_size=8)
        service.top_k(self._query(k=5))
        service.top_k(self._query(k=6))
        service.top_k(self._query(k=5), pruning="heuristic")
        service.top_k(
            TopKQuery(
                model=LinearModel({"layer0": 2.0, "layer1": 1.0}),
                k=5,
                maximize=False,
            )
        )
        assert service.stats.cache_hits == 0
        assert service.stats.cache_misses == 4

    def test_equal_models_share_entries(self, make_tie_stack):
        """Linear models fingerprint by value, not identity."""
        service = self._service(make_tie_stack, cache_size=8)
        service.top_k(self._query())
        service.top_k(self._query())  # new but equal model instance
        assert service.stats.cache_hits == 1

    def test_clipped_region_normalizes_key(self, make_tie_stack):
        """region=None and the explicit whole-grid region hit one entry."""
        service = self._service(make_tie_stack, cache_size=8)
        model = LinearModel({"layer0": 2.0, "layer1": 1.0})
        service.top_k(TopKQuery(model=model, k=5))
        service.top_k(TopKQuery(model=model, k=5, region=(0, 0, 16, 16)))
        assert service.stats.cache_hits == 1

    def test_use_cache_false_bypasses(self, make_tie_stack):
        service = self._service(make_tie_stack, cache_size=8)
        service.top_k(self._query(), use_cache=False)
        service.top_k(self._query(), use_cache=False)
        assert service.stats.cache_hits == 0
        assert len(service.cache) == 0

    def test_cache_disabled(self, make_tie_stack):
        service = self._service(make_tie_stack, cache_size=0)
        assert service.cache is None
        result = service.top_k(self._query())
        assert len(result) == 5

    def test_invalidation_after_archive_layer_change(self, answer_list):
        rng = np.random.default_rng(9)
        archive = Archive("study")
        for name in ("a", "b"):
            archive.add(
                RasterLayer(name, rng.integers(0, 4, (16, 16)).astype(float))
            )
        service = RetrievalService.from_archive(
            archive, ["a", "b"], leaf_size=4, cache_size=8
        )
        query = TopKQuery(model=LinearModel({"a": 1.0, "b": 1.0}), k=4)
        cold = service.top_k(query)
        assert service.top_k(query).strategy.endswith("-cached")

        archive.add(
            RasterLayer("c", rng.integers(0, 4, (16, 16)).astype(float))
        )
        after = service.top_k(query)
        assert not after.strategy.endswith("-cached")
        assert service.stats.invalidations == 1
        assert answer_list(after) == answer_list(cold)

    def test_explicit_invalidate(self, make_tie_stack):
        service = self._service(make_tie_stack, cache_size=8)
        service.top_k(self._query())
        service.invalidate()
        service.top_k(self._query())
        assert service.stats.cache_hits == 0
        assert service.stats.invalidations == 1

    def test_lru_eviction_order(self):
        cache = QueryCache(maxsize=2)
        sentinel = object()
        cache.put("a", sentinel)
        cache.put("b", sentinel)
        assert cache.get("a") is sentinel  # refresh "a"
        cache.put("c", sentinel)  # evicts "b", the LRU entry
        assert "a" in cache and "c" in cache and "b" not in cache
        with pytest.raises(ValueError):
            QueryCache(maxsize=0)

    def test_fingerprints(self):
        model_a = LinearModel({"x": 1.0, "y": 2.0}, intercept=3.0)
        model_b = LinearModel({"y": 2.0, "x": 1.0}, intercept=3.0)
        assert model_fingerprint(model_a) == model_fingerprint(model_b)
        query_a = TopKQuery(model=model_a, k=5)
        query_b = TopKQuery(model=model_b, k=5)
        assert query_fingerprint(query_a, (0, 0, 4, 4), p=1) == query_fingerprint(
            query_b, (0, 0, 4, 4), p=1
        )
        assert query_fingerprint(query_a, (0, 0, 4, 4)) != query_fingerprint(
            TopKQuery(model=model_a, k=6), (0, 0, 4, 4)
        )


class TestSharding:
    def test_row_bands_partition_exactly(self):
        region = (3, 2, 20, 11)
        for n_shards in (1, 2, 3, 5, 16, 17, 100):
            bands = row_band_shards(region, n_shards)
            assert len(bands) == min(n_shards, 17)
            assert bands[0][0] == 3 and bands[-1][2] == 20
            heights = []
            for index, (row0, col0, row1, col1) in enumerate(bands):
                assert (col0, col1) == (2, 11)
                assert row0 < row1
                heights.append(row1 - row0)
                if index:
                    assert row0 == bands[index - 1][2]  # contiguous, disjoint
            assert sum(heights) == 17
            assert max(heights) - min(heights) <= 1

    def test_invalid_shard_requests(self):
        with pytest.raises(QueryError):
            row_band_shards((0, 0, 4, 4), 0)
        with pytest.raises(QueryError):
            row_band_shards((4, 0, 4, 4), 2)

    def test_region_roots_cover_region_disjointly(self, make_tie_stack):
        stack = make_tie_stack(24, 24, 1, seed=5)
        engine = RasterRetrievalEngine(stack, leaf_size=4)
        region = (5, 3, 17, 22)
        roots = engine.screen.region_root_ids(region)
        covered = np.zeros((24, 24), dtype=int)
        for node in roots:
            row0, col0, row1, col1 = engine.screen.window[node].tolist()
            assert row0 < region[2] and col0 < region[3]  # intersects
            assert row1 > region[0] and col1 > region[1]
            covered[row0:row1, col0:col1] += 1
        assert covered.max() == 1, "region roots must be pairwise disjoint"
        assert (covered[region[0]:region[2], region[1]:region[3]] == 1).all()

    def test_region_roots_rejects_empty(self, make_tie_stack):
        stack = make_tie_stack(8, 8, 1, seed=5)
        engine = RasterRetrievalEngine(stack, leaf_size=4)
        with pytest.raises(PlanError):
            engine.screen.region_root_ids((30, 30, 40, 40))


class TestSharedTopKHeap:
    def test_concurrent_offers_match_sequential(self):
        rng = np.random.default_rng(17)
        cells = [(int(r), int(c)) for r, c in rng.integers(0, 40, (2000, 2))]
        scores = [float(s) for s in rng.integers(0, 25, 2000)]  # many ties

        sequential = TopKHeap(10)
        for score, cell in zip(scores, cells):
            sequential.offer(score, cell)

        shared = SharedTopKHeap(10)
        chunks = np.array_split(np.arange(2000), 4)
        threads = [
            threading.Thread(
                target=lambda idx=chunk: [
                    shared.offer(scores[i], cells[i]) for i in idx
                ]
            )
            for chunk in chunks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shared.ranked() == sequential.ranked()

    def test_tie_break_prefers_smaller_cell(self):
        heap = TopKHeap(2)
        heap.offer(1.0, (5, 5))
        heap.offer(1.0, (3, 3))
        heap.offer(1.0, (0, 0))  # evicts (5, 5), the largest tied cell
        assert heap.ranked() == [(1.0, (0, 0)), (1.0, (3, 3))]
        heap.offer(1.0, (4, 4))  # larger than both kept cells: rejected
        assert heap.ranked() == [(1.0, (0, 0)), (1.0, (3, 3))]


class TestHeuristicEnvelopeSoundnessAtFullMargin:
    def test_margin_one_recovers_sound_envelopes(self):
        """The satellite bugfix: margin=1 must equal (min, max) exactly,
        even on skewed data where the node mean is far from the envelope
        midpoint."""
        rng = np.random.default_rng(23)
        values = rng.exponential(scale=5.0, size=(32, 32))  # heavy skew
        stack = RasterStack()
        stack.add(RasterLayer("skewed", values))
        engine = RasterRetrievalEngine(stack, leaf_size=4)
        screen = engine.screen

        nodes = np.zeros(1, dtype=np.intp)
        while nodes.size:
            sound = screen.envelope_block(nodes)
            pseudo = screen.envelope_block(nodes, margin=1.0)
            for name in sound[0]:
                assert pseudo[0][name] == pytest.approx(sound[0][name])
                assert pseudo[1][name] == pytest.approx(sound[1][name])
            nodes = screen.child[nodes].reshape(-1)
            nodes = nodes[nodes >= 0]

    def test_full_margin_heuristic_is_exact(
        self, make_tie_stack, answer_list
    ):
        """With centering fixed, margin=1 heuristic pruning returns the
        exact answer set (it was only 'mostly right' before)."""
        stack = make_tie_stack(20, 20, 2, seed=13)
        engine = RasterRetrievalEngine(stack, leaf_size=4)
        query = TopKQuery(
            model=LinearModel({"layer0": 3.0, "layer1": -1.0}), k=8
        )
        expected = answer_list(engine.exhaustive_top_k(query))
        result = engine.progressive_top_k(
            query, pruning="heuristic", heuristic_margin=1.0
        )
        assert answer_list(result) == expected
