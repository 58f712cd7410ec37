"""Regression and stress tests for the hardened serving layer.

Covers the four concurrency/cache bug fixes (each test fails on the
pre-hardening code), the deadline/cancellation path (partial results
are a prefix-sound top-K), the shared-heap block-offer stress, and the
per-query trace / metrics registry contracts.
"""

from __future__ import annotations

import gc
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import TopKHeap
from repro.core.query import TopKQuery
from repro.exceptions import ModelError, QueryError
from repro.metrics.registry import LatencyHistogram, MetricsRegistry
from repro.models.base import Model
from repro.models.linear import LinearModel
from repro.service import (
    CancellationToken,
    QueryCache,
    RetrievalService,
    SharedTopKHeap,
    model_fingerprint,
)
from repro.service.retrieval import ScoredLocation


class _OpaqueModel(Model):
    """A minimal non-linear model: fingerprints by instance identity."""

    def __init__(self, shift: float = 0.0) -> None:
        self.shift = shift

    @property
    def attributes(self) -> tuple[str, ...]:
        return ("layer0",)

    @property
    def complexity(self) -> int:
        return 2

    def evaluate(self, attributes) -> float:
        return float(attributes["layer0"]) + self.shift


class TestServiceStatsThreadSafety:
    """Bugfix 1: stats mutations race without the service lock."""

    def test_threaded_hammer_keeps_exact_tallies(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(8, 8, 2, seed=1)
        service = RetrievalService(
            stack, leaf_size=4, n_shards=4, cache_size=8,
            registry=MetricsRegistry(),
        )
        query = TopKQuery(model=make_random_linear_model(stack), k=3)
        service.top_k(query)  # warm the cache: hammer queries all hit

        n_threads, per_thread = 8, 400
        barrier = threading.Barrier(n_threads)

        def hammer() -> None:
            barrier.wait()
            for _ in range(per_thread):
                service.top_k(query)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # provoke preemption mid-increment
        try:
            threads = [
                threading.Thread(target=hammer) for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)

        expected = 1 + n_threads * per_thread
        assert service.stats.queries == expected
        assert (
            service.stats.cache_hits + service.stats.cache_misses == expected
        )
        assert service.stats.cache_misses == 1


class TestModelFingerprintTokens:
    """Bugfix 2: id(model) recycles after GC and falsely hits the cache."""

    def test_fingerprints_never_recycle_after_gc(self):
        seen = set()
        for _ in range(100):
            model = _OpaqueModel()
            fingerprint = model_fingerprint(model)
            # Pre-fix, the reallocated model frequently lands on the
            # id() of a collected predecessor and repeats a fingerprint.
            assert fingerprint not in seen
            seen.add(fingerprint)
            del model
            gc.collect()

    def test_same_instance_fingerprint_is_stable(self):
        model = _OpaqueModel()
        assert model_fingerprint(model) == model_fingerprint(model)

    def test_distinct_live_instances_differ(self):
        first, second = _OpaqueModel(), _OpaqueModel()
        assert model_fingerprint(first) != model_fingerprint(second)

    def test_dropped_models_entries_are_unreachable(self):
        """A new model can never hit a dead model's cache entry, even
        when the allocator hands it the same address."""
        cache = QueryCache(maxsize=8)
        sentinel = object()
        survivors = 0
        for _ in range(50):
            stale = _OpaqueModel(shift=1.0)
            cache.put(model_fingerprint(stale), sentinel)
            del stale
            gc.collect()
            fresh = _OpaqueModel(shift=2.0)  # different answers!
            if model_fingerprint(fresh) in cache:
                survivors += 1
        assert survivors == 0

    def test_linear_models_still_share_by_value(self):
        a = LinearModel({"x": 1.0}, intercept=2.0)
        b = LinearModel({"x": 1.0}, intercept=2.0)
        assert model_fingerprint(a) == model_fingerprint(b)


class TestNonFiniteModels:
    def test_a_nan_term_is_an_error_not_an_empty_answer(
        self, make_noise_stack
    ):
        """No third outcome: the in-process API used to answer a
        NaN-coefficient query with ``[]`` on every strategy. The wire
        refuses such a model in ``decode_query``; in process the model
        itself refuses, so no strategy is ever asked."""
        service = RetrievalService(
            make_noise_stack(16, 16, 2, seed=3), leaf_size=4,
            registry=MetricsRegistry(),
        )
        with pytest.raises(ModelError, match="finite"):
            service.top_k(
                TopKQuery(
                    model=LinearModel({"layer0": 1.0, "layer1": np.nan}), k=3
                )
            )
        assert service.stats.queries == 0


class TestCacheHitIsolation:
    """Bugfix 3: hits shared the stored entry's mutable state."""

    def _service(self, make_noise_stack, make_random_linear_model):
        stack = make_noise_stack(16, 16, 2, seed=3)
        service = RetrievalService(
            stack, leaf_size=4, cache_size=8, registry=MetricsRegistry()
        )
        return service, TopKQuery(
            model=make_random_linear_model(stack, seed=4), k=5
        )

    def test_mutating_a_hit_leaves_the_next_hit_pristine(
        self, make_noise_stack, make_random_linear_model, answer_list
    ):
        service, query = self._service(
            make_noise_stack, make_random_linear_model
        )
        cold = service.top_k(query)
        reference = answer_list(cold)

        victim = service.top_k(query)
        assert victim.strategy.endswith("-cached")
        victim.answers.append(ScoredLocation(row=0, col=0, score=1e9))
        victim.answers.extend(victim.answers)
        victim.counter.note("poison", 1.0)
        victim.counter.data_points += 123456
        victim.audit.tiles_screened += 999
        victim.audit.cells_entered_level[1] = -1

        pristine = service.top_k(query)
        assert answer_list(pristine) == reference
        assert "poison" not in pristine.counter.notes
        assert pristine.counter.data_points == cold.counter.data_points
        assert pristine.audit.tiles_screened == cold.audit.tiles_screened
        assert (
            pristine.audit.cells_entered_level
            == cold.audit.cells_entered_level
        )

    def test_mutating_the_cold_result_cannot_corrupt_the_store(
        self, make_noise_stack, make_random_linear_model, answer_list
    ):
        service, query = self._service(
            make_noise_stack, make_random_linear_model
        )
        cold = service.top_k(query)
        reference = answer_list(cold)
        cold.answers.clear()
        cold.counter.flops += 10**9
        hit = service.top_k(query)
        assert answer_list(hit) == reference
        assert hit.counter.flops != cold.counter.flops


class TestCacheLockingAndInvalidate:
    """Bugfix 4: unlocked __len__/__contains__ and the phantom
    invalidation tally when caching is disabled."""

    def test_invalidate_without_cache_counts_nothing(
        self, make_noise_stack
    ):
        stack = make_noise_stack(8, 8, 1, seed=5)
        service = RetrievalService(
            stack, leaf_size=4, cache_size=0, registry=MetricsRegistry()
        )
        service.invalidate()
        service.invalidate()
        assert service.stats.invalidations == 0

    def test_invalidate_with_cache_counts(self, make_noise_stack):
        stack = make_noise_stack(8, 8, 1, seed=5)
        service = RetrievalService(
            stack, leaf_size=4, cache_size=4, registry=MetricsRegistry()
        )
        service.invalidate()
        assert service.stats.invalidations == 1

    def test_len_and_contains_agree_under_concurrent_churn(self):
        cache = QueryCache(maxsize=32)
        stop = threading.Event()

        def churn() -> None:
            index = 0
            while not stop.is_set():
                cache.put(index % 64, index)
                index += 1

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(2000):
                assert 0 <= len(cache) <= 32
                (17 in cache)  # must never raise mid-mutation
        finally:
            stop.set()
            thread.join()


class TestDeadlineAndCancellation:
    @pytest.fixture(scope="class")
    def setup(self, make_noise_stack, make_random_linear_model):
        stack = make_noise_stack(256, 256, 3, seed=11)
        service = RetrievalService(
            stack, leaf_size=8, n_shards=4, cache_size=8,
            registry=MetricsRegistry(),
        )
        query = TopKQuery(
            model=make_random_linear_model(stack, seed=12), k=25
        )
        return stack, service, query

    def test_precancelled_token_returns_immediately(self, setup):
        _, service, query = setup
        token = CancellationToken()
        token.cancel()
        start = time.perf_counter()
        result = service.top_k(query, use_cache=False, cancel=token)
        elapsed = time.perf_counter() - start
        assert result.complete is False
        assert result.strategy.endswith("-partial")
        assert elapsed < 1.0
        assert token.reason == "cancelled"

    def test_deadline_yields_prompt_prefix_sound_partial(self, setup):
        stack, service, query = setup
        start = time.perf_counter()
        cold = service.top_k(query, use_cache=False)
        cold_seconds = time.perf_counter() - start
        assert cold.complete

        deadline = max(cold_seconds / 8, 0.002)
        start = time.perf_counter()
        partial = service.top_k(
            query, use_cache=False, deadline_s=deadline
        )
        elapsed = time.perf_counter() - start
        if partial.complete:
            pytest.skip("machine too fast to truncate this query")
        # Prompt: loop-check granularity, with slack for slow CI hosts.
        assert elapsed < 2 * deadline + 0.25
        assert partial.strategy.endswith("-partial")
        assert len(partial.answers) <= query.k
        # Prefix soundness: every returned score is the exact model
        # score of its cell, deadline or not.
        model = query.model
        for answer in partial.answers:
            exact = model.evaluate(
                {
                    name: float(stack[name].values[answer.row, answer.col])
                    for name in model.attributes
                }
            )
            assert answer.score == pytest.approx(exact, abs=1e-9)
        assert partial.trace is not None
        assert partial.trace.cancel_reason == "deadline"

    def test_no_deadline_is_identical_to_engine(self, setup, answer_list):
        _, service, query = setup
        result = service.top_k(query, use_cache=False)
        # Against the engine run with the plan the service runs: dense
        # leaves.
        expected = answer_list(
            service.engine.progressive_top_k(query, use_model_levels=False)
        )
        assert result.complete is True
        assert result.strategy == "data-progressive-sharded[4]"
        assert answer_list(result) == expected

    def test_partial_results_are_never_cached(self, setup, answer_list):
        _, service, query = setup
        token = CancellationToken()
        token.cancel()
        partial = service.top_k(query, cancel=token)
        assert partial.complete is False
        after = service.top_k(query)
        assert after.complete is True
        assert not after.strategy.endswith("-cached")
        assert answer_list(after) == answer_list(
            service.engine.progressive_top_k(query)
        )

    def test_nonpositive_deadline_rejected(self, setup):
        _, service, query = setup
        with pytest.raises(QueryError):
            service.top_k(query, deadline_s=0.0)
        with pytest.raises(QueryError):
            service.top_k(query, deadline_s=-1.0)

    def test_engine_level_cancellation(self, setup):
        stack, service, query = setup
        token = CancellationToken()
        token.cancel("load-shed")
        result = service.engine.progressive_top_k(query, cancel=token)
        assert result.complete is False
        assert result.strategy == "both-partial"
        assert token.reason == "load-shed"

    def test_token_deadline_and_parent_chain(self):
        parent = CancellationToken()
        child = CancellationToken(deadline_s=60.0, parent=parent)
        assert not child.cancelled
        assert child.remaining_s is not None and child.remaining_s > 50
        parent.cancel()
        assert child.cancelled
        assert child.reason == "cancelled"
        with pytest.raises(ValueError):
            CancellationToken(deadline_s=0.0)
        expired = CancellationToken(deadline_s=1e-9)
        time.sleep(0.002)
        assert expired.cancelled
        assert expired.reason == "deadline"
        assert expired.remaining_s == 0.0


class TestSharedHeapOfferBlockStress:
    def test_concurrent_block_offers_match_sequential(self):
        rng = np.random.default_rng(29)
        n_blocks, block_size = 40, 64
        blocks = [
            (
                rng.integers(0, 30, block_size).astype(float),
                rng.integers(0, 50, block_size),
                rng.integers(0, 50, block_size),
            )
            for _ in range(n_blocks)
        ]

        sequential = TopKHeap(12)
        for scores, rows, cols in blocks:
            sequential.offer_block(scores, rows, cols)

        shared = SharedTopKHeap(12)
        barrier = threading.Barrier(4)

        def worker(assigned) -> None:
            barrier.wait()
            for scores, rows, cols in assigned:
                shared.offer_block(scores, rows, cols)

        threads = [
            threading.Thread(target=worker, args=(blocks[i::4],))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shared.ranked() == sequential.ranked()

    def test_mixed_scalar_and_block_offers_under_threads(self):
        rng = np.random.default_rng(31)
        scores = rng.integers(0, 20, 1200).astype(float)
        rows = rng.integers(0, 64, 1200)
        cols = rng.integers(0, 64, 1200)

        sequential = TopKHeap(8)
        for i in range(1200):
            sequential.offer(scores[i], (int(rows[i]), int(cols[i])))

        shared = SharedTopKHeap(8)

        def scalar_worker(indices) -> None:
            for i in indices:
                shared.offer(scores[i], (int(rows[i]), int(cols[i])))

        def block_worker(indices) -> None:
            shared.offer_block(scores[indices], rows[indices], cols[indices])

        chunks = np.array_split(np.arange(1200), 6)
        threads = [
            threading.Thread(
                target=scalar_worker if i % 2 else block_worker,
                args=(chunk,),
            )
            for i, chunk in enumerate(chunks)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shared.ranked() == sequential.ranked()


class TestQueryTracing:
    def _service(self, make_noise_stack, make_random_linear_model):
        stack = make_noise_stack(48, 48, 2, seed=41)
        service = RetrievalService(
            stack, leaf_size=8, n_shards=3, cache_size=8,
            registry=MetricsRegistry(),
        )
        return service, TopKQuery(
            model=make_random_linear_model(stack, seed=42), k=6
        )

    def test_cold_query_trace_structure(
        self, make_noise_stack, make_random_linear_model
    ):
        service, query = self._service(
            make_noise_stack, make_random_linear_model
        )
        result = service.top_k(query)
        trace = result.trace
        assert trace is not None and not trace.cache_hit
        stages = trace.stage_seconds()
        for stage in ("cache_lookup", "plan", "search", "merge", "cache_store"):
            assert stage in stages and stages[stage] >= 0.0
        assert len(trace.shards) == 3
        for shard in trace.shards:
            assert shard["complete"] is True
            assert shard["tiles_screened"] >= 0
            assert shard["wall_seconds"] >= 0.0
        exported = trace.as_dict()
        assert exported["complete"] is True
        assert len(exported["spans"]) == len(trace.spans)

    def test_cache_hit_trace(
        self, make_noise_stack, make_random_linear_model
    ):
        service, query = self._service(
            make_noise_stack, make_random_linear_model
        )
        service.top_k(query)
        hit = service.top_k(query)
        trace = hit.trace
        assert trace.cache_hit and trace.cache_checked
        assert trace.shards == []
        assert set(trace.stage_seconds()) == {"cache_lookup"}

    def test_tracing_does_not_change_counters(
        self, make_noise_stack, make_random_linear_model
    ):
        service, query = self._service(
            make_noise_stack, make_random_linear_model
        )
        service_result = service.top_k(query, n_shards=1, use_cache=False)
        # The service scores leaves densely; so does this engine run.
        engine_result = service.engine.progressive_top_k(
            query, use_model_levels=False
        )
        for field in ("data_points", "model_evals", "partial_evals", "flops"):
            assert getattr(service_result.counter, field) == getattr(
                engine_result.counter, field
            ), f"{field} diverged with tracing enabled"

    @given(
        k=st.integers(1, 12),
        n_shards=st.integers(1, 5),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=15, deadline=None)
    def test_stage_times_sum_to_wall_seconds(
        self, k, n_shards, seed, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(24, 24, 2, seed=seed)
        service = RetrievalService(
            stack, leaf_size=4, cache_size=4, registry=MetricsRegistry()
        )
        query = TopKQuery(
            model=make_random_linear_model(stack, seed=seed + 1), k=k
        )
        result = service.top_k(query, n_shards=n_shards)
        trace = result.trace
        total_staged = sum(trace.stage_seconds().values())
        # Sequential spans tile the query: they can never exceed the
        # wall time, and the uninstrumented glue between them is tiny.
        assert total_staged <= trace.wall_seconds + 1e-6
        gap = trace.wall_seconds - total_staged
        assert gap <= max(0.02, 0.5 * trace.wall_seconds)


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("queries")
        registry.inc("queries", 2)
        registry.gauge("hit_rate", 0.5)
        for value in (0.001, 0.002, 0.004, 0.5):
            registry.observe("latency", value)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["queries"] == 3
        assert snapshot["gauges"]["hit_rate"] == 0.5
        histogram = snapshot["histograms"]["latency"]
        assert histogram["count"] == 4
        assert histogram["sum"] == pytest.approx(0.507)
        assert histogram["min"] == pytest.approx(0.001)
        assert histogram["max"] == pytest.approx(0.5)
        assert histogram["p50"] <= histogram["p90"] <= histogram["p99"]
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_histogram_quantiles(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0  # empty
        for value in np.linspace(0.001, 1.0, 200):
            histogram.observe(float(value))
        assert histogram.quantile(0.0) <= histogram.quantile(1.0)
        assert histogram.quantile(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            LatencyHistogram(buckets_s=())

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()

        def worker() -> None:
            for _ in range(2000):
                registry.inc("hits")
                registry.observe("lat", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("hits") == 12000
        assert registry.snapshot()["histograms"]["lat"]["count"] == 12000

    def test_service_populates_registry(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(24, 24, 2, seed=51)
        registry = MetricsRegistry()
        service = RetrievalService(
            stack, leaf_size=4, cache_size=8, registry=registry
        )
        query = TopKQuery(
            model=make_random_linear_model(stack, seed=52), k=4
        )
        service.top_k(query)
        service.top_k(query)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["service.queries"] == 2
        assert snapshot["counters"]["service.cache_hits"] == 1
        assert snapshot["counters"]["service.cache_misses"] == 1
        assert snapshot["gauges"]["service.cache_hit_rate"] == 0.5
        assert snapshot["histograms"]["service.query_seconds"]["count"] == 2
        for stage in ("cache_lookup", "plan", "search", "merge"):
            name = f"service.stage.{stage}_seconds"
            assert snapshot["histograms"][name]["count"] >= 1

    def test_partial_and_cancellation_counters(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(24, 24, 2, seed=53)
        registry = MetricsRegistry()
        service = RetrievalService(
            stack, leaf_size=4, cache_size=0, registry=registry
        )
        query = TopKQuery(
            model=make_random_linear_model(stack, seed=54), k=4
        )
        token = CancellationToken()
        token.cancel()
        service.top_k(query, cancel=token)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["service.partial_results"] == 1
        assert snapshot["counters"]["service.cancelled.cancelled"] == 1
        assert service.stats.partial_results == 1
