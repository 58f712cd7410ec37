"""Differential and behavioural tests for the cost-based query router.

The routing layer's contract (DESIGN.md routing section): whichever
strategy executes a query — the legacy quadtree path, forced
``"onion"``/``"scan"``, or ``strategy="auto"`` including its fallback —
the answers are bit-identical: same cells, same scores, same tie order.
The hypothesis differential classes drive that claim over tie-heavy
stacks, integer-valued or drawn from a few two-decimal reals (where
every sum rounds, so a strategy scoring or bounding in another order
than the rest would show), and compare exact scores: any tie-break or
arithmetic divergence between strategies is a hard mismatch.

Behavioural coverage: the cost model's priors, windows and size
classes (probing and poisoning live in ``test_service_routing_probes``),
eligibility reasons, the fallback path when an index raises mid-query,
routing metadata in traces and explain output, cache-key isolation
between strategies, generation-keyed index rebuilds, and composite
(SPROC) routing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import TopKQuery
from repro.data.archive import Archive
from repro.data.raster import RasterLayer
from repro.exceptions import QueryError
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from repro.service.routing import (
    CostModel,
    OnionIndexCache,
    QueryRouter,
    RoutingDecision,
)
from repro.sproc import CompositeQuery, fast_top_k, naive_top_k, sproc_top_k
from repro.sproc.arbitration import route_composite
from repro.telemetry.explain import ExplainReport
from tests.oracles import exact_answers


def _service(stack, **kwargs) -> RetrievalService:
    kwargs.setdefault("leaf_size", 8)
    kwargs.setdefault("registry", MetricsRegistry())
    return RetrievalService(stack, **kwargs)


class TestRoutedAnswersBitIdentical:
    """strategy="auto" and every forced strategy equal the legacy path."""

    @given(
        rows=st.integers(min_value=8, max_value=28),
        cols=st.integers(min_value=8, max_value=28),
        k=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=10_000),
        maximize=st.booleans(),
        reals=st.sampled_from([0, 3, 4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_forced_and_auto_match_legacy(
        self,
        make_tie_stack,
        make_random_linear_model,
        rows,
        cols,
        k,
        seed,
        maximize,
        reals,
    ):
        stack = make_tie_stack(rows, cols, 2, seed, reals=reals)
        model = make_random_linear_model(stack, seed=seed + 1)
        service = _service(stack, cache_size=0)
        # Small regions are routable too: the eligibility floor exists
        # for cost reasons, not correctness, so drop it for the test.
        service.router.min_onion_cells = 1
        query = TopKQuery(model=model, k=k, maximize=maximize)

        legacy = exact_answers(service.top_k(query))
        for strategy in ("auto", "onion", "scan"):
            routed = exact_answers(service.top_k(query, strategy=strategy))
            assert routed == legacy, f"{strategy} diverged from legacy"

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=6),
        reals=st.sampled_from([0, 3, 4]),
    )
    @settings(max_examples=15, deadline=None)
    def test_region_queries_match_legacy(
        self,
        make_tie_stack,
        make_random_linear_model,
        seed,
        k,
        reals,
    ):
        stack = make_tie_stack(24, 24, 2, seed, reals=reals)
        model = make_random_linear_model(stack, seed=seed + 3)
        service = _service(stack, cache_size=0)
        service.router.min_onion_cells = 1
        # A ragged off-origin window exercises the region-local
        # row-major decoding of onion candidates.
        query = TopKQuery(model=model, k=k, region=(3, 5, 19, 22))

        legacy = exact_answers(service.top_k(query))
        for strategy in ("auto", "onion", "scan"):
            assert exact_answers(
                service.top_k(query, strategy=strategy)
            ) == legacy

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_fallback_answers_match_legacy(
        self,
        make_tie_stack,
        make_random_linear_model,
        answer_list,
        seed,
    ):
        stack = make_tie_stack(16, 16, 2, seed)
        model = make_random_linear_model(stack, seed=seed + 5)
        service = _service(stack, cache_size=0)
        service.router.min_onion_cells = 1
        # Route everything onto onion, then make the index explode:
        # auto must degrade to the quadtree path with identical answers.
        service.router.cost_model.pin("onion", 1e-18)
        service.router.cost_model.pin("onion-build", 0.0)
        def _boom(*args, **kwargs):
            raise RuntimeError("index exploded")
        service.router.index_cache.get = _boom
        query = TopKQuery(model=model, k=4)

        legacy = answer_list(service.top_k(query))
        routed = service.top_k(query, strategy="auto")
        assert answer_list(routed) == legacy
        routing = routed.trace.metadata["routing"]
        assert routing["fallback_from"] == "onion"
        assert "index exploded" in routing["fallback_reason"]
        assert routing["chosen"] == "quadtree"


class TestRoutingDecisionSurface:
    """The decision is visible in trace metadata and explain output."""

    @pytest.fixture()
    def service_and_query(self, make_tie_stack, make_random_linear_model):
        stack = make_tie_stack(16, 16, 2, 11)
        service = _service(stack, cache_size=8)
        service.router.min_onion_cells = 1
        model = make_random_linear_model(stack, seed=12)
        return service, TopKQuery(model=model, k=4)

    def test_trace_metadata_carries_full_decision(self, service_and_query):
        service, query = service_and_query
        result = service.top_k(query, strategy="auto", use_cache=False)
        routing = result.trace.metadata["routing"]
        assert routing["chosen"] in ("quadtree", "onion", "scan")
        assert routing["forced"] is False
        assert routing["actual_seconds"] is not None
        assert routing["predicted_seconds"] is not None
        assert routing["preferred"] in ("quadtree", "onion", "scan")
        for candidate in routing["candidates"]:
            if candidate["eligible"]:
                assert candidate["predicted_seconds"] > 0
                assert candidate["samples"] >= 0
        names = {c["name"] for c in routing["candidates"]}
        assert names == {"quadtree", "onion", "scan", "sproc"}
        sproc = next(
            c for c in routing["candidates"] if c["name"] == "sproc"
        )
        assert not sproc["eligible"]
        assert "composite" in sproc["reason"]

    def test_forced_strategy_is_marked_forced(self, service_and_query):
        service, query = service_and_query
        result = service.top_k(query, strategy="scan", use_cache=False)
        routing = result.trace.metadata["routing"]
        assert routing["chosen"] == "scan"
        assert routing["forced"] is True

    def test_explain_renders_routing_section(self, service_and_query):
        service, query = service_and_query
        report = service.top_k(
            query, strategy="auto", use_cache=False, explain=True
        )
        assert isinstance(report, ExplainReport)
        assert report.routing is not None
        assert report.as_dict()["routing"]["chosen"] == (
            report.routing["chosen"]
        )
        rendered = report.render()
        assert "routing: chosen=" in rendered
        assert "predicted=" in rendered and "samples=" in rendered
        assert "candidate sproc: ineligible" in rendered

    def test_legacy_path_has_no_routing_section(self, service_and_query):
        service, query = service_and_query
        report = service.top_k(query, use_cache=False, explain=True)
        assert report.routing is None
        assert "routing:" not in report.render()
        assert report.as_dict()["routing"] is None

    def test_unknown_strategy_rejected(self, service_and_query):
        service, query = service_and_query
        with pytest.raises(QueryError, match="unknown strategy"):
            service.top_k(query, strategy="btree")


class TestCostModel:
    def test_estimate_scales_with_work(self):
        model = CostModel(registry=MetricsRegistry())
        assert model.score("scan", 2000)[0] == pytest.approx(
            2 * model.score("scan", 1000)[0]
        )

    def test_observe_moves_rate_toward_observation(self):
        registry = MetricsRegistry()
        model = CostModel(registry=registry)
        prior = model.score("onion", 1000)[0]
        model.observe("onion", size=1000, seconds=prior * 10)
        # One sample is not believed: a strategy's first execution is
        # its coldest, so the prior stands until a second one arrives.
        assert model.score("onion", 1000)[0] == pytest.approx(prior)
        assert model.score("onion", 1000)[1] == 1
        model.observe("onion", size=1000, seconds=prior * 8)
        assert model.score("onion", 1000)[0] == pytest.approx(prior * 8)
        assert registry.counter_value("router.observations.onion") == 2

    def test_repeated_observation_converges(self):
        model = CostModel(registry=MetricsRegistry())
        target = 1e-6
        for _ in range(30):
            model.observe("scan", size=1e6, seconds=target * 1e6)
        assert model.score("scan", 1e6)[0] == pytest.approx(target * 1e6)

    def test_one_outlier_cannot_move_a_warm_prediction(self):
        model = CostModel(registry=MetricsRegistry())
        for _ in range(3):
            model.observe("fused", size=4096, seconds=0.004)
        model.observe("fused", size=4096, seconds=0.4)
        assert model.score("fused", 4096)[0] == pytest.approx(0.004)

    def test_size_classes_keep_their_own_rate(self):
        """A pruning strategy is sublinear in region cells; the rate of
        a small window must not price a large one once both are known,
        and an unmeasured class borrows the nearest measured one."""
        model = CostModel(registry=MetricsRegistry())
        for _ in range(2):
            model.observe("quadtree", size=1 << 12, seconds=1e-3)
            model.observe("quadtree", size=1 << 20, seconds=8e-3)
        assert model.score("quadtree", 1 << 12)[0] == pytest.approx(1e-3)
        assert model.score("quadtree", 1 << 20)[0] == pytest.approx(8e-3)
        assert model.score("quadtree", 1 << 18)[0] == pytest.approx(2e-3)
        assert model.score("quadtree", 1 << 18)[1] == 0

    def test_pin_overrides_observation(self):
        model = CostModel(registry=MetricsRegistry())
        model.pin("scan", 1e-12)
        for _ in range(3):
            model.observe("scan", size=100, seconds=1.0)
        assert model.score("scan", 100)[0] == pytest.approx(1e-10)

    def test_unknown_strategy_raises(self):
        model = CostModel(registry=MetricsRegistry())
        with pytest.raises(QueryError):
            model.score("btree", 10)[0]
        with pytest.raises(QueryError):
            model.observe("btree", 10, 1.0)
        with pytest.raises(QueryError):
            model.pin("btree", 1.0)


class TestEligibility:
    class _OpaqueModel:
        """Duck-typed non-linear model: routable to scan/quadtree only."""

        name = "opaque"
        attributes = ("layer0", "layer1")
        complexity = 4

    def _router(self, make_tie_stack) -> QueryRouter:
        stack = make_tie_stack(16, 16, 2, 0)
        return QueryRouter(
            stack, registry=MetricsRegistry(), min_onion_cells=1
        )

    def test_onion_ineligible_for_nonlinear_model(self, make_tie_stack):
        router = self._router(make_tie_stack)
        query = TopKQuery(model=self._OpaqueModel(), k=3)
        decision = router.route(query, (0, 0, 16, 16), strategy="auto")
        onion = next(
            c for c in decision.candidates if c.name == "onion"
        )
        assert not onion.eligible
        assert "LinearModel" in onion.reason
        assert decision.chosen in ("quadtree", "scan")

    def test_forcing_ineligible_strategy_raises(self, make_tie_stack):
        router = self._router(make_tie_stack)
        query = TopKQuery(model=self._OpaqueModel(), k=3)
        with pytest.raises(QueryError, match="cannot answer"):
            router.route(query, (0, 0, 16, 16), strategy="onion")

    def test_tiny_region_onion_ineligible(
        self, make_tie_stack, make_random_linear_model
    ):
        stack = make_tie_stack(16, 16, 2, 0)
        router = QueryRouter(
            stack, registry=MetricsRegistry(), min_onion_cells=4096
        )
        model = make_random_linear_model(stack, seed=2)
        decision = router.route(
            TopKQuery(model=model, k=3), (0, 0, 16, 16), strategy="auto"
        )
        onion = next(
            c for c in decision.candidates if c.name == "onion"
        )
        assert not onion.eligible
        assert "min_onion_cells" in onion.reason


class TestRoutedCaching:
    def _setup(self, make_tie_stack, make_random_linear_model):
        stack = make_tie_stack(16, 16, 2, 21)
        service = _service(stack, cache_size=16)
        service.router.min_onion_cells = 1
        model = make_random_linear_model(stack, seed=22)
        return service, TopKQuery(model=model, k=4)

    def test_onion_and_legacy_have_separate_entries(
        self, make_tie_stack, make_random_linear_model, answer_list
    ):
        service, query = self._setup(
            make_tie_stack, make_random_linear_model
        )
        legacy = service.top_k(query)
        onion = service.top_k(query, strategy="onion")
        # Different keys: the onion miss must not have been served the
        # legacy entry (its strategy label would then end in "-cached").
        assert onion.strategy == "onion"
        assert answer_list(onion) == answer_list(legacy)
        hit = service.top_k(query, strategy="onion")
        assert hit.strategy == "onion-cached"

    def test_auto_resolving_quadtree_shares_legacy_entry(
        self, make_tie_stack, make_random_linear_model
    ):
        service, query = self._setup(
            make_tie_stack, make_random_linear_model
        )
        # Make quadtree the sure winner so auto resolves to it.
        service.router.cost_model.pin("quadtree", 1e-18)
        legacy = service.top_k(query)
        assert not legacy.strategy.endswith("-cached")
        routed = service.top_k(query, strategy="auto")
        assert routed.strategy.endswith("-cached")
        assert routed.trace.metadata["routing"]["chosen"] == "quadtree"


class TestIndexLifecycle:
    def test_warm_index_prebuilds_and_is_reused(
        self, make_tie_stack, make_random_linear_model
    ):
        stack = make_tie_stack(16, 16, 2, 31)
        service = _service(stack, cache_size=0)
        service.router.min_onion_cells = 1
        model = make_random_linear_model(stack, seed=32)
        query = TopKQuery(model=model, k=4)

        built = service.warm_index(query)
        assert built.n_cells == 256
        assert service.registry.counter_value("router.index.builds") == 1
        service.top_k(query, strategy="onion")
        # The routed query reused the warmed index: no second build.
        assert service.registry.counter_value("router.index.builds") == 1

    def test_generation_move_rebuilds_index(self, answer_list):
        rng = np.random.default_rng(41)
        archive = Archive("study")
        for name in ("a", "b"):
            archive.add(
                RasterLayer(
                    name, rng.integers(0, 3, (16, 16)).astype(float)
                )
            )
        service = RetrievalService.from_archive(
            archive, ["a", "b"], leaf_size=8, cache_size=8,
            registry=MetricsRegistry(),
        )
        service.router.min_onion_cells = 1
        query = TopKQuery(model=LinearModel({"a": 2.0, "b": -1.0}), k=4)

        cold = service.top_k(query, strategy="onion")
        assert service.registry.counter_value("router.index.builds") == 1
        archive.add(
            RasterLayer("c", rng.integers(0, 3, (16, 16)).astype(float))
        )
        # Generation moved: the cached answer AND the built index are
        # stale; the next routed query rebuilds and re-answers.
        after = service.top_k(query, strategy="onion")
        assert not after.strategy.endswith("-cached")
        assert service.registry.counter_value("router.index.builds") == 2
        assert answer_list(after) == answer_list(cold)

    def test_explicit_invalidate_drops_indexes(
        self, make_tie_stack, make_random_linear_model
    ):
        stack = make_tie_stack(16, 16, 2, 51)
        service = _service(stack, cache_size=8)
        service.router.min_onion_cells = 1
        model = make_random_linear_model(stack, seed=52)
        service.warm_index(TopKQuery(model=model, k=3))
        assert len(service.router.index_cache) == 1
        service.invalidate()
        assert len(service.router.index_cache) == 0


class TestCompositeRouting:
    def _query(self, seed: int, n_components: int, n_objects: int):
        rng = np.random.default_rng(seed)
        return CompositeQuery(
            [f"c{i}" for i in range(n_components)],
            rng.random((n_components, n_objects)),
        )

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        n_components=st.integers(min_value=2, max_value=3),
        n_objects=st.integers(min_value=3, max_value=7),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_routed_composite_scores_match_naive(
        self, make_tie_stack, seed, n_components, n_objects, k
    ):
        stack = make_tie_stack(8, 8, 2, 0)
        service = _service(stack)
        query = self._query(seed, n_components, n_objects)
        answers, decision = service.composite_top_k(query, k)
        reference = naive_top_k(query, k)
        # The DP may pick different representatives among score-tied
        # finals (documented); scores are the cross-implementation
        # invariant, assignments additionally for the tie-free case.
        assert [round(s, 9) for _, s in answers] == [
            round(s, 9) for _, s in reference
        ]
        assert decision.chosen in ("naive", "dp", "fast")

    def test_forced_composite_strategies(self, make_tie_stack):
        stack = make_tie_stack(8, 8, 2, 0)
        service = _service(stack)
        query = self._query(7, 2, 5)
        for strategy, impl in (
            ("naive", naive_top_k), ("dp", sproc_top_k), ("fast", fast_top_k)
        ):
            answers, decision = service.composite_top_k(
                query, 3, strategy=strategy
            )
            assert decision.chosen == strategy
            assert decision.forced is True
            assert [round(s, 9) for _, s in answers] == [
                round(s, 9) for _, s in impl(query, 3)
            ]
        assert isinstance(decision, RoutingDecision)

    def test_large_cartesian_avoids_naive(self, make_tie_stack):
        stack = make_tie_stack(8, 8, 2, 0)
        router = QueryRouter(stack, registry=MetricsRegistry())
        rng = np.random.default_rng(3)
        big = CompositeQuery(
            [f"c{i}" for i in range(4)], rng.random((4, 200))
        )
        decision = route_composite(router, big, k=5)
        # 200^4 = 1.6e9 component touches: the cost model must route
        # away from full enumeration.
        assert decision.chosen != "naive"

    def test_unknown_composite_strategy_rejected(self, make_tie_stack):
        stack = make_tie_stack(8, 8, 2, 0)
        service = _service(stack)
        with pytest.raises(QueryError, match="composite strategy"):
            service.composite_top_k(self._query(1, 2, 4), 2, strategy="bogus")


class TestOnionIndexCacheBounds:
    def test_fifo_eviction_past_capacity(self, make_tie_stack):
        stack = make_tie_stack(16, 16, 2, 61)
        cache = OnionIndexCache(
            stack, max_entries=2, registry=MetricsRegistry()
        )
        attrs = ("layer0", "layer1")
        cache.get((0, 0, 8, 8), attrs, 0)
        cache.get((0, 0, 12, 12), attrs, 0)
        cache.get((0, 0, 16, 16), attrs, 0)
        assert len(cache) == 2
        assert cache.peek((0, 0, 8, 8), attrs, 0) is None

    def test_stale_generation_is_a_miss(self, make_tie_stack):
        stack = make_tie_stack(16, 16, 2, 62)
        cache = OnionIndexCache(stack, registry=MetricsRegistry())
        attrs = ("layer0", "layer1")
        built = cache.get((0, 0, 16, 16), attrs, generation=1)
        assert cache.peek((0, 0, 16, 16), attrs, 1) is built
        assert cache.peek((0, 0, 16, 16), attrs, 2) is None
        rebuilt = cache.get((0, 0, 16, 16), attrs, generation=2)
        assert rebuilt is not built
