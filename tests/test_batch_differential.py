"""Differential suite: ``top_k_batch`` versus the single-query path.

The batch contract is *bit-for-bit*: for every query in a batch —
whatever mix of model families, k values, regions, cache states, and
deadlines rides along with it — the answers (order and tie-breaks
included) and the counted work equal what the solo path returns for
that query alone. These tests drive the contract with hypothesis over
tie-heavy stacks, where any traversal-order leak shows up immediately,
plus deterministic scenarios for the cache-mix and retirement paths.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import TopKQuery
from repro.exceptions import QueryError
from repro.metrics.registry import MetricsRegistry
from repro.models.fuzzy import (
    FuzzyAnd,
    FuzzyOr,
    gaussian_membership,
    trapezoid_membership,
    triangle_membership,
)
from repro.models.knowledge import FuzzyRule, KnowledgeModel, RulePredicate
from repro.service import BatchPlanner, CancellationToken, RetrievalService

# Work fields the solo/batch contract covers; wall_seconds and notes are
# environment-dependent bookkeeping, not counted work.
COUNTER_FIELDS = (
    "data_points",
    "model_evals",
    "partial_evals",
    "flops",
    "tuples_examined",
    "nodes_visited",
)


def _service(stack, leaf_size=8):
    return RetrievalService(
        stack, leaf_size=leaf_size, n_shards=2, cache_size=32,
        registry=MetricsRegistry(),
    )


def _knowledge_model(names, variant):
    """A small fuzzy-rule knowledge model over the first stack layers."""
    memberships = [
        triangle_membership(0.0, 1.0, 2.0),
        trapezoid_membership(-1.0, 0.0, 1.0, 2.5),
        gaussian_membership(1.0, 0.8),
    ]
    rules = [
        FuzzyRule(
            name=f"r{index}",
            predicates=tuple(
                RulePredicate(
                    attribute=name,
                    membership=memberships[(index + offset) % 3],
                )
                for offset, name in enumerate(names)
            ),
            weight=1.0 + 0.5 * index,
            conjunction=FuzzyAnd("min" if variant == 0 else "product"),
        )
        for index in range(2)
    ]
    return KnowledgeModel(
        rules,
        combination="or" if variant == 0 else "weighted",
        disjunction=FuzzyOr("max" if variant == 0 else "sum"),
    )


def _solo(service, query):
    """The single-query reference: one shard, no cache."""
    return service.top_k(query, n_shards=1, use_cache=False)


def _assert_bit_identical(batch_result, solo_result, answer_list):
    assert answer_list(batch_result) == answer_list(solo_result)
    for field in COUNTER_FIELDS:
        assert getattr(batch_result.counter, field) == getattr(
            solo_result.counter, field
        ), f"{field} diverged between batch and solo"
    assert batch_result.audit.tiles_screened == solo_result.audit.tiles_screened
    assert batch_result.audit.tiles_pruned == solo_result.audit.tiles_pruned
    assert batch_result.complete is True


class TestMixedModelBatches:
    @given(
        rows=st.integers(12, 36),
        cols=st.integers(12, 36),
        seed=st.integers(0, 300),
        k_linear=st.integers(1, 12),
        k_knowledge=st.integers(1, 8),
        maximize=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_and_knowledge_share_one_scan(
        self, rows, cols, seed, k_linear, k_knowledge, maximize,
        make_tie_stack, make_random_linear_model, answer_list,
    ):
        """A whole-grid batch mixing model families: every member's
        answers and counters must equal its solo run."""
        stack = make_tie_stack(rows, cols, 2, seed)
        service = _service(stack)
        names = list(stack.names)
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + 1),
                k=k_linear, maximize=maximize,
            ),
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + 2),
                k=k_linear, maximize=not maximize,
            ),
            TopKQuery(
                model=_knowledge_model(names, variant=0),
                k=k_knowledge, maximize=maximize,
            ),
            TopKQuery(
                model=_knowledge_model(names, variant=1),
                k=k_knowledge, maximize=maximize,
            ),
        ]
        results = service.top_k_batch(queries, use_cache=False)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert result.strategy.endswith(f"-batch[{len(queries)}]")
            _assert_bit_identical(result, _solo(service, query), answer_list)

    @given(
        seed=st.integers(0, 200),
        k=st.integers(1, 10),
        n_queries=st.integers(2, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_varying_k_whole_grid(
        self, seed, k, n_queries,
        make_tie_stack, make_random_linear_model, answer_list,
    ):
        stack = make_tie_stack(24, 24, 3, seed)
        service = _service(stack)
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + i),
                k=min(k + i, 24 * 24),
                maximize=bool(i % 2),
            )
            for i in range(n_queries)
        ]
        results = service.top_k_batch(queries, use_cache=False)
        for query, result in zip(queries, results):
            _assert_bit_identical(
                result, _solo(service, query), answer_list
            )


class TestRegionsAndPlanning:
    @given(
        seed=st.integers(0, 200),
        row_split=st.integers(8, 24),
        col_overlap=st.integers(4, 28),
    )
    @settings(max_examples=25, deadline=None)
    def test_overlapping_regions_group_by_exact_window(
        self, seed, row_split, col_overlap,
        make_tie_stack, make_random_linear_model, answer_list,
    ):
        """Overlapping-but-distinct windows never share a scan; only
        exact region matches group. Either way every answer is solo-
        exact."""
        stack = make_tie_stack(32, 32, 2, seed)
        service = _service(stack)
        region_a = (0, 0, row_split, 32)
        region_b = (0, 0, 32, col_overlap)  # overlaps region_a
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + 1),
                k=5, region=region_a,
            ),
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + 2),
                k=7, region=region_a,
            ),
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + 3),
                k=4, region=region_b,
            ),
        ]
        results = service.top_k_batch(queries, use_cache=False)
        # Two region_a queries share a scan; the region_b loner falls
        # back to the sharded path (unless the windows coincide).
        if region_a != region_b:
            assert results[0].strategy.endswith("-batch[2]")
            assert results[1].strategy.endswith("-batch[2]")
            assert "-batch" not in results[2].strategy
            for index in (0, 1):
                _assert_bit_identical(
                    results[index],
                    _solo(service, queries[index]),
                    answer_list,
                )
            # The singleton rode the default sharded path, whose
            # counters depend on the shard split — answers still match.
            loner = _solo(service, queries[2])
            assert answer_list(results[2]) == answer_list(loner)
            assert results[2].complete is True
        else:
            for query, result in zip(queries, results):
                _assert_bit_identical(
                    result, _solo(service, query), answer_list
                )

    def test_heuristic_pruning_never_batches(
        self, make_tie_stack, make_random_linear_model
    ):
        stack = make_tie_stack(16, 16, 2, seed=7)
        service = _service(stack)
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=i), k=3
            )
            for i in range(3)
        ]
        results = service.top_k_batch(
            queries, pruning="heuristic", use_cache=False
        )
        for result in results:
            assert "-batch" not in result.strategy

    def test_planner_rules_directly(self, make_random_linear_model,
                                    make_tie_stack):
        stack = make_tie_stack(8, 8, 1, seed=1)
        model = make_random_linear_model(stack)
        # The planner reads a member's query and region, nothing else.
        planned = [
            SimpleNamespace(
                query=TopKQuery(model=model, k=2),
                region=(0, 0, 8, 8) if i < 2 else (0, 0, 4, 4),
            )
            for i in range(3)
        ]
        plan = BatchPlanner().plan(planned)
        assert [len(group) for group in plan.groups] == [2]
        assert plan.groups[0][0] is planned[0]
        assert plan.groups[0][1] is planned[1]
        assert len(plan.singletons) == 1 and plan.singletons[0] is planned[2]
        assert plan.batched == 2
        # Heuristic pruning: everything is a singleton.
        heuristic = BatchPlanner().plan(planned, pruning="heuristic")
        assert heuristic.groups == [] and len(heuristic.singletons) == 3

    def test_non_interval_model_fails_fast(
        self, make_tie_stack, make_random_linear_model
    ):
        from repro.models.base import Model

        class Opaque(Model):
            @property
            def attributes(self):
                return ("layer0",)

            @property
            def complexity(self):
                return 1

            def evaluate(self, attributes):
                return float(attributes["layer0"])

        stack = make_tie_stack(8, 8, 1, seed=3)
        service = _service(stack, leaf_size=4)
        queries = [
            TopKQuery(model=make_random_linear_model(stack), k=2),
            TopKQuery(model=Opaque(), k=2),
        ]
        with pytest.raises(QueryError):
            service.top_k_batch(queries, use_cache=False)
        # Fail-fast: nothing executed, nothing cached.
        assert service.stats.batched_queries == 0


class TestCacheMixes:
    @given(
        seed=st.integers(0, 150),
        n_warm=st.integers(0, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_hit_miss_mix_peels_hits_and_batches_misses(
        self, seed, n_warm,
        make_tie_stack, make_random_linear_model, answer_list,
    ):
        stack = make_tie_stack(20, 20, 2, seed)
        service = _service(stack)
        # Distinct k per query: random coefficients can collide (16
        # combos over 2 layers), and a collision is a *legitimate*
        # cache hit — k keeps the fingerprints distinct.
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + i),
                k=3 + i,
            )
            for i in range(4)
        ]
        references = [
            answer_list(_solo(service, query)) for query in queries
        ]
        for query in queries[:n_warm]:
            service.top_k(query)  # warm the cache
        results = service.top_k_batch(queries)
        n_miss = len(queries) - n_warm
        for index, (result, reference) in enumerate(
            zip(results, references)
        ):
            assert answer_list(result) == reference
            if index < n_warm:
                assert result.strategy.endswith("-cached")
            elif n_miss >= 2:
                assert result.strategy.endswith(f"-batch[{n_miss}]")
        # A second identical batch is now all cache hits.
        again = service.top_k_batch(queries)
        assert all(r.strategy.endswith("-cached") for r in again)
        for result, reference in zip(again, references):
            assert answer_list(result) == reference

    def test_batch_results_enter_the_cache_as_copies(
        self, make_tie_stack, make_random_linear_model, answer_list
    ):
        stack = make_tie_stack(16, 16, 2, seed=9)
        service = _service(stack)
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=i), k=3
            )
            for i in range(2)
        ]
        first = service.top_k_batch(queries)
        reference = answer_list(first[0])
        first[0].answers.clear()  # must not corrupt the store
        hit = service.top_k(queries[0])
        assert hit.strategy.endswith("-cached")
        assert answer_list(hit) == reference


class TestRetirement:
    def test_precancelled_member_retires_survivors_exact(
        self, make_tie_stack, make_random_linear_model, answer_list
    ):
        stack = make_tie_stack(48, 48, 2, seed=17)
        service = _service(stack)
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=i), k=6
            )
            for i in range(4)
        ]
        token = CancellationToken()
        token.cancel("load-shed")
        cancels = [None, token, None, None]
        results = service.top_k_batch(
            queries, cancel=cancels, use_cache=False
        )
        retired = results[1]
        assert retired.complete is False
        assert retired.strategy.endswith("-partial")
        assert retired.trace.cancel_reason == "load-shed"
        # Prefix soundness: whatever came back carries exact scores.
        model = queries[1].model
        for answer in retired.answers:
            exact = model.evaluate(
                {
                    name: float(stack[name].values[answer.row, answer.col])
                    for name in model.attributes
                }
            )
            assert answer.score == exact
        # Survivors are bit-exact, counters included.
        for index in (0, 2, 3):
            _assert_bit_identical(
                results[index],
                _solo(service, queries[index]),
                answer_list,
            )
        # Partial results never reach the cache.
        after = service.top_k(queries[1])
        assert not after.strategy.endswith("-cached")

    def test_per_query_deadline_sequence(
        self, make_tie_stack, make_random_linear_model, answer_list
    ):
        stack = make_tie_stack(64, 64, 3, seed=23)
        service = _service(stack)
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=i), k=8
            )
            for i in range(3)
        ]
        deadlines = [None, 1e-9, None]
        results = service.top_k_batch(
            queries, deadline_s=deadlines, use_cache=False
        )
        squeezed = results[1]
        if not squeezed.complete:
            assert squeezed.strategy.endswith("-partial")
            assert squeezed.trace.cancel_reason == "deadline"
        for index in (0, 2):
            _assert_bit_identical(
                results[index],
                _solo(service, queries[index]),
                answer_list,
            )

    def test_retired_counters_never_exceed_solo(
        self, make_tie_stack, make_random_linear_model
    ):
        stack = make_tie_stack(40, 40, 2, seed=29)
        service = _service(stack)
        query = TopKQuery(
            model=make_random_linear_model(stack, seed=1), k=5
        )
        partner = TopKQuery(
            model=make_random_linear_model(stack, seed=2), k=5
        )
        solo = _solo(service, query)
        token = CancellationToken()
        token.cancel()
        results = service.top_k_batch(
            [query, partner], cancel=[token, None], use_cache=False
        )
        retired = results[0]
        assert retired.complete is False
        for field in COUNTER_FIELDS:
            assert getattr(retired.counter, field) <= getattr(
                solo.counter, field
            )


class TestBatchProperties:
    @given(
        seed=st.integers(0, 150),
        n_queries=st.integers(2, 5),
        k=st.integers(1, 8),
    )
    @settings(max_examples=20, deadline=None)
    def test_batch_counters_bounded_by_solo(
        self, seed, n_queries, k,
        make_tie_stack, make_random_linear_model,
    ):
        """The shared scan may only ever *save* work: per-query batch
        counters never exceed the solo run's — and for uncancelled
        queries the executor replays the solo decision sequence, so they
        are exactly equal."""
        stack = make_tie_stack(28, 28, 2, seed)
        service = _service(stack)
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + i), k=k
            )
            for i in range(n_queries)
        ]
        solos = [_solo(service, query) for query in queries]
        results = service.top_k_batch(queries, use_cache=False)
        for solo, result in zip(solos, results):
            for field in COUNTER_FIELDS:
                batch_value = getattr(result.counter, field)
                solo_value = getattr(solo.counter, field)
                assert batch_value <= solo_value
                assert batch_value == solo_value  # uncancelled: exact

    @given(
        seed=st.integers(0, 100),
        n_queries=st.integers(2, 5),
    )
    @settings(max_examples=15, deadline=None)
    def test_child_spans_sum_within_batch_wall(
        self, seed, n_queries, make_tie_stack, make_random_linear_model
    ):
        """Children run sequentially inside the batch call, so the sum
        of all per-query span durations can never exceed the batch
        trace's wall clock."""
        stack = make_tie_stack(24, 24, 2, seed)
        service = _service(stack)
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + i), k=3
            )
            for i in range(n_queries)
        ]
        results = service.top_k_batch(queries, use_cache=False)
        batch_trace = results[0].trace.parent
        assert batch_trace is not None
        assert batch_trace.batch_size == n_queries
        assert len(batch_trace.children) == n_queries
        assert {id(r.trace.parent) for r in results} == {id(batch_trace)}
        child_total = sum(
            span.duration_s
            for child in batch_trace.children
            for span in child.spans
        )
        assert child_total <= batch_trace.wall_seconds + 1e-6
        exported = batch_trace.as_dict()
        assert exported["batch_size"] == n_queries
        assert len(exported["children"]) == n_queries

    def test_empty_batch_and_broadcast_validation(
        self, make_tie_stack, make_random_linear_model
    ):
        stack = make_tie_stack(8, 8, 1, seed=1)
        service = _service(stack, leaf_size=4)
        assert service.top_k_batch([]) == []
        query = TopKQuery(model=make_random_linear_model(stack), k=2)
        with pytest.raises(QueryError):
            service.top_k_batch([query, query], deadline_s=[1.0])
        with pytest.raises(QueryError):
            service.top_k_batch([query], deadline_s=[0.0])

    def test_registry_and_stats_tallies(
        self, make_tie_stack, make_random_linear_model
    ):
        stack = make_tie_stack(16, 16, 2, seed=5)
        registry = MetricsRegistry()
        service = RetrievalService(
            stack, leaf_size=8, n_shards=2, cache_size=8,
            registry=registry,
        )
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=i), k=3
            )
            for i in range(3)
        ]
        service.top_k_batch(queries, use_cache=False)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["service.batches"] == 1
        assert snapshot["counters"]["service.batched_queries"] == 3
        assert snapshot["histograms"]["service.batch_seconds"]["count"] == 1
        assert snapshot["histograms"]["service.batch_size"]["count"] == 1
        assert service.stats.batches == 1
        assert service.stats.batched_queries == 3
        assert service.stats.queries == 3
