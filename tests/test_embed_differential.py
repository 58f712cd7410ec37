"""Differential suite: fused ``top_k`` versus the exhaustive oracle.

The fused contract is *bit-for-bit*: for any query blending a model
score with query-by-example similarity (``similar_to`` + ``alpha``),
the progressive fused strategy, the exhaustive ``embed-scan`` strategy,
and the routed ``auto`` choice must all return exactly the answers the
brute-force oracle ranks — scores, tie order (descending score, then
ascending ``(row, col)``), and, for ``embed-scan``, the counted-work
ledger, across model families, regions, alpha values, and directions.
``alpha=1`` must collapse to the legacy model-only path exactly
(answers, counters, strategy label).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import (
    COUNTER_FIELDS,
    counter_dict,
    exact_answers,
    exhaustive_fused,
)
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
from repro.service import RetrievalService


def _service(stack, leaf_size=8, n_shards=1):
    return RetrievalService(
        stack, leaf_size=leaf_size, n_shards=n_shards, cache_size=32,
        registry=MetricsRegistry(), embedding_dim=8,
    )


def _knowledge_model(names, variant=0):
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


def _region(rows, cols, choice):
    if choice == 0:
        return None
    if choice == 1:
        return (0, 0, max(2, rows // 2), cols)
    return (rows // 4, cols // 4, rows, cols)


class TestFusedVersusOracle:
    @given(
        rows=st.integers(12, 40),
        cols=st.integers(12, 40),
        seed=st.integers(0, 200),
        k=st.integers(1, 10),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
        region_choice=st.integers(0, 2),
        maximize=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_fused_matches_oracle_bitwise(
        self, rows, cols, seed, k, alpha, region_choice, maximize,
        make_tie_stack, make_random_linear_model,
    ):
        """Fused answers == oracle answers, exactly, at every alpha —
        tie-heavy stacks make any traversal-order leak visible."""
        stack = make_tie_stack(rows, cols, 2, seed)
        model = make_random_linear_model(stack, seed=seed + 1)
        service = _service(stack)
        example = (rows // 3, cols // 3)
        query = TopKQuery(
            model=model, k=k, maximize=maximize,
            region=_region(rows, cols, region_choice),
            similar_to=example, alpha=alpha,
        )
        clipped = query.clip_region(stack.shape)
        oracle_answers, oracle_counter = exhaustive_fused(
            stack,
            service.embeddings() if query.fused else None,
            query,
            clipped,
        )
        result = service.top_k(query, use_cache=False)
        assert exact_answers(result) == oracle_answers
        if query.fused:
            scan = service.top_k(
                query, strategy="embed-scan", use_cache=False
            )
            assert exact_answers(scan) == oracle_answers
            assert counter_dict(scan.counter) == oracle_counter
            assert scan.strategy == "embed-scan"
        else:
            # alpha=1: the model-only dense paths run the same evaluator
            # (the engine baseline tallies no router-feedback tuples).
            scan = service.top_k(query, strategy="scan", use_cache=False)
            assert exact_answers(scan) == oracle_answers
            assert counter_dict(scan.counter) == oracle_counter
            baseline = service.engine.exhaustive_top_k(query)
            assert exact_answers(baseline) == oracle_answers
            assert counter_dict(baseline.counter) == {
                **oracle_counter, "tuples_examined": 0
            }

    @given(
        rows=st.integers(14, 32),
        cols=st.integers(14, 32),
        seed=st.integers(0, 120),
        k=st.integers(1, 6),
        alpha=st.sampled_from([0.0, 0.5]),
        variant=st.integers(0, 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_knowledge_fused_matches_oracle(
        self, rows, cols, seed, k, alpha, variant, make_noise_stack,
    ):
        """Fuzzy-rule knowledge models fuse too (they bound intervals);
        both fused strategies must agree with the oracle exactly."""
        stack = make_noise_stack(rows, cols, 2, seed)
        model = _knowledge_model(stack.names, variant)
        service = _service(stack)
        query = TopKQuery(
            model=model, k=k, similar_to=(rows // 2, cols // 2),
            alpha=alpha,
        )
        clipped = query.clip_region(stack.shape)
        oracle_answers, oracle_counter = exhaustive_fused(
            stack, service.embeddings(), query, clipped
        )
        fused = service.top_k(query, strategy="fused", use_cache=False)
        scan = service.top_k(query, strategy="embed-scan", use_cache=False)
        assert exact_answers(fused) == oracle_answers
        assert exact_answers(scan) == oracle_answers
        assert counter_dict(scan.counter) == oracle_counter

    @given(
        rows=st.integers(12, 32),
        cols=st.integers(12, 32),
        seed=st.integers(0, 120),
        k=st.integers(1, 8),
    )
    @settings(max_examples=20, deadline=None)
    def test_forced_auto_and_default_agree(
        self, rows, cols, seed, k, make_tie_stack, make_random_linear_model,
    ):
        """Forced 'fused', forced 'embed-scan', 'auto', and the default
        strategy all return identical answers for one fused query."""
        stack = make_tie_stack(rows, cols, 2, seed)
        model = make_random_linear_model(stack, seed=seed + 7)
        service = _service(stack)
        query = TopKQuery(
            model=model, k=k, similar_to=(1, 1), alpha=0.5
        )
        default = service.top_k(query, use_cache=False)
        forced = service.top_k(query, strategy="fused", use_cache=False)
        scan = service.top_k(query, strategy="embed-scan", use_cache=False)
        auto = service.top_k(query, strategy="auto", use_cache=False)
        assert exact_answers(default) == exact_answers(forced)
        assert exact_answers(default) == exact_answers(scan)
        assert exact_answers(default) == exact_answers(auto)
        # Forced and default run the same structure with the same work.
        assert counter_dict(default.counter) == counter_dict(forced.counter)
        routing = auto.trace.metadata["routing"]
        assert routing["chosen"] in ("fused", "embed-scan")


class TestAlphaOneIsLegacy:
    @given(
        rows=st.integers(12, 32),
        cols=st.integers(12, 32),
        seed=st.integers(0, 150),
        k=st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_alpha_one_equals_model_only_path_exactly(
        self, rows, cols, seed, k,
        make_tie_stack, make_random_linear_model,
    ):
        """similar_to with alpha=1 weights similarity at zero: the query
        is not fused and must ride the legacy path byte-for-byte —
        answers, counters, audit, and strategy label."""
        stack = make_tie_stack(rows, cols, 2, seed)
        model = make_random_linear_model(stack, seed=seed + 3)
        service = _service(stack)
        with_example = TopKQuery(
            model=model, k=k, similar_to=(0, 0), alpha=1.0
        )
        plain = TopKQuery(model=model, k=k)
        assert not with_example.fused
        a = service.top_k(with_example, use_cache=False)
        b = service.top_k(plain, use_cache=False)
        assert exact_answers(a) == exact_answers(b)
        assert counter_dict(a.counter) == counter_dict(b.counter)
        assert a.strategy == b.strategy
        assert a.audit.tiles_screened == b.audit.tiles_screened
        assert a.audit.tiles_pruned == b.audit.tiles_pruned


class TestFusedDeterminismAndPlumbing:
    def test_fused_repeat_runs_are_identical(
        self, make_noise_stack, make_random_linear_model,
    ):
        """Two runs of the same fused query (one shard, no cache) agree
        on answers and every counter field."""
        stack = make_noise_stack(24, 28, 2, 5)
        model = make_random_linear_model(stack, seed=9)
        service = _service(stack)
        query = TopKQuery(model=model, k=6, similar_to=(10, 10), alpha=0.3)
        first = service.top_k(query, use_cache=False)
        second = service.top_k(query, use_cache=False)
        assert exact_answers(first) == exact_answers(second)
        assert counter_dict(first.counter) == counter_dict(second.counter)
        assert first.strategy == second.strategy == "fused-sharded[1]"

    def test_fused_sharded_matches_single_shard(
        self, make_tie_stack, make_random_linear_model,
    ):
        """Shard count never changes fused answers (shared threshold)."""
        stack = make_tie_stack(32, 32, 2, 11)
        model = make_random_linear_model(stack, seed=2)
        solo = _service(stack, n_shards=1)
        many = _service(stack, n_shards=4)
        query = TopKQuery(model=model, k=8, similar_to=(5, 20), alpha=0.5)
        assert exact_answers(
            solo.top_k(query, use_cache=False)
        ) == exact_answers(many.top_k(query, use_cache=False))

    def test_fused_cache_hit_returns_same_answers(
        self, make_noise_stack, make_random_linear_model,
    ):
        stack = make_noise_stack(20, 20, 2, 3)
        model = make_random_linear_model(stack, seed=4)
        service = _service(stack)
        query = TopKQuery(model=model, k=4, similar_to=(3, 3), alpha=0.5)
        miss = service.top_k(query)
        hit = service.top_k(query)
        assert hit.strategy.endswith("-cached")
        assert exact_answers(hit) == exact_answers(miss)
        # A different example cell or alpha is a different question.
        other = service.top_k(
            TopKQuery(model=model, k=4, similar_to=(18, 18), alpha=0.5)
        )
        assert not other.strategy.endswith("-cached")

    def test_fused_batch_members_match_solo(
        self, make_tie_stack, make_random_linear_model,
    ):
        """A batch mixing fused and plain queries returns each fused
        member bit-identical to its solo run."""
        stack = make_tie_stack(24, 24, 2, 8)
        model = make_random_linear_model(stack, seed=6)
        service = _service(stack)
        fused_query = TopKQuery(
            model=model, k=5, similar_to=(12, 12), alpha=0.5
        )
        plain_query = TopKQuery(model=model, k=5)
        solo = service.top_k(fused_query, n_shards=1, use_cache=False)
        results = service.top_k_batch(
            [fused_query, plain_query, fused_query],
            n_shards=1, use_cache=False,
        )
        for index in (0, 2):
            assert exact_answers(results[index]) == exact_answers(solo)
            for field in COUNTER_FIELDS:
                assert getattr(results[index].counter, field) == getattr(
                    solo.counter, field
                )

    def test_model_only_strategies_reject_fused_queries(
        self, make_noise_stack, make_random_linear_model,
    ):
        stack = make_noise_stack(16, 16, 2, 1)
        model = make_random_linear_model(stack, seed=1)
        service = _service(stack)
        query = TopKQuery(model=model, k=3, similar_to=(2, 2), alpha=0.5)
        for strategy in ("onion", "scan"):
            with pytest.raises(QueryError):
                service.top_k(query, strategy=strategy, use_cache=False)
        plain = TopKQuery(model=model, k=3)
        for strategy in ("fused", "embed-scan"):
            with pytest.raises(QueryError):
                service.top_k(plain, strategy=strategy, use_cache=False)

    def test_fused_query_validation(self):
        with pytest.raises(QueryError):
            TopKQuery(model=_knowledge_model(["layer0"]), k=1, alpha=1.5)
        with pytest.raises(QueryError):
            TopKQuery(model=_knowledge_model(["layer0"]), k=1, alpha=0.5)
        with pytest.raises(QueryError):
            TopKQuery(
                model=_knowledge_model(["layer0"]), k=1,
                similar_to=(-1, 2), alpha=0.5,
            )
        with pytest.raises(QueryError):
            TopKQuery(
                model=_knowledge_model(["layer0"]), k=1,
                similar_to="ab", alpha=0.5,
            )

    def test_explain_carries_fusion_section(
        self, make_noise_stack, make_random_linear_model,
    ):
        stack = make_noise_stack(20, 20, 2, 2)
        model = make_random_linear_model(stack, seed=5)
        service = _service(stack)
        query = TopKQuery(model=model, k=3, similar_to=(6, 6), alpha=0.25)
        report = service.top_k(query, use_cache=False, explain=True)
        assert report.fusion is not None
        assert report.fusion["alpha"] == 0.25
        assert tuple(report.fusion["similar_to"]) == (6, 6)
        assert "fusion:" in report.render()
        assert report.as_dict()["fusion"]["dim"] == 8
