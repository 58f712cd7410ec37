"""The request pipeline itself: one set of stages behind both entry points.

``top_k`` and ``top_k_batch`` drive the same admit -> route -> cache ->
plan -> execute -> store -> record stages (``service/retrieval.py``), so

* a query answered alone and as a batch of one must agree on everything
  but the ``batches`` tally — answers, counted work, audit, strategy
  label, span names, ``ServiceStats`` and registry counters — over both
  query families, three model kinds, whole-grid and regional windows,
  cold and from the cache; and every strategy the solo accepts must give
  the default structure's answers, cold and cached;
* a request no strategy can answer is the same ``QueryError`` for every
  strategy (a 400 at the worker, never a 500) and leaves tallies,
  registry and the probe schedule as it found them — solo or batch;
* an executed request plans once, whichever entry point it came through;
* ``similar_tiles`` is the flat inner-product scan, tie order included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import BatchQuerySpec, TopKHeap
from repro.core.query import TopKQuery
from repro.core.results import PruningAudit
from repro.data.raster import RasterLayer, RasterStack
from repro.exceptions import QueryError
from repro.metrics.counters import CostCounter
from repro.metrics.registry import MetricsRegistry
from repro.models.base import Model
from repro.models.fuzzy import (
    FuzzyAnd,
    FuzzyOr,
    gaussian_membership,
    triangle_membership,
)
from repro.models.knowledge import FuzzyRule, KnowledgeModel, RulePredicate
from repro.models.linear import LinearModel
from repro.service import EXECUTORS, RetrievalService, ServiceStats
from repro.serving import encode_query, protocol
from repro.serving.protocol import WorkItem
from repro.serving.worker import WorkerConfig, _handle
from tests.oracles import COUNTER_FIELDS, flat_ip_oracle

GRID = 32
WINDOWS = {"whole": None, "regional": (3, 5, 27, 30)}


def _service(stack, **kwargs) -> RetrievalService:
    kwargs.setdefault("leaf_size", 8)
    kwargs.setdefault("cache_size", 16)
    return RetrievalService(stack, registry=MetricsRegistry(), **kwargs)


def _model(kind: str, stack: RasterStack):
    names = stack.names
    if kind == "linear":
        return LinearModel(
            {name: float(2 - index) or 3.0 for index, name in enumerate(names)}
        )
    memberships = [
        triangle_membership(0.0, 1.0, 2.0), gaussian_membership(1.0, 0.8)
    ]
    rules = [
        FuzzyRule(
            name=f"r{index}",
            predicates=tuple(
                RulePredicate(
                    attribute=name,
                    membership=memberships[(index + offset) % 2],
                )
                for offset, name in enumerate(names)
            ),
            weight=1.0 + index,
            conjunction=FuzzyAnd("min" if kind == "fuzzy" else "product"),
        )
        for index in range(2)
    ]
    return KnowledgeModel(
        rules,
        combination="or" if kind == "fuzzy" else "weighted",
        disjunction=FuzzyOr("max" if kind == "fuzzy" else "sum"),
    )


def _query(model, window: str, fused: bool, k: int = 5) -> TopKQuery:
    example = {"similar_to": (9, 20), "alpha": 0.5} if fused else {}
    return TopKQuery(model=model, k=k, region=WINDOWS[window], **example)


def _counters(service: RetrievalService) -> dict:
    counters = dict(service.registry.snapshot()["counters"])
    counters.pop("service.batches", None)
    return counters


def _stage_counts(service: RetrievalService) -> dict:
    return {
        name: histogram["count"]
        for name, histogram in service.registry.snapshot()["histograms"].items()
        if name.startswith("service.stage.")
    }


def _span_names(result) -> list[str]:
    return [span.name for span in result.trace.spans]


def _shared_scan(service, query):
    spec = BatchQuerySpec(
        query, TopKHeap(query.k), CostCounter(), PruningAudit()
    )
    region = query.clip_region(service.engine.stack.shape)
    service.engine.shared_scan_search([spec], region)


#: Every way into a search, by name: the service and each engine entry.
ENGINE_ENTRIES = {
    "service": lambda service, query: service.top_k(query),
    "both": lambda service, query: service.engine.progressive_top_k(query),
    "data-progressive": lambda service, query: (
        service.engine.progressive_top_k(query, use_model_levels=False)
    ),
    "model-progressive": lambda service, query: (
        service.engine.progressive_top_k(query, use_tiles=False)
    ),
    "none": lambda service, query: service.engine.progressive_top_k(
        query, use_tiles=False, use_model_levels=False
    ),
    "exhaustive": lambda service, query: (
        service.engine.exhaustive_top_k(query)
    ),
    "prepare_tile_query": lambda service, query: (
        service.engine.prepare_tile_query(query, use_model_levels=False)
    ),
    "shared_scan_search": _shared_scan,
}


@pytest.fixture()
def stack(make_tie_stack):
    return make_tie_stack(GRID, GRID, 2, seed=17)


class TestSoloEqualsBatchOfOne:
    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("fused", [False, True], ids=["model", "fused"])
    @pytest.mark.parametrize("kind", ["linear", "knowledge", "fuzzy"])
    def test_default_structure_agrees_on_everything_but_batches(
        self, stack, answer_list, kind, fused, window, cached
    ):
        query = _query(_model(kind, stack), window, fused)
        solo_service, batch_service = _service(stack), _service(stack)
        for _ in range(2 if cached else 1):
            solo = solo_service.top_k(query)
            (member,) = batch_service.top_k_batch([query])

        assert answer_list(member) == answer_list(solo)
        for field in COUNTER_FIELDS:
            assert getattr(member.counter, field) == getattr(
                solo.counter, field
            ), field
        assert member.audit.tiles_screened == solo.audit.tiles_screened
        assert member.audit.tiles_pruned == solo.audit.tiles_pruned
        assert member.strategy == solo.strategy
        assert member.strategy.endswith("-cached") == cached
        assert _span_names(member) == _span_names(solo)

        calls = 2 if cached else 1
        assert batch_service.stats.batches == calls
        batch_service.stats.batches = 0
        assert batch_service.stats == solo_service.stats
        assert solo_service.stats == ServiceStats(
            queries=calls, cache_hits=calls - 1, cache_misses=1
        )
        assert _counters(batch_service) == _counters(solo_service)
        assert _stage_counts(batch_service) == _stage_counts(solo_service)

    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("fused", [False, True], ids=["model", "fused"])
    @pytest.mark.parametrize("kind", ["linear", "knowledge", "fuzzy"])
    def test_every_strategy_answers_like_the_default_cold_and_cached(
        self, stack, answer_list, kind, fused, window
    ):
        query = _query(_model(kind, stack), window, fused)
        service = _service(stack)
        service.router.min_onion_cells = 1
        expected = answer_list(service.top_k(query, use_cache=False))
        family = [n for n, row in EXECUTORS.items() if row.fused == fused]
        for strategy in ("auto", *family):
            before = (service.stats.queries, _counters(service))
            try:
                cold = service.top_k(query, strategy=strategy)
            except QueryError:
                # Onion layers bound linear objectives only: refused by
                # the route stage, before anything is counted.
                assert strategy == "onion" and kind != "linear"
                assert (service.stats.queries, _counters(service)) == before
                continue
            hit = service.top_k(query, strategy=strategy)
            assert answer_list(cold) == expected, strategy
            assert answer_list(hit) == expected, strategy
            if strategy != "auto":  # auto may route the repeat elsewhere
                # (the default structure's first run may itself be a
                # hit: auto shares its cache entries)
                label = cold.strategy.removesuffix("-cached")
                assert hit.strategy == label + "-cached"

    def test_the_wire_protocol_lists_the_table(self):
        assert set(protocol.STRATEGIES) == {"auto", *EXECUTORS}


class TestAdmission:
    """A client's mistake is one error, at the door, for every strategy."""

    @staticmethod
    def _typo(stack, fused: bool = False) -> TopKQuery:
        coefficients = {name: 1.0 for name in stack.names}
        coefficients["zzz"] = 2.0
        return _query(LinearModel(coefficients), "whole", fused)

    def test_unknown_attribute_same_error_no_trace_left(self, stack):
        service = _service(stack)
        messages = set()
        for fused in (False, True):
            family = [n for n, row in EXECUTORS.items() if row.fused == fused]
            for strategy in ("auto", *family):
                with pytest.raises(QueryError) as raised:
                    service.top_k(self._typo(stack, fused), strategy=strategy)
                messages.add(str(raised.value))
        assert messages == {"stack lacks model attributes ['zzz']"}
        # No tally, no counter (so no decision, no probe-schedule slot,
        # no fallback), no cache entry.
        assert service.stats == ServiceStats()
        assert service.registry.snapshot()["counters"] == {}
        assert len(service.cache) == 0

    @pytest.mark.parametrize("strategy", ["auto", *EXECUTORS])
    def test_worker_answers_a_typo_as_a_query_error(self, stack, strategy):
        service = _service(stack)
        fused = strategy != "auto" and EXECUTORS[strategy].fused
        payload = encode_query(self._typo(stack, fused))
        payload["strategy"] = strategy
        reply = _handle(
            service, service.registry,
            WorkItem(kind="query", request_id=1, payload=payload),
            worker_id=0, config=WorkerConfig(),
        )
        assert not reply.ok
        assert reply.error_kind == "query"
        assert "stack lacks model attributes ['zzz']" in reply.error

    @pytest.mark.parametrize("entry", sorted(ENGINE_ENTRIES))
    @pytest.mark.parametrize("kind", ["linear", "knowledge"])
    def test_every_engine_entry_point_raises_the_admit_error(
        self, stack, entry, kind
    ):
        """One check, whatever path a query takes: the engine's entry
        points reject a model naming an attribute the stack lacks with
        the service's admit error, before any bound or read."""
        service = _service(stack)
        model = _model(kind, stack)
        if kind == "linear":
            model = LinearModel({**model.coefficients, "zzz": 1.0})
        else:
            rule = FuzzyRule(
                name="typo",
                predicates=(
                    RulePredicate("zzz", triangle_membership(0.0, 1.0, 2.0)),
                ),
            )
            model = KnowledgeModel([*model.rules, rule])
        query = _query(model, "regional", fused=False)
        with pytest.raises(QueryError) as raised:
            ENGINE_ENTRIES[entry](service, query)
        assert str(raised.value) == "stack lacks model attributes ['zzz']"

    def test_rejected_solo_and_batch_leave_tallies_and_registry(self, stack):
        service = _service(stack)
        good = _query(_model("linear", stack), "whole", fused=False)
        with pytest.raises(QueryError):
            service.top_k(self._typo(stack))
        with pytest.raises(QueryError):
            service.top_k_batch([good, self._typo(stack)])
        assert service.stats == ServiceStats()
        assert service.registry.snapshot()["counters"] == {}
        # Fail-fast for the whole batch: the good member never ran.
        assert len(service.cache) == 0

    def test_batch_rejected_while_planning_leaves_them_too(self, stack):
        """A member only the plan stage can refuse (a model the tile
        search cannot bound) — after another member already hit."""

        class Opaque(Model):
            attributes = ("layer0",)
            complexity = 1

            def evaluate(self, attributes):
                return float(attributes["layer0"])

        service = _service(stack)
        good = _query(_model("linear", stack), "whole", fused=False)
        service.top_k(good)
        stats = ServiceStats(queries=1, cache_misses=1)
        counters = _counters(service)
        bad = _query(Opaque(), "whole", fused=False)
        with pytest.raises(QueryError, match="cannot bound intervals"):
            service.top_k_batch([good, bad])
        assert service.stats == stats
        assert _counters(service) == counters


class TestPlanOnce:
    def test_batch_singleton_carries_the_solo_spans(self, stack):
        query = _query(_model("linear", stack), "whole", fused=False)
        solo = _service(stack).top_k(query, use_cache=False)
        (member,) = _service(stack).top_k_batch([query], use_cache=False)
        assert _span_names(solo) == ["cache_lookup", "plan", "search", "merge"]
        assert _span_names(member) == _span_names(solo)

    def test_one_plan_span_per_executed_request(self, stack):
        linear, knowledge = _model("linear", stack), _model("knowledge", stack)
        queries = [
            _query(linear, "whole", fused=False),
            _query(knowledge, "whole", fused=False),  # groups with the first
            _query(linear, "regional", fused=False),  # lone region
            _query(linear, "whole", fused=True),  # fused: runs alone
        ]
        results = _service(stack).top_k_batch(queries)
        assert ["-batch[2]" in r.strategy for r in results] == [
            True, True, False, False
        ]
        for result in results:
            assert _span_names(result).count("plan") == 1, result.strategy


class TestSimilarTiles:
    def test_equals_the_flat_oracle_tie_order_included(self):
        # Two kinds of tile on a checkerboard: every tile vector has 31
        # exact twins, so the k-th score is always a tie.
        rows, cols = np.indices((64, 64))
        parity = ((rows // 8 + cols // 8) % 2).astype(float)
        stack = RasterStack()
        stack.add(RasterLayer("a", parity + 1.0))
        stack.add(RasterLayer("b", 3.0 - 2.0 * parity))
        service = _service(stack)
        embeddings = service.embeddings()
        n_i, n_j, dim = embeddings.vectors.shape
        cells = np.array(
            [
                (row, col)
                for row in embeddings.tile_row_starts
                for col in embeddings.tile_col_starts
            ]
        )
        for cell, k in (((20, 45), 5), ((0, 0), 40), ((63, 63), 64)):
            expected = flat_ip_oracle(
                embeddings.vectors.reshape(n_i * n_j, dim),
                cells,
                embeddings.tile_vector(cell),
                k,
            )
            answers = service.similar_tiles(cell, k)
            assert [(a.score, (a.row, a.col)) for a in answers] == expected
            assert len({a.score for a in answers}) < len(answers)
