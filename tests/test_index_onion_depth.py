"""Depth of an Onion index: what is peeled, what a query reads, and how
an index gets deeper.

An index peeled to depth d (``max_layers = d + 1``: d hull layers and
the interior bucket) answers every k exactly — from k layers up to d,
through the bucket beyond — and ``deepen`` must leave exactly the index
a fresh, deeper peel builds. All data here is integer-valued with
integer weights, so scores are exact and every comparison is ``==``.

One differential ties only *duplicates* (mixed-radix weights make the
score injective on distinct points); the other ties distinct points,
among them a hull vertex and a point inside the same hull face one
layer deeper, which the query must read on to for the smaller row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.query import TopKQuery
from repro.data.raster import RasterLayer, RasterStack
from repro.data.table import Table
from repro.index.onion import OnionIndex
from repro.metrics.counters import CostCounter
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from repro.index.onion_cache import PAPER_DEPTH, OnionIndexCache
from tests.oracles import exact_answers, exhaustive_fused, table_top_k


def _table(n_rows: int, n_dims: int, alphabet: int, seed: int) -> Table:
    """Integer points from a small alphabet: duplicates and score ties
    are the common case, several hull layers still exist."""
    generator = np.random.default_rng(seed)
    values = generator.integers(0, alphabet, size=(n_rows, n_dims))
    return Table(
        "points", {f"a{j}": values[:, j].astype(float) for j in range(n_dims)}
    )


def _weights(table: Table, seed: int) -> dict[str, float]:
    generator = np.random.default_rng(seed)
    return {
        name: float(generator.choice([-2.0, -1.0, 1.0, 2.0]))
        for name in table.column_names
    }


def _radix_weights(table: Table, seed: int) -> dict[str, float]:
    """Signed powers of 9, the largest alphabet: a mixed-radix numeral,
    so two points score equal only if they are the same point."""
    generator = np.random.default_rng(seed)
    return {
        name: float(generator.choice([-1.0, 1.0])) * 9.0**place
        for place, name in enumerate(table.column_names)
    }


def _layers(index: OnionIndex) -> list[list[int]]:
    return [index.layer(i).tolist() for i in range(index.n_layers)]


tables = st.builds(
    _table,
    n_rows=st.integers(1, 60),
    n_dims=st.integers(1, 3),
    alphabet=st.integers(2, 9),
    seed=st.integers(0, 10_000),
)


class TestEveryKAtEveryDepth:
    @given(table=tables, depth=st.integers(0, 5), seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_top_k_equals_the_oracle(self, table, depth, seed):
        index = OnionIndex(table, max_layers=depth + 1)
        assert index.depth == depth
        weights = _radix_weights(table, seed)
        points = table.matrix(table.column_names)
        vector = np.array([weights[name] for name in table.column_names])
        # From 1, past the depth, past max_layers, past the row count.
        for k in range(1, max(len(table), depth + 1) + 3):
            for maximize in (True, False):
                assert index.top_k(weights, k, maximize) == table_top_k(
                    points, vector, k, maximize
                ), (k, maximize)

    @given(table=tables, depth=st.integers(0, 5), k=st.integers(1, 70))
    @example(table=_table(10, 2, 3, 8), depth=1, k=1)
    @settings(max_examples=60, deadline=None)
    def test_layers_needed_is_what_top_k_reads(self, table, depth, k):
        # Without a tie at the K-th score the query reads exactly the
        # containment minimum. A tie between distinct points may read on
        # (the pinned example: rows 0 and 3 both score 4 under (2, 1) on
        # the outer layer, and a bucket point lies on that layer's hull,
        # so k = 1 reads the bucket too), and then each layer past the
        # minimum, and the stop, must be what ``reads_on`` says.
        index = OnionIndex(table, max_layers=depth + 1)
        weights = _weights(table, 0)
        counter = CostCounter()
        index.top_k(weights, k, counter=counter)
        needed = index.layers_needed(k)
        visited = counter.nodes_visited
        assert counter.tuples_examined == sum(index.layer_sizes()[:visited])
        if k <= depth:
            assert needed == min(k, index.n_layers)
        else:
            assert needed == index.n_layers
        points = table.matrix(table.column_names)
        vector = np.array([weights[name] for name in table.column_names])
        scores = points @ vector
        answers = table_top_k(points, vector, k)
        threshold = answers[-1][1]
        tied = np.unique(points[scores == threshold], axis=0)
        if len(answers) < k or len(tied) < 2:
            assert visited == needed
            return
        assert needed <= visited <= index.n_layers
        zero = not vector.any()
        # The last layer has nothing under it to read on to.
        for last in range(needed - 1, min(visited, index.n_layers - 1)):
            layer_scores = points[index.layer(last)] @ vector
            assert index.reads_on(last, layer_scores, threshold, zero) == (
                last < visited - 1
            ), last

    @given(table=tables, depth=st.integers(0, 5), seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_top_k_equals_the_oracle_on_face_ties(self, table, depth, seed):
        # Weights from {-2, -1, 1, 2}: distinct points tie, a point inside
        # a hull face among them.
        index = OnionIndex(table, max_layers=depth + 1)
        weights = _weights(table, seed)
        points = table.matrix(table.column_names)
        vector = np.array([weights[name] for name in table.column_names])
        for k in range(1, max(len(table), depth + 1) + 3):
            for maximize in (True, False):
                assert index.top_k(weights, k, maximize) == table_top_k(
                    points, vector, k, maximize
                ), (k, maximize)

    def test_tie_with_a_point_inside_a_hull_face(self):
        # Row 0 lies on the edge between rows 1 and 2, one layer deeper;
        # all three score 0 and row 0 wins the tie, on the index and on
        # the routed path alike.
        points = np.array(
            [[1, 0], [0, 0], [2, 0], [0, 2], [2, 2], [1, 1]], dtype=float
        )
        table = Table("edge", {"x": points[:, 0], "y": points[:, 1]})
        expected = table_top_k(points, np.array([0.0, -1.0]), 1)
        assert OnionIndex(table).layer(1).tolist() == [0, 5]
        assert OnionIndex(table).top_k({"x": 0.0, "y": -1.0}, 1) == expected
        stack = RasterStack()
        for j, name in enumerate(("x", "y")):
            stack.add(RasterLayer(name, points[:, j].reshape(1, 6)))
        service = RetrievalService(stack, registry=MetricsRegistry())
        service.router.min_onion_cells = 1
        result = service.top_k(
            TopKQuery(model=LinearModel({"x": 0.0, "y": -1.0}), k=1),
            strategy="onion",
        )
        assert [(a.row, a.col) for a in result.answers] == [(0, 0)]
        assert result.counter.nodes_visited == 2


class TestDeepen:
    @given(
        table=tables,
        shallow=st.integers(1, 5),
        extra=st.one_of(st.none(), st.integers(0, 6)),
    )
    @settings(max_examples=80, deadline=None)
    def test_deepen_equals_a_fresh_deeper_peel(self, table, shallow, extra):
        deeper = None if extra is None else shallow + extra
        index = OnionIndex(table, max_layers=shallow)
        index.deepen(deeper)
        fresh = OnionIndex(table, max_layers=deeper)
        assert index.max_layers == fresh.max_layers
        assert _layers(index) == _layers(fresh)
        assert index.layer_of().tolist() == fresh.layer_of().tolist()

    def test_a_shallower_request_is_a_no_op(self):
        table = _table(50, 2, 9, 1)
        index = OnionIndex(table, max_layers=4)
        before = _layers(index)
        index.deepen(3)
        index.deepen(4)
        assert index.max_layers == 4 and _layers(index) == before
        full = OnionIndex(table)
        full.deepen(3)
        assert full.max_layers is None

    @given(table=tables, shallow=st.integers(1, 4), extra=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_insert_and_rebuild_keep_the_depth(self, table, shallow, extra):
        index = OnionIndex(table, max_layers=shallow)
        index.deepen(shallow + extra)
        generator = np.random.default_rng(shallow)
        added = generator.integers(0, 9, size=(3, len(table.column_names)))
        for point in added:
            index.insert(dict(zip(table.column_names, map(float, point))))
        index.rebuild()
        assert index.max_layers == shallow + extra
        points = np.vstack([table.matrix(table.column_names), added])
        grown = Table(
            "grown",
            {name: points[:, j] for j, name in enumerate(table.column_names)},
        )
        assert _layers(index) == _layers(
            OnionIndex(grown, max_layers=shallow + extra)
        )

    def test_reopened_from_layer_numbers(self):
        table = _table(60, 2, 9, 3)
        index = OnionIndex(table, max_layers=4)
        reopened = OnionIndex(
            table, max_layers=4, layer_of=index.layer_of()
        )
        assert _layers(reopened) == _layers(index)
        reopened.deepen(6)
        assert _layers(reopened) == _layers(OnionIndex(table, max_layers=6))


# -- the cache and the service ------------------------------------------------

GRID = 64


def _stack(seed: int = 4) -> RasterStack:
    """Integer bands with a wide alphabet: hundreds of thin hull layers."""
    generator = np.random.default_rng(seed)
    stack = RasterStack()
    for name in ("a", "b"):
        stack.add(
            RasterLayer(
                name, generator.integers(0, 256, (GRID, GRID)).astype(float)
            )
        )
    return stack


MODEL = LinearModel({"a": 2.0, "b": -1.0}, intercept=0.5)
WHOLE = (0, 0, GRID, GRID)


class TestCacheDepth:
    def test_depth_is_what_somebody_asked_for(self):
        cache = OnionIndexCache(_stack(), registry=MetricsRegistry())
        built = cache.get(WHOLE, ("a", "b"), None)
        assert built.index.depth == PAPER_DEPTH == 10
        assert built.index.n_layers == 11
        assert cache.get(WHOLE, ("a", "b"), None, k=7) is built
        deeper = cache.get(WHOLE, ("a", "b"), None, k=25)
        assert deeper is not built and deeper.index.depth == 25
        # The shallow index a query may still be reading is left alone.
        assert built.index.depth == 10
        assert cache.get(WHOLE, ("a", "b"), None) is deeper
        assert cache.get(WHOLE, ("a", "b"), None, k=500).index.max_layers == 32

    def test_deepened_entry_equals_one_built_deep(self):
        stack = _stack()
        stepped = OnionIndexCache(stack, registry=MetricsRegistry())
        stepped.get(WHOLE, ("a", "b"), None)
        direct = OnionIndexCache(stack, registry=MetricsRegistry())
        assert _layers(
            stepped.get(WHOLE, ("a", "b"), None, k=19).index
        ) == _layers(direct.get(WHOLE, ("a", "b"), None, k=19).index)

    @pytest.mark.parametrize("k", [1, 5, 10, 11, 25, 40])
    def test_candidates_are_the_layers_top_k_reads(self, k):
        built = OnionIndexCache(_stack(), registry=MetricsRegistry()).get(
            WHOLE, ("a", "b"), None
        )
        counter = CostCounter()
        built.index.top_k({"a": 2.0, "b": -1.0}, k, counter=counter)
        assert counter.nodes_visited == built.index.layers_needed(k)
        assert (
            counter.tuples_examined
            == built.candidate_count(k)
            == built.candidate_rows(k).size
        )
        assert (built.candidate_count(k) == GRID * GRID) == (k > 10)


class TestServiceDepth:
    def _service(self) -> RetrievalService:
        service = RetrievalService(
            _stack(), leaf_size=8, cache_size=0, registry=MetricsRegistry()
        )
        # Equal rates: the router prefers whichever strategy has the
        # fewest units to process, which is the depth rule's business.
        for strategy in ("scan", "quadtree", "onion"):
            service.router.cost_model.pin(strategy, 1e-8)
        return service

    def test_deep_query_routes_elsewhere_until_the_index_is_deepened(self):
        service = self._service()
        service.warm_index(("a", "b"))
        query = TopKQuery(model=MODEL, k=25)
        expected, _ = exhaustive_fused(service.engine.stack, None, query, WHOLE)

        def routed():
            result = service.top_k(query, strategy="auto")
            assert exact_answers(result) == expected
            return result.trace.metadata["routing"]

        decisions = [routed() for _ in range(12)]
        for decision in decisions:
            # Through the bucket the index is the whole window: never
            # the preferred strategy, run only to be measured.
            onion = next(
                c for c in decision["candidates"] if c["name"] == "onion"
            )
            assert onion["size"] == GRID * GRID
            assert decision["preferred"] != "onion"
            assert decision["chosen"] != "onion" or decision["probe"]
        assert all(d["chosen"] != "onion" for d in decisions[8:])

        deeper = service.warm_index(query)
        assert deeper.index.depth == 25
        assert deeper.candidate_count(25) < GRID * GRID
        after = [routed() for _ in range(4)]
        assert all(d["preferred"] == "onion" for d in after)
        assert any(d["chosen"] == "onion" for d in after)

    def test_forced_onion_on_an_unbuilt_key_peels_to_its_k(self):
        service = self._service()
        query = TopKQuery(model=MODEL, k=14)
        expected, _ = exhaustive_fused(service.engine.stack, None, query, WHOLE)
        result = service.top_k(query, strategy="onion")
        assert exact_answers(result) == expected
        built = service.router.index_cache.peek(WHOLE, ("a", "b"), None)
        assert built.index.depth == 14
        assert result.counter.tuples_examined == built.candidate_count(14)
        # A deeper forced query reads the bucket; it never peels.
        deep = TopKQuery(model=MODEL, k=20)
        expected, _ = exhaustive_fused(service.engine.stack, None, deep, WHOLE)
        result = service.top_k(deep, strategy="onion")
        assert exact_answers(result) == expected
        assert result.counter.tuples_examined == GRID * GRID
        assert service.router.index_cache.peek(
            WHOLE, ("a", "b"), None
        ).index.depth == 14
