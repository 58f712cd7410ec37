"""Cross-strategy tie-break agreement across every table index.

The router promises bit-identical answers whichever structure executes
a query, which requires every index to implement the service-wide
tie-break: on equal signed score, the smallest row id wins.
``scan_top_k`` is the differential oracle (its canonical heap idiom is
documented in :mod:`repro.index.scan`); these tests drive onion, CSVD,
and the R*-tree against it on integer-valued data engineered to tie
heavily, pin the specific boundary-tie regressions fixed in the routing
PR, and assert the Onion delta-buffer's cost accounting matches the
rebuilt index exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.table import Table
from repro.index.csvd import CSVDIndex
from repro.index.onion import OnionIndex
from repro.index.rtree import RStarTree
from repro.index.scan import scan_top_k
from repro.metrics.counters import CostCounter
from repro.models.linear import LinearModel


def _tie_table(n_rows: int, n_dims: int, seed: int) -> Table:
    """Integer-valued points in {0, 1, 2}^d: tiny value alphabet, heavy
    duplication, so score ties at the K boundary are the common case."""
    generator = np.random.default_rng(seed)
    values = generator.integers(0, 3, size=(n_rows, n_dims)).astype(float)
    return Table(
        "ties", {f"a{j}": values[:, j] for j in range(n_dims)}
    )


def _tie_model(n_dims: int, seed: int) -> LinearModel:
    generator = np.random.default_rng(seed)
    return LinearModel(
        {
            f"a{j}": float(generator.choice([-2.0, -1.0, 1.0, 2.0]))
            for j in range(n_dims)
        },
        intercept=0.0,
    )


def _rounded(answers: list[tuple[int, float]]) -> list[tuple[int, float]]:
    return [(row, round(score, 9)) for row, score in answers]


class TestCrossIndexTieAgreement:
    """Every index's top-K equals the scan oracle, ties included."""

    @given(
        n_rows=st.integers(min_value=4, max_value=40),
        n_dims=st.integers(min_value=2, max_value=3),
        k=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        maximize=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_index_types_match_scan_oracle(
        self, n_rows, n_dims, k, seed, maximize
    ):
        table = _tie_table(n_rows, n_dims, seed)
        model = _tie_model(n_dims, seed + 1)
        k = min(k, n_rows)
        oracle = _rounded(scan_top_k(table, model, k, maximize=maximize))
        weights = dict(model.coefficients)

        onion = OnionIndex(table)
        assert _rounded(onion.top_k(weights, k, maximize=maximize)) == (
            oracle
        ), "onion disagrees with scan oracle"

        csvd = CSVDIndex(table, n_clusters=4, kept_dims=2, seed=0)
        # Onion/csvd score w.x without the intercept; the oracle uses the
        # full model — intercept 0 keeps them directly comparable.
        assert _rounded(
            csvd.top_k_linear(weights, k, maximize=maximize)
        ) == oracle, "csvd disagrees with scan oracle"

        tree = RStarTree(n_dims=n_dims)
        points = table.matrix(table.column_names)
        for row in range(n_rows):
            tree.insert(tuple(points[row]), row)
        weight_vector = np.array(
            [weights[f"a{j}"] for j in range(n_dims)]
        )
        assert _rounded(
            tree.top_k_linear(weight_vector, k, maximize=maximize)
        ) == oracle, "rtree disagrees with scan oracle"

    @given(
        n_rows=st.integers(min_value=4, max_value=40),
        n_dims=st.integers(min_value=2, max_value=3),
        k=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_csvd_nearest_ties_row_ascending(self, n_rows, n_dims, k, seed):
        table = _tie_table(n_rows, n_dims, seed)
        k = min(k, n_rows)
        generator = np.random.default_rng(seed + 7)
        query = {
            f"a{j}": float(generator.integers(0, 3))
            for j in range(n_dims)
        }
        target = np.array([query[f"a{j}"] for j in range(n_dims)])
        points = table.matrix(table.column_names)
        distances = np.linalg.norm(points - target, axis=1)
        brute = sorted(
            range(n_rows),
            key=lambda row: (round(float(distances[row]), 9), row),
        )[:k]
        expected = [
            (row, round(float(distances[row]), 9)) for row in brute
        ]
        csvd = CSVDIndex(table, n_clusters=4, kept_dims=2, seed=0)
        assert _rounded(csvd.nearest(query, k)) == expected


class TestOnionBoundaryTieRegression:
    """Pin the strict-comparison bug: a tie straddling the K boundary
    must resolve to the smaller row, even across hull layers."""

    def test_cross_layer_boundary_tie_keeps_smallest_row(self):
        # Row 0 (layer 2, interior) ties row 2 (layer 1) at score 1.0
        # under w = (0.5, 0.5); the old strict `score > heap[0][0]`
        # eviction kept whichever tied row was seen first in layer order
        # (row 2) instead of row 0.
        table = Table(
            "tie",
            {
                "x": np.array([1.0, 0.0, 2.0, 2.0, 0.0]),
                "y": np.array([1.0, 0.0, 0.0, 2.0, 2.0]),
            },
        )
        index = OnionIndex(table)
        answers = index.top_k({"x": 0.5, "y": 0.5}, k=2)
        assert _rounded(answers) == [(3, 2.0), (0, 1.0)]

    def test_tie_on_a_deeper_layer_keeps_smallest_row(self):
        # Collinear points on x + y = 2: the hull keeps the two ends, so
        # row 0, the midpoint, lands on layer 1 although every row ties
        # under w = (-1, -1). Top-1 must read on and return row 0.
        table = Table(
            "line",
            {
                "x": np.array([1.0, 2.0, 2.0, 0.0]),
                "y": np.array([1.0, 0.0, 0.0, 2.0]),
            },
        )
        index = OnionIndex(table)
        assert list(index.layer(1)) == [0]
        answers = index.top_k({"x": -1.0, "y": -1.0}, k=1)
        assert _rounded(answers) == [(0, -2.0)]

    def test_within_layer_tie_keeps_smallest_row(self):
        # All four corners of a square tie under w = (0, 1) except the
        # two top corners; those tie each other and the smaller row must
        # win the single remaining slot.
        table = Table(
            "square",
            {
                "x": np.array([0.0, 2.0, 2.0, 0.0]),
                "y": np.array([2.0, 2.0, 0.0, 0.0]),
            },
        )
        index = OnionIndex(table)
        answers = index.top_k({"x": 0.0, "y": 1.0}, k=1)
        assert _rounded(answers) == [(0, 2.0)]


class TestOnionDeltaBufferCounters:
    """Pre-rebuild (layers + pending buffer) and post-rebuild states of
    the same logical data must account the same work classes."""

    @pytest.fixture()
    def index_with_pending(self) -> OnionIndex:
        table = Table(
            "base",
            {
                "x": np.array([1.0, 0.0, 2.0, 2.0, 0.0]),
                "y": np.array([1.0, 0.0, 0.0, 2.0, 2.0]),
            },
        )
        index = OnionIndex(table)
        index.insert({"x": 3.0, "y": 3.0})
        index.insert({"x": 0.5, "y": 0.5})
        return index

    def test_counters_equal_before_and_after_rebuild(
        self, index_with_pending
    ):
        index = index_with_pending
        weights = {"x": 0.5, "y": 0.5}
        # k covers every tuple, so both states must evaluate all 7
        # points: equal model evals and tuples by construction, and the
        # delta buffer must be tallied as a visited structure unit
        # (node) exactly like the layer holding those tuples after the
        # rebuild absorbs them.
        before = CostCounter()
        answers_before = index.top_k(weights, k=7, counter=before)
        index.rebuild()
        after = CostCounter()
        answers_after = index.top_k(weights, k=7, counter=after)

        assert _rounded(answers_before) == _rounded(answers_after)
        assert before.model_evals == after.model_evals
        assert before.tuples_examined == after.tuples_examined
        # (3.0, 3.0) forms a new outermost layer on rebuild and
        # (0.5, 0.5) joins the interior, so layer count grows by exactly
        # the one structure unit the pending buffer contributed before.
        assert before.nodes_visited == after.nodes_visited

    def test_pending_scan_charges_a_node(self, index_with_pending):
        index = index_with_pending
        counter = CostCounter()
        index.top_k({"x": 1.0, "y": 0.0}, k=1, counter=counter)
        # One outermost layer + the pending delta buffer.
        assert counter.nodes_visited == 2

    def test_no_pending_no_extra_node(self):
        table = Table(
            "base",
            {"x": np.array([0.0, 1.0, 2.0]), "y": np.array([0.0, 1.0, 2.0])},
        )
        index = OnionIndex(table)
        counter = CostCounter()
        index.top_k({"x": 1.0, "y": 0.0}, k=1, counter=counter)
        assert counter.nodes_visited == 1

    def test_answers_exact_while_pending(self, index_with_pending):
        index = index_with_pending
        weights = {"x": 0.5, "y": 0.5}
        got = index.top_k(weights, k=3)
        # (3.0, 3.0) is row 5 (appended first), best at 3.0; then row 3
        # at 2.0; then the row-0/row-2 tie at 1.0 -> row 0.
        assert _rounded(got) == [(5, 3.0), (3, 2.0), (0, 1.0)]
