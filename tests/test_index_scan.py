"""Tests for the sequential-scan baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import QueryError
from repro.index.scan import scan_top_k
from repro.metrics.counters import CostCounter
from repro.models.linear import LinearModel
from repro.synth.gaussian import generate_gaussian_table


class TestScanTopK:
    def test_orders_best_first(self):
        table = generate_gaussian_table(100, 2, seed=5)
        model = LinearModel({"x1": 1.0, "x2": 1.0})
        result = scan_top_k(table, model, 5)
        scores = [score for _, score in result]
        assert scores == sorted(scores, reverse=True)

    def test_minimize(self):
        table = generate_gaussian_table(100, 2, seed=6)
        model = LinearModel({"x1": 1.0, "x2": 0.0})
        best = scan_top_k(table, model, 1, maximize=False)[0]
        assert best[1] == pytest.approx(float(table.column("x1").min()))

    def test_ties_break_by_row_index(self):
        from repro.data.table import Table

        table = Table("t", {"x": np.array([1.0, 1.0, 1.0, 0.0])})
        result = scan_top_k(table, LinearModel({"x": 1.0}), 2)
        assert [row for row, _ in result] == [0, 1]

    def test_counter_records_full_scan(self):
        table = generate_gaussian_table(150, 2, seed=7)
        counter = CostCounter()
        scan_top_k(table, LinearModel({"x1": 1.0, "x2": 1.0}), 3, counter=counter)
        assert counter.tuples_examined == 150
        assert counter.model_evals == 150

    def test_k_validation(self):
        table = generate_gaussian_table(10, 2, seed=8)
        with pytest.raises(QueryError):
            scan_top_k(table, LinearModel({"x1": 1.0, "x2": 1.0}), 0)

    def test_k_exceeding_table(self):
        table = generate_gaussian_table(4, 1, seed=9)
        result = scan_top_k(table, LinearModel({"x1": 1.0}), 10)
        assert len(result) == 4
