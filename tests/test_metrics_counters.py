"""Tests for repro.metrics.counters."""

from __future__ import annotations

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.counters import CostCounter, counted


class TestCostCounter:
    def test_starts_empty(self):
        counter = CostCounter()
        assert counter.total_work == 0
        assert counter.wall_seconds == 0.0

    def test_add_data_points(self):
        counter = CostCounter()
        counter.add_data_points(7)
        counter.add_data_points(3)
        assert counter.data_points == 10
        assert counter.total_work == 10

    def test_model_evals_accumulate_flops(self):
        counter = CostCounter()
        counter.add_model_evals(5, flops_each=8)
        assert counter.model_evals == 5
        assert counter.flops == 40

    def test_partial_evals_separate_from_full(self):
        counter = CostCounter()
        counter.add_partial_evals(3, flops_each=2)
        assert counter.partial_evals == 3
        assert counter.model_evals == 0
        assert counter.flops == 6

    def test_total_work_excludes_node_visits(self):
        counter = CostCounter()
        counter.add_nodes(100)
        assert counter.total_work == 0

    def test_total_work_sums_scaling_quantities(self):
        counter = CostCounter()
        counter.add_data_points(10)
        counter.add_tuples(5)
        counter.add_model_evals(1, flops_each=3)
        assert counter.total_work == 18

    def test_notes_accumulate(self):
        counter = CostCounter()
        counter.note("sort_ops", 10.0)
        counter.note("sort_ops", 5.0)
        assert counter.notes["sort_ops"] == 15.0

    def test_timed_context_accumulates(self):
        counter = CostCounter()
        with counter.timed():
            time.sleep(0.01)
        with counter.timed():
            time.sleep(0.01)
        assert counter.wall_seconds >= 0.02

    def test_addition_merges_all_fields(self):
        first = CostCounter(data_points=1, flops=2, tuples_examined=3)
        first.note("x", 1.0)
        second = CostCounter(data_points=10, model_evals=4, nodes_visited=5)
        second.note("x", 2.0)
        second.note("y", 7.0)
        merged = first + second
        assert merged.data_points == 11
        assert merged.flops == 2
        assert merged.model_evals == 4
        assert merged.nodes_visited == 5
        assert merged.notes == {"x": 3.0, "y": 7.0}

    def test_addition_with_non_counter_fails(self):
        with pytest.raises(TypeError):
            CostCounter() + 3  # noqa: B018

    def test_as_dict_includes_notes_and_totals(self):
        counter = CostCounter(data_points=4)
        counter.note("extra", 9.0)
        flat = counter.as_dict()
        assert flat["data_points"] == 4
        assert flat["total_work"] == 4
        assert flat["extra"] == 9.0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1000), st.integers(0, 50), st.integers(0, 1000)
            ),
            max_size=20,
        )
    )
    def test_merge_equals_sequential_addition(self, parts):
        counters = []
        for data, evals, tuples in parts:
            counter = CostCounter()
            counter.add_data_points(data)
            counter.add_model_evals(evals, flops_each=2)
            counter.add_tuples(tuples)
            counters.append(counter)
        merged = sum(counters, CostCounter())
        assert merged.data_points == sum(p[0] for p in parts)
        assert merged.model_evals == sum(p[1] for p in parts)
        assert merged.flops == 2 * sum(p[1] for p in parts)
        assert merged.tuples_examined == sum(p[2] for p in parts)


class TestCountedHelper:
    def test_passes_through_real_counter(self):
        counter = CostCounter()
        with counted(counter) as active:
            active.add_data_points(3)
        assert counter.data_points == 3

    def test_supplies_throwaway_for_none(self):
        with counted(None) as active:
            active.add_data_points(3)
            assert active.data_points == 3
