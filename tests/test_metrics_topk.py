"""Tests for top-K precision/recall metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.topk import (
    precision_recall_at_k,
    rank_locations_by_risk,
    relevant_locations,
)


class TestPrecisionRecall:
    def test_perfect_retrieval(self):
        result = precision_recall_at_k(["a", "b"], {"a", "b"}, k=2)
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.f1 == 1.0

    def test_partial_overlap(self):
        result = precision_recall_at_k(["a", "x", "b", "y"], {"a", "b"}, k=4)
        assert result.precision == 0.5
        assert result.recall == 1.0

    def test_k_truncates_ranking(self):
        result = precision_recall_at_k(["x", "a", "b"], {"a", "b"}, k=1)
        assert result.precision == 0.0
        assert result.recall == 0.0

    def test_defaults_k_to_full_ranking(self):
        result = precision_recall_at_k(["a", "b", "c"], {"a"})
        assert result.k == 3
        assert result.precision == pytest.approx(1 / 3)

    def test_empty_relevant_set_gives_zero_recall(self):
        result = precision_recall_at_k(["a"], set(), k=1)
        assert result.recall == 0.0
        assert result.f1 == 0.0

    def test_k_zero(self):
        result = precision_recall_at_k(["a"], {"a"}, k=0)
        assert result.precision == 0.0

    def test_negative_k_raises(self):
        with pytest.raises(ValueError):
            precision_recall_at_k(["a"], {"a"}, k=-1)

    def test_curve_recall_non_decreasing(self):
        ranking = list("abcdefgh")
        relevant = {"b", "e", "h"}
        curve = [precision_recall_at_k(ranking, relevant, k) for k in range(1, 9)]
        recalls = [point.recall for point in curve]
        assert recalls == sorted(recalls)

    @given(st.integers(1, 20))
    def test_precision_recall_identity(self, k):
        """retrieved_relevant = precision*k = recall*|relevant|."""
        ranking = [f"item{i}" for i in range(30)]
        relevant = {f"item{i}" for i in range(0, 30, 3)}
        result = precision_recall_at_k(ranking, relevant, k=k)
        assert result.n_retrieved_relevant == pytest.approx(result.precision * k)
        assert result.n_retrieved_relevant == pytest.approx(
            result.recall * len(relevant)
        )


class TestGridHelpers:
    def test_rank_locations_descending(self):
        risk = np.array([[0.1, 0.9], [0.5, 0.3]])
        ranked = rank_locations_by_risk(risk)
        assert ranked[0] == (0, 1)
        assert ranked[1] == (1, 0)
        assert ranked[-1] == (0, 0)

    def test_rank_tie_break_row_major(self):
        risk = np.array([[0.5, 0.5], [0.5, 0.5]])
        ranked = rank_locations_by_risk(risk)
        assert ranked == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rank_rejects_non_2d(self):
        with pytest.raises(ValueError):
            rank_locations_by_risk(np.zeros(4))

    def test_relevant_locations(self):
        occurrences = np.array([[0, 2], [1, 0]])
        assert relevant_locations(occurrences) == {(0, 1), (1, 0)}

    def test_end_to_end_with_correlated_risk(self):
        rng = np.random.default_rng(0)
        risk = rng.random((20, 20))
        occurrences = (risk > 0.8).astype(int)
        ranked = rank_locations_by_risk(risk)
        relevant = relevant_locations(occurrences)
        result = precision_recall_at_k(ranked, relevant, k=len(relevant))
        assert result.precision == 1.0
        assert result.recall == 1.0
