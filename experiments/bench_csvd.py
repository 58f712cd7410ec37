"""Similarity-index contrast (Section 3.2, reference [14]).

Paper claim: high-dimensional similarity indexes (CSVD and kin) prune
well for similarity queries "through range queries", yet are "sub-optimal
for model-based queries, as these indices do not indicate where to find
data points that will maximize the model."

Measured on one CSVD index over Gaussian tuples: k-NN queries prune the
vast majority of tuples, while linear-optimization queries through the
same structure's similarity-oriented bounds examine a large fraction —
and the Onion index built for the model query dominates it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.csvd import CSVDIndex
from repro.index.onion import OnionIndex
from repro.metrics.counters import CostCounter
from repro.synth.gaussian import generate_gaussian_table

WEIGHTS = {"x1": 0.5, "x2": 0.3, "x3": 0.2}


@pytest.fixture(scope="module")
def dataset():
    table = generate_gaussian_table(10000, 3, seed=131)
    csvd = CSVDIndex(table, n_clusters=24, kept_dims=2, seed=0)
    onion = OnionIndex(table, max_layers=4)
    return table, csvd, onion


class TestSimilarityVsModelQueries:
    def test_knn_prunes_model_queries_do_not(self, benchmark, dataset, report):
        table, csvd, _ = dataset
        report.header("[14]-style index: great for k-NN, poor for models")
        rng = np.random.default_rng(0)

        knn_counter = CostCounter()
        for _ in range(10):
            point = rng.normal(size=3)
            query = {f"x{i + 1}": float(point[i]) for i in range(3)}
            csvd.nearest(query, k=5, counter=knn_counter)
        knn_fraction = knn_counter.tuples_examined / (10 * len(table))

        model_counter = CostCounter()
        csvd.top_k_linear(WEIGHTS, 5, counter=model_counter)
        model_fraction = model_counter.tuples_examined / len(table)

        report.row(
            knn_tuple_fraction=knn_fraction,
            model_tuple_fraction=model_fraction,
            suboptimality=model_fraction / knn_fraction,
        )
        assert knn_fraction < 0.15
        assert model_fraction > 3 * knn_fraction

        point = rng.normal(size=3)
        benchmark(
            csvd.nearest,
            {f"x{i + 1}": float(point[i]) for i in range(3)},
            5,
        )

    def test_onion_dominates_csvd_on_model_queries(
        self, benchmark, dataset, report
    ):
        table, csvd, onion = dataset
        report.header("model-specific index vs repurposed similarity index")
        csvd_counter, onion_counter = CostCounter(), CostCounter()
        csvd_answer = csvd.top_k_linear(WEIGHTS, 3, counter=csvd_counter)
        onion_answer = onion.top_k(WEIGHTS, 3, counter=onion_counter)
        assert [row for row, _ in csvd_answer] == [
            row for row, _ in onion_answer
        ]
        report.row(
            csvd_tuples=csvd_counter.tuples_examined,
            onion_tuples=onion_counter.tuples_examined,
            onion_advantage=csvd_counter.tuples_examined
            / onion_counter.tuples_examined,
        )
        assert (
            onion_counter.tuples_examined
            < csvd_counter.tuples_examined / 3
        )
        benchmark(onion.top_k, WEIGHTS, 3)

    def test_dimensionality_reduction_quality(self, benchmark, dataset, report):
        """kept_dims controls residuals; deeper reduction = weaker k-NN
        bounds = more exact confirmations (still exact answers)."""
        table, _, _ = dataset
        report.header("kept_dims vs k-NN confirmations (exactness invariant)")
        rng = np.random.default_rng(1)
        queries = [rng.normal(size=3) for _ in range(5)]
        reference = None
        for kept_dims in (1, 2, 3):
            index = CSVDIndex(table, n_clusters=24, kept_dims=kept_dims, seed=0)
            counter = CostCounter()
            answers = []
            for point in queries:
                query = {f"x{i + 1}": float(point[i]) for i in range(3)}
                answers.append(index.nearest(query, k=3, counter=counter))
            rounded = [
                [(row, round(distance, 9)) for row, distance in answer]
                for answer in answers
            ]
            if reference is None:
                reference = rounded
            else:
                assert rounded == reference
            report.row(
                kept_dims=kept_dims,
                tuples_confirmed=counter.tuples_examined,
            )
        benchmark(lambda: None)
