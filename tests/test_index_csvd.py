"""Tests for the CSVD clustering+SVD index (reference [14])."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.table import Table
from repro.exceptions import IndexError_
from repro.index.csvd import CSVDIndex
from repro.index.scan import scan_top_k
from repro.metrics.counters import CostCounter
from repro.models.linear import LinearModel
from repro.synth.gaussian import generate_gaussian_table


@pytest.fixture(scope="module")
def table():
    return generate_gaussian_table(1500, 3, seed=31)


@pytest.fixture(scope="module")
def index(table):
    return CSVDIndex(table, n_clusters=10, kept_dims=2, seed=0)


def _brute_nearest(matrix, query, k):
    distances = np.linalg.norm(matrix - query, axis=1)
    order = np.argsort(distances, kind="stable")[:k]
    return [(int(i), float(distances[i])) for i in order]


class TestConstruction:
    def test_clusters_cover_rows(self, index, table):
        covered = sorted(
            int(row) for cluster in index._clusters for row in cluster.rows
        )
        assert covered == list(range(len(table)))

    def test_parameter_validation(self, table):
        with pytest.raises(IndexError_):
            CSVDIndex(table, n_clusters=0)
        with pytest.raises(IndexError_):
            CSVDIndex(table, kept_dims=0)
        with pytest.raises(IndexError_):
            CSVDIndex(table, attributes=[])

    def test_kept_dims_clipped(self, table):
        index = CSVDIndex(table, kept_dims=99, seed=0)
        assert index.kept_dims == 3

    def test_more_clusters_than_rows(self):
        small = generate_gaussian_table(5, 2, seed=1)
        index = CSVDIndex(small, n_clusters=50, seed=0)
        assert index.n_clusters <= 5


    @pytest.mark.parametrize("alphabet", [1, 2, 3])
    def test_more_clusters_than_distinct_points(self, alphabet):
        """k-means++ has nothing to seed a surplus cluster from, and used
        to say so twice (a 0/0 sampling weight, then an empty cluster)."""
        generator = np.random.default_rng(alphabet)
        values = generator.integers(0, alphabet, size=(40, 2)).astype(float)
        table = Table("dupes", {"x": values[:, 0], "y": values[:, 1]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index = CSVDIndex(table, n_clusters=12, seed=0)
        assert 1 <= index.n_clusters <= alphabet**2
        covered = sorted(
            int(row) for cluster in index._clusters for row in cluster.rows
        )
        assert covered == list(range(40))
        assert index.nearest({"x": 0.0, "y": 0.0}, k=3) == [
            (int(row), float(np.linalg.norm(values[row])))
            for row in np.argsort(
                np.linalg.norm(values, axis=1), kind="stable"
            )[:3]
        ]


class TestNearestNeighbour:
    @given(
        k=st.integers(1, 10),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_exact_against_brute_force(self, index, table, k, seed):
        rng = np.random.default_rng(seed)
        query_point = rng.normal(size=3)
        query = {f"x{i + 1}": float(query_point[i]) for i in range(3)}
        expected = _brute_nearest(table.matrix(), query_point, k)
        actual = index.nearest(query, k=k)
        assert [round(d, 9) for _, d in actual] == [
            round(d, 9) for _, d in expected
        ]

    def test_prunes_most_tuples(self, index, table):
        counter = CostCounter()
        index.nearest({"x1": 0.2, "x2": -0.1, "x3": 0.4}, k=1, counter=counter)
        assert counter.tuples_examined < len(table) / 5

    def test_query_validation(self, index):
        with pytest.raises(IndexError_):
            index.nearest({"x1": 0.0}, k=1)
        with pytest.raises(IndexError_):
            index.nearest({"x1": 0.0, "x2": 0.0, "x3": 0.0}, k=0)

    def test_lower_bound_soundness_under_heavy_reduction(self, table):
        """kept_dims=1 maximizes residuals; exactness must survive."""
        index = CSVDIndex(table, n_clusters=6, kept_dims=1, seed=0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            query_point = rng.normal(size=3)
            query = {f"x{i + 1}": float(query_point[i]) for i in range(3)}
            expected = _brute_nearest(table.matrix(), query_point, 3)
            actual = index.nearest(query, k=3)
            assert [round(d, 9) for _, d in actual] == [
                round(d, 9) for _, d in expected
            ]


class TestLinearTopK:
    def test_matches_scan(self, index, table):
        weights = {"x1": 0.5, "x2": 0.3, "x3": 0.2}
        expected = scan_top_k(table, LinearModel(weights), 5)
        actual = index.top_k_linear(weights, 5)
        assert [row for row, _ in actual] == [row for row, _ in expected]

    def test_minimize(self, index, table):
        weights = {"x1": 1.0, "x2": 0.0, "x3": 0.0}
        actual = index.top_k_linear(weights, 1, maximize=False)
        assert actual[0][1] == pytest.approx(float(table.column("x1").min()))

    def test_similarity_bounds_are_loose_for_model_queries(self, index, table):
        """The paper's point (S3.2): a similarity index prunes poorly for
        linear-optimization queries compared to its own k-NN pruning."""
        linear_counter, nearest_counter = CostCounter(), CostCounter()
        index.top_k_linear(
            {"x1": 0.5, "x2": 0.3, "x3": 0.2}, 1, counter=linear_counter
        )
        index.nearest(
            {"x1": 0.0, "x2": 0.0, "x3": 0.0}, k=1, counter=nearest_counter
        )
        assert (
            linear_counter.tuples_examined > nearest_counter.tuples_examined
        )

    def test_k_validation(self, index):
        with pytest.raises(IndexError_):
            index.top_k_linear({"x1": 1.0, "x2": 0.0, "x3": 0.0}, 0)
