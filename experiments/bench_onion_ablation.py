"""Onion construction ablation (DESIGN.md Section 5).

Full convex-hull peeling gives exact answers for any K but costs the most
to build; capping the peel at D layers bounds build time while staying
exact for K < D (deeper K falls back to scanning the interior bucket).
This ablation prices that trade and shows where the cap stops paying.
"""

from __future__ import annotations

import time

import pytest

from repro.index.onion import OnionIndex
from repro.index.scan import scan_top_k
from repro.metrics.counters import CostCounter
from repro.models.linear import LinearModel
from repro.synth.gaussian import generate_gaussian_table

WEIGHTS = {"x1": 0.4, "x2": 0.4, "x3": 0.2}
MODEL = LinearModel(WEIGHTS, name="ablation_query")


@pytest.fixture(scope="module")
def table():
    return generate_gaussian_table(20000, 3, seed=121)


class TestOnionConstructionAblation:
    def test_layer_cap_build_query_trade(self, benchmark, table, report):
        report.header("peel-depth cap: build cost vs deep-K query cost")
        expected_deep = scan_top_k(table, MODEL, 40)
        rows_expected = [row for row, _ in expected_deep]

        for max_layers in (5, 15, 45, None):
            start = time.perf_counter()
            index = OnionIndex(table, max_layers=max_layers)
            build_seconds = time.perf_counter() - start

            shallow_counter, deep_counter = CostCounter(), CostCounter()
            index.top_k(WEIGHTS, 1, counter=shallow_counter)
            deep = index.top_k(WEIGHTS, 40, counter=deep_counter)
            assert [row for row, _ in deep] == rows_expected

            report.row(
                max_layers=max_layers if max_layers else -1,
                built_layers=index.n_layers,
                build_seconds=build_seconds,
                top1_tuples=shallow_counter.tuples_examined,
                top40_tuples=deep_counter.tuples_examined,
            )
        benchmark(OnionIndex, table, None, 5)

    def test_correlation_degrades_layers(self, benchmark, report):
        """Correlated attributes squash the point cloud: fewer distinct
        extreme points per layer means deeper peels for the same K and a
        weaker index — the data-dependence a deployment must know about."""
        report.header("attribute correlation vs outer-layer size (N=10k)")
        for correlation in (0.0, 0.5, 0.9):
            table = generate_gaussian_table(
                10000, 3, seed=122, correlation=correlation
            )
            index = OnionIndex(table, max_layers=4)
            counter = CostCounter()
            index.top_k(WEIGHTS, 1, counter=counter)
            report.row(
                correlation=correlation,
                outer_layer=index.layer_sizes()[0],
                top1_tuples=counter.tuples_examined,
            )
        benchmark(lambda: None)
