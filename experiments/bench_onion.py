"""Experiment E1 — the Onion index speedup (paper Section 3.2).

Paper claim (quoting [11]): on three-attribute Gaussian data, Onion beats
sequential scan by **13,000x for top-1** and **1,400x for top-10**.

We reproduce the *shape*: tuples-touched ratios that grow steeply as K
shrinks and as N grows, with top-1 >> top-10. Absolute factors depend on
N (the authors' exact sizes are not published in the reproduced paper);
the ratio series across N shows the trend toward their regime.
"""

from __future__ import annotations

import pytest

from repro.index.onion import OnionIndex
from repro.index.rtree import RStarTree
from repro.index.scan import scan_top_k
from repro.metrics.counters import CostCounter
from repro.models.linear import LinearModel
from repro.synth.gaussian import generate_gaussian_table

WEIGHTS = {"x1": 0.5, "x2": 0.3, "x3": 0.2}
MODEL = LinearModel(WEIGHTS, name="e1_query")


@pytest.fixture(scope="module")
def dataset():
    table = generate_gaussian_table(60000, 3, seed=1)
    index = OnionIndex(table, max_layers=12)  # exact for K <= 11
    return table, index


class TestOnionSpeedup:
    @pytest.mark.parametrize("k", [1, 10])
    def test_speedup_vs_sequential_scan(self, benchmark, dataset, report, k):
        table, index = dataset
        report.header("13,000x top-1 / 1,400x top-10 vs sequential scan")

        onion_counter, scan_counter = CostCounter(), CostCounter()
        with scan_counter.timed():
            expected = scan_top_k(table, MODEL, k, counter=scan_counter)
        with onion_counter.timed():
            actual = index.top_k(WEIGHTS, k, counter=onion_counter)
        assert [row for row, _ in actual] == [row for row, _ in expected]

        benchmark(index.top_k, WEIGHTS, k)

        tuple_ratio = scan_counter.tuples_examined / onion_counter.tuples_examined
        report.row(
            n=len(table),
            k=k,
            scan_tuples=scan_counter.tuples_examined,
            onion_tuples=onion_counter.tuples_examined,
            tuple_ratio=tuple_ratio,
            wall_ratio=scan_counter.wall_seconds / onion_counter.wall_seconds,
        )
        # Shape assertions: big ratios, top-1 much leaner than top-10.
        assert tuple_ratio > (300 if k == 1 else 30)

    def test_ratio_grows_with_n(self, benchmark, report):
        report.header("speedup grows with archive size (toward the paper's regime)")
        ratios = []
        for n_rows in (2000, 20000, 60000):
            table = generate_gaussian_table(n_rows, 3, seed=2)
            index = OnionIndex(table, max_layers=3)
            counter = CostCounter()
            index.top_k(WEIGHTS, 1, counter=counter)
            ratio = n_rows / counter.tuples_examined
            ratios.append(ratio)
            report.row(n=n_rows, onion_tuples=counter.tuples_examined,
                       tuple_ratio=ratio)
        assert ratios == sorted(ratios), "speedup must grow with N"
        benchmark(lambda: None)

    def test_rtree_contrast(self, benchmark, dataset, report):
        """Section 3.2's contrast: spatial indexes are 'sub-optimal for
        model-based queries' — even best-first R*-tree search touches far
        more structure than Onion layers for top-1."""
        table, index = dataset
        report.header("R*-tree best-first vs Onion (model-query suboptimality)")
        tree = RStarTree.from_table(table, max_entries=32)
        weights = MODEL.weight_vector(("x1", "x2", "x3"))

        rtree_counter, onion_counter = CostCounter(), CostCounter()
        rtree_answer = tree.top_k_linear(weights, 1, counter=rtree_counter)
        onion_answer = index.top_k(WEIGHTS, 1, counter=onion_counter)
        assert rtree_answer[0][0] == onion_answer[0][0]

        benchmark(tree.top_k_linear, weights, 1)
        report.row(
            rtree_tuples=rtree_counter.tuples_examined,
            rtree_nodes=rtree_counter.nodes_visited,
            onion_tuples=onion_counter.tuples_examined,
            onion_layers=onion_counter.nodes_visited,
        )
