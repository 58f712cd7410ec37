"""Experiment E4 — SPROC complexity reduction (Section 3.2, [15, 16]).

Paper claim: fuzzy Cartesian query evaluation drops from O(L^M) to
O(M*K*L^2) with the SPROC dynamic program, and further to roughly
O(M*L*log L + sqrt(L*K) + K^2*log K) with the sorted algorithm of [16].

We count tuples examined while sweeping L (database size), M (number of
rule components) and K, verifying the scaling *exponents*: naive grows as
L^M and explodes with M; DP grows quadratically in L and linearly in M
and K; the sorted best-first variant grows sub-quadratically on sparse
(adjacency-constrained) queries. All three return identical answers.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.counters import CostCounter
from repro.sproc.dp import sproc_top_k
from repro.sproc.fast import fast_top_k
from repro.sproc.naive import naive_top_k
from repro.sproc.query import CompositeQuery


def _dense_query(n_components: int, n_objects: int, seed: int) -> CompositeQuery:
    rng = np.random.default_rng(seed)
    return CompositeQuery(
        [f"c{i}" for i in range(n_components)],
        rng.random((n_components, n_objects)),
        [rng.random((n_objects, n_objects)) for _ in range(n_components - 1)],
    )


def _chain_query(n_components: int, n_objects: int, seed: int) -> CompositeQuery:
    """Adjacency-constrained query (the geology 'immediately below')."""
    rng = np.random.default_rng(seed)
    successors = [
        [[obj + 1] if obj + 1 < n_objects else [] for obj in range(n_objects)]
        for _ in range(n_components - 1)
    ]

    def adjacency(stage: int, prev_obj: int, next_obj: int) -> float:
        return 1.0 if next_obj == prev_obj + 1 else 0.0

    return CompositeQuery(
        [f"c{i}" for i in range(n_components)],
        rng.random((n_components, n_objects)),
        adjacency,
        successors=successors,
    )


def _run(evaluate, query, k=5) -> CostCounter:
    counter = CostCounter()
    with counter.timed():
        evaluate(query, k, counter)
    return counter


def _work(evaluate, query, k=5) -> int:
    return _run(evaluate, query, k).tuples_examined


class TestSprocComplexity:
    def test_l_scaling_exponents(self, benchmark, report):
        report.header("O(L^M) -> O(MKL^2) -> ~O(ML log L) as L grows (M=3, K=5)")
        sizes = (8, 16, 32)
        work = {"naive": [], "dp": [], "fast": []}
        for n_objects in sizes:
            dense = _dense_query(3, n_objects, seed=1)
            chain = _chain_query(3, n_objects, seed=1)
            answers = {
                "naive": naive_top_k(dense, 5),
                "dp": sproc_top_k(dense, 5),
                "fast": fast_top_k(dense, 5),
            }
            scores = [round(s, 10) for _, s in answers["naive"]]
            assert scores == [round(s, 10) for _, s in answers["dp"]]
            assert scores == [round(s, 10) for _, s in answers["fast"]]

            naive, dp = _run(naive_top_k, dense), _run(sproc_top_k, dense)
            work["naive"].append(naive.tuples_examined)
            work["dp"].append(dp.tuples_examined)
            work["fast"].append(_work(fast_top_k, chain))
            report.row(
                L=n_objects,
                naive=work["naive"][-1],
                dp=work["dp"][-1],
                fast_chain=work["fast"][-1],
                wall_ratio=naive.wall_seconds / dp.wall_seconds,
            )

        def exponent(series):
            return np.polyfit(np.log(sizes), np.log(series), 1)[0]

        naive_exp = exponent(work["naive"])
        dp_exp = exponent(work["dp"])
        fast_exp = exponent(work["fast"])
        report.row(naive_exponent=naive_exp, dp_exponent=dp_exp,
                   fast_exponent=fast_exp)
        assert naive_exp > 2.7  # ~L^3
        assert 1.6 < dp_exp < 2.4  # ~L^2
        assert fast_exp < 1.6  # sub-quadratic on sparse queries

        benchmark(sproc_top_k, _dense_query(3, 32, seed=1), 5)

    def test_m_scaling(self, benchmark, report):
        report.header("naive explodes with M; DP grows linearly (L=10, K=3)")
        for n_components in (2, 3, 4):
            dense = _dense_query(n_components, 10, seed=2)
            naive = _run(naive_top_k, dense, k=3)
            dp = _run(sproc_top_k, dense, k=3)
            naive_work, dp_work = naive.tuples_examined, dp.tuples_examined
            report.row(
                M=n_components,
                naive=naive_work,
                dp=dp_work,
                wall_ratio=naive.wall_seconds / dp.wall_seconds,
            )
            if n_components == 4:
                assert naive_work > 20 * dp_work
        benchmark(lambda: None)

    def test_k_scaling_and_crossover(self, benchmark, report):
        """DP work grows with K; for K ~ L^(M-1) the naive evaluation
        eventually wins — the crossover the complexity formulas imply."""
        report.header("DP work grows with K (L=12, M=3); crossover at huge K")
        n_objects = 12
        dense = _dense_query(3, n_objects, seed=3)
        naive_work = _work(naive_top_k, dense, k=1)
        previous = 0
        for k in (1, 8, 64):
            dp_work = 0
            counter = CostCounter()
            sproc_top_k(dense, k, counter)
            dp_work = counter.tuples_examined + counter.model_evals
            report.row(K=k, dp_work=dp_work, naive_work=naive_work)
            assert dp_work >= previous
            previous = dp_work
        benchmark(fast_top_k, dense, 8)
