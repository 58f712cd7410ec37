"""Experiment E7 — the Section 2.1 FICO scorecard calibration.

Paper claim: "the probability of foreclosures is less than 2% when the
score is higher than 680, while the probability of foreclosures increases
to 8% if the score is less than 620."

Reproduction: band rates of the synthetic population, plus Onion-indexed
scorecard retrieval cross-checked against sequential scan (the paper's
second linear-model application).
"""

from __future__ import annotations

import pytest

from repro.apps import credit
from repro.metrics.counters import CostCounter


@pytest.fixture(scope="module")
def scenario():
    return credit.build_scenario(n_applicants=6000, seed=101, max_layers=15)


class TestCreditCalibration:
    def test_published_band_rates(self, benchmark, report):
        report.header("<2% foreclosure above 680, ~8% below 620")
        population = credit.generate_credit_records(60000, seed=102)
        above = population.band_rate(680.0, 901.0)
        below = population.band_rate(300.0, 620.0)
        middle = population.band_rate(620.0, 680.0)
        report.row(above_680=above, between=middle, below_620=below)
        assert above < 0.02
        assert 0.05 < below < 0.12
        assert above < middle < below
        benchmark(credit.generate_credit_records, 5000, 103)

    def test_scorecard_retrieval_with_onion(self, benchmark, scenario, report):
        report.header("Onion-indexed top-K applicants == sequential scan")
        for best in (True, False):
            index_counter, scan_counter = CostCounter(), CostCounter()
            indexed = credit.top_k_applicants(
                scenario, 10, best=best, counter=index_counter
            )
            scanned = credit.top_k_applicants(
                scenario, 10, best=best, use_index=False, counter=scan_counter
            )
            assert [row for row, _ in indexed] == [row for row, _ in scanned]
            report.row(
                direction="safest" if best else "riskiest",
                onion_tuples=index_counter.tuples_examined,
                scan_tuples=scan_counter.tuples_examined,
                ratio=scan_counter.tuples_examined
                / index_counter.tuples_examined,
            )
        benchmark(credit.top_k_applicants, scenario, 10)

    def test_score_distribution_sanity(self, benchmark, scenario, report):
        """Scores must live in the published 300-900 range with most mass
        in the subprime-to-prime band."""
        report.header("score distribution")
        import numpy as np

        scores = scenario.population.scores
        percentiles = np.percentile(scores, [5, 50, 95])
        report.row(
            p5=float(percentiles[0]),
            median=float(percentiles[1]),
            p95=float(percentiles[2]),
        )
        assert 300.0 <= scores.min() and scores.max() <= 900.0
        assert 600.0 < percentiles[1] < 850.0
        benchmark(lambda: None)
