"""Experiment E6 — the Section 4.1 accuracy metrics.

Paper claim (qualitative): thresholding a risk model trades misses
against false alarms; the weighted total cost CT has an interior optimum
when the two error costs differ; top-K retrieval accuracy is measured by
precision and recall against locations with O(x,y) > 0.

Regenerates the cost curve across thresholds (monotone miss/false-alarm
trade, interior CT minimum) and the precision/recall-at-K series for the
published HPS model on a synthetic ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import epidemiology
from repro.metrics.accuracy import CostModel, cost_curve
from repro.metrics.topk import (
    precision_recall_at_k,
    rank_locations_by_risk,
    relevant_locations,
)

SHAPE = (256, 256)


@pytest.fixture(scope="module")
def surfaces():
    scenario = epidemiology.build_scenario(shape=SHAPE, seed=61)
    risk = scenario.model.evaluate_batch(
        {
            name: scenario.stack[name].values
            for name in scenario.model.attributes
        }
    )
    return risk, scenario.occurrences.values


class TestCostCurve:
    def test_threshold_sweep_shape(self, benchmark, surfaces, report):
        risk, occurrences = surfaces
        report.header("miss/false-alarm trade + interior CT optimum (cm=5, cf=1)")
        thresholds = np.quantile(risk, np.linspace(0.05, 0.995, 15))
        curve = cost_curve(
            risk, occurrences, thresholds,
            CostModel(miss_cost=5.0, false_alarm_cost=1.0),
        )
        for point in curve[::3]:
            report.row(
                threshold=point.threshold,
                miss_rate=point.miss_rate,
                false_alarm_rate=point.false_alarm_rate,
                total_cost=point.total_cost,
            )
        misses = [point.miss_rate for point in curve]
        false_alarms = [point.false_alarm_rate for point in curve]
        assert misses == sorted(misses)
        assert false_alarms == sorted(false_alarms, reverse=True)

        costs = [point.total_cost for point in curve]
        best = int(np.argmin(costs))
        report.row(optimal_threshold=curve[best].threshold,
                   optimal_cost=costs[best])
        assert 0 < best < len(curve) - 1, "CT optimum must be interior"

        benchmark(
            cost_curve, risk, occurrences, thresholds,
            CostModel(miss_cost=5.0),
        )

    def test_cost_weights_move_the_optimum(self, benchmark, surfaces, report):
        """Dearer misses push the optimal threshold down (declare more
        area high-risk) — the tradeoff Section 4.1 highlights."""
        risk, occurrences = surfaces
        report.header("optimum shifts with the cm/cf ratio")
        thresholds = np.quantile(risk, np.linspace(0.05, 0.995, 30))
        optima = []
        for miss_cost in (1.0, 5.0, 25.0):
            curve = cost_curve(
                risk, occurrences, thresholds, CostModel(miss_cost=miss_cost)
            )
            best = min(curve, key=lambda point: point.total_cost)
            optima.append(best.threshold)
            report.row(miss_cost=miss_cost, optimal_threshold=best.threshold)
        assert optima == sorted(optima, reverse=True)
        benchmark(lambda: None)


class TestTopKAccuracy:
    def test_precision_recall_series(self, benchmark, surfaces, report):
        risk, occurrences = surfaces
        report.header("precision/recall at K for the published HPS model")
        ranked = rank_locations_by_risk(risk)
        relevant = relevant_locations(occurrences)
        chance = len(relevant) / occurrences.size
        precisions = []
        for k in (10, 50, 200, 1000):
            result = precision_recall_at_k(ranked, relevant, k=k)
            precisions.append(result.precision)
            report.row(
                k=k,
                precision=result.precision,
                recall=result.recall,
                chance_precision=chance,
            )
        assert precisions[0] > 3 * chance, "model must beat chance at small K"
        recalls = [
            precision_recall_at_k(ranked, relevant, k=k).recall
            for k in (10, 50, 200, 1000)
        ]
        assert recalls == sorted(recalls)
        benchmark(rank_locations_by_risk, risk)
