"""Tests for the HPS epidemiology application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import epidemiology
from repro.metrics.topk import (
    precision_recall_at_k,
    rank_locations_by_risk,
    relevant_locations,
)
from repro.models.bayes_infer import VariableElimination


@pytest.fixture(scope="module")
def scenario():
    return epidemiology.build_scenario(shape=(64, 64), seed=3)


class TestScenario:
    def test_stack_has_model_inputs(self, scenario):
        for name in scenario.model.attributes:
            assert name in scenario.stack

    def test_occurrences_correlate_with_truth(self, scenario):
        truth = scenario.true_risk
        counts = scenario.occurrences.values
        high = truth > np.quantile(truth, 0.8)
        low = truth < np.quantile(truth, 0.2)
        assert counts[high].mean() > counts[low].mean()

    def test_deterministic(self):
        first = epidemiology.build_scenario(shape=(32, 32), seed=9)
        second = epidemiology.build_scenario(shape=(32, 32), seed=9)
        assert np.array_equal(first.true_risk, second.true_risk)
        assert np.array_equal(
            first.occurrences.values, second.occurrences.values
        )


class TestRetrieval:
    def test_progressive_matches_exhaustive(self, scenario):
        progressive = epidemiology.retrieve_high_risk(
            scenario, k=15, progressive=True
        )
        exhaustive = epidemiology.retrieve_high_risk(
            scenario, k=15, progressive=False
        )
        assert sorted(round(s, 9) for s in progressive.scores) == sorted(
            round(s, 9) for s in exhaustive.scores
        )

    def test_progressive_does_less_work(self, scenario):
        progressive = epidemiology.retrieve_high_risk(scenario, k=15)
        exhaustive = epidemiology.retrieve_high_risk(
            scenario, k=15, progressive=False
        )
        assert (
            progressive.counter.total_work < exhaustive.counter.total_work
        )

    def test_topk_beats_random_precision(self, scenario):
        """The published model must retrieve event locations far better
        than chance (Section 4.1's retrieval-accuracy view)."""
        model_risk = scenario.model.evaluate_batch(
            {
                name: scenario.stack[name].values
                for name in scenario.model.attributes
            }
        )
        ranked = rank_locations_by_risk(model_risk)
        relevant = relevant_locations(scenario.occurrences.values)
        k = 100
        result = precision_recall_at_k(ranked, relevant, k=k)
        chance = len(relevant) / scenario.occurrences.values.size
        assert result.precision > 3 * chance


class TestBayesNetwork:
    def test_network_validates(self):
        network = epidemiology.hps_bayes_network()
        network.validate()

    def test_posterior_ordering_follows_evidence(self):
        inference = VariableElimination(epidemiology.hps_bayes_network())

        def posterior(evidence):
            return inference.probability("high_risk_house", "yes", evidence)

        strong = posterior(
            {
                "house": "yes",
                "bushes": "yes",
                "unusual_raining_season": "yes",
                "dry_season": "yes",
            },
        )
        weak = posterior({"house": "no"})
        neutral = posterior({})
        assert strong > neutral > weak

    def test_rank_houses(self):
        network = epidemiology.hps_bayes_network()
        observations = [
            {"house": "no"},
            {
                "house": "yes",
                "bushes": "yes",
                "unusual_raining_season": "yes",
                "dry_season": "yes",
            },
            {"house": "yes", "bushes": "no"},
        ]
        ranked = epidemiology.rank_houses_by_posterior(
            network, observations, k=3
        )
        assert ranked[0][0] == 1
        assert ranked[-1][0] == 0
        posteriors = [p for _, p in ranked]
        assert posteriors == sorted(posteriors, reverse=True)
