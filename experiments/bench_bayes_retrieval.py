"""Experiment F3 — Bayesian-network-ranked retrieval (Figure 3).

Paper artifact: the HPS high-risk-house network ("house surrounded by
bushes" AND "wet season followed by dry season"). Reproduction:

* variable-elimination posteriors match brute-force joint enumeration
  exactly while touching far fewer table entries;
* ranking candidate houses by posterior puts fully-evidenced high-risk
  houses first, matching the knowledge model's intent.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.apps import epidemiology
from repro.metrics.counters import CostCounter
from repro.models.bayes import BayesianNetwork
from repro.models.bayes_infer import VariableElimination


def _brute_force_posterior(
    network: BayesianNetwork, target: str, evidence: dict[str, str],
    counter: CostCounter | None = None,
) -> dict[str, float]:
    names = network.variable_names
    target_variable = network.variable(target)
    totals = {state: 0.0 for state in target_variable.states}
    state_spaces = [network.variable(name).states for name in names]
    for combination in itertools.product(*state_spaces):
        assignment = dict(zip(names, combination))
        if counter is not None:
            counter.add_model_evals(1, flops_each=len(names))
        if any(assignment[k] != v for k, v in evidence.items()):
            continue
        totals[assignment[target]] += network.joint_probability(assignment)
    normalizer = sum(totals.values())
    return {state: value / normalizer for state, value in totals.items()}


def _random_evidence(network: BayesianNetwork, rng, exclude: str) -> dict[str, str]:
    evidence = {}
    for name in network.variable_names:
        if name == exclude or rng.random() < 0.5:
            continue
        states = network.variable(name).states
        evidence[name] = states[int(rng.integers(0, len(states)))]
    return evidence


@pytest.fixture(scope="module")
def network():
    return epidemiology.hps_bayes_network()


class TestBayesRetrieval:
    def test_elimination_matches_enumeration(self, benchmark, network, report):
        report.header("variable elimination == joint enumeration, less work")
        inference = VariableElimination(network)
        rng = np.random.default_rng(73)
        elimination_counter, enumeration_counter = CostCounter(), CostCounter()
        for _ in range(25):
            evidence = _random_evidence(network, rng, "high_risk_house")
            expected = _brute_force_posterior(
                network, "high_risk_house", evidence, enumeration_counter
            )
            actual = inference.query(
                "high_risk_house", evidence, elimination_counter
            )
            for state, probability in expected.items():
                assert actual[state] == pytest.approx(probability)
        report.row(
            queries=25,
            elimination_flops=elimination_counter.flops,
            enumeration_evals=enumeration_counter.model_evals,
        )
        benchmark(inference.query, "high_risk_house", {"house": "yes"})

    def test_posterior_ranked_retrieval(self, benchmark, network, report):
        report.header("top-K houses by posterior (Figure 3 retrieval)")
        rng = np.random.default_rng(74)
        observations = []
        for _ in range(60):
            observations.append(
                _random_evidence(network, rng, "high_risk_house")
            )
        # Plant one fully-evidenced high-risk house (both intermediate
        # conditions observed true — the strongest possible evidence).
        observations.append(
            {
                "house": "yes",
                "bushes": "yes",
                "unusual_raining_season": "yes",
                "dry_season": "yes",
                "house_surrounded_by_bushes": "yes",
                "wet_then_dry_season": "yes",
            }
        )
        ranked = epidemiology.rank_houses_by_posterior(
            network, observations, k=5
        )
        report.row(
            best_house=ranked[0][0],
            best_posterior=ranked[0][1],
            fifth_posterior=ranked[4][1],
        )
        # The planted house must share the top posterior (random houses
        # that also observed both intermediates true tie with it).
        inference = VariableElimination(network)
        planted = inference.probability(
            "high_risk_house", "yes", observations[-1]
        )
        assert ranked[0][1] == pytest.approx(planted)
        posteriors = [p for _, p in ranked]
        assert posteriors == sorted(posteriors, reverse=True)
        benchmark(
            epidemiology.rank_houses_by_posterior, network,
            observations[:20], 5,
        )

    def test_top_k_explanations_beat_enumeration(
        self, benchmark, network, report
    ):
        """Top-K MPE — 'locate the top-K data patterns that satisfy the
        probabilistic rules' — via admissible best-first search."""
        from repro.models.bayes_mpe import (
            enumerate_explanations,
            most_probable_explanations,
        )

        report.header("top-K most probable explanations vs joint enumeration")
        evidence = {"high_risk_house": "yes"}
        search_counter, enumeration_counter = CostCounter(), CostCounter()
        search = most_probable_explanations(
            network, evidence, k=5, counter=search_counter
        )
        oracle = enumerate_explanations(
            network, evidence, k=5, counter=enumeration_counter
        )
        assert [round(p, 12) for _, p in search] == [
            round(p, 12) for _, p in oracle
        ]
        report.row(
            k=5,
            search_expansions=search_counter.model_evals,
            enumeration_evals=enumeration_counter.model_evals,
            best_pattern_p=search[0][1],
        )
        assert (
            search_counter.model_evals < enumeration_counter.model_evals
        )
        benchmark(most_probable_explanations, network, evidence, 5)

    def test_learned_cpts_preserve_ranking(self, benchmark, network, report):
        """Fit CPTs from samples of the expert network; posterior ranking
        must survive the round trip (the paper's expert+data combination)."""
        from repro.models.bayes import Variable
        from repro.models.bayes_learn import fit_cpts

        report.header("expert network -> sampled data -> learned network")
        records = network.sample(8000, seed=75)
        learned = BayesianNetwork("learned")
        for name in network.variable_names:
            learned.add_variable(
                Variable(name, network.variable(name).states),
                parents=network.parents(name),
            )
        fit_cpts(learned, records, alpha=1.0)

        expert_inference = VariableElimination(network)
        learned_inference = VariableElimination(learned)
        strong = {
            "house": "yes", "bushes": "yes",
            "unusual_raining_season": "yes", "dry_season": "yes",
        }
        weak = {"house": "no"}
        expert_strong = expert_inference.probability(
            "high_risk_house", "yes", strong
        )
        learned_strong = learned_inference.probability(
            "high_risk_house", "yes", strong
        )
        learned_weak = learned_inference.probability(
            "high_risk_house", "yes", weak
        )
        report.row(
            expert_strong=expert_strong,
            learned_strong=learned_strong,
            learned_weak=learned_weak,
        )
        assert learned_strong == pytest.approx(expert_strong, abs=0.1)
        assert learned_strong > learned_weak
        benchmark(fit_cpts, learned, records[:500], 1.0)
