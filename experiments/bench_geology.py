"""Experiment F4 — the Figure 4 geology knowledge model.

Paper artifact: "riverbed consists of shale, on top of sandstone, on top
of siltstone, and the Gamma ray of these region is higher than 45".
Reproduction: SPROC retrieval of that composite pattern over a synthetic
well field — exact agreement with exhaustive enumeration, at the DP/fast
work levels the paper quotes, and sane geology (planted riverbeds found,
gamma gate effective).
"""

from __future__ import annotations

import pytest

from repro.apps import geology
from repro.metrics.counters import CostCounter
from repro.sproc.dp import sproc_top_k
from repro.sproc.fast import fast_top_k
from repro.sproc.naive import naive_top_k
from repro.synth.welllog import WellLogParams, layer_runs


@pytest.fixture(scope="module")
def scenario():
    return geology.build_scenario(
        n_wells=40,
        total_depth_m=250.0,
        seed=81,
        params=WellLogParams(riverbed_probability=0.5),
    )


class TestGeologyRetrieval:
    def test_sproc_vs_naive_on_well_field(self, benchmark, scenario, report):
        report.header("SPROC vs naive on Figure 4 queries (per-well top-1)")
        counters = {
            "naive": CostCounter(), "dp": CostCounter(), "fast": CostCounter()
        }
        checked = 0
        for well in scenario.wells[:10]:
            query, _ = geology.riverbed_query(well)
            if query.n_objects < 3:
                continue
            answers = {
                "naive": naive_top_k(query, 1, counters["naive"]),
                "dp": sproc_top_k(query, 1, counters["dp"]),
                "fast": fast_top_k(query, 1, counters["fast"]),
            }
            reference = round(answers["naive"][0][1], 10)
            assert round(answers["dp"][0][1], 10) == reference
            assert round(answers["fast"][0][1], 10) == reference
            checked += 1
        report.row(
            wells=checked,
            naive_tuples=counters["naive"].tuples_examined,
            dp_tuples=counters["dp"].tuples_examined,
            fast_tuples=counters["fast"].tuples_examined,
        )
        assert (
            counters["naive"].tuples_examined
            > counters["dp"].tuples_examined
            > counters["fast"].tuples_examined
        )
        benchmark(geology.find_riverbeds, scenario, 1, 10)

    def test_planted_riverbeds_are_found(self, benchmark, scenario, report):
        report.header("retrieval quality: planted riverbeds score ~1")
        matches = geology.find_riverbeds(scenario, k_total=10)
        report.row(
            matches=len(matches),
            best_score=matches[0].score if matches else 0.0,
            tenth_score=matches[-1].score if matches else 0.0,
        )
        assert matches, "a 50%-planted field must contain matches"
        assert matches[0].score > 0.9
        benchmark(lambda: None)

    def test_gamma_gate_controls_matches(self, benchmark, scenario, report):
        """Raising the gamma-ray threshold must monotonically suppress
        match scores (the 'GR higher than 45' knob)."""
        report.header("gamma-ray threshold sweep")
        previous_best = float("inf")
        for threshold in (45.0, 95.0, 130.0):
            matches = geology.find_riverbeds(
                scenario, k_total=5, gamma_threshold=threshold
            )
            best = matches[0].score if matches else 0.0
            report.row(gamma_threshold=threshold, best_score=best)
            assert best <= previous_best + 1e-9
            previous_best = best
        benchmark(lambda: None)

    def test_run_statistics(self, benchmark, scenario, report):
        report.header("well-field statistics (the L in the complexity bounds)")
        run_counts = [len(layer_runs(well)) for well in scenario.wells]
        report.row(
            wells=len(scenario.wells),
            min_runs=min(run_counts),
            mean_runs=sum(run_counts) / len(run_counts),
            max_runs=max(run_counts),
        )
        benchmark(layer_runs, scenario.wells[0])
