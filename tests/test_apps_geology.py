"""Tests for the geology riverbed application (Figure 4)."""

from __future__ import annotations

import pytest

from repro.apps import geology
from repro.metrics.counters import CostCounter
from repro.sproc.naive import naive_top_k
from repro.synth.welllog import LITHOLOGY_NAMES, WellLogParams


@pytest.fixture(scope="module")
def scenario():
    return geology.build_scenario(
        n_wells=15,
        total_depth_m=150.0,
        seed=5,
        params=WellLogParams(riverbed_probability=0.6),
    )


class TestRiverbedQuery:
    def test_query_dimensions(self, scenario):
        well = scenario.wells[0]
        query, runs = geology.riverbed_query(well)
        assert query.n_components == 3
        assert query.n_objects == len(runs)

    def test_adjacency_only_links_consecutive_runs(self, scenario):
        query, _ = geology.riverbed_query(scenario.wells[0])
        assert query.compatibility(0, 3, 4) == 1.0
        assert query.compatibility(0, 3, 5) == 0.0
        assert query.compatibility(0, 3, 3) == 0.0

    def test_textbook_sequence_scores_high(self, scenario):
        """A planted shale/sandstone/siltstone triplet must score ~1."""
        found_good = False
        for well in scenario.wells:
            query, runs = geology.riverbed_query(well)
            names = [LITHOLOGY_NAMES[code] for code, _, _ in runs]
            for i in range(len(names) - 2):
                if names[i: i + 3] == ["shale", "sandstone", "siltstone"]:
                    score = query.score((i, i + 1, i + 2))
                    assert score > 0.5
                    found_good = True
        assert found_good, "no planted riverbed in the scenario"

    def test_wrong_lithology_scores_zero(self, scenario):
        query, runs = geology.riverbed_query(scenario.wells[0])
        names = [LITHOLOGY_NAMES[code] for code, _, _ in runs]
        for i in range(len(names) - 2):
            if names[i] != "shale":
                assert query.score((i, i + 1, i + 2)) == 0.0
                break


class TestFindRiverbeds:
    def test_fast_and_dp_agree(self, scenario):
        fast = geology.find_riverbeds(scenario, k_total=8, algorithm="fast")
        dp = geology.find_riverbeds(scenario, k_total=8, algorithm="dp")
        assert [round(m.score, 9) for m in fast] == [
            round(m.score, 9) for m in dp
        ]

    def test_matches_verified_by_naive_oracle(self, scenario):
        """Per-well best assignment must equal exhaustive enumeration."""
        for well in scenario.wells[:5]:
            query, _ = geology.riverbed_query(well)
            if query.n_objects < 3:
                continue
            oracle = naive_top_k(query, 1)[0]
            matches = geology.find_riverbeds(
                geology.GeologyScenario([well]), k_per_well=1, k_total=1
            )
            if oracle[1] <= 0.0:
                assert matches == []
            else:
                assert matches[0].score == pytest.approx(oracle[1])

    def test_matches_sorted_and_depths_ordered(self, scenario):
        matches = geology.find_riverbeds(scenario, k_total=10)
        scores = [m.score for m in matches]
        assert scores == sorted(scores, reverse=True)
        for match in matches:
            assert match.depth_top_m < match.depth_bottom_m

    def test_counter_tallies_work(self, scenario):
        counter = CostCounter()
        geology.find_riverbeds(scenario, k_total=5, counter=counter)
        assert counter.total_work > 0

    def test_unknown_algorithm_rejected(self, scenario):
        with pytest.raises(ValueError):
            geology.find_riverbeds(scenario, algorithm="quantum")

    def test_gamma_threshold_filters(self, scenario):
        """An absurd gamma threshold must suppress all matches."""
        matches = geology.find_riverbeds(
            scenario, k_total=10, gamma_threshold=100000.0
        )
        assert all(match.score < 0.01 for match in matches)
