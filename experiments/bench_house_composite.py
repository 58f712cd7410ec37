"""Figures 2-3 as a data-driven composite query (SPROC over imagery).

Paper artifact: "high risk houses ... surrounded by bushes, and has
weather pattern of raining season followed by a dry season" (Figure 3),
illustrated on imagery in Figure 2. Reference [15] applies SPROC to
exactly this kind of composite object.

Measured: retrieval of surrounded houses from synthetic semantic layers
matches the placement ground truth; the weather rule gates the final
risk; and the composite evaluation reuses the SPROC machinery (agreement
with exhaustive enumeration, at fast-variant work).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.epidemiology import find_high_risk_houses
from repro.data.series import TimeSeries
from repro.metrics.counters import CostCounter
from repro.sproc.naive import naive_top_k
from repro.sproc.spatial import find_surrounded, surrounded_by_query
from repro.synth.landuse import generate_landuse


def _box_overlap(first, second) -> bool:
    return not (
        first[2] <= second[0]
        or second[2] <= first[0]
        or first[3] <= second[1]
        or second[3] <= first[1]
    )


@pytest.fixture(scope="module")
def scene():
    return generate_landuse(
        (128, 128), n_houses=12, surrounded_fraction=0.5, seed=181
    )


class TestHouseComposite:
    def test_retrieval_matches_ground_truth(self, benchmark, scene, report):
        report.header("surrounded-house retrieval vs placement ground truth")
        matches = find_surrounded(scene.house_score, scene.bush_score, k=5)
        truly_surrounded = {
            house.house_id
            for house in scene.houses
            if house.bush_surroundedness > 0.6
        }
        hits = 0
        for match in matches:
            overlapping = [
                house
                for house in scene.houses
                if _box_overlap(house.box, match.primary.bounding_box)
            ]
            if any(h.house_id in truly_surrounded for h in overlapping):
                hits += 1
        report.row(
            retrieved=len(matches),
            ground_truth_surrounded=len(truly_surrounded),
            correct=hits,
            precision=hits / len(matches) if matches else 0.0,
        )
        assert matches and hits / len(matches) >= 0.8
        benchmark(find_surrounded, scene.house_score, scene.bush_score, 5)

    def test_sproc_agreement_and_work(self, benchmark, scene, report):
        report.header("composite query: fast evaluator == naive, less work")
        fast_counter, naive_counter = CostCounter(), CostCounter()
        query, houses, bushes = surrounded_by_query(
            scene.house_score, scene.bush_score, counter=None
        )
        from repro.sproc.fast import fast_top_k

        fast_answers = fast_top_k(query, 3, fast_counter)
        naive_answers = naive_top_k(query, 3, naive_counter)
        assert [round(s, 10) for _, s in fast_answers] == [
            round(s, 10) for _, s in naive_answers
        ]
        report.row(
            regions=query.n_objects,
            naive_tuples=naive_counter.tuples_examined,
            fast_tuples=fast_counter.tuples_examined,
            ratio=naive_counter.tuples_examined
            / max(1, fast_counter.tuples_examined),
        )
        assert fast_counter.tuples_examined < naive_counter.tuples_examined
        benchmark(lambda: None)

    def test_weather_rule_gates_risk(self, benchmark, scene, report):
        report.header("wet-then-dry weather rule gating the composite score")
        seasons = {
            "wet_then_dry": np.concatenate(
                [np.full(60, 6.0), np.zeros(60)]
            ),
            "always_wet": np.full(120, 6.0),
            "always_dry": np.zeros(120),
        }
        for label, rain in seasons.items():
            series = TimeSeries(
                label,
                np.arange(120.0),
                {
                    "rain_mm": rain,
                    "temperature_c": np.full(120, 22.0),
                },
            )
            ranked = find_high_risk_houses(scene, series, k=3)
            report.row(
                season=label,
                top_risk=ranked[0][0] if ranked else 0.0,
            )
        benchmark(lambda: None)
