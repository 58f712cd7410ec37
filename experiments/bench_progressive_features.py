"""Experiment E3 — progressive feature extraction speedup (Section 3.1, [12]).

Paper claim: "a 4-8 times speedup can be accomplished through applying
feature extraction progressively on progressively represented data".

Cheap block statistics (4 ops/pixel) screen the field; expensive texture
features (40 ops/pixel: gradients + GLCM) run only on blocks passing the
screen. The speedup is governed by the screen's selectivity — the sweep
shows the paper's 4-8x band at realistic (10-25%) pass rates, with the
ranking of retrieved blocks identical to exhaustive extraction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import agriculture
from repro.metrics.counters import CostCounter

SHAPE = (384, 384)


@pytest.fixture(scope="module")
def scenario():
    return agriculture.build_scenario(shape=SHAPE, n_days=120, seed=17)


class TestProgressiveFeatures:
    def test_selectivity_sweep_covers_paper_band(
        self, benchmark, scenario, report
    ):
        report.header("4-8x speedup for progressive feature extraction [12]")
        in_band = 0
        vigor = scenario.vigor.values
        for threshold in (85.0, 95.0, 105.0, 115.0):
            progressive_counter = CostCounter()
            exhaustive_counter = CostCounter()
            with progressive_counter.timed():
                progressive = agriculture.find_stressed_zones(
                    scenario, vigor_threshold=threshold, progressive=True,
                    counter=progressive_counter,
                )
            with exhaustive_counter.timed():
                exhaustive = agriculture.find_stressed_zones(
                    scenario, vigor_threshold=threshold, progressive=False,
                    counter=exhaustive_counter,
                )
            assert [z.block for z in progressive] == [
                z.block for z in exhaustive
            ]
            ratio = (
                exhaustive_counter.total_work / progressive_counter.total_work
            )
            pass_rate = float((vigor < threshold).mean())
            if 4.0 <= ratio <= 8.0:
                in_band += 1
            report.row(
                screen_threshold=threshold,
                approx_pass_rate=pass_rate,
                work_ratio=ratio,
                wall_ratio=(
                    exhaustive_counter.wall_seconds
                    / progressive_counter.wall_seconds
                ),
            )
        assert in_band >= 1, "some realistic selectivity must hit 4-8x"
        benchmark(
            agriculture.find_stressed_zones, scenario,
            vigor_threshold=100.0,
        )

    def test_cost_asymmetry_is_the_mechanism(self, benchmark, report):
        """The strategy only pays because expensive >> cheap per block."""
        from repro.abstraction.features import cheap_features, expensive_features

        report.header("cheap-vs-expensive per-block cost asymmetry")
        block = np.random.default_rng(0).random((16, 16))
        cheap_counter, expensive_counter = CostCounter(), CostCounter()
        cheap_features(block, cheap_counter)
        expensive_features(block, counter=expensive_counter)
        report.row(
            cheap_work=cheap_counter.total_work,
            expensive_work=expensive_counter.total_work,
            asymmetry=expensive_counter.total_work / cheap_counter.total_work,
        )
        assert expensive_counter.total_work > 5 * cheap_counter.total_work
        benchmark(expensive_features, block)
