"""Series-modality progressive retrieval (the 1-D face of Section 3.1).

The paper's progressive data representation covers "well log traces (1D
series)" alongside imagery. This benchmark measures the series engine's
bound-and-refine retrieval against full scans, across data with and
without multi-scale structure — the honest boundary of the technique:

* **structured** signals (seasonal temperature, lithology runs): whole
  coarse windows decide against the threshold, so most stations resolve
  or prune cheaply — measurable speedups;
* **i.i.d.-like** signals (daily rain indicators): no window is decisive
  until single samples, so aggregate screening cannot beat a scan —
  reported as the negative result it is.
"""

from __future__ import annotations

import pytest

from repro.core.series_engine import (
    SeriesRetrievalEngine,
    SpellCountModel,
    ThresholdCountModel,
)
from repro.metrics.counters import CostCounter
from repro.synth.weather import generate_station_grid
from repro.synth.welllog import generate_well_field


@pytest.fixture(scope="module")
def stations():
    return generate_station_grid(10, 10, 730, seed=191)


@pytest.fixture(scope="module")
def wells():
    return {well.name: well for well in generate_well_field(60, 400.0, seed=192)}


def _ratio(engine, model, k=5) -> float:
    exhaustive_counter, progressive_counter = CostCounter(), CostCounter()
    exhaustive = engine.exhaustive_top_k(model, k, exhaustive_counter)
    progressive = engine.progressive_top_k(model, k, progressive_counter)
    assert progressive == exhaustive
    return exhaustive_counter.total_work / progressive_counter.total_work


class TestSeriesEngine:
    def test_structured_signals_win(self, benchmark, stations, wells, report):
        report.header("bound-and-refine vs full scans (exact answers)")
        cases = [
            (
                "hot days (seasonal temperature)",
                SeriesRetrievalEngine(stations, n_levels=8),
                ThresholdCountModel("temperature_c", 25.0),
            ),
            (
                "shale footage (lithology runs)",
                SeriesRetrievalEngine(wells, n_levels=9),
                ThresholdCountModel("lithology", 0.5, above=False),
            ),
            (
                "hot-gamma footage (noisy runs)",
                SeriesRetrievalEngine(wells, n_levels=9),
                ThresholdCountModel("gamma_ray", 45.0),
            ),
        ]
        ratios = []
        for label, engine, model in cases:
            ratio = _ratio(engine, model)
            ratios.append(ratio)
            report.row(workload=label, work_ratio=ratio)
        assert max(ratios) > 2.0, "structured data must show a clear win"
        assert min(ratios) > 1.0, "structured data must never lose"

        engine = SeriesRetrievalEngine(stations, n_levels=8)
        model = ThresholdCountModel("temperature_c", 25.0)
        benchmark(engine.progressive_top_k, model, 5)

    def test_iid_signals_are_the_honest_boundary(
        self, benchmark, stations, report
    ):
        report.header("negative result: i.i.d.-like daily rain indicators")
        engine = SeriesRetrievalEngine(stations, n_levels=8)
        for label, model in (
            ("dry days", ThresholdCountModel("rain_mm", 0.1, above=False)),
            ("dry spells >= 3", SpellCountModel("rain_mm", 0.1, min_run=3)),
        ):
            ratio = _ratio(engine, model)
            report.row(workload=label, work_ratio=ratio)
            # Answers stay exact; only the work advantage disappears.
            assert ratio < 2.0
        benchmark(lambda: None)

    def test_k_controls_pruning_power(self, benchmark, stations, report):
        report.header("smaller K prunes more stations")
        engine = SeriesRetrievalEngine(stations, n_levels=8)
        model = ThresholdCountModel("temperature_c", 25.0)
        previous = float("inf")
        for k in (1, 5, 25, 100):
            counter = CostCounter()
            engine.progressive_top_k(model, k, counter)
            report.row(k=k, progressive_work=counter.total_work)
            assert counter.total_work <= previous * 1.35  # roughly monotone
            previous = counter.total_work
        benchmark(lambda: None)
