"""Experiment F1 — the Figure 1 fire-ants finite state model.

Paper artifact: the fire-ants FSM (rain -> >=3 dry days -> T >= 25C).
Reproduction: (a) the machine's topology census (5 states, the figure's
transition labels), (b) exact agreement with a naive history-rescan
detector at O(1) amortized work per day instead of O(spell length).
"""

from __future__ import annotations

import pytest

from repro.apps import fireants
from repro.metrics.counters import CostCounter
from repro.models.fsm_runner import fire_ants_model, symbolize_weather


@pytest.fixture(scope="module")
def scenario():
    return fireants.build_scenario(8, 8, n_days=730, seed=71)


class TestFigureOne:
    def test_machine_topology_matches_figure(self, benchmark, report):
        report.header("Figure 1 machine: 5 states, rain-reset transitions")
        machine = fire_ants_model()
        assert set(machine.state_names) == {
            "rain", "dry_1", "dry_2", "dry_3_plus", "fire_ants_fly",
        }
        assert machine.accepting_states == {"fire_ants_fly"}
        # Every non-initial state has a "rains" reset edge back to rain.
        for state in machine.state_names:
            labels = {t.label for t in machine.transitions_from(state)}
            assert "rains" in labels or state == "rain" and "rains" in labels
        report.row(states=len(machine.states),
                   transitions=machine.n_transitions)
        benchmark(fire_ants_model)

    def test_state_visit_census(self, benchmark, scenario, report):
        """Every Figure 1 state must be exercised by realistic weather."""
        report.header("state-visit census over 64 stations x 2 years")
        visits: dict[str, int] = {}
        for series in scenario.stations.values():
            from repro.models.fsm_runner import run_fsm_over_series

            run = run_fsm_over_series(scenario.machine, series)
            for state in run.trajectory:
                visits[state] = visits.get(state, 0) + 1
        for state, count in sorted(visits.items()):
            report.row(state=state, days=count)
        assert set(visits) == set(scenario.machine.state_names)
        benchmark(lambda: None)

    def test_fsm_vs_naive_rescan_work(self, benchmark, scenario, report):
        """Both detectors now read each sample once (the baseline's
        quadratic backward rescan was fixed), so the remaining gap is the
        stateless spell re-derivation the FSM's state makes unnecessary."""
        report.header("incremental FSM vs naive single-pass re-derivation")
        fsm_counter, naive_counter = CostCounter(), CostCounter()
        for cell in scenario.stations:
            fsm_onsets, naive_onsets = fireants.verify_against_naive(
                scenario, cell, fsm_counter, naive_counter
            )
            assert list(fsm_onsets) == naive_onsets
        ratio = naive_counter.total_work / fsm_counter.total_work
        report.row(
            stations=len(scenario.stations),
            fsm_work=fsm_counter.total_work,
            naive_work=naive_counter.total_work,
            work_ratio=ratio,
        )
        assert naive_counter.data_points == fsm_counter.data_points
        assert ratio > 1.0

        one_series = next(iter(scenario.stations.values()))
        from repro.models.fsm_runner import run_fsm_over_series

        benchmark(run_fsm_over_series, scenario.machine, one_series)

    def test_batch_sweep_matches_scalar(self, benchmark, scenario, report):
        """The compiled transition-table sweep reproduces the scalar
        per-station runs — same onsets, same counted work — while
        stepping all stations per day in one table gather."""
        report.header("compiled batch FSM sweep vs per-station stepping")
        scalar_counter, batch_counter = CostCounter(), CostCounter()
        scalar = fireants.run_all_stations(
            scenario, scalar_counter, batch=False
        )
        batch = fireants.run_all_stations(scenario, batch_counter, batch=True)
        assert set(scalar) == set(batch)
        for cell in scalar:
            assert scalar[cell].trajectory == batch[cell].trajectory
            assert (
                scalar[cell].acceptance_times == batch[cell].acceptance_times
            )
        assert batch_counter.total_work == scalar_counter.total_work
        report.row(
            stations=len(scenario.stations),
            days=scenario.n_days,
            counted_work=batch_counter.total_work,
        )
        benchmark(fireants.run_all_stations, scenario)

    def test_symbol_alphabet_determinism(self, benchmark, scenario, report):
        """The machine is deterministic over the full weather alphabet."""
        report.header("determinism check over the 3-symbol weather alphabet")
        alphabet = [
            {"rain_mm": 5.0, "temperature_c": 20.0},
            {"rain_mm": 0.0, "temperature_c": 30.0},
            {"rain_mm": 0.0, "temperature_c": 20.0},
        ]
        scenario.machine.check_deterministic(alphabet)
        series = next(iter(scenario.stations.values()))
        events = [series.read_record(i) for i in range(len(series))]
        symbols = symbolize_weather(events)
        report.row(
            symbols=len(symbols),
            rain_days=symbols.count("rain"),
            dry_hot_days=symbols.count("dry_hot"),
            dry_cool_days=symbols.count("dry_cool"),
        )
        benchmark(symbolize_weather, events)
