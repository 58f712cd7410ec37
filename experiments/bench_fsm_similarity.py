"""FSM extraction + similarity retrieval (paper Section 3).

Paper claim: "The finite state model is used to locate the top-K data
patterns that satisfy a model ... When the finite state machine extracted
from the data is slightly different from the target finite state machine,
it is also possible to define a distance between these two finite state
machines based on their similarities."

Measured: extract a machine from each station's symbolized weather using
the history-window learner, rank stations by behavioural distance to the
Figure 1 target, and verify (a) stations whose dynamics actually follow
the target rank first, (b) the distance degrades smoothly as station
dynamics are perturbed.
"""

from __future__ import annotations

import numpy as np

from repro.models.fsm import FiniteStateMachine, State, Transition
from repro.models.fsm_distance import behavioural_distance
from repro.models.fsm_learn import learn_fsm, runs_from_machine

ALPHABET = ["rain", "dry_hot", "dry_cool"]


def _symbol_fire_ants(dry_days: int = 3) -> FiniteStateMachine:
    """Figure 1 over symbols, parameterized by required dry-spell length."""

    def eq(expected):
        return lambda symbol: symbol == expected

    def dry(symbol):
        return symbol in ("dry_hot", "dry_cool")

    states = [State("rain")]
    states += [State(f"dry_{i}") for i in range(1, dry_days)]
    states += [State("dry_n"), State("fly", accepting=True)]
    transitions = [
        Transition("rain", "rain", eq("rain"), "rain"),
        Transition(
            "rain", "dry_1" if dry_days > 1 else "dry_n", dry, "dry"
        ),
    ]
    for i in range(1, dry_days):
        target = f"dry_{i + 1}" if i + 1 < dry_days else "dry_n"
        transitions += [
            Transition(f"dry_{i}", "rain", eq("rain"), "rain"),
            Transition(f"dry_{i}", target, dry, "dry"),
        ]
    transitions += [
        Transition("dry_n", "rain", eq("rain"), "rain"),
        Transition("dry_n", "fly", eq("dry_hot"), "hot"),
        Transition("dry_n", "dry_n", eq("dry_cool"), "cool"),
        Transition("fly", "rain", eq("rain"), "rain"),
        Transition("fly", "fly", eq("dry_hot"), "hot"),
        Transition("fly", "dry_n", eq("dry_cool"), "cool"),
    ]
    return FiniteStateMachine(
        states, "rain", transitions, missing="error",
        name=f"fire_ants_{dry_days}d",
    )


def _streams(n, length, seed):
    rng = np.random.default_rng(seed)
    return [
        [ALPHABET[i] for i in rng.integers(0, 3, length)] for _ in range(n)
    ]


class TestFsmSimilarityRetrieval:
    def test_extract_and_rank_stations(self, benchmark, report):
        report.header("rank stations by distance(extracted FSM, target FSM)")
        target = _symbol_fire_ants(3)
        # Stations 0-3 follow the target dynamics; 4-7 follow perturbed
        # dynamics (2-day and 5-day spells).
        dynamics = [3, 3, 3, 3, 2, 2, 5, 5]
        distances = []
        for station, dry_days in enumerate(dynamics):
            machine = _symbol_fire_ants(dry_days)
            runs = runs_from_machine(
                machine, _streams(25, 400, seed=100 + station)
            )
            # history=4 covers the 3-day target exactly (3^4 windows are
            # well observed); perturbed 5-day stations additionally incur
            # extraction error, which only widens their distance.
            extracted = learn_fsm(runs, history=4, name=f"station_{station}")
            distance = behavioural_distance(
                target, extracted, ALPHABET, n_steps=4000, seed=station
            )
            distances.append((station, dry_days, distance))
            report.row(
                station=station, true_dynamics=f"{dry_days}d",
                distance=distance,
            )
        matching = [d for _, days, d in distances if days == 3]
        perturbed = [d for _, days, d in distances if days != 3]
        assert max(matching) < min(perturbed), (
            "true-dynamics stations must rank strictly closer"
        )

        runs = runs_from_machine(target, _streams(25, 400, seed=0))
        benchmark(learn_fsm, runs, 4)

    def test_distance_grows_with_perturbation(self, benchmark, report):
        report.header("distance vs dynamics perturbation (dry-spell length)")
        target = _symbol_fire_ants(3)
        previous = -1.0
        for dry_days in (3, 4, 5, 6):
            other = _symbol_fire_ants(dry_days)
            distance = behavioural_distance(
                target, other, ALPHABET, n_steps=8000, seed=1
            )
            report.row(dry_days=dry_days, distance=distance)
            assert distance >= previous - 0.01
            previous = distance
        benchmark(
            behavioural_distance, target, _symbol_fire_ants(4), ALPHABET,
            2000,
        )

    def test_structural_vs_behavioural_disagreement(self, benchmark, report):
        """The two distances measure different things; the paper's
        'based on their similarities' wording admits both readings."""
        from repro.models.fsm_distance import structural_distance

        report.header("structural vs behavioural distance on the same pairs")
        target = _symbol_fire_ants(3)
        for dry_days in (3, 4):
            other = _symbol_fire_ants(dry_days)
            report.row(
                dry_days=dry_days,
                structural=structural_distance(target, other, ALPHABET),
                behavioural=behavioural_distance(
                    target, other, ALPHABET, n_steps=4000, seed=2
                ),
            )
        benchmark(lambda: None)
