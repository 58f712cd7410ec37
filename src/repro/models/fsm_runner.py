"""Running finite state models over event streams (paper Figure 1).

:func:`run_fsm` drives a machine across a time series and records the
state trajectory plus every entry into an accepting state. The returned
:class:`FSMRun` exposes the scores top-K retrieval ranks stations by
(days spent accepting, earliest acceptance).

:func:`fire_ants_model` builds the paper's Figure 1 machine: fire ants fly
in a region that had rain, then stayed dry for at least three days, with
the temperature reaching 25 °C or higher.

For archive-scale sweeps, :func:`compile_fsm` lowers a deterministic
machine over a finite symbol alphabet to an integer transition table and
:func:`run_compiled_batch` advances every candidate series through it in
lockstep — one NumPy gather per timestep instead of per-series Python
stepping — with guard work charged identically to the scalar runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.data.series import TimeSeries
from repro.metrics.counters import CostCounter
from repro.models.fsm import FiniteStateMachine, State, Transition

EventExtractor = Callable[[dict[str, float]], Any]


@dataclass(frozen=True)
class FSMRun:
    """Result of driving an FSM over an event stream.

    ``trajectory[i]`` is the state *after* consuming event ``i``;
    ``acceptance_times`` are the indices where the machine *entered* an
    accepting state (an uninterrupted stay counts once).
    """

    machine_name: str
    trajectory: tuple[str, ...]
    acceptance_times: tuple[int, ...]
    accepting_days: int

    @property
    def accepted(self) -> bool:
        """Whether the machine ever reached an accepting state."""
        return bool(self.acceptance_times)

    @property
    def first_acceptance(self) -> int | None:
        """Index of the first acceptance, or None."""
        return self.acceptance_times[0] if self.acceptance_times else None

    def score(self) -> float:
        """Ranking score for top-K retrieval.

        Primary: days spent in accepting states (more swarming days ranks
        higher). Ties broken by earlier first acceptance via a small bonus.
        Non-accepting runs score 0.
        """
        if not self.accepted:
            return 0.0
        earliness = 1.0 / (1.0 + (self.first_acceptance or 0))
        return self.accepting_days + earliness


def run_fsm(
    machine: FiniteStateMachine,
    events: Sequence[Any],
    counter: CostCounter | None = None,
) -> FSMRun:
    """Drive ``machine`` across ``events`` from its initial state.

    Each event is one model evaluation of ``O(outgoing transitions)``
    guard checks, tallied on ``counter``.
    """
    state = machine.initial
    trajectory: list[str] = []
    acceptance_times: list[int] = []
    accepting_days = 0
    previously_accepting = machine.is_accepting(state)

    for index, event in enumerate(events):
        if counter is not None:
            guards = len(machine.transitions_from(state))
            counter.add_model_evals(1, flops_each=max(1, guards))
        state = machine.step(state, event)
        trajectory.append(state)
        now_accepting = machine.is_accepting(state)
        if now_accepting:
            accepting_days += 1
            if not previously_accepting:
                acceptance_times.append(index)
        previously_accepting = now_accepting

    return FSMRun(
        machine_name=machine.name,
        trajectory=tuple(trajectory),
        acceptance_times=tuple(acceptance_times),
        accepting_days=accepting_days,
    )


def run_fsm_over_series(
    machine: FiniteStateMachine,
    series: TimeSeries,
    counter: CostCounter | None = None,
) -> FSMRun:
    """Drive a machine over a weather time series.

    Events are per-day attribute dicts read through the instrumented
    series API, so ``counter`` tallies both data points and guard work.
    """
    events = (
        series.read_record(index, counter) for index in range(len(series))
    )
    return run_fsm(machine, list(events), counter)


# --- Figure 1: the fire-ants machine -------------------------------------

RAIN_THRESHOLD_MM = 0.1
FLIGHT_TEMPERATURE_C = 25.0


def _raining(event: dict[str, float]) -> bool:
    return event["rain_mm"] > RAIN_THRESHOLD_MM


def _dry(event: dict[str, float]) -> bool:
    return not _raining(event)


def _dry_and_hot(event: dict[str, float]) -> bool:
    return _dry(event) and event["temperature_c"] >= FLIGHT_TEMPERATURE_C


def _dry_and_cool(event: dict[str, float]) -> bool:
    return _dry(event) and event["temperature_c"] < FLIGHT_TEMPERATURE_C


def fire_ants_model(name: str = "fire_ants") -> FiniteStateMachine:
    """The paper's Figure 1 fire-ants finite state model.

    States: Rain → Dry-1 → Dry-2 → Dry-3+ → Fire-Ants-Fly. Rain on any day
    resets to Rain. From Dry-3+ the ants fly on the first dry day reaching
    25 °C; cooler dry days stay in Dry-3+. While flying, continued hot dry
    days keep the state; a cool dry day drops back to Dry-3+ (the region
    is still primed), rain resets.
    """
    states = [
        State("rain"),
        State("dry_1"),
        State("dry_2"),
        State("dry_3_plus"),
        State("fire_ants_fly", accepting=True),
    ]
    transitions = [
        Transition("rain", "rain", _raining, "rains"),
        Transition("rain", "dry_1", _dry, "rain stops"),
        Transition("dry_1", "rain", _raining, "rains"),
        Transition("dry_1", "dry_2", _dry, "no rain"),
        Transition("dry_2", "rain", _raining, "rains"),
        Transition("dry_2", "dry_3_plus", _dry, "no rain"),
        Transition("dry_3_plus", "rain", _raining, "rains"),
        Transition("dry_3_plus", "fire_ants_fly", _dry_and_hot, "no rain & T>=25"),
        Transition("dry_3_plus", "dry_3_plus", _dry_and_cool, "no rain & T<25"),
        Transition("fire_ants_fly", "rain", _raining, "rains"),
        Transition("fire_ants_fly", "fire_ants_fly", _dry_and_hot, "no rain & T>=25"),
        Transition("fire_ants_fly", "dry_3_plus", _dry_and_cool, "no rain & T<25"),
    ]
    return FiniteStateMachine(states, "rain", transitions, missing="error", name=name)


def naive_window_match(
    series: TimeSeries,
    dry_days_required: int = 3,
    flight_temperature_c: float = FLIGHT_TEMPERATURE_C,
    counter: CostCounter | None = None,
) -> list[int]:
    """Baseline fire-ants detector: one stateless decision per day.

    A single forward pass that carries the consecutive-dry-day count
    ending *strictly before* each day — the quantity the original
    baseline re-derived by re-reading history backwards from every day,
    which made it O(n²) on long dry spells for no extra information.
    The series start (like the FSM's initial state) is treated as
    following rain, so an all-dry prefix counts toward the spell. A day
    is "flying" iff it is dry, at/above the flight temperature, and at
    least ``dry_days_required`` dry days precede it; onsets (first
    flying day of a stretch) are returned, identical to the rescan's.

    Each day costs two data reads and one three-comparison decision
    (rain test, temperature test, spell-length test) — still more work
    than the FSM, which needs no spell arithmetic, only a state.
    """
    onsets: list[int] = []
    previously_flying = False
    dry_days_before = 0
    for day in range(len(series)):
        today_rain = series.read("rain_mm", day, counter)
        today_temp = series.read("temperature_c", day, counter)
        if counter is not None:
            counter.add_model_evals(1, flops_each=3)
        dry_today = today_rain <= RAIN_THRESHOLD_MM
        flying = (
            dry_today
            and today_temp >= flight_temperature_c
            and dry_days_before >= dry_days_required
        )
        if flying and not previously_flying:
            onsets.append(day)
        previously_flying = flying
        dry_days_before = dry_days_before + 1 if dry_today else 0
    return onsets


def symbolize_weather(
    events: Iterable[dict[str, float]],
    flight_temperature_c: float = FLIGHT_TEMPERATURE_C,
) -> list[str]:
    """Map weather records to the 3-symbol alphabet {rain, dry_hot, dry_cool}.

    The alphabet over which the Figure 1 machine's determinism is checked
    exhaustively and over which FSM distances are computed.
    """
    symbols = []
    for event in events:
        if event["rain_mm"] > RAIN_THRESHOLD_MM:
            symbols.append("rain")
        elif event["temperature_c"] >= flight_temperature_c:
            symbols.append("dry_hot")
        else:
            symbols.append("dry_cool")
    return symbols


#: The symbol alphabet of :func:`symbolize_weather` / :func:`encode_weather`,
#: in code order (code ``i`` means ``WEATHER_ALPHABET[i]``).
WEATHER_ALPHABET: tuple[str, ...] = ("rain", "dry_hot", "dry_cool")


def encode_weather(
    rain: np.ndarray,
    temperature: np.ndarray,
    flight_temperature_c: float = FLIGHT_TEMPERATURE_C,
) -> np.ndarray:
    """Vectorized :func:`symbolize_weather`: value arrays → integer codes
    into :data:`WEATHER_ALPHABET`."""
    rain = np.asarray(rain, dtype=float)
    temperature = np.asarray(temperature, dtype=float)
    return np.where(
        rain > RAIN_THRESHOLD_MM,
        0,
        np.where(temperature >= flight_temperature_c, 1, 2),
    ).astype(np.intp)


def fire_ants_symbol_machine(name: str = "fire_ants_symbols") -> FiniteStateMachine:
    """The Figure 1 machine over the {rain, dry_hot, dry_cool} alphabet.

    Behaviourally identical to :func:`fire_ants_model` on symbolized
    weather (same states, same 12 transitions, same guard counts per
    state — so compiled batch runs charge the same guard flops the
    event-level machine does); guards consume plain symbols, which is
    what table compilation and FSM distances need.
    """

    def eq(expected: str) -> Callable[[str], bool]:
        return lambda symbol: symbol == expected

    def dry(symbol: str) -> bool:
        return symbol in ("dry_hot", "dry_cool")

    states = [
        State("rain"), State("dry_1"), State("dry_2"),
        State("dry_3_plus"), State("fire_ants_fly", accepting=True),
    ]
    transitions = [
        Transition("rain", "rain", eq("rain"), "rain"),
        Transition("rain", "dry_1", dry, "dry"),
        Transition("dry_1", "rain", eq("rain"), "rain"),
        Transition("dry_1", "dry_2", dry, "dry"),
        Transition("dry_2", "rain", eq("rain"), "rain"),
        Transition("dry_2", "dry_3_plus", dry, "dry"),
        Transition("dry_3_plus", "rain", eq("rain"), "rain"),
        Transition("dry_3_plus", "fire_ants_fly", eq("dry_hot"), "hot"),
        Transition("dry_3_plus", "dry_3_plus", eq("dry_cool"), "cool"),
        Transition("fire_ants_fly", "rain", eq("rain"), "rain"),
        Transition("fire_ants_fly", "fire_ants_fly", eq("dry_hot"), "hot"),
        Transition("fire_ants_fly", "dry_3_plus", eq("dry_cool"), "cool"),
    ]
    return FiniteStateMachine(
        states, "rain", transitions, missing="error", name=name
    )


# --- batch execution over integer transition tables ----------------------


@dataclass(frozen=True)
class CompiledFSM:
    """A deterministic FSM lowered to an integer transition table.

    ``table[state, symbol]`` is the next state index; ``guards[state]``
    is the flops charge of one step out of that state (``max(1,
    outgoing transitions)``, matching what :func:`run_fsm` charges), so
    batch runs reproduce scalar counter totals exactly.
    """

    machine_name: str
    state_names: tuple[str, ...]
    initial: int
    table: np.ndarray
    accepting: np.ndarray
    guards: np.ndarray


def compile_fsm(
    machine: FiniteStateMachine, alphabet: Sequence[Hashable]
) -> CompiledFSM:
    """Lower ``machine`` over a finite symbol alphabet.

    Exercises :meth:`FiniteStateMachine.step` on every (state, symbol)
    pair, so the table provably agrees with scalar execution — and a
    ``missing="error"`` machine that is not total over the alphabet
    fails here, at compile time, not mid-sweep.
    """
    if not alphabet:
        raise ValueError("compile_fsm needs a non-empty alphabet")
    names = machine.state_names
    index = {state_name: i for i, state_name in enumerate(names)}
    table = np.empty((len(names), len(alphabet)), dtype=np.intp)
    for i, state_name in enumerate(names):
        for s, symbol in enumerate(alphabet):
            table[i, s] = index[machine.step(state_name, symbol)]
    accepting = np.array([machine.is_accepting(n) for n in names])
    guards = np.array(
        [max(1, len(machine.transitions_from(n))) for n in names],
        dtype=np.intp,
    )
    return CompiledFSM(
        machine_name=machine.name,
        state_names=tuple(names),
        initial=index[machine.initial],
        table=table,
        accepting=accepting,
        guards=guards,
    )


def run_compiled_batch(
    compiled: CompiledFSM,
    codes: np.ndarray,
    counter: CostCounter | None = None,
) -> list[FSMRun]:
    """Advance many series through a compiled machine in lockstep.

    ``codes`` is ``(n_series, n_steps)`` integer symbols; each timestep
    advances *all* series with one table gather. Guard work is charged
    in aggregate — per-state visit counts times that state's guard cost
    — which sums to exactly what per-event :func:`run_fsm` would charge
    for the same trajectories.
    """
    codes = np.asarray(codes, dtype=np.intp)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
    n_series, n_steps = codes.shape
    n_states = len(compiled.state_names)
    if n_steps == 0:
        return [
            FSMRun(
                machine_name=compiled.machine_name,
                trajectory=(),
                acceptance_times=(),
                accepting_days=0,
            )
            for _ in range(n_series)
        ]

    states = np.full(n_series, compiled.initial, dtype=np.intp)
    trajectories = np.empty((n_series, n_steps), dtype=np.intp)
    visits = np.zeros(n_states, dtype=np.intp)
    for t in range(n_steps):
        visits += np.bincount(states, minlength=n_states)
        states = compiled.table[states, codes[:, t]]
        trajectories[:, t] = states
    if counter is not None:
        for count, flops in zip(visits.tolist(), compiled.guards.tolist()):
            if count:
                counter.add_model_evals(int(count), flops_each=int(flops))

    accepting = compiled.accepting[trajectories]
    initially = np.full(
        (n_series, 1), bool(compiled.accepting[compiled.initial])
    )
    onsets = accepting & ~np.concatenate(
        [initially, accepting[:, :-1]], axis=1
    )
    names = compiled.state_names
    return [
        FSMRun(
            machine_name=compiled.machine_name,
            trajectory=tuple(names[s] for s in trajectories[r].tolist()),
            acceptance_times=tuple(np.nonzero(onsets[r])[0].tolist()),
            accepting_days=int(np.count_nonzero(accepting[r])),
        )
        for r in range(n_series)
    ]
