"""Distances between finite state machines (paper Section 3).

"When the finite state machine extracted from the data is slightly
different from the target finite state machine, it is also possible to
define a distance between these two finite state machines based on their
similarities."

Two complementary distances over a shared finite alphabet:

* :func:`structural_distance` — normalized disagreement between the
  machines' transition tables on the product of shared states and the
  alphabet (a transition-table edit distance);
* :func:`behavioural_distance` — fraction of probe steps on which the
  machines' *acceptance* outputs differ when both consume the same random
  symbol stream (a sampled right-invariant distance). 0 for equivalent
  machines, → the long-run disagreement rate as probes grow.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import FSMError
from repro.models.fsm import FiniteStateMachine


def structural_distance(
    first: FiniteStateMachine,
    second: FiniteStateMachine,
    alphabet: Sequence[Hashable],
) -> float:
    """Transition-table disagreement in [0, 1].

    Compares next-state names over ``shared states x alphabet``; states
    present in only one machine count as full disagreement for their
    alphabet rows. Also counts acceptance-flag disagreement per shared
    state. Returns disagreements / comparisons.
    """
    if not alphabet:
        raise FSMError("alphabet must be non-empty")
    first_states = set(first.state_names)
    second_states = set(second.state_names)
    shared = first_states & second_states
    only_one = (first_states ^ second_states)

    comparisons = 0
    disagreements = 0

    first_table = first.transition_table(alphabet)
    second_table = second.transition_table(alphabet)
    for state in shared:
        for symbol in alphabet:
            comparisons += 1
            if first_table[(state, symbol)] != second_table[(state, symbol)]:
                disagreements += 1
        comparisons += 1
        if first.is_accepting(state) != second.is_accepting(state):
            disagreements += 1

    # Unshared states: every row is maximally different.
    per_state_rows = len(alphabet) + 1
    comparisons += len(only_one) * per_state_rows
    disagreements += len(only_one) * per_state_rows

    return disagreements / comparisons if comparisons else 0.0


def behavioural_distance(
    first: FiniteStateMachine,
    second: FiniteStateMachine,
    alphabet: Sequence[Hashable],
    n_steps: int = 2000,
    seed: int = 0,
    probe_symbols: Sequence[Hashable] | None = None,
) -> float:
    """Sampled acceptance-disagreement rate in [0, 1].

    Both machines consume one symbol stream from their initial states;
    the distance is the fraction of steps where exactly one of them is in
    an accepting state. Equivalent machines score 0 regardless of their
    internal structure — the property structural distance lacks.

    The probe stream is uniform-random over ``alphabet`` by default;
    pass ``probe_symbols`` to measure the disagreement under a *realistic*
    input distribution instead (e.g. a station's own weather) — the right
    notion when a learned machine is only trained on realistic inputs.
    """
    if not alphabet:
        raise FSMError("alphabet must be non-empty")

    if probe_symbols is not None:
        symbols = list(probe_symbols)
        if not symbols:
            raise FSMError("probe_symbols must be non-empty")
        n_steps = len(symbols)
    else:
        if n_steps <= 0:
            raise FSMError("n_steps must be positive")
        rng = np.random.default_rng(seed)
        symbols = [
            alphabet[int(i)] for i in rng.integers(0, len(alphabet), n_steps)
        ]

    state_a = first.initial
    state_b = second.initial
    disagreements = 0
    for symbol in symbols:
        state_a = first.step(state_a, symbol)
        state_b = second.step(state_b, symbol)
        if first.is_accepting(state_a) != second.is_accepting(state_b):
            disagreements += 1
    return disagreements / n_steps
