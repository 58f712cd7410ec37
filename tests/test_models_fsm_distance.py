"""Tests for FSM distances."""

from __future__ import annotations

import pytest

from repro.exceptions import FSMError
from repro.models.fsm import FiniteStateMachine, State, Transition
from repro.models.fsm_distance import behavioural_distance, structural_distance

ALPHABET = ["a", "b"]


def _symbol(expected: str):
    return lambda symbol: symbol == expected


def _machine(flip_on: str = "a", accepting: str = "on") -> FiniteStateMachine:
    states = [State("off", accepting == "off"), State("on", accepting == "on")]
    transitions = [
        Transition("off", "on", _symbol(flip_on), flip_on),
        Transition("on", "off", _symbol(flip_on), flip_on),
    ]
    return FiniteStateMachine(states, "off", transitions)


def _renamed_machine() -> FiniteStateMachine:
    """Behaviourally identical to _machine() but different state names."""
    states = [State("zero"), State("one", accepting=True)]
    transitions = [
        Transition("zero", "one", _symbol("a"), "a"),
        Transition("one", "zero", _symbol("a"), "a"),
    ]
    return FiniteStateMachine(states, "zero", transitions)


class TestStructuralDistance:
    def test_identical_machines_distance_zero(self):
        assert structural_distance(_machine(), _machine(), ALPHABET) == 0.0

    def test_different_guard_symbol_increases_distance(self):
        distance = structural_distance(_machine("a"), _machine("b"), ALPHABET)
        assert distance > 0.0

    def test_different_acceptance_increases_distance(self):
        distance = structural_distance(
            _machine(accepting="on"), _machine(accepting="off"), ALPHABET
        )
        assert distance > 0.0

    def test_renaming_states_maximizes_structural_distance(self):
        """Structural distance is name-sensitive (its known weakness)."""
        distance = structural_distance(_machine(), _renamed_machine(), ALPHABET)
        assert distance == 1.0

    def test_symmetry(self):
        first, second = _machine("a"), _machine("b")
        assert structural_distance(first, second, ALPHABET) == pytest.approx(
            structural_distance(second, first, ALPHABET)
        )

    def test_bounded_unit_interval(self):
        distance = structural_distance(_machine(), _machine("b"), ALPHABET)
        assert 0.0 <= distance <= 1.0

    def test_empty_alphabet_rejected(self):
        with pytest.raises(FSMError):
            structural_distance(_machine(), _machine(), [])


class TestBehaviouralDistance:
    def test_identical_machines_distance_zero(self):
        assert behavioural_distance(_machine(), _machine(), ALPHABET) == 0.0

    def test_renamed_machines_distance_zero(self):
        """Behavioural distance sees through renaming."""
        assert (
            behavioural_distance(_machine(), _renamed_machine(), ALPHABET)
            == 0.0
        )

    def test_different_machines_positive(self):
        distance = behavioural_distance(_machine("a"), _machine("b"), ALPHABET)
        assert distance > 0.1

    def test_deterministic_for_seed(self):
        first = behavioural_distance(_machine("a"), _machine("b"), ALPHABET, seed=3)
        second = behavioural_distance(_machine("a"), _machine("b"), ALPHABET, seed=3)
        assert first == second

    def test_parameter_validation(self):
        with pytest.raises(FSMError):
            behavioural_distance(_machine(), _machine(), [])
        with pytest.raises(FSMError):
            behavioural_distance(_machine(), _machine(), ALPHABET, n_steps=0)
