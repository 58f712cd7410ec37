"""Tests for progressive linear model decomposition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.models.linear import LinearModel
from repro.models.progressive_linear import (
    ProgressiveLinearModel,
    TermContribution,
    analyze_contributions,
)


def _model() -> LinearModel:
    # The paper's |a1, a2| >> |a3, a4| situation.
    return LinearModel({"x1": 5.0, "x2": 4.0, "x3": 0.3, "x4": 0.1})


def _progressive(columns=None) -> ProgressiveLinearModel:
    model = _model()
    if columns is None:
        rng = np.random.default_rng(0)
        columns = {name: rng.uniform(0, 10, 100) for name in model.attributes}
    return ProgressiveLinearModel.from_columns(model, columns)


class TestAnalyzeContributions:
    def test_orders_by_coefficient_when_spreads_equal(self):
        ranked = analyze_contributions(_model())
        assert [term.attribute for term in ranked] == ["x1", "x2", "x3", "x4"]

    def test_spread_can_override_coefficient(self):
        """A small coefficient on a wide attribute can dominate."""
        model = LinearModel({"big_coef": 5.0, "wide_attr": 0.5})
        ranked = analyze_contributions(
            model, spreads={"big_coef": 1.0, "wide_attr": 100.0}
        )
        assert ranked[0].attribute == "wide_attr"

    def test_columns_measure_spread(self):
        model = LinearModel({"a": 1.0, "b": 1.0})
        columns = {"a": np.array([0.0, 1.0]), "b": np.array([0.0, 100.0])}
        ranked = analyze_contributions(model, columns=columns)
        assert ranked[0].attribute == "b"

    def test_missing_spread_raises(self):
        with pytest.raises(ModelError):
            analyze_contributions(_model(), spreads={"x1": 1.0})

    def test_contribution_value(self):
        term = TermContribution(attribute="x", coefficient=-2.0, spread=3.0)
        assert term.contribution == 6.0


class TestProgressiveLevels:
    def test_final_level_is_exact(self):
        """With every attribute read, no favoured end is left: the
        bound is the score, bit for bit, in both directions."""
        progressive = _progressive()
        point = {name: 3.1 for name in _model().attributes}
        exact = _model().evaluate(point)
        for maximize in (True, False):
            ends = progressive.favoured_ends(maximize)
            assert _model().evaluate({**ends, **point}) == exact

    def test_uncertainty_shrinks_with_level(self):
        progressive = _progressive()
        widths = [
            progressive.uncertainty(level)
            for level in range(1, progressive.n_levels + 1)
        ]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] == 0.0

    def test_contributions_must_cover_model(self):
        model = _model()
        partial = [TermContribution("x1", 5.0, 1.0)]
        with pytest.raises(ModelError):
            ProgressiveLinearModel(model, partial, {"x1": (0, 1)})

    def test_ranges_must_cover_model(self):
        model = _model()
        contributions = analyze_contributions(model)
        with pytest.raises(ModelError):
            ProgressiveLinearModel(model, contributions, {"x1": (0, 1)})


class TestBoundSoundness:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_partial_bounds_contain_full_score(self, data):
        """At every level, the score over the attributes read so far
        with the rest at their favoured ends bounds the exact score of
        any point whose attributes lie within the declared ranges — with
        no tolerance: it is the score's own expression, and rounding is
        monotone."""
        n_attrs = data.draw(st.integers(1, 5))
        names = [f"x{i}" for i in range(n_attrs)]
        coefficients = {
            name: data.draw(st.floats(-5, 5)) for name in names
        }
        if all(c == 0 for c in coefficients.values()):
            coefficients[names[0]] = 1.0
        model = LinearModel(coefficients, intercept=data.draw(st.floats(-3, 3)))
        ranges = {}
        point = {}
        for name in names:
            low = data.draw(st.floats(-50, 50))
            width = data.draw(st.floats(0.0, 20.0))
            ranges[name] = (low, low + width)
            point[name] = low + data.draw(st.floats(0, 1)) * width

        progressive = ProgressiveLinearModel(
            model, analyze_contributions(model), ranges
        )
        exact = model.evaluate(point)
        order = [term.attribute for term in progressive.contributions]
        high_ends = progressive.favoured_ends(maximize=True)
        low_ends = progressive.favoured_ends(maximize=False)
        for level in range(1, progressive.n_levels + 1):
            read = {name: point[name] for name in order[:level]}
            low_bound = model.evaluate({**low_ends, **read})
            high_bound = model.evaluate({**high_ends, **read})
            assert low_bound <= exact <= high_bound

    def test_batch_matches_scalar(self):
        """A level's bound over column arrays, unread attributes
        broadcast from their ends, is the scalar bound bit for bit."""
        progressive = _progressive()
        model = _model()
        rng = np.random.default_rng(1)
        columns = {
            name: rng.uniform(0, 10, 20) for name in model.attributes
        }
        order = [term.attribute for term in progressive.contributions]
        for maximize in (True, False):
            ends = progressive.favoured_ends(maximize)
            for level in (1, 2, 4):
                read = {name: columns[name] for name in order[:level]}
                batch = model.evaluate_batch({**ends, **read})
                for i in range(20):
                    point = {name: read[name][i] for name in read}
                    assert batch[i] == model.evaluate({**ends, **point})
