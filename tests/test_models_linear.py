"""Tests for linear models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.models.linear import (
    LinearModel,
    fico_scorecard,
    fit_linear_model,
    hps_risk_model,
)


class TestLinearModel:
    def test_evaluate(self):
        model = LinearModel({"a": 2.0, "b": -1.0}, intercept=3.0)
        assert model.evaluate({"a": 4.0, "b": 5.0}) == 3.0 + 8.0 - 5.0

    def test_missing_attribute_raises(self):
        model = LinearModel({"a": 1.0})
        with pytest.raises(ModelError):
            model.evaluate({"b": 1.0})

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ModelError):
            LinearModel({})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_terms_rejected(self, bad):
        """A NaN term scores every cell NaN, which no top-K keeps, so a
        search used to answer ``[]`` without an error; an infinite one
        scores cells infinite. Both are refused where the model is made,
        as the wire refuses them."""
        with pytest.raises(ModelError, match="finite"):
            LinearModel({"a": 1.0, "b": bad})
        with pytest.raises(ModelError, match="finite"):
            LinearModel({"a": 1.0}, intercept=bad)

    def test_non_finite_fit_rejected(self):
        columns = {"x": np.array([1.0, 2.0, 3.0])}
        with pytest.raises(ModelError, match="finite"):
            fit_linear_model(columns, np.array([1.0, np.nan, 3.0]))

    def test_batch_matches_scalar(self):
        model = LinearModel({"a": 0.5, "b": 2.0}, intercept=-1.0)
        columns = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        batch = model.evaluate_batch(columns)
        for i in range(2):
            assert batch[i] == pytest.approx(
                model.evaluate({"a": columns["a"][i], "b": columns["b"][i]})
            )

    def test_batch_preserves_2d_shape(self):
        model = LinearModel({"a": 1.0})
        batch = model.evaluate_batch({"a": np.ones((3, 4))})
        assert batch.shape == (3, 4)

    def test_complexity(self):
        assert LinearModel({"a": 1.0, "b": 2.0, "c": 3.0}).complexity == 6

    def test_weight_vector_ordering(self):
        model = LinearModel({"a": 1.0, "b": 2.0})
        assert list(model.weight_vector(("b", "a"))) == [2.0, 1.0]
        with pytest.raises(ModelError):
            model.weight_vector(("z",))

    def test_restricted_to(self):
        model = LinearModel({"a": 1.0, "b": 2.0}, intercept=5.0)
        sub = model.restricted_to(("b",))
        assert sub.evaluate({"b": 3.0}) == 11.0
        with pytest.raises(ModelError):
            model.restricted_to(("z",))

    def test_supports_intervals(self):
        assert LinearModel({"a": 1.0}).supports_intervals


class TestIntervalEvaluation:
    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.floats(-10, 10),
            min_size=1,
        ),
        st.data(),
    )
    @settings(max_examples=60)
    def test_interval_bounds_are_sound_and_tight(self, coefficients, data):
        model = LinearModel(coefficients, intercept=1.5)
        intervals = {}
        for name in coefficients:
            low = data.draw(st.floats(-100, 100))
            width = data.draw(st.floats(0, 50))
            intervals[name] = (low, low + width)
        bound_low, bound_high = model.evaluate_interval(intervals)
        # Tight: both endpoints achieved at box corners.
        corner_low = {
            name: (lo if coefficients[name] >= 0 else hi)
            for name, (lo, hi) in intervals.items()
        }
        corner_high = {
            name: (hi if coefficients[name] >= 0 else lo)
            for name, (lo, hi) in intervals.items()
        }
        assert bound_low == pytest.approx(model.evaluate(corner_low), rel=1e-9, abs=1e-9)
        assert bound_high == pytest.approx(model.evaluate(corner_high), rel=1e-9, abs=1e-9)
        assert bound_low <= bound_high + 1e-12

    def test_interior_points_within_bounds(self):
        model = LinearModel({"a": 3.0, "b": -2.0})
        intervals = {"a": (0.0, 1.0), "b": (-1.0, 4.0)}
        low, high = model.evaluate_interval(intervals)
        rng = np.random.default_rng(0)
        for _ in range(50):
            point = {
                "a": rng.uniform(0, 1),
                "b": rng.uniform(-1, 4),
            }
            assert low - 1e-9 <= model.evaluate(point) <= high + 1e-9

    def test_invalid_interval_rejected(self):
        model = LinearModel({"a": 1.0})
        with pytest.raises(ModelError):
            model.evaluate_interval({"a": (2.0, 1.0)})

    def test_missing_interval_rejected(self):
        model = LinearModel({"a": 1.0, "b": 1.0})
        with pytest.raises(ModelError):
            model.evaluate_interval({"a": (0.0, 1.0)})


class TestFitting:
    def test_recovers_exact_coefficients(self):
        rng = np.random.default_rng(1)
        columns = {"x": rng.normal(size=200), "y": rng.normal(size=200)}
        target = 2.5 * columns["x"] - 1.5 * columns["y"] + 4.0
        model = fit_linear_model(columns, target)
        assert model.coefficients["x"] == pytest.approx(2.5, abs=1e-9)
        assert model.coefficients["y"] == pytest.approx(-1.5, abs=1e-9)
        assert model.intercept == pytest.approx(4.0, abs=1e-9)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(2)
        columns = {"x": rng.normal(size=5000)}
        target = 3.0 * columns["x"] + rng.normal(0, 0.5, 5000)
        model = fit_linear_model(columns, target)
        assert model.coefficients["x"] == pytest.approx(3.0, abs=0.05)

    def test_without_intercept(self):
        columns = {"x": np.array([1.0, 2.0, 3.0])}
        target = np.array([2.0, 4.0, 6.0])
        model = fit_linear_model(columns, target, fit_intercept=False)
        assert model.intercept == 0.0
        assert model.coefficients["x"] == pytest.approx(2.0)

    def test_row_count_mismatch(self):
        with pytest.raises(ModelError):
            fit_linear_model({"x": np.zeros(3)}, np.zeros(4))

    def test_underdetermined_rejected(self):
        with pytest.raises(ModelError):
            fit_linear_model(
                {"x": np.zeros(2), "y": np.zeros(2)}, np.zeros(2)
            )

    def test_empty_columns_rejected(self):
        with pytest.raises(ModelError):
            fit_linear_model({}, np.zeros(3))


class TestPublishedModels:
    def test_hps_coefficients_verbatim(self):
        model = hps_risk_model()
        assert model.coefficients == {
            "tm_band4": 0.443,
            "tm_band5": 0.222,
            "tm_band7": 0.153,
            "elevation": 0.183,
        }
        assert model.intercept == 0.0

    def test_fico_scorecard_structure(self):
        model = fico_scorecard()
        assert model.intercept == 900.0
        assert all(weight < 0 for weight in model.coefficients.values())

    def test_fico_perfect_applicant_scores_900(self):
        model = fico_scorecard()
        perfect = {name: 0.0 for name in model.attributes}
        assert model.evaluate(perfect) == 900.0

    def test_fico_custom_weights(self):
        model = fico_scorecard({"late": 10.0})
        assert model.coefficients == {"late": -10.0}
        with pytest.raises(ModelError):
            fico_scorecard({})
