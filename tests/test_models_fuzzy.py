"""Tests for fuzzy membership functions and connectives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.fuzzy import (
    FuzzyAnd,
    FuzzyOr,
    gaussian_membership,
    sigmoid_membership,
    trapezoid_membership,
    triangle_membership,
)


class TestMembershipShapes:
    def test_triangle_peak_and_feet(self):
        mf = triangle_membership(0.0, 5.0, 10.0)
        assert mf(5.0) == 1.0
        assert mf(0.0) == 0.0
        assert mf(10.0) == 0.0
        assert mf(2.5) == pytest.approx(0.5)
        assert mf(-1.0) == 0.0
        assert mf(11.0) == 0.0

    def test_triangle_validation(self):
        with pytest.raises(ValueError):
            triangle_membership(5.0, 3.0, 10.0)

    def test_trapezoid_plateau(self):
        mf = trapezoid_membership(0.0, 2.0, 8.0, 10.0)
        assert mf(2.0) == 1.0
        assert mf(5.0) == 1.0
        assert mf(8.0) == 1.0
        assert mf(1.0) == pytest.approx(0.5)
        assert mf(9.0) == pytest.approx(0.5)
        assert mf(-1.0) == 0.0

    def test_trapezoid_validation(self):
        with pytest.raises(ValueError):
            trapezoid_membership(0.0, 3.0, 2.0, 10.0)

    def test_gaussian_center_and_symmetry(self):
        mf = gaussian_membership(10.0, 2.0)
        assert mf(10.0) == 1.0
        assert mf(8.0) == pytest.approx(mf(12.0))
        assert mf(10.0 + 2.0) == pytest.approx(np.exp(-0.5))

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            gaussian_membership(0.0, 0.0)

    def test_sigmoid_threshold(self):
        mf = sigmoid_membership(45.0, steepness=0.5)
        assert mf(45.0) == pytest.approx(0.5)
        assert mf(100.0) > 0.99
        assert mf(0.0) < 0.01

    def test_sigmoid_negative_steepness_flips(self):
        mf = sigmoid_membership(45.0, steepness=-0.5)
        assert mf(0.0) > 0.99
        assert mf(100.0) < 0.01

    def test_sigmoid_validation(self):
        with pytest.raises(ValueError):
            sigmoid_membership(0.0, steepness=0.0)

    def test_sigmoid_extreme_values_do_not_overflow(self):
        mf = sigmoid_membership(0.0, steepness=100.0)
        assert mf(1e9) == pytest.approx(1.0, abs=1e-20)
        assert mf(-1e9) == pytest.approx(0.0, abs=1e-20)

    @given(st.floats(-1e6, 1e6))
    @settings(max_examples=50)
    def test_all_memberships_in_unit_interval(self, value):
        functions = [
            triangle_membership(-10, 0, 10),
            trapezoid_membership(-10, -5, 5, 10),
            gaussian_membership(0, 3),
            sigmoid_membership(0, 0.1),
        ]
        for mf in functions:
            assert 0.0 <= mf(value) <= 1.0

    def test_batch_application(self):
        mf = triangle_membership(0, 5, 10)
        values = np.array([[0.0, 5.0], [2.5, 10.0]])
        batch = mf.batch(values)
        assert batch.shape == (2, 2)
        assert batch[0, 1] == 1.0
        assert batch[1, 0] == pytest.approx(0.5)


class TestMembershipIntervals:
    @given(st.floats(-50, 50), st.floats(0, 50))
    @settings(max_examples=40)
    def test_builtin_shapes_interval_soundness(self, low, width):
        high = low + width
        functions = [
            triangle_membership(-10, 0, 10),
            trapezoid_membership(-10, -5, 5, 10),
            gaussian_membership(0, 3),
            sigmoid_membership(0, 0.5),
        ]
        for mf in functions:
            bound_low, bound_high = mf.interval(low, high)
            for value in np.linspace(low, high, 25):
                degree = mf(float(value))
                assert bound_low - 1e-12 <= degree <= bound_high + 1e-12

    def test_interval_catches_interior_peak(self):
        mf = triangle_membership(0, 5, 10)
        low, high = mf.interval(1.0, 9.0)
        assert high == 1.0  # the peak at 5, not an endpoint
        assert low == pytest.approx(mf(9.0))

    def test_gaussian_interval_catches_center(self):
        mf = gaussian_membership(0, 2)
        low, high = mf.interval(-5.0, 5.0)
        assert high == 1.0
        assert low == pytest.approx(mf(5.0))

    def test_monotone_sigmoid_uses_endpoints(self):
        mf = sigmoid_membership(45.0, 0.25)
        low, high = mf.interval(30.0, 60.0)
        assert low == pytest.approx(mf(30.0))
        assert high == pytest.approx(mf(60.0))

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            triangle_membership(0, 5, 10).interval(3.0, 1.0)

    def test_point_interval(self):
        mf = trapezoid_membership(0, 2, 8, 10)
        low, high = mf.interval(5.0, 5.0)
        assert low == high == 1.0


class TestConnectives:
    def test_min_and(self):
        conj = FuzzyAnd("min")
        assert conj([0.3, 0.8, 0.5]) == 0.3

    def test_product_and(self):
        conj = FuzzyAnd("product")
        assert conj([0.5, 0.5]) == 0.25

    def test_empty_and_is_one(self):
        assert FuzzyAnd()([]) == 1.0

    def test_max_or(self):
        disj = FuzzyOr("max")
        assert disj([0.3, 0.8, 0.5]) == 0.8

    def test_probabilistic_or(self):
        disj = FuzzyOr("sum")
        assert disj([0.5, 0.5]) == pytest.approx(0.75)

    def test_empty_or_is_zero(self):
        assert FuzzyOr()([]) == 0.0

    def test_unknown_norms_rejected(self):
        with pytest.raises(ValueError):
            FuzzyAnd("lukasiewicz")
        with pytest.raises(ValueError):
            FuzzyOr("bounded")

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=6))
    def test_and_below_or(self, degrees):
        """Any t-norm result <= any t-conorm result on the same degrees."""
        for and_kind in ("min", "product"):
            for or_kind in ("max", "sum"):
                assert FuzzyAnd(and_kind)(degrees) <= FuzzyOr(or_kind)(degrees) + 1e-12

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=6))
    def test_connectives_stay_in_unit_interval(self, degrees):
        assert 0.0 <= FuzzyAnd("product")(degrees) <= 1.0
        assert 0.0 <= FuzzyOr("sum")(degrees) <= 1.0
