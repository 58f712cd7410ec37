"""Linear time-invariant models (paper Section 2.1).

``Y = a1*X1 + a2*X2 + ... + an*Xn (+ intercept)`` over named attributes.
Includes:

* :class:`LinearModel` — evaluation, vectorized batch evaluation, and
  exact interval bounds (the monotone structure progressive screening and
  the Onion index both exploit);
* :func:`fit_linear_model` — least-squares coefficient fitting, the
  "well known techniques ... in deriving the optimal weights" step;
* :func:`hps_risk_model` — the paper's published Hantavirus risk model
  ``R = 0.443*X1 + 0.222*X2 + 0.153*X3 + 0.183*X4``;
* :func:`fico_scorecard` — the Section 2.1 ``900 - sum(ai*Xi)`` scorecard
  as a :class:`LinearModel` (negative weights, base intercept).
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.exceptions import ModelError
from repro.models.base import AttributeVector, Model


class LinearModel(Model):
    """A weighted sum of named attributes plus an intercept.

    Parameters
    ----------
    coefficients:
        Mapping from attribute name to weight ``ai``; must be non-empty.
    intercept:
        Constant term (0 for the paper's risk models, 900 for FICO).
    name:
        Identifier used in reports.
    """

    def __init__(
        self,
        coefficients: Mapping[str, float],
        intercept: float = 0.0,
        name: str = "linear",
    ) -> None:
        if not coefficients:
            raise ModelError("linear model needs at least one coefficient")
        self._coefficients = {
            str(key): float(value) for key, value in coefficients.items()
        }
        self.intercept = float(intercept)
        self.name = name
        # A NaN term scores every cell NaN, which no top-K keeps: a search
        # would answer nothing, silently. The wire refuses these too.
        terms = [*self._coefficients.values(), self.intercept]
        if not all(map(math.isfinite, terms)):
            raise ModelError(f"model {name!r} has a non-finite term")

    @property
    def coefficients(self) -> dict[str, float]:
        """Copy of the coefficient mapping."""
        return dict(self._coefficients)

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self._coefficients)

    @property
    def complexity(self) -> int:
        """One multiply + one add per term (the paper's ``n``)."""
        return 2 * len(self._coefficients)

    def evaluate(self, attributes: AttributeVector) -> float:
        total = self.intercept
        for attr_name, weight in self._coefficients.items():
            try:
                total += weight * float(attributes[attr_name])
            except KeyError:
                raise ModelError(
                    f"model {self.name!r} needs attribute {attr_name!r}"
                ) from None
        return total

    def evaluate_batch(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """:meth:`evaluate` over column arrays, element by element.

        The one linear arithmetic: terms are added to the intercept one
        at a time in coefficient order, so element ``i`` is bitwise the
        scalar score of row ``i``, and every bound the engine prunes
        with is this expression at an envelope corner. A column may be
        a scalar, broadcast against the others.
        """
        total = self.intercept
        for attr_name, weight in self._coefficients.items():
            try:
                column = columns[attr_name]
            except KeyError:
                raise ModelError(
                    f"model {self.name!r} needs attribute {attr_name!r}"
                ) from None
            total = total + weight * np.asarray(column, dtype=float)
        return total

    def corners(self, lows, highs) -> tuple[dict, dict]:
        """The low and high corners of a box: per attribute, the end of
        its interval that lowers (raises) its term. Rounding is monotone
        in each operand, so :meth:`evaluate_batch` at them bounds every
        point of the box."""
        low, high = {}, {}
        for attr_name, weight in self._coefficients.items():
            try:
                attr_low, attr_high = lows[attr_name], highs[attr_name]
            except KeyError:
                raise ModelError(
                    f"interval for attribute {attr_name!r} missing"
                ) from None
            if np.any(attr_low > attr_high):
                raise ModelError(f"invalid interval for {attr_name!r}")
            if weight >= 0:
                low[attr_name], high[attr_name] = attr_low, attr_high
            else:
                low[attr_name], high[attr_name] = attr_high, attr_low
        return low, high

    def evaluate_interval_batch(
        self,
        low_columns: Mapping[str, np.ndarray],
        high_columns: Mapping[str, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact bounds over parallel boxes: :meth:`evaluate_batch` at
        the low and the high :meth:`corners`; for a linear form they are
        tight."""
        low, high = self.corners(low_columns, high_columns)
        return (self.evaluate_batch(low), self.evaluate_batch(high))

    def weight_vector(self, order: tuple[str, ...] | None = None) -> np.ndarray:
        """Coefficients as an array in the given (or natural) order.

        This is the query vector handed to the Onion index.
        """
        order = order or self.attributes
        try:
            return np.array([self._coefficients[name] for name in order])
        except KeyError as exc:
            raise ModelError(f"unknown attribute in order: {exc}") from None

    def __repr__(self) -> str:
        terms = " + ".join(
            f"{weight:+.3g}*{attr}" for attr, weight in self._coefficients.items()
        )
        return f"LinearModel({self.name!r}: {self.intercept:.3g} {terms})"


def fit_linear_model(
    columns: Mapping[str, np.ndarray],
    target: np.ndarray,
    fit_intercept: bool = True,
    name: str = "fitted",
) -> LinearModel:
    """Least-squares fit of a linear model to training data.

    Implements the paper's calibration step ("the weights of this model can
    be trained by using historical data"). ``columns`` maps attribute names
    to 1-D arrays; ``target`` is the observed response.
    """
    if not columns:
        raise ModelError("need at least one attribute column")
    target = np.asarray(target, dtype=float).reshape(-1)
    names = list(columns)
    matrix = np.column_stack(
        [np.asarray(columns[attr_name], dtype=float).reshape(-1) for attr_name in names]
    )
    if matrix.shape[0] != target.size:
        raise ModelError(
            f"{matrix.shape[0]} rows of attributes vs {target.size} targets"
        )
    if matrix.shape[0] < matrix.shape[1] + (1 if fit_intercept else 0):
        raise ModelError("not enough rows to fit the model")

    if fit_intercept:
        design = np.column_stack([matrix, np.ones(matrix.shape[0])])
    else:
        design = matrix
    solution, _, _, _ = np.linalg.lstsq(design, target, rcond=None)

    coefficients = dict(zip(names, solution[: len(names)]))
    intercept = float(solution[-1]) if fit_intercept else 0.0
    return LinearModel(coefficients, intercept=intercept, name=name)


def hps_risk_model() -> LinearModel:
    """The paper's published Hantavirus Pulmonary Syndrome risk model.

    ``R(x,y) = 0.443*band4 + 0.222*band5 + 0.153*band7 + 0.183*elevation``
    where the bands are Landsat TM pixel values and elevation comes from
    the DEM (paper Section 2.1, coefficients verbatim).
    """
    return LinearModel(
        {
            "tm_band4": 0.443,
            "tm_band5": 0.222,
            "tm_band7": 0.153,
            "elevation": 0.183,
        },
        intercept=0.0,
        name="hps_risk",
    )


def fico_scorecard(weights: Mapping[str, float] | None = None) -> LinearModel:
    """The Section 2.1 FICO-style scorecard ``900 - sum(ai*Xi)``.

    ``weights`` are the positive penalties ``ai``; defaults to the
    synthetic population's published weights
    (:data:`repro.synth.credit.SCORECARD_WEIGHTS`).
    """
    if weights is None:
        from repro.synth.credit import SCORECARD_WEIGHTS

        weights = SCORECARD_WEIGHTS
    if not weights:
        raise ModelError("scorecard needs at least one weighted attribute")
    return LinearModel(
        {attr_name: -float(weight) for attr_name, weight in weights.items()},
        intercept=900.0,
        name="fico_scorecard",
    )
