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
        arrays = []
        for attr_name, weight in self._coefficients.items():
            try:
                arrays.append(weight * np.asarray(columns[attr_name], dtype=float))
            except KeyError:
                raise ModelError(
                    f"model {self.name!r} needs attribute {attr_name!r}"
                ) from None
        return self.intercept + np.sum(arrays, axis=0)

    def evaluate_interval(
        self, intervals: Mapping[str, tuple[float, float]]
    ) -> tuple[float, float]:
        """Exact bounds: positive weights take the interval as-is, negative
        weights swap endpoints. For a linear form these bounds are tight."""
        low = high = self.intercept
        for attr_name, weight in self._coefficients.items():
            try:
                attr_low, attr_high = intervals[attr_name]
            except KeyError:
                raise ModelError(
                    f"interval for attribute {attr_name!r} missing"
                ) from None
            if attr_low > attr_high:
                raise ModelError(
                    f"invalid interval for {attr_name!r}: ({attr_low}, {attr_high})"
                )
            if weight >= 0:
                low += weight * attr_low
                high += weight * attr_high
            else:
                low += weight * attr_high
                high += weight * attr_low
        return (low, high)

    def evaluate_interval_batch(
        self,
        low_columns: Mapping[str, np.ndarray],
        high_columns: Mapping[str, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`evaluate_interval` over parallel boxes.

        Accumulates term-by-term in coefficient order from the scalar
        intercept — the same left-to-right float additions as the scalar
        path — so each element is bitwise-identical to the scalar bound
        for its box. Columns must be float64 arrays; none is copied.
        """
        low = high = self.intercept
        for attr_name, weight in self._coefficients.items():
            try:
                attr_low = low_columns[attr_name]
                attr_high = high_columns[attr_name]
            except KeyError:
                raise ModelError(
                    f"interval for attribute {attr_name!r} missing"
                ) from None
            if (attr_low > attr_high).any():
                raise ModelError(f"invalid interval for {attr_name!r}")
            if weight >= 0:
                low = low + weight * attr_low
                high = high + weight * attr_high
            else:
                low = low + weight * attr_high
                high = high + weight * attr_low
        return (low, high)

    def weight_vector(self, order: tuple[str, ...] | None = None) -> np.ndarray:
        """Coefficients as an array in the given (or natural) order.

        This is the query vector handed to the Onion index.
        """
        order = order or self.attributes
        try:
            return np.array([self._coefficients[name] for name in order])
        except KeyError as exc:
            raise ModelError(f"unknown attribute in order: {exc}") from None

    def restricted_to(self, names: tuple[str, ...]) -> "LinearModel":
        """Sub-model using only the named terms (intercept kept)."""
        missing = [n for n in names if n not in self._coefficients]
        if missing:
            raise ModelError(f"unknown attributes {missing}")
        return LinearModel(
            {n: self._coefficients[n] for n in names},
            intercept=self.intercept,
            name=f"{self.name}[{len(names)} terms]",
        )

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


def stacked_interval_batch(
    models: "list[LinearModel]",
    low_columns: Mapping[str, np.ndarray],
    high_columns: Mapping[str, np.ndarray],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Interval bounds for many linear models over the same boxes, in
    one pass per attribute.

    The shared-scan batch executor bounds one popped tile block for a
    whole query group at once. Every model must share one attribute
    order; the accumulation walks that order with elementwise adds and
    multiplies — the exact operation sequence of each model's own
    :meth:`LinearModel.evaluate_interval_batch` — so row ``q`` of the
    result is *bitwise* identical to ``models[q]`` bounding the boxes
    alone. Returns one ``(low, high)`` array pair per model.
    """
    if not models:
        raise ModelError("stacked interval bounds need at least one model")
    order = models[0].attributes
    for model in models[1:]:
        if model.attributes != order:
            raise ModelError(
                "stacked interval bounds need one shared attribute "
                f"order; got {order} and {model.attributes}"
            )
    intercepts = np.array([model.intercept for model in models])
    low = high = None
    for attr_name in order:
        try:
            attr_low = np.asarray(low_columns[attr_name], dtype=float)
            attr_high = np.asarray(high_columns[attr_name], dtype=float)
        except KeyError:
            raise ModelError(
                f"interval for attribute {attr_name!r} missing"
            ) from None
        if (attr_low > attr_high).any():
            raise ModelError(f"invalid interval for {attr_name!r}")
        if low is None:
            shape = (len(models),) + attr_low.shape
            low = np.repeat(intercepts[:, None], attr_low.size, axis=1)
            low = low.reshape(shape)
            high = low.copy()
        weights = np.array(
            [model._coefficients[attr_name] for model in models]
        )[:, None]
        positive = weights >= 0
        low = low + weights * np.where(positive, attr_low, attr_high)
        high = high + weights * np.where(positive, attr_high, attr_low)
    return [(low[index], high[index]) for index in range(len(models))]


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
