"""Fuzzy membership functions and connectives.

The paper's knowledge models locate "data patterns that satisfy the fuzzy
and/or probabilistic rules specified within the model"; SPROC [15, 16]
processes *fuzzy Cartesian queries*. This module supplies the fuzzy
calculus both use: membership functions mapping raw values to [0, 1]
degrees, and t-norm/t-conorm connectives for combining them.

One knowledge arithmetic: every membership shape and connective is one
NumPy expression, applied to arrays of cells or boxes and to 0-d values
alike, so a scalar degree is bitwise the array degree of its cell. Each
is monotone under rounding (between a shape's critical points), which is
what makes a bound the expression itself at a point of the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np

Membership = Callable[[np.ndarray], np.ndarray]


def _unit(degrees) -> np.ndarray:
    return np.clip(np.asarray(degrees, dtype=float), 0.0, 1.0)


@dataclass(frozen=True)
class MembershipFunction:
    """A named membership function over arrays of values.

    ``function`` maps an array to raw degrees element-wise (it is called
    on 0-d arrays too); degrees are clipped to [0, 1].
    ``critical_points`` lists the interior extrema/breakpoints of the
    function (peaks, shoulders); with them, :meth:`interval_batch`
    computes sound (and, for the built-in shapes, tight) bounds of the
    membership degree over value intervals — the hook that lets
    knowledge models participate in tile-level progressive pruning.
    """

    name: str
    function: Membership
    critical_points: tuple[float, ...] = ()

    def __call__(self, value: float) -> float:
        return float(self.batch(value))

    def batch(self, values: np.ndarray) -> np.ndarray:
        """Degrees of ``values``, element-wise, in their shape."""
        return _unit(self.function(np.asarray(values, dtype=float)))

    def interval_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sound (min, max) degree over each interval ``[lows, highs]``.

        The candidates are the degrees at both ends plus at every
        critical point interior to the interval (elsewhere a stand-in:
        the low end's degree again). Exact for functions that are
        piecewise monotone between consecutive critical points — true of
        every shape this module builds. Functions constructed directly
        without critical points are treated as monotone between the
        endpoints, which is *unsound* for non-monotone custom shapes;
        declare their extrema via ``critical_points``.
        """
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        if (lows > highs).any():
            raise ValueError("inverted interval")
        points = np.asarray(self.critical_points, dtype=float)
        ends = self.batch(np.stack([lows, highs], axis=-1))
        inside = (lows[..., None] < points) & (points < highs[..., None])
        candidates = np.concatenate(
            [ends, np.where(inside, self.batch(points), ends[..., :1])],
            axis=-1,
        )
        return (candidates.min(axis=-1), candidates.max(axis=-1))

    def interval(self, low: float, high: float) -> tuple[float, float]:
        """:meth:`interval_batch` over the one interval ``[low, high]``."""
        minimum, maximum = self.interval_batch(low, high)
        return (float(minimum), float(maximum))


def triangle_membership(
    low: float, peak: float, high: float, name: str = "triangle"
) -> MembershipFunction:
    """Triangular membership: 0 at ``low``/``high``, 1 at ``peak``."""
    if not low <= peak <= high:
        raise ValueError(f"need low <= peak <= high, got {low}, {peak}, {high}")

    def function(values: np.ndarray) -> np.ndarray:
        ones = np.ones_like(values)
        rising = (values - low) / (peak - low) if peak > low else ones
        falling = (high - values) / (high - peak) if high > peak else ones
        out = np.where(values < peak, rising, falling)
        out = np.where((values <= low) | (values >= high), 0.0, out)
        return np.where(values == peak, 1.0, out)

    return MembershipFunction(name, function, critical_points=(low, peak, high))


def trapezoid_membership(
    low: float, shoulder_low: float, shoulder_high: float, high: float,
    name: str = "trapezoid",
) -> MembershipFunction:
    """Trapezoidal membership: plateau of 1 on [shoulder_low, shoulder_high]."""
    if not low <= shoulder_low <= shoulder_high <= high:
        raise ValueError("trapezoid breakpoints must be non-decreasing")

    def function(values: np.ndarray) -> np.ndarray:
        # A ramp with a zero-width base never applies (the feet and the
        # plateau cover its values), so it is zeros, not a division.
        zeros = np.zeros_like(values)
        rising = (
            (values - low) / (shoulder_low - low)
            if shoulder_low > low
            else zeros
        )
        falling = (
            (high - values) / (high - shoulder_high)
            if high > shoulder_high
            else zeros
        )
        out = np.where(values < shoulder_low, rising, falling)
        out = np.where((values <= low) | (values >= high), 0.0, out)
        plateau = (shoulder_low <= values) & (values <= shoulder_high)
        return np.where(plateau, 1.0, out)

    return MembershipFunction(
        name, function, critical_points=(low, shoulder_low, shoulder_high, high)
    )


def gaussian_membership(
    center: float, width: float, name: str = "gaussian"
) -> MembershipFunction:
    """Gaussian membership ``exp(-((x - center) / width)**2 / 2)``."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")

    def function(values: np.ndarray) -> np.ndarray:
        z = (values - center) / width
        return np.exp(-0.5 * (z * z))

    return MembershipFunction(name, function, critical_points=(center,))


def sigmoid_membership(
    threshold: float, steepness: float = 1.0, name: str = "sigmoid"
) -> MembershipFunction:
    """Soft threshold: ≈0 far below ``threshold``, ≈1 far above.

    Negative ``steepness`` flips the direction (high below the threshold).
    Used for rules like "gamma ray higher than 45" as a fuzzy predicate.
    """
    if steepness == 0:
        raise ValueError("steepness must be non-zero")

    def function(values: np.ndarray) -> np.ndarray:
        exponent = np.clip(-steepness * (values - threshold), -60.0, 60.0)
        return 1.0 / (1.0 + np.exp(exponent))

    return MembershipFunction(name, function)


class FuzzyAnd:
    """T-norm conjunction over membership degrees.

    ``kind`` selects the norm: ``"min"`` (Gödel, the paper's usual choice)
    or ``"product"`` (probabilistic). Both are monotone under rounding in
    every degree.
    """

    def __init__(self, kind: str = "min") -> None:
        if kind not in ("min", "product"):
            raise ValueError(f"unknown t-norm {kind!r}")
        self.kind = kind
        self._norm = np.minimum if kind == "min" else np.multiply

    def __call__(self, degrees: Sequence[float]) -> float:
        return float(self.batch(degrees))

    def batch(self, degree_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Element-wise conjunction of parallel degree arrays, each
        clipped to [0, 1] first, folded in order; the empty conjunction
        is vacuously true (1.0)."""
        return self.fold(map(_unit, degree_arrays))

    def fold(self, degree_arrays: Iterable[np.ndarray]) -> np.ndarray:
        """:meth:`batch` of degrees already in [0, 1] (membership and
        rule degrees), unclipped: both norms stay in [0, 1]."""
        return reduce(self._norm, degree_arrays, np.float64(1.0))


class FuzzyOr:
    """T-conorm disjunction over membership degrees.

    ``kind``: ``"max"`` (Gödel) or ``"sum"`` (probabilistic, ``a + b -
    a*b``). The sum is computed as the complement of the product of the
    complements, ``1 - (1 - a)(1 - b)``: every step of that form rounds
    monotonically on [0, 1], while ``a + b - a*b`` can round down as a
    degree rises, and a bound must never fall below a score it covers.
    """

    def __init__(self, kind: str = "max") -> None:
        if kind not in ("max", "sum"):
            raise ValueError(f"unknown t-conorm {kind!r}")
        self.kind = kind

    def __call__(self, degrees: Sequence[float]) -> float:
        return float(self.batch(degrees))

    def batch(self, degree_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Element-wise disjunction of parallel degree arrays, each
        clipped to [0, 1] first, folded in order; the empty disjunction
        is vacuously false (0.0)."""
        return self.fold(map(_unit, degree_arrays))

    def fold(self, degrees: Iterable[np.ndarray]) -> np.ndarray:
        """:meth:`batch` of degrees already in [0, 1] (rule degrees),
        unclipped: both conorms stay in [0, 1]."""
        if self.kind == "max":
            return reduce(np.maximum, degrees, np.float64(0.0))
        complements = (1.0 - degree for degree in degrees)
        return 1.0 - reduce(np.multiply, complements, np.float64(1.0))
