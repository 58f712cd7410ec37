"""Fuzzy membership functions and connectives.

The paper's knowledge models locate "data patterns that satisfy the fuzzy
and/or probabilistic rules specified within the model"; SPROC [15, 16]
processes *fuzzy Cartesian queries*. This module supplies the fuzzy
calculus both use: membership functions mapping raw values to [0, 1]
degrees, and t-norm/t-conorm connectives for combining them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Membership = Callable[[float], float]


def _clip01(value: float) -> float:
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class MembershipFunction:
    """A named membership function with vectorized application.

    ``critical_points`` lists the interior extrema/breakpoints of the
    function (peaks, shoulders); with them, :meth:`interval` computes
    sound (and, for the built-in shapes, tight) bounds of the membership
    degree over a value interval — the hook that lets knowledge models
    participate in tile-level progressive pruning.
    """

    name: str
    function: Membership
    critical_points: tuple[float, ...] = ()
    batch_function: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, value: float) -> float:
        return _clip01(float(self.function(float(value))))

    def batch(self, values: np.ndarray) -> np.ndarray:
        """Apply element-wise to an array.

        Uses ``batch_function`` when the shape declared one (the built-in
        factories all do — their vectorized forms reproduce the scalar
        arithmetic exactly); otherwise falls back to a scalar loop.
        """
        array = np.asarray(values, dtype=float)
        flat = array.reshape(-1)
        if self.batch_function is not None:
            out = np.clip(
                np.asarray(self.batch_function(flat), dtype=float), 0.0, 1.0
            )
        else:
            out = np.fromiter(
                (self(v) for v in flat), dtype=float, count=flat.size
            )
        return out.reshape(array.shape)

    def interval_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`interval` over parallel value intervals.

        Element ``i`` bounds the degree over ``[lows[i], highs[i]]`` —
        endpoint degrees plus every critical point interior to that
        element's interval, exactly the scalar candidate set, so results
        match :meth:`interval` element-for-element.
        """
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        if (lows > highs).any():
            raise ValueError("inverted interval in batch")
        at_low = self.batch(lows)
        at_high = self.batch(highs)
        minima = np.minimum(at_low, at_high)
        maxima = np.maximum(at_low, at_high)
        for point in self.critical_points:
            interior = (lows < point) & (point < highs)
            if interior.any():
                degree = self(point)
                minima = np.where(interior, np.minimum(minima, degree), minima)
                maxima = np.where(interior, np.maximum(maxima, degree), maxima)
        return (minima, maxima)

    def interval(self, low: float, high: float) -> tuple[float, float]:
        """Sound (min, max) of the membership degree over ``[low, high]``.

        Evaluates the endpoints plus every declared critical point inside
        the interval. Exact for functions that are piecewise monotone
        between consecutive critical points — true of every membership
        shape this module builds. Functions constructed directly without
        critical points are treated as monotone between the endpoints,
        which is *unsound* for non-monotone custom shapes; declare their
        extrema via ``critical_points``.
        """
        if low > high:
            raise ValueError(f"inverted interval ({low}, {high})")
        candidates = [self(low), self(high)]
        candidates.extend(
            self(point)
            for point in self.critical_points
            if low < point < high
        )
        return (min(candidates), max(candidates))


def triangle_membership(
    low: float, peak: float, high: float, name: str = "triangle"
) -> MembershipFunction:
    """Triangular membership: 0 at ``low``/``high``, 1 at ``peak``."""
    if not low <= peak <= high:
        raise ValueError(f"need low <= peak <= high, got {low}, {peak}, {high}")

    def function(value: float) -> float:
        if value <= low or value >= high:
            return 0.0 if (value != peak) else 1.0
        if value == peak:
            return 1.0
        if value < peak:
            return (value - low) / (peak - low) if peak > low else 1.0
        return (high - value) / (high - peak) if high > peak else 1.0

    def batch_function(values: np.ndarray) -> np.ndarray:
        # Same branch structure and division expressions as the scalar
        # form, so degrees are bitwise-identical element-for-element.
        ones = np.ones_like(values)
        rising = (values - low) / (peak - low) if peak > low else ones
        falling = (high - values) / (high - peak) if high > peak else ones
        out = np.where(values < peak, rising, falling)
        out = np.where((values <= low) | (values >= high), 0.0, out)
        return np.where(values == peak, 1.0, out)

    return MembershipFunction(
        name, function, critical_points=(low, peak, high),
        batch_function=batch_function,
    )


def trapezoid_membership(
    low: float, shoulder_low: float, shoulder_high: float, high: float,
    name: str = "trapezoid",
) -> MembershipFunction:
    """Trapezoidal membership: plateau of 1 on [shoulder_low, shoulder_high]."""
    if not low <= shoulder_low <= shoulder_high <= high:
        raise ValueError("trapezoid breakpoints must be non-decreasing")

    def function(value: float) -> float:
        if shoulder_low <= value <= shoulder_high:
            return 1.0
        if value <= low or value >= high:
            return 0.0
        if value < shoulder_low:
            return (value - low) / (shoulder_low - low)
        return (high - value) / (high - shoulder_high)

    def batch_function(values: np.ndarray) -> np.ndarray:
        # Ramps with a zero-width base never apply (the scalar branches
        # catch those values first), so guard the divisions with zeros.
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
        name, function,
        critical_points=(low, shoulder_low, shoulder_high, high),
        batch_function=batch_function,
    )


def gaussian_membership(
    center: float, width: float, name: str = "gaussian"
) -> MembershipFunction:
    """Gaussian membership ``exp(-((x - center) / width)**2 / 2)``."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")

    # Square via explicit multiplication in BOTH paths: python's
    # ``x ** 2`` routes through C pow() while numpy's array ``** 2``
    # multiplies, and the two can disagree by 1 ulp — enough to break
    # the scalar/batch bitwise-equality contract the engine prunes on.
    def function(value: float) -> float:
        z = (value - center) / width
        return float(np.exp(-0.5 * (z * z)))

    def batch_function(values: np.ndarray) -> np.ndarray:
        z = (values - center) / width
        return np.exp(-0.5 * (z * z))

    return MembershipFunction(
        name, function, critical_points=(center,),
        batch_function=batch_function,
    )


def sigmoid_membership(
    threshold: float, steepness: float = 1.0, name: str = "sigmoid"
) -> MembershipFunction:
    """Soft threshold: ≈0 far below ``threshold``, ≈1 far above.

    Negative ``steepness`` flips the direction (high below the threshold).
    Used for rules like "gamma ray higher than 45" as a fuzzy predicate.
    """
    if steepness == 0:
        raise ValueError("steepness must be non-zero")

    def function(value: float) -> float:
        exponent = np.clip(-steepness * (value - threshold), -60.0, 60.0)
        return float(1.0 / (1.0 + np.exp(exponent)))

    def batch_function(values: np.ndarray) -> np.ndarray:
        exponent = np.clip(-steepness * (values - threshold), -60.0, 60.0)
        return 1.0 / (1.0 + np.exp(exponent))

    return MembershipFunction(name, function, batch_function=batch_function)


class FuzzyAnd:
    """T-norm conjunction over membership degrees.

    ``kind`` selects the norm: ``"min"`` (Gödel, the paper's usual choice)
    or ``"product"`` (probabilistic).
    """

    def __init__(self, kind: str = "min") -> None:
        if kind not in ("min", "product"):
            raise ValueError(f"unknown t-norm {kind!r}")
        self.kind = kind

    def __call__(self, degrees: Sequence[float]) -> float:
        degrees = [_clip01(float(d)) for d in degrees]
        if not degrees:
            return 1.0  # empty conjunction is vacuously true
        if self.kind == "min":
            return min(degrees)
        product = 1.0
        for degree in degrees:
            product *= degree
        return product

    def batch(self, degree_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Element-wise conjunction of parallel degree arrays (same fold
        order as the scalar call, so results match exactly)."""
        if not degree_arrays:
            raise ValueError("batch conjunction needs at least one array")
        arrays = [
            np.clip(np.asarray(a, dtype=float), 0.0, 1.0)
            for a in degree_arrays
        ]
        if self.kind == "min":
            return np.minimum.reduce(arrays)
        product = arrays[0]
        for array in arrays[1:]:
            product = product * array
        return product


class FuzzyOr:
    """T-conorm disjunction over membership degrees.

    ``kind``: ``"max"`` (Gödel) or ``"sum"`` (probabilistic:
    ``a + b - a*b``).
    """

    def __init__(self, kind: str = "max") -> None:
        if kind not in ("max", "sum"):
            raise ValueError(f"unknown t-conorm {kind!r}")
        self.kind = kind

    def __call__(self, degrees: Sequence[float]) -> float:
        degrees = [_clip01(float(d)) for d in degrees]
        if not degrees:
            return 0.0  # empty disjunction is vacuously false
        if self.kind == "max":
            return max(degrees)
        total = 0.0
        for degree in degrees:
            total = total + degree - total * degree
        return total

    def batch(self, degree_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Element-wise disjunction of parallel degree arrays (same fold
        order as the scalar call, so results match exactly)."""
        if not degree_arrays:
            raise ValueError("batch disjunction needs at least one array")
        arrays = [
            np.clip(np.asarray(a, dtype=float), 0.0, 1.0)
            for a in degree_arrays
        ]
        if self.kind == "max":
            return np.maximum.reduce(arrays)
        total = np.zeros_like(arrays[0])
        for array in arrays:
            total = total + array - total * array
        return total
