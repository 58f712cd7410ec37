"""Common model interface.

A *model* in this library is anything that scores an attribute vector:
linear models score tuples of layer values, knowledge models score fuzzy
evidence, FSM acceptance is exposed through scoring wrappers. The shared
surface lets the retrieval engine, metrics and planner treat them
uniformly.
"""

from __future__ import annotations

import abc
from typing import Mapping

import numpy as np

AttributeVector = Mapping[str, float]


class Model(abc.ABC):
    """Abstract scored model over named attributes.

    Concrete models implement :meth:`evaluate` (one attribute vector →
    score) and declare :attr:`attributes` (which archive layers/columns
    they read) and :attr:`complexity` (the per-evaluation operation count
    ``n`` of Section 4.2).

    Models that can bound their output from attribute intervals implement
    :meth:`evaluate_interval_batch`; the default raises, and the tile
    search refuses such models (a scan still serves them).
    """

    @property
    @abc.abstractmethod
    def attributes(self) -> tuple[str, ...]:
        """Names of the attributes the model reads."""

    @property
    @abc.abstractmethod
    def complexity(self) -> int:
        """Arithmetic operations per evaluation (the paper's ``n``)."""

    @abc.abstractmethod
    def evaluate(self, attributes: AttributeVector) -> float:
        """Score one attribute vector."""

    def evaluate_batch(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorized scoring of column arrays (same shapes in → out).

        The default loops over :meth:`evaluate`; models with closed forms
        override with numpy expressions.
        """
        names = self.attributes
        arrays = [np.asarray(columns[name], dtype=float) for name in names]
        if not arrays:
            raise ValueError("model reads no attributes")
        shape = arrays[0].shape
        flat = [array.reshape(-1) for array in arrays]
        scores = np.empty(flat[0].size)
        for i in range(flat[0].size):
            scores[i] = self.evaluate(
                {name: float(column[i]) for name, column in zip(names, flat)}
            )
        return scores.reshape(shape)

    def evaluate_interval(
        self, intervals: Mapping[str, tuple[float, float]]
    ) -> tuple[float, float]:
        """Sound (low, high) score bounds from attribute intervals:
        :meth:`evaluate_interval_batch` over the one box ``intervals``
        (attribute → (min, max) over some data region)."""
        return one_box(self.evaluate_interval_batch, intervals)

    def evaluate_interval_batch(
        self,
        low_columns: Mapping[str, np.ndarray],
        high_columns: Mapping[str, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sound (lows, highs) bound arrays over parallel attribute boxes.

        Element ``i`` of the result bounds :meth:`evaluate` over every
        vector in the box whose per-attribute interval is
        ``(low_columns[name][i], high_columns[name][i])``; the engine
        bounds a whole branch-and-bound frontier in one call. Models
        without interval support raise :class:`NotImplementedError`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support interval evaluation"
        )

    @property
    def supports_intervals(self) -> bool:
        """Whether :meth:`evaluate_interval_batch` is implemented."""
        return (
            type(self).evaluate_interval_batch
            is not Model.evaluate_interval_batch
        )


def one_box(bound_batch, intervals: Mapping[str, tuple[float, float]]):
    """A batched interval fold, ``bound_batch(low_columns, high_columns)``,
    over the single box ``intervals``, as a pair of floats."""
    low, high = bound_batch(
        {name: bounds[0] for name, bounds in intervals.items()},
        {name: bounds[1] for name, bounds in intervals.items()},
    )
    return (float(low), float(high))
