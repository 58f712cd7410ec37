"""Progressive decomposition of linear models (paper Section 3.1).

The paper: *"If |a1,a2| >> |a3,a4| then a coarser representation of the
model ... is R* ~ a1*X1 + a2*X2. ... the generation of progressively
coarser representation of a model can be accomplished by analyzing the
relative contribution of each parameter to the overall model."*

:func:`analyze_contributions` measures per-term contribution as
``|ai| * spread(Xi)`` (a coefficient only matters relative to its
attribute's dynamic range). :class:`ProgressiveLinearModel` orders terms by
contribution and exposes *levels*: level k reads the top-k terms and
sets every other attribute to the end of its archive range that favours
the query (:meth:`ProgressiveLinearModel.favoured_ends`), so a partial
evaluation is still a sound score bound — the property that lets the
engine prune with a coarse model without missing answers.

The paper explicitly contrasts this with classical query planning (most
*selective* first); the planner ablation benchmark compares both orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.exceptions import ModelError
from repro.models.linear import LinearModel


@dataclass(frozen=True)
class TermContribution:
    """Measured contribution of one model term.

    ``contribution = |coefficient| * spread`` where ``spread`` is the
    attribute's standard deviation over (a sample of) the archive.
    """

    attribute: str
    coefficient: float
    spread: float

    @property
    def contribution(self) -> float:
        """The contribution score used for ordering."""
        return abs(self.coefficient) * self.spread


def analyze_contributions(
    model: LinearModel,
    spreads: Mapping[str, float] | None = None,
    columns: Mapping[str, np.ndarray] | None = None,
) -> list[TermContribution]:
    """Rank model terms by relative contribution, largest first.

    Spreads come either directly (``spreads``) or are measured as standard
    deviations of supplied data columns; with neither, all spreads default
    to 1 and the ranking reduces to coefficient magnitude — the paper's
    ``|a1, a2| >> |a3, a4|`` reading.
    """
    contributions = []
    for attribute, coefficient in model.coefficients.items():
        if spreads is not None:
            try:
                spread = float(spreads[attribute])
            except KeyError:
                raise ModelError(f"no spread for attribute {attribute!r}") from None
        elif columns is not None:
            try:
                spread = float(np.asarray(columns[attribute], dtype=float).std())
            except KeyError:
                raise ModelError(f"no column for attribute {attribute!r}") from None
        else:
            spread = 1.0
        if spread < 0:
            raise ModelError(f"negative spread for {attribute!r}")
        contributions.append(
            TermContribution(attribute=attribute, coefficient=coefficient, spread=spread)
        )
    contributions.sort(key=lambda term: (-term.contribution, term.attribute))
    return contributions


class ProgressiveLinearModel:
    """A linear model decomposed into contribution-ordered levels.

    Level ``k`` (1-based, up to the number of terms) reads the ``k``
    highest-contribution attributes and bounds the remaining terms from
    per-attribute archive ranges: the engine's cascade scores a candidate
    with the unread attributes at their :meth:`favoured_ends`, and the
    planner reads each level's :meth:`uncertainty`. Level ``n_terms`` is
    exact evaluation.

    Parameters
    ----------
    model:
        The full linear model.
    contributions:
        Pre-computed term ranking (see :func:`analyze_contributions`).
    attribute_ranges:
        Global (min, max) of each attribute over the archive, used to
        bound unevaluated terms. Required for partial-level bounds.
    """

    def __init__(
        self,
        model: LinearModel,
        contributions: list[TermContribution],
        attribute_ranges: Mapping[str, tuple[float, float]],
    ) -> None:
        ranked_names = [term.attribute for term in contributions]
        if sorted(ranked_names) != sorted(model.attributes):
            raise ModelError("contributions do not cover the model's attributes")
        for attribute in model.attributes:
            if attribute not in attribute_ranges:
                raise ModelError(f"no range for attribute {attribute!r}")
            low, high = attribute_ranges[attribute]
            if low > high:
                raise ModelError(f"invalid range for {attribute!r}")
        self.model = model
        self.contributions = list(contributions)
        self.attribute_ranges = {
            attr_name: (float(low), float(high))
            for attr_name, (low, high) in attribute_ranges.items()
        }
        self._ordered_names = tuple(ranked_names)

    @classmethod
    def from_columns(
        cls, model: LinearModel, columns: Mapping[str, np.ndarray]
    ) -> "ProgressiveLinearModel":
        """Build levels by measuring spreads and ranges from data columns."""
        contributions = analyze_contributions(model, columns=columns)
        ranges = {}
        for attribute in model.attributes:
            values = np.asarray(columns[attribute], dtype=float)
            ranges[attribute] = (float(values.min()), float(values.max()))
        return cls(model, contributions, ranges)

    @property
    def n_levels(self) -> int:
        """Number of progressive levels (== number of terms)."""
        return len(self._ordered_names)

    def _tail_bounds(self, level: int) -> tuple[float, float]:
        """Sound (low, high) of the terms *not* evaluated at ``level``."""
        coefficients = self.model.coefficients
        low = high = 0.0
        for attribute in self._ordered_names[level:]:
            weight = coefficients[attribute]
            attr_low, attr_high = self.attribute_ranges[attribute]
            if weight >= 0:
                low += weight * attr_low
                high += weight * attr_high
            else:
                low += weight * attr_high
                high += weight * attr_low
        return (low, high)

    def favoured_ends(self, maximize: bool = True) -> dict[str, float]:
        """Each attribute at the end of its archive range that favours
        the objective: the one that raises its term when maximizing,
        lowers it when minimizing.

        ``model.evaluate_batch`` over these, with the attributes read so
        far in place of theirs, is a level's bound: it is the score's own
        expression, and rounding is monotone in each operand, so no
        completion within the ranges scores past it — and with every
        attribute read it is the score.
        """
        ranges = self.attribute_ranges
        low, high = self.model.corners(
            {name: ends[0] for name, ends in ranges.items()},
            {name: ends[1] for name, ends in ranges.items()},
        )
        return high if maximize else low

    def uncertainty(self, level: int) -> float:
        """Width of the tail bound at a level (0 at the final level).

        Monotonically non-increasing in ``level``; the planner uses it to
        decide how many levels are worth running.
        """
        low, high = self._tail_bounds(level)
        return high - low

    def __repr__(self) -> str:
        order = ", ".join(self._ordered_names)
        return f"ProgressiveLinearModel({self.model.name!r}, order=[{order}])"
