"""Rule-based knowledge models (paper Sections 2.3 and 3, Figures 3-4).

A knowledge model here is a set of fuzzy rules over named attributes:
each :class:`RulePredicate` maps one attribute through a membership
function, a :class:`FuzzyRule` conjoins predicates, and a
:class:`KnowledgeModel` combines rule degrees (disjunction or weighted
average) into one [0, 1] score — "the fuzzy and/or probabilistic rules
specified within the model" that top-K retrieval ranks by.

Each level has one score fold and one interval fold over columns: a
score is membership → t-norm → combination on arrays of cells (or on
0-d values for one cell), and a bound is the same fold over each
predicate's degree bounds, so it is the score's own expression at a
point of the box.

The Figure 3 HPS house rule and the Figure 4 geology rule are provided as
factories by the application modules (:mod:`repro.apps.epidemiology`,
:mod:`repro.apps.geology`); composite *sequence* matching for the geology
rule is handled by :mod:`repro.sproc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.models.base import AttributeVector, Model, one_box
from repro.models.fuzzy import FuzzyAnd, FuzzyOr, MembershipFunction

Columns = Mapping[str, np.ndarray]


@dataclass(frozen=True)
class RulePredicate:
    """One fuzzy predicate: attribute value → membership degree."""

    attribute: str
    membership: MembershipFunction
    name: str = ""

    def _read(self, columns: Columns) -> np.ndarray:
        try:
            return columns[self.attribute]
        except KeyError:
            raise ModelError(
                f"predicate {self.name or self.attribute!r} needs "
                f"attribute {self.attribute!r}"
            ) from None

    def degree_batch(self, columns: Columns) -> np.ndarray:
        """Membership degrees of the attribute's column."""
        return self.membership.batch(self._read(columns))

    def degree_interval_batch(
        self, low_columns: Columns, high_columns: Columns
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sound (min, max) degrees over parallel attribute boxes."""
        return self.membership.interval_batch(
            self._read(low_columns), self._read(high_columns)
        )

    def degree(self, attributes: AttributeVector) -> float:
        """Membership degree of the predicate for an attribute vector."""
        return float(self.degree_batch(attributes))

    def degree_interval(
        self, intervals: Mapping[str, tuple[float, float]]
    ) -> tuple[float, float]:
        """Sound (min, max) degree over one attribute box."""
        return one_box(self.degree_interval_batch, intervals)


@dataclass(frozen=True)
class FuzzyRule:
    """A conjunction of predicates with an importance weight.

    ``attributes`` (the attributes the rule reads, deduplicated, in
    stable order) is derived once, at construction.
    """

    name: str
    predicates: tuple[RulePredicate, ...]
    weight: float = 1.0
    conjunction: FuzzyAnd = FuzzyAnd("min")
    attributes: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ModelError(f"rule {self.name!r} needs at least one predicate")
        if self.weight <= 0:
            raise ModelError(f"rule {self.name!r} weight must be positive")
        attributes = dict.fromkeys(p.attribute for p in self.predicates)
        object.__setattr__(self, "attributes", tuple(attributes))

    def degree_batch(self, columns: Columns) -> np.ndarray:
        """Conjoined membership degrees of all predicates."""
        return self.conjunction.fold(
            [predicate.degree_batch(columns) for predicate in self.predicates]
        )

    def degree_interval_batch(
        self, low_columns: Columns, high_columns: Columns
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sound (min, max) rule degrees over parallel attribute boxes.

        Both t-norms are monotone in every argument, so conjoining the
        per-predicate lows (highs) bounds the rule degree; for
        independent attribute boxes the bound is tight.
        """
        lows, highs = zip(*(
            predicate.degree_interval_batch(low_columns, high_columns)
            for predicate in self.predicates
        ))
        return (self.conjunction.fold(lows), self.conjunction.fold(highs))

    def degree(self, attributes: AttributeVector) -> float:
        """Conjoined membership degree of all predicates."""
        return float(self.degree_batch(attributes))

    def degree_interval(
        self, intervals: Mapping[str, tuple[float, float]]
    ) -> tuple[float, float]:
        """Sound (min, max) rule degree over one attribute box."""
        return one_box(self.degree_interval_batch, intervals)


class KnowledgeModel(Model):
    """A scored set of fuzzy rules.

    ``combination`` selects how rule degrees merge:

    * ``"or"`` — fuzzy disjunction (any rule firing suffices),
    * ``"weighted"`` — weight-normalized average (rules vote).

    Scores are always in [0, 1].
    """

    def __init__(
        self,
        rules: Sequence[FuzzyRule],
        combination: str = "weighted",
        disjunction: FuzzyOr | None = None,
        name: str = "knowledge",
    ) -> None:
        if not rules:
            raise ModelError("knowledge model needs at least one rule")
        if combination not in ("or", "weighted"):
            raise ModelError(f"unknown combination {combination!r}")
        self.rules = tuple(rules)
        self.combination = combination
        self.disjunction = disjunction or FuzzyOr("max")
        self.name = name
        self._attributes = tuple(
            dict.fromkeys(a for rule in self.rules for a in rule.attributes)
        )
        self._complexity = 2 * sum(len(rule.predicates) for rule in self.rules)
        self._total_weight = sum(rule.weight for rule in self.rules)

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def complexity(self) -> int:
        """One membership evaluation + one combine op per predicate."""
        return self._complexity

    def _combine(self, degrees: Sequence[np.ndarray]) -> np.ndarray:
        """Rule degrees → score. The disjunction and the positive-weight
        average are both monotone in every degree, so combining rule
        bounds bounds the score."""
        if self.combination == "or":
            return self.disjunction.fold(degrees)
        return sum(
            rule.weight * degree for rule, degree in zip(self.rules, degrees)
        ) / self._total_weight

    def evaluate_batch(self, columns: Columns) -> np.ndarray:
        return self._combine([rule.degree_batch(columns) for rule in self.rules])

    def evaluate_interval_batch(
        self, low_columns: Columns, high_columns: Columns
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sound (min, max) scores over parallel attribute boxes: the
        score's fold over the rules' degree bounds. This is what lets
        knowledge models run through the progressive engine's tile
        screening."""
        lows, highs = zip(*(
            rule.degree_interval_batch(low_columns, high_columns)
            for rule in self.rules
        ))
        return (self._combine(lows), self._combine(highs))

    def evaluate(self, attributes: AttributeVector) -> float:
        return float(self.evaluate_batch(attributes))

    def rule_degrees(self, attributes: AttributeVector) -> dict[str, float]:
        """Per-rule degrees (explanation/debugging surface)."""
        return {rule.name: rule.degree(attributes) for rule in self.rules}

    def __repr__(self) -> str:
        rule_names = [rule.name for rule in self.rules]
        return (
            f"KnowledgeModel({self.name!r}, rules={rule_names}, "
            f"combination={self.combination!r})"
        )
