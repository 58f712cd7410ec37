"""Top-K retrieval accuracy (paper Section 4.1, second half).

The paper measures top-K retrieval with precision and recall, where the
"correct" locations are those with ``O(x, y) > 0`` and the retrieval is the
K locations with the highest model-predicted risk ``R(x, y)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class PrecisionRecall:
    """Precision/recall of one top-K retrieval."""

    k: int
    precision: float
    recall: float
    n_relevant: int
    n_retrieved_relevant: int

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (0 when both are 0)."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def precision_recall_at_k(
    retrieved: Sequence[Hashable],
    relevant: Iterable[Hashable],
    k: int | None = None,
) -> PrecisionRecall:
    """Precision/recall of a ranked retrieval against a relevant set.

    Parameters
    ----------
    retrieved:
        Ranked identifiers (best first). Only the first ``k`` are scored.
    relevant:
        Identifiers of truly relevant items (locations with ``O > 0``).
    k:
        Cutoff; defaults to ``len(retrieved)``.
    """
    if k is None:
        k = len(retrieved)
    if k < 0:
        raise ValueError("k must be non-negative")
    relevant_set = set(relevant)
    top = list(retrieved[:k])
    hits = sum(1 for item in top if item in relevant_set)
    precision = hits / k if k else 0.0
    recall = hits / len(relevant_set) if relevant_set else 0.0
    return PrecisionRecall(
        k=k,
        precision=precision,
        recall=recall,
        n_relevant=len(relevant_set),
        n_retrieved_relevant=hits,
    )


def rank_locations_by_risk(risk: np.ndarray) -> list[tuple[int, int]]:
    """Rank all grid locations by descending risk.

    Returns ``(row, col)`` tuples, highest risk first. Ties are broken by
    row-major order so the ranking is deterministic.
    """
    risk = np.asarray(risk, dtype=float)
    if risk.ndim != 2:
        raise ValueError("risk must be a 2-D grid")
    flat_order = np.argsort(-risk, axis=None, kind="stable")
    rows, cols = np.unravel_index(flat_order, risk.shape)
    return [(int(r), int(c)) for r, c in zip(rows, cols)]


def relevant_locations(occurrences: np.ndarray) -> set[tuple[int, int]]:
    """Locations with at least one ground-truth event (``O(x, y) > 0``)."""
    occurrences = np.asarray(occurrences)
    if occurrences.ndim != 2:
        raise ValueError("occurrences must be a 2-D grid")
    rows, cols = np.nonzero(occurrences > 0)
    return {(int(r), int(c)) for r, c in zip(rows, cols)}
