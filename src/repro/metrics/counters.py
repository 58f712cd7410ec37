"""Work-accounting instrumentation.

Every quantitative claim in the paper is a ratio of work done by two
strategies (indexed vs. scan, progressive vs. exhaustive). Wall-clock time
in a Python reimplementation is dominated by interpreter overhead, so the
primary measurements in this repository are *counted units of work*:

* ``data_points`` — raw data values touched (pixels, samples, tuples),
* ``model_evals`` — full model evaluations performed,
* ``partial_evals`` — partial/progressive model evaluations,
* ``flops`` — arithmetic operations attributed to model execution,
* ``tuples_examined`` — index entries / tuples inspected during search,
* ``nodes_visited`` — index structure nodes (tree nodes, hull layers) visited.

`CostCounter` is a plain mutable record passed explicitly to the code paths
that do work (no globals, no thread-locals), following the "explicit is
better than implicit" rule.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class CostCounter:
    """Mutable tally of the work performed by a retrieval strategy.

    Counters are plain integers; ``wall_seconds`` accumulates elapsed time
    recorded through :meth:`timed`. Instances support ``+`` for combining
    the work of independent phases.
    """

    data_points: int = 0
    model_evals: int = 0
    partial_evals: int = 0
    flops: int = 0
    tuples_examined: int = 0
    nodes_visited: int = 0
    wall_seconds: float = 0.0
    notes: dict[str, float] = field(default_factory=dict)

    def add_data_points(self, n: int) -> None:
        """Record that ``n`` raw data values were read."""
        self.data_points += n

    def add_model_evals(self, n: int = 1, flops_each: int = 0) -> None:
        """Record ``n`` full model evaluations of ``flops_each`` operations."""
        self.model_evals += n
        self.flops += n * flops_each

    def add_partial_evals(self, n: int = 1, flops_each: int = 0) -> None:
        """Record ``n`` partial (progressive-level) model evaluations."""
        self.partial_evals += n
        self.flops += n * flops_each

    def add_tuples(self, n: int) -> None:
        """Record that ``n`` tuples/index entries were examined."""
        self.tuples_examined += n

    def add_nodes(self, n: int = 1) -> None:
        """Record that ``n`` index nodes were visited."""
        self.nodes_visited += n

    def note(self, key: str, value: float) -> None:
        """Attach a named scalar (accumulates if the key already exists)."""
        self.notes[key] = self.notes.get(key, 0.0) + value

    @property
    def total_work(self) -> int:
        """A single scalar summarizing counted work.

        Defined as data points touched plus flops plus tuples examined —
        the quantities that scale with archive size. Structure-node visits
        are excluded because they are bounded by the same tuple counts.
        """
        return self.data_points + self.flops + self.tuples_examined

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        """Context manager accumulating elapsed wall-clock time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_seconds += time.perf_counter() - start

    def copy(self) -> "CostCounter":
        """An independent counter with the same tallies and notes (the
        serving layer's cache hands out copies, never shared records)."""
        return CostCounter(
            data_points=self.data_points,
            model_evals=self.model_evals,
            partial_evals=self.partial_evals,
            flops=self.flops,
            tuples_examined=self.tuples_examined,
            nodes_visited=self.nodes_visited,
            wall_seconds=self.wall_seconds,
            notes=dict(self.notes),
        )

    def __iadd__(self, other: "CostCounter") -> "CostCounter":
        """In-place merge — how the service folds per-shard counters
        into one tally without allocating an intermediate per shard."""
        if not isinstance(other, CostCounter):
            return NotImplemented
        self.data_points += other.data_points
        self.model_evals += other.model_evals
        self.partial_evals += other.partial_evals
        self.flops += other.flops
        self.tuples_examined += other.tuples_examined
        self.nodes_visited += other.nodes_visited
        self.wall_seconds += other.wall_seconds
        for key, value in other.notes.items():
            self.notes[key] = self.notes.get(key, 0.0) + value
        return self

    def __radd__(self, other: object) -> "CostCounter":
        """Support ``sum(counters)`` (the int 0 start value)."""
        if other == 0:
            return CostCounter() + self
        return NotImplemented

    def __add__(self, other: "CostCounter") -> "CostCounter":
        if not isinstance(other, CostCounter):
            return NotImplemented
        merged_notes = dict(self.notes)
        for key, value in other.notes.items():
            merged_notes[key] = merged_notes.get(key, 0.0) + value
        return CostCounter(
            data_points=self.data_points + other.data_points,
            model_evals=self.model_evals + other.model_evals,
            partial_evals=self.partial_evals + other.partial_evals,
            flops=self.flops + other.flops,
            tuples_examined=self.tuples_examined + other.tuples_examined,
            nodes_visited=self.nodes_visited + other.nodes_visited,
            wall_seconds=self.wall_seconds + other.wall_seconds,
            notes=merged_notes,
        )

    def as_dict(self) -> dict[str, float]:
        """Return a flat dict view (for report tables)."""
        out: dict[str, float] = {
            "data_points": self.data_points,
            "model_evals": self.model_evals,
            "partial_evals": self.partial_evals,
            "flops": self.flops,
            "tuples_examined": self.tuples_examined,
            "nodes_visited": self.nodes_visited,
            "wall_seconds": self.wall_seconds,
            "total_work": self.total_work,
        }
        out.update(self.notes)
        return out


@contextlib.contextmanager
def counted(counter: CostCounter | None) -> Iterator[CostCounter]:
    """Yield ``counter`` or a throwaway counter if ``None``.

    Lets instrumented functions accept ``counter=None`` without sprinkling
    ``if counter is not None`` checks through their bodies.
    """
    yield counter if counter is not None else CostCounter()
