"""Batch planning: which queries may share one scan.

The plan stage of :class:`~repro.service.retrieval.RetrievalService`
hands a call's cache misses to a :class:`BatchPlanner`, which partitions
them into *shared-scan groups* (answered by one
:meth:`~repro.core.engine.RasterRetrievalEngine.shared_scan_search`
each) and *singletons* (each run through its own executor, as it would
alone). The grouping rules are deliberately conservative — a
query only joins a group when sharing cannot perturb its answer:

* **Same clipped region.** A shared scan walks one region's tile cover;
  queries over different windows walk different frontiers and gain
  nothing from a shared one, so each region forms its own group.
  (Archive and resolution are fixed per service — one stack, one tile
  screen — so the paper's "same archive/region/resolution" rule reduces
  to the region here.)
* **Default structure, interval-boundable model.** The shared scan is
  the model-only tile search: it prunes on envelope bounds and cannot
  blend embeddings, so a fused (``similar_to``) query stays a singleton,
  and so does a model without ``evaluate_interval_batch`` — where it
  raises the :class:`~repro.exceptions.QueryError` it raises alone.
* **Sound pruning only.** Heuristic pruning is unsound by design — its
  answers already depend on traversal order, so there is no bit-for-bit
  contract to preserve and batching it would only entangle the noise.
* **No lone groups.** A group of one would run the very search the
  singleton runs (the engine has one step; a lone query shares nothing),
  and the singleton path is where the per-call ``n_shards`` fan-out and
  its ``-sharded[n]`` label live; a shared scan is one thread and labels
  its members ``-batch[n]``.

Planning reads a member's ``query`` and ``region`` only — never ``k``,
direction or deadlines, which the shared-scan executor keeps per query.
Any record with those two attributes can be planned; the service plans
its own request records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class BatchPlan:
    """Planner output: shared-scan groups plus singleton fallbacks.

    ``groups`` maps each region to its >= 2 co-scannable members;
    ``singletons`` run the ordinary sharded path. Together they cover
    every planned query exactly once.
    """

    groups: list[list[Any]] = field(default_factory=list)
    singletons: list[Any] = field(default_factory=list)

    @property
    def batched(self) -> int:
        """How many queries will ride a shared scan."""
        return sum(len(group) for group in self.groups)


class BatchPlanner:
    """Groups compatible queries for shared-scan execution."""

    def plan(
        self, planned: list[Any], pruning: str = "sound"
    ) -> BatchPlan:
        """Partition ``planned`` into shared-scan groups and singletons.

        Grouping preserves batch order within each group and across
        singletons; see the module docstring for the rules.
        """
        plan = BatchPlan()
        if pruning != "sound":
            plan.singletons = list(planned)
            return plan
        by_region: dict[tuple[int, int, int, int], list[Any]] = {}
        for item in planned:
            if item.query.fused:
                # Fused members blend whole-model bounds with cosine
                # caps, which the shared scan does not carry, so they
                # run alone, with their FusionSpec.
                plan.singletons.append(item)
                continue
            if not item.query.model.supports_intervals:
                # Unanswerable by tile search; preparing it alone raises
                # the QueryError the single-query path raises.
                plan.singletons.append(item)
                continue
            by_region.setdefault(item.region, []).append(item)
        for members in by_region.values():
            if len(members) >= 2:
                plan.groups.append(members)
            else:
                plan.singletons.extend(members)
        return plan
