"""Batch planning: which queries may share one archive traversal.

:meth:`RetrievalService.top_k_batch` peels cache hits off a batch, then
hands the remaining queries to a :class:`BatchPlanner`, which partitions
them into *shared-scan groups* (answered by one
:meth:`~repro.core.engine.RasterRetrievalEngine.shared_scan_search`
traversal each) and *singletons* (answered by the ordinary sharded
path). The grouping rules are deliberately conservative — a query only
joins a group when sharing cannot perturb its answer:

* **Same clipped region.** A shared scan walks one region's tile cover;
  queries over different windows walk different frontiers and gain
  nothing from a merged traversal, so each region forms its own group.
  (Archive and resolution are fixed per service — one stack, one tile
  screen — so the paper's "same archive/region/resolution" rule reduces
  to the region here.)
* **Interval-boundable model.** The tile scan prunes on envelope
  bounds; a model without ``evaluate_interval`` support cannot ride it
  and raises :class:`~repro.exceptions.QueryError`, exactly as the
  single-query path does. Linear, knowledge, and fuzzy-rule models all
  qualify.
* **Sound pruning only.** Heuristic pruning is unsound by design — its
  answers already depend on traversal order, so there is no bit-for-bit
  contract to preserve and batching it would only entangle the noise.
  The planner sends every query of a heuristic batch down the singleton
  path.
* **No lone groups.** A group of one would run the very search the
  singleton path runs (the engine has one step; a lone query shares
  nothing). Singletons stay separate because the singleton path is
  where the per-call ``n_shards`` row-band fan-out and its
  ``-sharded[n]`` strategy label live; a shared scan is one thread and
  labels its members ``-batch[n]``.

Planning never looks at ``k``, direction, deadlines, or the per-query
level-cascade knob: the shared-scan executor keeps those per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.query import TopKQuery
from repro.models.progressive_linear import ProgressiveLinearModel


@dataclass(frozen=True)
class PlannedQuery:
    """One batch member, resolved for execution.

    ``index`` is the query's position in the caller's batch (results are
    returned in input order); ``region`` is the query's clipped window;
    ``progressive`` is the validated level cascade (``None`` when the
    query runs without model levels).
    """

    index: int
    query: TopKQuery
    region: tuple[int, int, int, int]
    use_model_levels: bool
    progressive: ProgressiveLinearModel | None


@dataclass
class BatchPlan:
    """Planner output: shared-scan groups plus singleton fallbacks.

    ``groups`` maps each region to its >= 2 co-scannable members;
    ``singletons`` run the ordinary sharded path. Together they cover
    every planned query exactly once.
    """

    groups: list[list[PlannedQuery]] = field(default_factory=list)
    singletons: list[PlannedQuery] = field(default_factory=list)

    @property
    def batched(self) -> int:
        """How many queries will ride a shared scan."""
        return sum(len(group) for group in self.groups)


class BatchPlanner:
    """Groups compatible queries for shared-scan execution."""

    def plan(
        self, planned: list[PlannedQuery], pruning: str = "sound"
    ) -> BatchPlan:
        """Partition ``planned`` into shared-scan groups and singletons.

        Grouping preserves batch order within each group and across
        singletons; see the module docstring for the rules.
        """
        plan = BatchPlan()
        if pruning != "sound":
            plan.singletons = list(planned)
            return plan
        by_region: dict[tuple[int, int, int, int], list[PlannedQuery]] = {}
        for item in planned:
            if item.query.fused:
                # Fused members blend whole-model bounds with cosine
                # caps; the shared scan's per-member level machinery
                # does not apply, so they keep the singleton path (which
                # knows how to build their FusionSpec).
                plan.singletons.append(item)
                continue
            if not item.query.model.supports_intervals:
                # Unanswerable by tile search; the executor raises the
                # same QueryError the single-query path raises. Routing
                # it as a singleton keeps the error paths identical.
                plan.singletons.append(item)
                continue
            by_region.setdefault(item.region, []).append(item)
        for members in by_region.values():
            if len(members) >= 2:
                plan.groups.append(members)
            else:
                plan.singletons.extend(members)
        return plan
