"""Cross-process trace shipping and tail-based sampling.

The serving stack spans three process tiers (asyncio front end →
``WorkerFleet`` → worker ``RetrievalService``), but a
:class:`~repro.service.tracing.QueryTrace` lives only in the process
that created it. This module moves completed span trees across the
process boundary and stitches them back together:

* :func:`ship_trace` — compact a trace dict for the ``WorkReply``
  metadata channel: whole-tree span budget (root-first, then shards,
  then children), a ``spans_dropped`` counter when truncated, and the
  origin ``pid`` so merged exports keep per-process lanes. A shipped
  tree never exceeds ``max_spans`` spans+shards no matter how deep the
  batch nesting goes.
* :func:`reparent_shipped` — graft a shipped worker tree under a
  front-end span: every span id in the subtree is shifted by a
  collision-free offset and the subtree root is parented on the
  front-end request span, so one Chrome export shows frontend admit →
  dispatch → worker search → per-shard pruning as one connected tree.
* :class:`TailSampler` — the keep/drop policy for the merged buffer:
  always keep error/shed/deadline-partial traces and the slowest
  percentile (duration reservoir); probabilistically sample the rest.
* :class:`FleetTraceCollector` — the front end's merged-trace ring:
  takes one front-end request trace plus the worker trees shipped on
  its replies, re-parents, samples, and buffers for ``/traces`` and
  ``/traces/chrome``.

The wire format is plain dicts (what ``as_dict`` already produces), so
shipping costs one pickle of a small dict per reply — measured <5% on
the serving benchmark and gated in CI.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_left, insort
from collections import deque
from typing import Any, Mapping

from repro.telemetry.export import TraceBuffer

#: Spans shipped per reply by default. A 2-shard query trace is ~10
#: spans+shards; 512 comfortably fits large batches while bounding the
#: pickle under ~100 KiB.
DEFAULT_MAX_SHIP_SPANS = 512

#: Id offset stride between grafted subtrees. Front-end traces allocate
#: span ids from 1 upward and never reach this; each worker subtree k
#: gets ids shifted into its own ``(k+1) * _OFFSET_STRIDE`` block, so
#: ids stay unique across the merged tree.
_OFFSET_STRIDE = 1_000_000


def count_spans(trace: Mapping[str, Any]) -> int:
    """Spans + shards in a trace tree, children included (root spans of
    each trace are implicit and not counted)."""
    total = len(trace.get("spans") or ()) + len(trace.get("shards") or ())
    for child in trace.get("children") or ():
        total += count_spans(child)
    return total


def ship_trace(
    trace: Any, max_spans: int = DEFAULT_MAX_SHIP_SPANS
) -> dict[str, Any]:
    """Serialize a trace (live object or dict) for cross-process
    shipping, truncated to a whole-tree span budget.

    Truncation keeps the root trace's own spans first (the stage
    waterfall is the most valuable part), then its shards, then
    children depth-first — and records how many were cut in
    ``spans_dropped`` so the loss is visible, never silent.
    """
    if max_spans < 0:
        raise ValueError(f"max_spans must be >= 0, got {max_spans}")
    data = trace.as_dict() if hasattr(trace, "as_dict") else dict(trace)
    shipped, remaining = _ship_node(data, max_spans)
    dropped = count_spans(data) - count_spans(shipped)
    if dropped:
        shipped["spans_dropped"] = dropped
    return shipped


def _ship_node(
    data: Mapping[str, Any], budget: int
) -> tuple[dict[str, Any], int]:
    node = {
        key: value
        for key, value in data.items()
        if key not in ("spans", "shards", "children")
    }
    spans = [dict(span) for span in data.get("spans") or ()]
    shards = [dict(shard) for shard in data.get("shards") or ()]
    node["spans"] = spans[:budget]
    budget -= len(node["spans"])
    node["shards"] = shards[:budget]
    budget -= len(node["shards"])
    children = []
    for child in data.get("children") or ():
        if budget <= 0:
            # Keep the child's root record (outcome flags, wall time)
            # even when its spans no longer fit — the skeleton of the
            # tree survives any truncation.
            kept, budget = _ship_node(child, 0)
        else:
            kept, budget = _ship_node(child, budget)
        children.append(kept)
    if children:
        node["children"] = children
    return node, budget


def reparent_shipped(
    shipped: Mapping[str, Any],
    parent_span_id: int,
    offset: int,
) -> dict[str, Any]:
    """Shift every span id in a shipped tree by ``offset`` and hang its
    root on ``parent_span_id`` (a front-end span id, unshifted).

    Returns a new dict; the input is not mutated. Applied consistently
    to every ``span_id``/``parent_id`` in the subtree, so all parent
    links still resolve within the merged trace.
    """
    out = dict(shipped)
    out["span_id"] = int(shipped.get("span_id", 0)) + offset
    out["parent_span_id"] = parent_span_id
    out["spans"] = [
        {
            **span,
            "span_id": int(span.get("span_id", 0)) + offset,
            "parent_id": int(span.get("parent_id", 0)) + offset,
        }
        for span in shipped.get("spans") or ()
    ]
    out["shards"] = [
        {
            **shard,
            "span_id": int(shard.get("span_id", 0)) + offset,
            "parent_id": int(shard.get("parent_id", 0)) + offset,
        }
        for shard in shipped.get("shards") or ()
    ]
    children = []
    for child in shipped.get("children") or ():
        # Children of a batch stay parented inside the shipped tree —
        # their parent_span_id points at the batch root, which is also
        # being shifted.
        reparented = reparent_shipped(
            child,
            int(child.get("parent_span_id") or 0) + offset,
            offset,
        )
        children.append(reparented)
    if children:
        out["children"] = children
    return out


class TailSampler:
    """Tail-based keep/drop decisions over completed merged traces.

    The policy, in order:

    1. **Always keep** traces that failed, shed, or returned partial
       results (``complete=False``, a ``cancel_reason``, an ``error``
       in metadata, or HTTP status >= 400) — the traces an operator
       actually hunts for.
    2. **Always keep** the slowest ``slow_fraction`` of recent traffic:
       a trace is kept when its wall time reaches the (1 −
       slow_fraction) quantile of a sliding duration window.
    3. Otherwise keep with probability ``sample_rate``.

    ``sample_rate=1.0`` (the default) keeps everything — sampling is an
    opt-in budget knob, not a silent default.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        slow_fraction: float = 0.1,
        window: int = 512,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError(
                f"slow_fraction must be in [0, 1], got {slow_fraction}"
            )
        self.sample_rate = sample_rate
        self.slow_fraction = slow_fraction
        self._lock = threading.Lock()
        #: The sliding window in arrival order, and the same values kept
        #: in ascending order as they come and go, so the quantile is an
        #: index rather than a sort of the window on every request.
        self._durations: deque[float] = deque(maxlen=max(1, window))
        self._ordered: list[float] = []
        self._rng = random.Random(seed)
        self.kept = 0
        self.sampled_out = 0

    @staticmethod
    def is_tail(trace: Mapping[str, Any]) -> bool:
        """Whether a trace is unconditionally interesting (rule 1)."""
        if not trace.get("complete", True):
            return True
        if trace.get("cancel_reason"):
            return True
        metadata = trace.get("metadata") or {}
        if metadata.get("error") or metadata.get("shed"):
            return True
        status = metadata.get("status")
        return status is not None and int(status) >= 400

    def _slow_threshold(self) -> float | None:
        ordered = self._ordered
        if not ordered or self.slow_fraction <= 0.0:
            return None
        index = int(len(ordered) * (1.0 - self.slow_fraction))
        index = min(index, len(ordered) - 1)
        return ordered[index]

    def keep(self, trace: Mapping[str, Any]) -> bool:
        """Decide for one trace; updates the duration window either way."""
        wall = float(trace.get("wall_seconds", 0.0))
        with self._lock:
            threshold = self._slow_threshold()
            if len(self._durations) == self._durations.maxlen:
                # The append below drops the oldest duration.
                del self._ordered[
                    bisect_left(self._ordered, self._durations[0])
                ]
            self._durations.append(wall)
            insort(self._ordered, wall)
            if self.is_tail(trace):
                decision = True
            elif threshold is not None and wall >= threshold:
                decision = True
            elif self.sample_rate >= 1.0:
                decision = True
            else:
                decision = self._rng.random() < self.sample_rate
            if decision:
                self.kept += 1
            else:
                self.sampled_out += 1
        return decision

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "kept": self.kept,
                "sampled_out": self.sampled_out,
                "sample_rate": self.sample_rate,
                "slow_fraction": self.slow_fraction,
            }


class FleetTraceCollector:
    """The front end's merged-trace buffer.

    :meth:`record_request` grafts the worker span trees shipped on a
    request's replies under the front-end request trace, runs the
    result through the tail sampler, and rings it for ``/traces``.
    """

    def __init__(
        self,
        capacity: int = 256,
        sampler: TailSampler | None = None,
    ) -> None:
        self.buffer = TraceBuffer(capacity)
        self.sampler = sampler if sampler is not None else TailSampler()

    def merge(
        self,
        frontend_trace: Mapping[str, Any],
        shipped: list[Mapping[str, Any]] | None = None,
    ) -> dict[str, Any]:
        """Build the merged trace dict (no sampling, no buffering)."""
        merged = dict(frontend_trace)
        merged["spans"] = [dict(s) for s in frontend_trace.get("spans") or ()]
        merged["shards"] = [
            dict(s) for s in frontend_trace.get("shards") or ()
        ]
        children = [
            dict(c) for c in frontend_trace.get("children") or ()
        ]
        parent_span_id = int(merged.get("span_id", 1))
        for index, tree in enumerate(shipped or ()):
            offset = (index + 1) * _OFFSET_STRIDE
            children.append(
                reparent_shipped(tree, parent_span_id, offset)
            )
        if children:
            merged["children"] = children
        return merged

    def record_request(
        self,
        frontend_trace: Mapping[str, Any],
        shipped: list[Mapping[str, Any]] | None = None,
    ) -> bool:
        """Merge, sample, and (when kept) buffer one request's trace.
        Returns whether the trace was kept."""
        merged = self.merge(frontend_trace, shipped)
        if not self.sampler.keep(merged):
            return False
        self.buffer.record(merged)
        return True

    def recent(self, limit: int | None = None) -> list[dict[str, Any]]:
        return self.buffer.snapshot(limit)

    def stats(self) -> dict[str, Any]:
        data = self.sampler.stats()
        data["buffered"] = len(self.buffer)
        data["dropped"] = self.buffer.dropped
        return data
