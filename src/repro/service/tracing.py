"""Cooperative cancellation and per-query tracing for the serving layer.

Two primitives the hardened :class:`~repro.service.retrieval
.RetrievalService` threads through the engine hot path:

* :class:`CancellationToken` — a latch the engine's branch-and-bound
  loops poll between waves of frontier pops. It fires either because a
  caller called :meth:`CancellationToken.cancel` or because a wall-clock
  deadline passed; tokens chain (``parent=``), so a service-created
  deadline token also observes a caller-supplied token. Cancellation is
  *cooperative*: shards notice the latch at loop granularity and return
  whatever the shared heap holds, flagged ``complete=False`` — they are
  never interrupted mid-evaluation, so every returned score is exact.

* :class:`QueryTrace` — a lightweight structured record of one query:
  sequential stage spans (``cache_lookup``, ``plan``, ``search``,
  ``merge``, ``cache_store``) that tile the query's wall time, plus
  per-shard search stats (band, wall seconds, tiles screened/pruned,
  counted work, completion). Traces ride on
  :attr:`~repro.core.results.RetrievalResult.trace` and are folded into
  a :class:`~repro.metrics.registry.MetricsRegistry` by the service.

Tracing never touches :class:`~repro.metrics.counters.CostCounter`
tallies, so counted work is bit-identical with tracing on or off.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator


class CancellationToken:
    """A thread-safe cancellation latch with an optional deadline.

    Once :attr:`cancelled` is observed true it stays true (the deadline
    check latches into the event), so pollers can never see the token
    flicker back. ``parent`` chains tokens: this token reports cancelled
    when the parent does, letting a per-query deadline token wrap a
    caller-owned token without either knowing about the other's reason.
    """

    def __init__(
        self,
        deadline_s: float | None = None,
        parent: "CancellationToken | None" = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {deadline_s}"
            )
        self._event = threading.Event()
        self._deadline_at = (
            None if deadline_s is None
            else time.monotonic() + deadline_s
        )
        self._parent = parent
        self._reason: str | None = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Fire the latch explicitly (idempotent; first reason wins)."""
        if not self._event.is_set():
            self._reason = self._reason or reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether the latch has fired (explicitly, by deadline, or via
        the parent chain). Cheap enough for per-iteration loop checks."""
        if self._event.is_set():
            return True
        if (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        ):
            self._reason = self._reason or "deadline"
            self._event.set()
            return True
        if self._parent is not None and self._parent.cancelled:
            self._reason = self._reason or self._parent.reason
            self._event.set()
            return True
        return False

    @property
    def reason(self) -> str | None:
        """Why the token fired (``None`` while alive): ``"deadline"``,
        ``"cancelled"``, or a caller-supplied reason."""
        if self.cancelled:
            return self._reason
        return None

    @property
    def remaining_s(self) -> float | None:
        """Seconds until the deadline (``None`` when no deadline;
        clamped at 0.0 once passed)."""
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - time.monotonic())

    def __repr__(self) -> str:
        state = self.reason if self.cancelled else "alive"
        return f"CancellationToken({state})"


@dataclass(frozen=True)
class StageSpan:
    """One sequential stage of a query: name, start offset from the
    trace's origin, and duration (both in seconds).

    ``span_id``/``parent_id`` place the span in the trace's span tree
    (ids are unique within a trace; a batch and its children share one
    id space). ``cpu_s`` is the process CPU time consumed while the span
    was open (``time.process_time_ns``); on a single-threaded query it
    is at most the wall duration, and the wall−cpu gap is GIL/IO wait.
    ``None`` for externally-measured spans (:meth:`QueryTrace
    .record_span`), whose CPU share is not observable after the fact.
    """

    name: str
    started_s: float
    duration_s: float
    span_id: int = 0
    parent_id: int = 0
    cpu_s: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "started_s": self.started_s,
            "duration_s": self.duration_s,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "cpu_s": self.cpu_s,
        }


class QueryTrace:
    """Structured per-query trace: stage spans plus per-shard stats.

    The sequential :attr:`spans` tile the query's wall time — concurrent
    per-shard detail lives in :attr:`shards` instead, so
    ``sum(span.duration_s) <= wall_seconds`` always holds, with the gap
    being only inter-stage glue (property-tested ≈ 0).
    """

    def __init__(
        self,
        trace_id: str | None = None,
        _ids: "itertools.count[int] | None" = None,
    ) -> None:
        self._t0 = time.perf_counter()
        #: Wall-clock anchor of the trace origin, so exporters can place
        #: many traces (each with its own perf_counter origin) on one
        #: shared timeline.
        self.started_unix = time.time()
        self._lock = threading.Lock()
        #: Correlation id shared by every span of this query — and, for
        #: batch members, by the whole batch (children inherit the batch
        #: trace id so one grep/filter finds the full tree).
        self.trace_id = (
            trace_id if trace_id is not None else os.urandom(8).hex()
        )
        #: Span-id allocator; a batch hands its own allocator to every
        #: child so ids stay unique across the combined span tree.
        self._ids = _ids if _ids is not None else itertools.count(1)
        #: The root span of this query (duration = ``wall_seconds``).
        self.span_id = next(self._ids)
        #: Root span of the owning batch for batch children; ``None``
        #: for top-level traces.
        self.parent_span_id: int | None = None
        #: Process that produced this trace. Worker traces shipped to the
        #: fleet front end keep their origin pid, so merged Chrome
        #: exports render each process as its own lane.
        self.pid = os.getpid()
        self._current_span_id = self.span_id
        self.spans: list[StageSpan] = []
        self.shards: list[dict[str, Any]] = []
        self.cache_hit = False
        self.cache_checked = False
        self.complete = True
        self.cancel_reason: str | None = None
        self.wall_seconds = 0.0
        #: Free-form query annotations (batch retirement reason, model
        #: name, …) exported verbatim with the trace.
        self.metadata: dict[str, Any] = {}
        #: The owning batch trace when this query ran inside
        #: :meth:`RetrievalService.top_k_batch`; ``None`` for solo
        #: queries.
        self.parent: "BatchTrace | None" = None

    def elapsed_s(self) -> float:
        """Seconds since this trace's origin (its clock for offsets)."""
        return time.perf_counter() - self._t0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a named sequential stage around the with-body.

        The span gets a fresh id parented on the currently-open span
        (the root span when none is open); while the body runs, shard
        stats recorded via :meth:`add_shard` attach to it. Wall time is
        ``perf_counter``; CPU time is ``process_time_ns``, which counts
        the whole process — on a single-threaded query ``cpu_s <=
        duration_s``, and the difference is GIL/IO wait.
        """
        span_id = next(self._ids)
        parent_id = self._current_span_id
        self._current_span_id = span_id
        start = time.perf_counter()
        cpu_start = time.process_time_ns()
        try:
            yield
        finally:
            cpu_s = (time.process_time_ns() - cpu_start) / 1e9
            end = time.perf_counter()
            self._current_span_id = parent_id
            with self._lock:
                self.spans.append(
                    StageSpan(
                        name=name,
                        started_s=start - self._t0,
                        duration_s=end - start,
                        span_id=span_id,
                        parent_id=parent_id,
                        cpu_s=cpu_s,
                    )
                )

    def add_shard(self, **stats: Any) -> None:
        """Record one shard's search stats (called from shard threads).

        Each shard record gets its own span id parented on the span open
        at call time (the ``search`` stage span while shard fan-out is
        running), so exporters can hang concurrent shard lanes off the
        right branch of the span tree.
        """
        with self._lock:
            record = dict(stats)
            record.setdefault("span_id", next(self._ids))
            record.setdefault("parent_id", self._current_span_id)
            self.shards.append(record)

    def record_span(self, name: str, duration_s: float) -> None:
        """Record a stage measured externally (e.g. a query's share of a
        shared scan, accumulated by the executor). The span is placed at
        its implied start — now minus ``duration_s`` — on this trace's
        clock. CPU share is unobservable after the fact (``cpu_s=None``).
        """
        started_s = max(
            0.0, time.perf_counter() - self._t0 - duration_s
        )
        with self._lock:
            self.spans.append(
                StageSpan(
                    name=name,
                    started_s=started_s,
                    duration_s=duration_s,
                    span_id=next(self._ids),
                    parent_id=self._current_span_id,
                )
            )

    def finish(
        self, complete: bool = True, cancel_reason: str | None = None
    ) -> None:
        """Close the trace: set outcome flags and total wall time."""
        self.complete = complete
        self.cancel_reason = cancel_reason
        self.wall_seconds = time.perf_counter() - self._t0

    def stage_seconds(self) -> dict[str, float]:
        """Total duration per stage name (spans summed by name)."""
        totals: dict[str, float] = {}
        with self._lock:
            for span in self.spans:
                totals[span.name] = (
                    totals.get(span.name, 0.0) + span.duration_s
                )
        return totals

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view (the export schema DESIGN.md documents)."""
        with self._lock:
            spans = [span.as_dict() for span in self.spans]
            shards = [dict(shard) for shard in self.shards]
            metadata = dict(self.metadata)
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "pid": self.pid,
            "started_unix": self.started_unix,
            "wall_seconds": self.wall_seconds,
            "complete": self.complete,
            "cache_hit": self.cache_hit,
            "cache_checked": self.cache_checked,
            "cancel_reason": self.cancel_reason,
            "metadata": metadata,
            "spans": spans,
            "shards": shards,
        }

    def __repr__(self) -> str:
        stages = ",".join(sorted(self.stage_seconds()))
        return (
            f"QueryTrace(wall={self.wall_seconds:.4f}s, "
            f"complete={self.complete}, cache_hit={self.cache_hit}, "
            f"stages=[{stages}], shards={len(self.shards)})"
        )


class BatchTrace(QueryTrace):
    """Trace of one ``top_k_batch`` call: batch-level stage spans plus
    one child :class:`QueryTrace` per query.

    The batch trace's own spans (``cache_lookup``, ``plan``, ``search``,
    ``cache_store``) tile the batch's wall time; each child records the
    slices attributable to its query (its cache lookup, its share of the
    shared scan, or its full singleton execution). Children run
    sequentially inside the batch — there is no concurrent
    double-counting — so the sum of all child span durations is at most
    the batch's ``wall_seconds`` (property-tested).
    """

    def __init__(
        self, batch_size: int = 0, trace_id: str | None = None
    ) -> None:
        super().__init__(trace_id=trace_id)
        self.batch_size = batch_size
        self.children: list[QueryTrace] = []

    def child(self) -> QueryTrace:
        """A fresh per-query trace attached to this batch.

        The child shares the batch's trace id and span-id allocator and
        its root span is parented on the batch root, so the exported
        batch forms one parent-linked span tree (batch → per-member
        children → their stage/shard spans).
        """
        trace = QueryTrace(trace_id=self.trace_id, _ids=self._ids)
        trace.parent = self
        trace.parent_span_id = self.span_id
        with self._lock:
            self.children.append(trace)
        return trace

    def as_dict(self) -> dict[str, Any]:
        """Batch export: the batch-level view plus serialized children."""
        data = super().as_dict()
        data["batch_size"] = self.batch_size
        with self._lock:
            children = list(self.children)
        data["children"] = [child.as_dict() for child in children]
        return data

    def __repr__(self) -> str:
        return (
            f"BatchTrace(batch_size={self.batch_size}, "
            f"wall={self.wall_seconds:.4f}s, complete={self.complete}, "
            f"children={len(self.children)})"
        )
