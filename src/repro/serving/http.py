"""The asyncio HTTP front end of the serving fleet.

:class:`ServingServer` is the admission-controlled door in front of a
:class:`~repro.serving.fleet.WorkerFleet`. It is stdlib-only: the
HTTP/1.1 plumbing (event-loop thread, parsing, keep-alive, lifecycle) is
:class:`repro.httpserver.HttpServer`, the package's one HTTP loop —
:class:`~repro.telemetry.server.MetricsServer` rides the same base —
and this module adds what is particular to query traffic.

Routes:

``POST /query``
    One JSON query payload (:func:`~repro.serving.protocol
    .decode_query` format). Validated at the edge — malformed bodies
    are rejected with 400 *before* they consume queue or worker
    capacity — then dispatched to the fleet. Response is the
    :func:`~repro.serving.protocol.encode_result` document.
``POST /batch``
    ``{"queries": [payload, ...]}`` (or a bare list) sharing one set of
    execution knobs; answered by one shared-scan ``top_k_batch`` call.
``GET /metrics``
    One merged Prometheus document: every worker's registry snapshot,
    the fleet's, and the front end's own, folded with
    :func:`~repro.metrics.registry.merge_snapshots`.
``GET /healthz``
    Liveness JSON with per-worker state, queue depth, and restarts.

Admission control, in the order a request meets it:

1. **Per-client token bucket** (``rate_limit`` requests/second with
   ``rate_burst`` burst, keyed by ``X-Client-Id`` or the peer address)
   — over-rate clients get ``429`` with a ``Retry-After`` telling them
   when a token frees up.
2. **Queue-depth shedding** — when more than ``queue_depth`` requests
   are already waiting for a worker, new arrivals get ``429`` +
   ``Retry-After`` instead of unbounded queueing.

Deadlines arrive as an ``X-Deadline-Ms`` header and become an absolute
``time.monotonic()`` instant that rides the work item into the worker's
:class:`~repro.service.tracing.CancellationToken` machinery — a request
that spends its whole budget queueing still returns a prefix-sound
partial (``complete: false``), exactly like an in-process deadline.

``X-Trace-Id`` (or a generated id) is stamped on the worker-side trace,
so one id follows a request from front-end log to worker waterfall.

Dispatch is a callback, not a task: :meth:`ServingServer._dispatch`
runs when a request is admitted and when a reply lands, and ships
waiting requests while one of ``fleet.n_workers`` slots is free. The
loop itself reads the fleet's reply pipes while the server is started
(:meth:`~repro.serving.fleet.WorkerFleet.read_replies_on`), so a reply
resolves the handler's future in the same loop iteration that read it —
socket → handler → pipe → worker → pipe → loop → handler → socket, with
no thread and no queue hop in between. A dispatched query
opportunistically takes further waiting queries with the same
:func:`~repro.serving.protocol.batch_key` (up to ``coalesce_max``) and
ships them as one ``top_k_batch`` call — under load, compatible
concurrent clients share one pipeline pass and one scan for free. Batch members
are bit-identical to solo runs (the planner's contract), so coalescing
is invisible in the answers.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.httpserver import HttpServer, Reply, json_reply, limit_param, not_found
from repro.metrics.registry import MetricsRegistry
from repro.serving.fleet import FleetError, WorkerFleet
from repro.serving.protocol import (
    REPLY_TRACE_KEY,
    ProtocolError,
    WorkReply,
    batch_key,
    decode_query,
)
from repro.service.tracing import QueryTrace
from repro.telemetry.distributed import FleetTraceCollector, TailSampler
from repro.telemetry.export import chrome_trace_document
from repro.telemetry.prometheus import CONTENT_TYPE, render_prometheus
from repro.telemetry.slo import DEFAULT_SLOS, SLOMonitor, SLOSpec

#: ``error_kind`` -> HTTP status for failed worker replies.
_ERROR_STATUS = {"protocol": 400, "query": 400, "crashed": 503}

#: Rate-limit buckets held before the refilled ones are dropped. The
#: key is ``X-Client-Id`` — outside input — so the table must not grow
#: with the number of ids ever seen. A bucket back at ``burst`` is
#: indistinguishable from a new one, so dropping it changes no
#: decision; one still below ``burst`` is a client being limited and
#: stays. 1024 is far above the clients a front end limits at once.
_MAX_BUCKETS = 1024


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` cap.

    ``try_acquire`` returns ``0.0`` when a token was taken, else the
    seconds until one becomes available (the ``Retry-After`` hint).
    ``now`` is injectable so rate-limit tests run on a fake clock.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        now: Any = time.monotonic,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._now = now
        self._tokens = float(burst)
        self._stamp = now()

    def is_full(self) -> bool:
        """Whether it has refilled to ``burst`` — a new bucket's state."""
        elapsed = self._now() - self._stamp
        return self._tokens + elapsed * self.rate >= self.burst

    def try_acquire(self, n: float = 1.0) -> float:
        current = self._now()
        self._tokens = min(
            self.burst, self._tokens + (current - self._stamp) * self.rate
        )
        self._stamp = current
        if self._tokens >= n:
            self._tokens -= n
            return 0.0
        return (n - self._tokens) / self.rate


@dataclass(eq=False)  # a request is itself, whatever it carries
class _Pending:
    """One admitted request: waiting for a slot, then in flight."""

    kind: str  # "query" | "batch"
    payload: Any
    deadline_at: "float | list[float | None] | None"
    trace_id: str
    future: "asyncio.Future[WorkReply]"
    key: tuple | None = None
    members: int = 1
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Front-end request trace (root of the merged cross-process tree).
    trace: QueryTrace | None = None
    dispatched_at: float | None = None


class ServingServer(HttpServer):
    """Asyncio HTTP front end over a started :class:`WorkerFleet`.

    Parameters
    ----------
    fleet:
        A **started** fleet; the server never owns its lifecycle.
    queue_depth:
        Admitted-but-undispatched requests beyond which new arrivals
        are shed with 429 (default 64).
    rate_limit / rate_burst:
        Per-client steady rate (requests/second) and burst; ``None``
        disables rate limiting (the default — most deployments shed on
        queue depth alone).
    coalesce / coalesce_max:
        Enable in-flight query coalescing and cap the members one
        shared-scan call may carry (default on, 8).
    registry:
        Front-end metrics registry (``frontend.*`` series); merged into
        ``/metrics`` next to the workers' snapshots.
    """

    def __init__(
        self,
        fleet: WorkerFleet,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_depth: int = 64,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        coalesce: bool = True,
        coalesce_max: int = 8,
        registry: MetricsRegistry | None = None,
        labels: "dict[str, str] | None" = None,
        trace_capacity: int = 256,
        trace_sample_rate: float = 1.0,
        slo_specs: "tuple[SLOSpec, ...] | None" = None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        if coalesce_max < 2:
            raise ValueError(f"coalesce_max must be >= 2, got {coalesce_max}")
        self.fleet = fleet
        self.queue_depth = queue_depth
        self.rate_limit = rate_limit
        self.rate_burst = (
            rate_burst if rate_burst is not None
            else (rate_limit if rate_limit is not None else None)
        )
        self.coalesce = coalesce
        self.coalesce_max = coalesce_max
        self.registry = registry if registry is not None else MetricsRegistry()
        self._labels = dict(labels) if labels else None
        #: Merged frontend+worker traces (tail-sampled) for ``/traces``.
        self.collector = FleetTraceCollector(
            capacity=trace_capacity,
            sampler=TailSampler(sample_rate=trace_sample_rate),
        )
        #: The fleet's event log (worker lifecycle, sheds, SLO
        #: transitions) — what ``GET /events`` serves. Wiring in the
        #: front-end registry makes emit counts visible in ``/metrics``.
        self.event_log = fleet.event_log
        self.event_log.registry = self.registry
        self.slo = SLOMonitor(
            specs=slo_specs if slo_specs is not None else DEFAULT_SLOS,
            event_log=self.event_log,
        )
        super().__init__(host, port, "repro-serving-http", self.registry)
        self._buckets: dict[str, TokenBucket] = {}
        #: Admitted requests no worker slot was free for yet (touched
        #: on the loop thread only), and the slots still free.
        self._waiting: "deque[_Pending]" = deque()
        self._free_slots = fleet.n_workers

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServingServer":
        if not self.fleet.started:
            raise RuntimeError("fleet must be started before the server")
        return super().start()

    async def _serve(self) -> None:
        self.fleet.read_replies_on(self._loop)
        try:
            await super()._serve()
        finally:
            self.fleet.release_reader(self._loop)

    # -- routing -----------------------------------------------------------

    async def route(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
        peer: str,
    ) -> Reply:
        route = path.split("?", 1)[0].rstrip("/") or "/"
        if route == "/query" or route == "/batch":
            if method != "POST":
                return json_reply(405, {"error": f"{route} requires POST"})
            return await self._admit(route, headers, body, peer)
        if route == "/metrics":
            return await self._metrics()
        if route == "/healthz":
            return await self._healthz()
        if route == "/traces":
            return self._traces(path, chrome=False)
        if route == "/traces/chrome":
            return self._traces(path, chrome=True)
        if route == "/events":
            return await self._events(path)
        if route == "/slo":
            return await self._slo()
        return not_found(
            [
                "/query", "/batch", "/metrics", "/healthz",
                "/traces", "/traces/chrome", "/events", "/slo",
            ]
        )

    async def _merged_snapshot(self) -> dict[str, Any]:
        assert self._loop is not None
        frontend = self.registry.snapshot()
        frontend["gauges"]["frontend.queue_depth"] = float(len(self._waiting))
        return await self._loop.run_in_executor(
            None,
            lambda: self.fleet.merged_metrics(extra=[frontend]),
        )

    async def _metrics(self) -> Reply:
        merged = await self._merged_snapshot()
        # Every scrape doubles as an SLO observation, so burn-rate
        # windows fill at scrape cadence with no extra thread.
        self.slo.observe(merged)
        merged["gauges"].update(self.slo.gauges())
        collector = self.collector.stats()
        merged["gauges"]["frontend.traces_buffered"] = float(
            collector["buffered"]
        )
        merged["counters"]["frontend.traces_kept"] = float(
            collector["kept"]
        )
        merged["counters"]["frontend.traces_sampled_out"] = float(
            collector["sampled_out"]
        )
        text = render_prometheus(merged, labels=self._labels)
        return 200, text.encode("utf-8"), CONTENT_TYPE, None

    def _traces(self, path: str, chrome: bool) -> Reply:
        traces = self.collector.recent(limit_param(path))
        if chrome:
            return json_reply(200, chrome_trace_document(traces))
        return json_reply(
            200, {"traces": traces, "stats": self.collector.stats()}
        )

    async def _events(self, path: str) -> Reply:
        assert self._loop is not None
        # Drain worker-side events first so the response reflects the
        # whole fleet, not just what the front end emitted itself.
        await self._loop.run_in_executor(None, self.fleet.poll_events)
        limit = limit_param(path, default=256)
        return json_reply(
            200,
            {
                "events": self.event_log.snapshot(limit),
                "dropped": self.event_log.dropped,
            },
        )

    async def _slo(self) -> Reply:
        merged = await self._merged_snapshot()
        self.slo.observe(merged)
        return json_reply(200, self.slo.verdict())

    async def _healthz(self) -> Reply:
        assert self._loop is not None
        workers = await self._loop.run_in_executor(None, self.fleet.describe)
        payload = {
            "status": "ok" if any(w["alive"] for w in workers) else "degraded",
            "workers": workers,
            "queue_depth": len(self._waiting),
            "restarts": self.fleet.restarts,
        }
        return json_reply(200, payload)

    # -- admission ---------------------------------------------------------

    def _client_key(self, headers: dict[str, str], peer_host: str) -> str:
        return headers.get("x-client-id", "") or peer_host

    def _deadline_at(self, headers: dict[str, str]) -> float | None:
        raw = headers.get("x-deadline-ms")
        if raw is None:
            return None
        try:
            millis = float(raw)
        except ValueError as error:
            raise ProtocolError(
                f"X-Deadline-Ms must be a number, got {raw!r}"
            ) from error
        if millis <= 0:
            raise ProtocolError(
                f"X-Deadline-Ms must be positive, got {raw!r}"
            )
        return time.monotonic() + millis / 1000.0

    def _record_rejection(
        self,
        route: str,
        trace_id: str,
        status: int,
        reason: str,
        shed: str | None = None,
    ) -> None:
        """Give a rejected request a minimal front-end trace (so tail
        sampling keeps it) and, for sheds, an event-log entry."""
        trace = QueryTrace(trace_id=trace_id)
        trace.metadata["route"] = route
        trace.metadata["status"] = status
        trace.metadata["error"] = reason
        if shed is not None:
            trace.metadata["shed"] = shed
            self.event_log.emit(
                "frontend.shed",
                severity="warning",
                trace_id=trace_id,
                reason=shed,
                route=route,
            )
        trace.finish()
        self.collector.record_request(trace.as_dict())

    async def _admit(
        self,
        route: str,
        headers: dict[str, str],
        body: bytes,
        peer_host: str,
    ) -> Reply:
        assert self._loop is not None
        admit_started = time.monotonic()
        trace_id = headers["x-trace-id"]
        # Rate limit first: an over-rate client is refused even when
        # the queue is empty (protects other clients, not the fleet).
        if self.rate_limit is not None:
            client = self._client_key(headers, peer_host)
            bucket = self._buckets.get(client)
            if bucket is None:
                if len(self._buckets) >= _MAX_BUCKETS:
                    self._buckets = {
                        key: held
                        for key, held in self._buckets.items()
                        if not held.is_full()
                    }
                bucket = self._buckets[client] = TokenBucket(
                    self.rate_limit, self.rate_burst or self.rate_limit
                )
            retry_after = bucket.try_acquire()
            if retry_after > 0:
                self.registry.inc("frontend.shed_rate")
                self._record_rejection(
                    route, trace_id, 429,
                    "client rate limit exceeded", shed="rate",
                )
                return json_reply(
                    429,
                    {
                        "error": "client rate limit exceeded",
                        "retry_after_s": retry_after,
                    },
                    {"Retry-After": str(max(1, int(retry_after + 0.999)))},
                )
        # Then queue depth: the fleet is saturated, shed the arrival.
        depth = len(self._waiting)
        self.registry.gauge("frontend.queue_depth", float(depth))
        if depth >= self.queue_depth:
            self.registry.inc("frontend.shed_queue")
            self._record_rejection(
                route, trace_id, 429, "server overloaded", shed="queue"
            )
            return json_reply(
                429,
                {"error": "server overloaded", "queued": depth},
                {"Retry-After": "1"},
            )
        try:
            parsed = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._record_rejection(
                route, trace_id, 400, f"invalid JSON body: {error}"
            )
            return json_reply(400, {"error": f"invalid JSON body: {error}"})
        try:
            deadline_at = self._deadline_at(headers)
            if route == "/query":
                decode_query(parsed)  # edge validation -> 400 pre-queue
                pending = _Pending(
                    kind="query",
                    payload=parsed,
                    deadline_at=deadline_at,
                    trace_id=trace_id,
                    future=self._loop.create_future(),
                    key=batch_key(parsed),
                )
            else:
                queries = (
                    parsed.get("queries")
                    if isinstance(parsed, dict)
                    else parsed
                )
                if not isinstance(queries, list) or not queries:
                    raise ProtocolError(
                        "batch body must be a non-empty list of query "
                        "payloads (or {'queries': [...]})"
                    )
                for query in queries:
                    decode_query(query)
                keys = {batch_key(query) for query in queries}
                if len(keys) > 1:
                    raise ProtocolError(
                        "batch members must share execution knobs"
                    )
                pending = _Pending(
                    kind="batch",
                    payload=queries,
                    deadline_at=[deadline_at] * len(queries),
                    trace_id=trace_id,
                    future=self._loop.create_future(),
                    members=len(queries),
                )
        except ProtocolError as error:
            self._record_rejection(route, trace_id, 400, str(error))
            return json_reply(400, {"error": str(error)})
        trace = QueryTrace(trace_id=trace_id)
        trace.metadata["route"] = route
        trace.record_span("admit", time.monotonic() - admit_started)
        pending.trace = trace
        self._waiting.append(pending)
        self._dispatch()
        reply: WorkReply = await pending.future
        return self._render_reply(route, pending, reply)

    def _finish_trace(
        self, pending: _Pending, reply: WorkReply, status: int
    ) -> None:
        """Close the front-end request trace, graft the shipped worker
        span tree (if any) under it, and buffer the merged result."""
        trace = pending.trace
        if trace is None:
            return
        if pending.dispatched_at is not None:
            trace.record_span(
                "worker", time.monotonic() - pending.dispatched_at
            )
        trace.metadata["status"] = status
        if not reply.ok:
            trace.metadata["error"] = reply.error
            trace.metadata["error_kind"] = reply.error_kind
        complete, cancel = True, None
        if isinstance(reply.value, dict):
            complete = bool(reply.value.get("complete", True))
            cancel = reply.value.get("cancel_reason")
        trace.finish(complete=complete, cancel_reason=cancel)
        shipped = reply.metadata.get(REPLY_TRACE_KEY)
        self.collector.record_request(
            trace.as_dict(), [shipped] if shipped else None
        )

    def _render_reply(
        self, route: str, pending: _Pending, reply: WorkReply
    ) -> Reply:
        if not reply.ok:
            status = _ERROR_STATUS.get(reply.error_kind or "", 500)
            self._finish_trace(pending, reply, status)
            return json_reply(
                status, {"error": reply.error, "kind": reply.error_kind}
            )
        self._finish_trace(pending, reply, 200)
        if route == "/query":
            return json_reply(200, reply.value)
        return json_reply(200, {"results": reply.value})

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self) -> None:
        """Ship waiting requests while a worker slot is free (runs on
        the loop thread: when a request is admitted, when a reply
        lands), opportunistically coalescing compatible queries."""
        while self._free_slots and self._waiting:
            pending = self._waiting.popleft()
            group = [pending]
            if (
                self.coalesce
                and pending.kind == "query"
                and pending.key is not None
                and pending.key[0] == "quadtree"
            ):
                group.extend(self._drain_compatible(pending.key))
            dispatch_now = time.monotonic()
            for member in group:
                member.dispatched_at = dispatch_now
                if member.trace is not None:
                    member.trace.record_span(
                        "queue_wait", dispatch_now - member.enqueued_at
                    )
                    if len(group) > 1:
                        member.trace.metadata["coalesced"] = len(group)
            try:
                if len(group) == 1 and pending.kind == "batch":
                    future = self.fleet.submit_batch(
                        pending.payload,
                        deadlines_at=pending.deadline_at,
                        trace_id=pending.trace_id,
                    )
                elif len(group) == 1:
                    future = self.fleet.submit_query(
                        pending.payload,
                        deadline_at=pending.deadline_at,
                        trace_id=pending.trace_id,
                    )
                else:
                    self.registry.inc("frontend.coalesced", len(group) - 1)
                    future = self.fleet.submit_batch(
                        [member.payload for member in group],
                        deadlines_at=[
                            member.deadline_at for member in group
                        ],
                        trace_id=group[0].trace_id,
                        coalesced=True,
                    )
            except Exception as error:  # noqa: BLE001 - the loop must survive
                # A stopped fleet is a backend that is away (503), like
                # the in-flight requests its stop() failed; anything
                # else is this server's fault.
                stopped = isinstance(error, FleetError)
                self._distribute(
                    group,
                    WorkReply(
                        request_id=0,
                        worker_id=-1,
                        ok=False,
                        error=f"{type(error).__name__}: {error}",
                        error_kind="crashed" if stopped else "internal",
                    ),
                )
                continue
            self._free_slots -= 1
            future.add_done_callback(partial(self._replied, group))

    def _replied(
        self, group: "list[_Pending]", done: "Future[WorkReply]"
    ) -> None:
        """Done-callback of a fleet future: free the slot, answer the
        waiting handlers, ship what waits. A reply the loop read off the
        pipe arrives on the loop thread already; one resolved elsewhere
        (crash recovery, fleet stop, the hand-over window) re-enters
        there."""
        if threading.current_thread() is not self._thread:
            try:
                self._loop.call_soon_threadsafe(self._replied, group, done)
            except RuntimeError:
                pass  # the loop has closed; close() cancelled the members
            return
        self._free_slots += 1
        self._distribute(group, done.result())
        self._dispatch()

    def _drain_compatible(self, key: tuple) -> "list[_Pending]":
        """Take the first waiting queries sharing ``key`` out of the
        line (the others keep their order)."""
        taken = [
            candidate
            for candidate in self._waiting
            if candidate.kind == "query" and candidate.key == key
        ][: self.coalesce_max - 1]
        for candidate in taken:
            self._waiting.remove(candidate)
        return taken

    def _distribute(
        self, group: "list[_Pending]", reply: WorkReply
    ) -> None:
        """Fan one fleet reply back out to every member's future."""
        if len(group) == 1:
            if not group[0].future.done():
                group[0].future.set_result(reply)
            return
        if not reply.ok or not isinstance(reply.value, list):
            for member in group:
                if not member.future.done():
                    member.future.set_result(reply)
            return
        for index, (member, value) in enumerate(zip(group, reply.value)):
            if not member.future.done():
                member.future.set_result(
                    WorkReply(
                        request_id=reply.request_id,
                        worker_id=reply.worker_id,
                        ok=True,
                        value=value,
                        # The shipped span tree covers the whole shared
                        # scan; graft it under the group leader only,
                        # so the merged buffer holds it exactly once.
                        metadata=reply.metadata if index == 0 else {},
                    )
                )
