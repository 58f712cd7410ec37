"""The worker-process entrypoint of the serving fleet.

:func:`worker_main` is what each fleet process runs: open the fleet's
store (:func:`~repro.data.store.open_archive` — band files memory-mapped
read-only, leaf aggregates precomputed), build a private
:class:`~repro.service.retrieval.RetrievalService` over it, run the
configured warm hooks, then loop answering :class:`~repro.serving
.protocol.WorkItem` requests from the fleet over this worker's own
request/reply pipe pair (single writer, single reader — no locks
shared with other workers).

Design points:

* **Warm-at-startup** — every warm spec in :attr:`WorkerConfig.warm`
  is built *before* the worker reports ready, so fleet-wide Onion
  index construction happens during startup, never on a user's first
  query (the fix for ``warm_index()`` only warming the calling
  process). An index some earlier process already built for the same
  window values is opened from the store's sidecar directory instead
  of peeled — milliseconds, and no scipy import.
* **Deadlines** — requests carry absolute ``time.monotonic()``
  deadlines; the worker converts to a remaining budget and hands it to
  the service, which threads it into the existing
  :class:`~repro.service.tracing.CancellationToken` machinery. A
  request that expired in the queue still returns a prefix-sound
  partial.
* **Never dies on a bad request** — per-item exceptions become error
  replies (``protocol`` / ``query`` / ``internal``); only
  ``shutdown`` (or a fault-injection ``crash`` when ``debug_hooks``)
  ends the loop.
* **Own registry** — each worker aggregates into a private
  :class:`~repro.metrics.registry.MetricsRegistry` and ships snapshots
  on ``stats`` requests; the front end merges them into one
  ``/metrics`` document.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import QueryError
from repro.metrics.registry import MetricsRegistry
from repro.serving.protocol import (
    REPLY_TRACE_KEY,
    ProtocolError,
    WorkItem,
    WorkReply,
    batch_key,
    deadline_remaining_s,
    decode_query,
    encode_result,
)
from repro.telemetry.distributed import ship_trace
from repro.telemetry.events import global_event_log

#: Reply ``request_id`` announcing a worker finished startup (open +
#: service build + warm hooks) and entered its serve loop.
READY_ID = -1


@dataclass(frozen=True)
class StoreArchiveManifest:
    """Spawn-time pointer to the store a worker serves.

    Each worker opens the store directory itself with
    :func:`~repro.data.store.open_archive` — the band files are
    memory-mapped read-only, so all workers share one copy of the
    archive (the page cache, or tmpfs pages for a fleet built from an
    in-memory stack) and per-worker RSS stays bounded by the pages
    their queries actually touch, not archive size.

    ``layers`` selects which raster bands the service screens; ``None``
    serves every raster in the store.
    """

    path: str
    layers: tuple[str, ...] | None = None


@dataclass
class WorkerConfig:
    """Per-worker service knobs, shipped picklable at spawn time."""

    n_shards: int = 1
    pool_workers: int | None = None
    cache_size: int = 128
    #: Warm specs run before the worker reports ready:
    #: ``{"attributes": [names...], "region": [r0,c0,r1,c1] | None}``.
    warm: list[dict[str, Any]] = field(default_factory=list)
    #: Enables the ``crash`` / ``sleep`` fault-injection request kinds
    #: (recovery tests only; never set in real serving).
    debug_hooks: bool = False
    #: Ship each completed query/batch span tree back on the reply
    #: (``WorkReply.metadata["trace"]``) so the front end can merge it
    #: under the request's front-end trace.
    ship_spans: bool = False
    #: Whole-tree span budget per shipped reply; excess spans are cut
    #: and counted in the shipped dict's ``spans_dropped``.
    max_ship_spans: int = 512


def worker_main(
    worker_id: int,
    manifest: StoreArchiveManifest,
    requests: Any,
    replies: Any,
    config: WorkerConfig,
) -> None:
    """Serve loop of one fleet worker (runs in a child process)."""
    registry = MetricsRegistry()
    # Library code (store ingest, index builds, cache invalidation)
    # emits into the process-global event log; wiring this worker's
    # registry in makes those emissions visible in merged /metrics.
    global_event_log().registry = registry
    # Import here keeps the hot spawn path lean until it is needed and
    # avoids a module-level serving -> service -> telemetry import web
    # in every consumer of the protocol module.
    from repro.data.raster import RasterLayer
    from repro.data.store import open_archive
    from repro.service.retrieval import RetrievalService

    archive = open_archive(manifest.path)
    layers = manifest.layers
    if layers is None:
        layers = tuple(
            name
            for name in archive.names()
            if isinstance(archive.item(name), RasterLayer)
        )
    service = RetrievalService(
        archive.stack(list(layers)),
        # The store's leaf size, never a knob: any other size forfeits
        # the precomputed aggregates and pages every band in during
        # startup.
        leaf_size=archive.screen_leaf_size,
        n_shards=config.n_shards,
        pool_workers=config.pool_workers,
        cache_size=config.cache_size,
        archive=archive,
        registry=registry,
    )
    registry.gauge("service.worker_id", float(worker_id))
    for spec in config.warm:
        _warm(service, spec)
    registry.inc("service.worker_starts")
    replies.send(
        WorkReply(
            request_id=READY_ID,
            worker_id=worker_id,
            ok=True,
            value={"pid": os.getpid(), "warmed": len(config.warm)},
        )
    )
    try:
        while True:
            try:
                item: WorkItem = requests.recv()
            except EOFError:
                # Parent closed its end (or died): drain out cleanly.
                break
            if item.kind == "shutdown":
                break
            replies.send(_handle(service, registry, item, worker_id, config))
    except (BrokenPipeError, KeyboardInterrupt):
        pass


def _warm(service: Any, spec: dict[str, Any]) -> dict[str, Any]:
    """Run one warm spec; returns a small summary for warm replies."""
    attributes = tuple(spec["attributes"])
    region = spec.get("region")
    built = service.warm_index(
        attributes, tuple(region) if region is not None else None
    )
    return {
        "attributes": list(attributes),
        "region": list(built.region),
        "layers": built.index.n_layers,
        "build_seconds": built.build_seconds,
    }


def _handle(
    service: Any,
    registry: MetricsRegistry,
    item: WorkItem,
    worker_id: int,
    config: WorkerConfig,
) -> WorkReply:
    """Answer one work item, mapping failures to typed error replies."""
    trace = None
    try:
        if item.kind == "query":
            value, trace = _run_query(service, item)
        elif item.kind == "batch":
            value, trace = _run_batch(service, item)
        elif item.kind == "events":
            cursor = int(item.payload or 0)
            records, new_cursor = global_event_log().since(cursor)
            value = {"events": records, "cursor": new_cursor}
        elif item.kind == "stats":
            value = {
                "worker_id": worker_id,
                "pid": os.getpid(),
                "registry": registry.snapshot(),
                "service": {
                    "queries": service.stats.queries,
                    "cache_hits": service.stats.cache_hits,
                    "cache_misses": service.stats.cache_misses,
                    "partial_results": service.stats.partial_results,
                    "batches": service.stats.batches,
                    "batched_queries": service.stats.batched_queries,
                },
                "onion_indexes": len(service.router.index_cache),
            }
        elif item.kind == "warm":
            value = _warm(service, item.payload)
        elif item.kind == "crash":
            if not config.debug_hooks:
                raise ProtocolError("crash hook disabled")
            # Simulated hard failure: no reply, no cleanup — the fleet
            # monitor must detect the death and recover.
            os._exit(17)
        elif item.kind == "sleep":
            if not config.debug_hooks:
                raise ProtocolError("sleep hook disabled")
            time.sleep(float(item.payload))
            value = {"slept": float(item.payload)}
        else:
            raise ProtocolError(f"unknown work kind {item.kind!r}")
    except ProtocolError as error:
        return _error(item, worker_id, "protocol", error)
    except QueryError as error:
        return _error(item, worker_id, "query", error)
    except Exception as error:  # noqa: BLE001 - worker must survive
        return _error(item, worker_id, "internal", error)
    reply = WorkReply(
        request_id=item.request_id, worker_id=worker_id, ok=True, value=value
    )
    if config.ship_spans and trace is not None:
        reply.metadata[REPLY_TRACE_KEY] = ship_trace(
            trace, max_spans=config.max_ship_spans
        )
    return reply


def _error(
    item: WorkItem, worker_id: int, kind: str, error: Exception
) -> WorkReply:
    return WorkReply(
        request_id=item.request_id,
        worker_id=worker_id,
        ok=False,
        error=f"{type(error).__name__}: {error}",
        error_kind=kind,
    )


def _run_query(service: Any, item: WorkItem) -> tuple[dict[str, Any], Any]:
    decoded = decode_query(item.payload)
    result = service.top_k(
        decoded.query,
        n_shards=decoded.n_shards,
        pruning=decoded.pruning,
        heuristic_margin=decoded.heuristic_margin,
        use_cache=decoded.use_cache,
        deadline_s=deadline_remaining_s(item.deadline_at),
        strategy=decoded.strategy,
        trace_id=item.trace_id,
    )
    return encode_result(result), result.trace


def _run_batch(
    service: Any, item: WorkItem
) -> tuple[list[dict[str, Any]], Any]:
    payloads = item.payload
    if not isinstance(payloads, list) or not payloads:
        raise ProtocolError("batch payload must be a non-empty list")
    decoded = [decode_query(payload) for payload in payloads]
    keys = {batch_key(payload) for payload in payloads}
    if len(keys) > 1:
        raise ProtocolError(
            "batch members must share execution knobs "
            "(strategy/pruning/heuristic_margin/use_cache/n_shards)"
        )
    if decoded[0].strategy != "quadtree":
        raise ProtocolError(
            "batch execution supports strategy 'quadtree' only"
        )
    deadlines = item.deadline_at
    if deadlines is None:
        deadlines = [None] * len(decoded)
    remaining = [deadline_remaining_s(value) for value in deadlines]
    results = service.top_k_batch(
        [entry.query for entry in decoded],
        n_shards=decoded[0].n_shards,
        pruning=decoded[0].pruning,
        heuristic_margin=decoded[0].heuristic_margin,
        use_cache=decoded[0].use_cache,
        deadline_s=remaining,
        trace_id=item.trace_id,
    )
    # Ship the batch trace (children included) when available — each
    # member's trace hangs off its parent BatchTrace.
    trace = None
    for result in results:
        if result.trace is not None:
            trace = result.trace.parent or result.trace
            break
    return [encode_result(result) for result in results], trace
