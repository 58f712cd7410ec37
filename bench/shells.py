"""The nested shells below the HTTP round trip, and their timing loop.

S1, S2 and S3 time calls into one layer's public functions each:

* S1: ``WorkerFleet.submit_query/submit_batch(...).result()``;
* S2: ``RetrievalService.top_k/top_k_batch``, as a worker calls them;
* S3: ``RasterRetrievalEngine.prepare_tile_query`` + ``shard_search``
  over the query's region, the engine entry points the service itself
  calls. (``progressive_top_k`` starts every search at the root, so on a
  windowed query it costs more than the service's own call and the
  shells would not nest.)

``run`` executes inside the server process (bench/server_main.py), on
that server's own fleet: S0 and S1 then share worker processes, and S2
and S3 run in a freshly started process like a worker's. That matters:
the same embed-scan query measured 7 ms in a long-lived process with a
grown heap and 11 to 16 ms in a fresh one (glibc returns and re-faults
its large temporaries on every call), so shells timed in different
kinds of process would charge the difference to the wrong layer.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable

from repro.core.engine import RasterRetrievalEngine
from repro.core.results import PruningAudit
from repro.metrics.counters import CostCounter
from repro.service.retrieval import RetrievalService, SharedTopKHeap
from repro.serving import decode_query, encode_result
from repro.serving.protocol import WorkReply

#: The shell each shell's span hangs under.
PARENT = {"S0": None, "S1": "S0", "S2": "S1", "S3": "S2"}

Span = tuple[str, float, float, "str | None", int]


def timed_passes(
    call: Callable[[int], Any],
    count: int,
    passes: int,
    spans: list[Span] | None = None,
    name: str = "",
) -> tuple[list[list[float]], list[Any]]:
    """Time ``call(i)`` for ``i < count``, ``passes`` times, collector
    off. Returns per-pass latencies in seconds and the first pass's
    return values. With ``spans``, every call is recorded as a span
    (name, start, end, parent shell, request id)."""
    latencies = []
    first: list[Any] = []
    gc.collect()
    gc.disable()
    try:
        for index in range(passes):
            row = []
            for request in range(count):
                started = time.perf_counter()
                value = call(request)
                ended = time.perf_counter()
                row.append(ended - started)
                if spans is not None:
                    spans.append((name, started, ended, PARENT[name], request))
                if index == 0:
                    first.append(value)
            latencies.append(row)
    finally:
        gc.enable()
    return latencies, first


def engine_query(kind: str, payload: Any) -> Any:
    """The decoded query when the tile search alone answers the
    operation the way the service would (S3 applies), else None."""
    if kind != "query":
        return None
    decoded = decode_query(payload)
    if decoded.query.fused or decoded.strategy != "quadtree":
        return None
    return decoded


def fleet_call(fleet: Any, kind: str, payload: Any) -> WorkReply:
    if kind == "batch":
        return fleet.submit_batch(payload).result(timeout=120)
    return fleet.submit_query(payload).result(timeout=120)


def service_call(
    service: RetrievalService, kind: str, payload: Any, **override: Any
) -> Any:
    """What a worker does with the operation (S2)."""
    if kind == "batch":
        decoded = [decode_query(member) for member in payload]
        knobs = {
            "n_shards": decoded[0].n_shards,
            "use_cache": decoded[0].use_cache,
            **override,
        }
        return service.top_k_batch([entry.query for entry in decoded], **knobs)
    decoded = decode_query(payload)
    knobs = {
        "n_shards": decoded.n_shards,
        "use_cache": decoded.use_cache,
        "strategy": decoded.strategy,
        **override,
    }
    return service.top_k(decoded.query, **knobs)


def engine_call(engine: RasterRetrievalEngine, query: Any) -> Any:
    """The engine work behind one model-only query (S3)."""
    heap = SharedTopKHeap(query.k)
    engine.shard_search(
        query,
        query.clip_region(engine.stack.shape),
        heap,
        CostCounter(),
        PruningAudit(),
        progressive=engine.prepare_tile_query(query),
    )
    return heap.ranked()


def encoded(kind: str, value: Any) -> Any:
    """A shell's return value in the shape an HTTP reply has."""
    if isinstance(value, WorkReply):
        value = value.value if value.ok else f"{value.error_kind}: {value.error}"
        return {"results": value} if kind == "batch" else value
    if kind == "batch":
        return {"results": [encode_result(result) for result in value]}
    return encode_result(value)


def worker_service(store: str) -> tuple[Any, RetrievalService]:
    """The opened store and a service over it, configured as a fleet
    worker configures its own."""
    from repro.data.raster import RasterLayer
    from repro.data.store import open_archive
    from repro.serving.worker import WorkerConfig

    archive = open_archive(store)
    layers = [
        name
        for name in archive.names()
        if isinstance(archive.item(name), RasterLayer)
    ]
    config = WorkerConfig()
    service = RetrievalService.from_archive(
        archive,
        layers,
        leaf_size=archive.screen_leaf_size,
        n_shards=config.n_shards,
        pool_workers=config.pool_workers,
        cache_size=config.cache_size,
    )
    return archive, service


def run(
    fleet: Any,
    store: str,
    operations: list[tuple[str, Any]],
    passes: int,
    warm: list[dict[str, Any]],
    shells: list[str],
) -> dict[str, Any]:
    """Time the requested shells over ``operations`` (kind, payload).

    Returns per shell the per-pass latencies and the first pass's
    replies in HTTP shape, the indexes S3 applies to, and every span."""
    spans: list[Span] = []
    count = len(operations)
    calls: dict[str, tuple[Callable[[int], Any], int]] = {}
    if "S1" in shells:
        calls["S1"] = (lambda i: fleet_call(fleet, *operations[i]), count)
    picked: list[tuple[int, Any]] = []
    if "S2" in shells:
        _, service = worker_service(store)
        for spec in warm:
            service.warm_index(tuple(spec["attributes"]), tuple(spec["region"]))
        calls["S2"] = (lambda i: service_call(service, *operations[i]), count)
        picked = [
            (index, decoded)
            for index, operation in enumerate(operations)
            if (decoded := engine_query(*operation)) is not None
        ]
        calls["S3"] = (
            lambda i: engine_call(service.engine, picked[i][1].query),
            len(picked),
        )
    out: dict[str, Any] = {name: {"latencies": []} for name in calls}
    # One pass of each shell in turn, so drift falls on all alike.
    for index in range(passes):
        for name, (call, size) in calls.items():
            latencies, first = timed_passes(call, size, 1, spans, name)
            out[name]["latencies"] += latencies
            if index == 0 and name != "S3":
                out[name]["replies"] = [
                    encoded(operation[0], value)
                    for operation, value in zip(operations, first)
                ]
    if "S3" in out:
        out["S3"]["picked"] = [index for index, _ in picked]
    out["spans"] = spans
    return out
