"""Multi-process serving: an asyncio HTTP front end over a worker fleet.

The thread-pool shards inside one :class:`~repro.service.retrieval
.RetrievalService` all share one GIL, so compute-bound throughput is
capped at roughly one core no matter how many shards are configured.
This package removes that ceiling with a process architecture:

* :mod:`repro.serving.worker` — the worker entrypoint: open the
  fleet's :mod:`repro.data.store` directory (band files memory-mapped
  read-only, leaf aggregates precomputed — one page-cache copy for the
  whole fleet, RSS bounded by pages actually touched), build a private
  :class:`RetrievalService`, warm any configured indexes, then answer
  requests over its own pipe pair. An in-memory stack is served the
  same way: the fleet first writes it to a temporary store on tmpfs;
* :mod:`repro.serving.fleet` — :class:`WorkerFleet` spawns N workers,
  dispatches requests with least-loaded placement, detects crashes and
  respawns (in-flight requests are retried once or failed cleanly,
  never hung), and aggregates per-worker metrics snapshots;
* :mod:`repro.serving.http` — :class:`ServingServer`, the stdlib-only
  asyncio front end (a route table over the package's one HTTP loop,
  :mod:`repro.httpserver`): ``POST /query`` / ``POST /batch``, admission
  control (bounded queue, per-client token buckets, 429 +
  ``Retry-After`` load shedding), HTTP deadline headers propagated into
  the worker-side :class:`~repro.service.tracing.CancellationToken`
  machinery, and an in-flight coalescer that feeds concurrent
  compatible queries through one shared-scan ``top_k_batch`` call;
* :mod:`repro.serving.protocol` — the JSON wire format both sides
  speak, plus the picklable IPC request/response records.

Every answer a worker process returns is bit-identical to the
in-process ``top_k`` / ``top_k_batch`` result for the same query
(differential-tested): the workers run the same service code over the
same float64 bits, and JSON float round-trips are exact.
"""

from repro._lazy import surface

# A spawned worker imports this package on its way to
# :mod:`repro.serving.worker`; it must not pay for the fleet, the HTTP
# front end and asyncio, none of which it runs.
__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".fleet": "FleetConfig WorkerFleet fleet_for_stack fleet_for_store",
        ".http": "ServingServer",
        ".protocol": (
            "REPLY_TRACE_KEY ProtocolError decode_query encode_model "
            "encode_query encode_result"
        ),
        ".worker": "StoreArchiveManifest",
    },
)
