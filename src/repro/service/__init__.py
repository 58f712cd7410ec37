"""Concurrent serving layer over the retrieval engine.

The paper frames retrieval as "large archives serving model queries";
this package is the serving front end: :class:`RetrievalService` shards
a query's region into row bands searched concurrently against one
shared top-K threshold, merges the per-shard work records, and caches
whole answers behind a fingerprint keyed on what the query *asks* (model
coefficients, region, k, direction, strategy knobs) — invalidated when
the source archive mutates.

The serving layer is hardened for bounded-latency operation: queries
take deadlines (``top_k(..., deadline_s=...)``) or caller-owned
:class:`CancellationToken` objects, stopping all shards cooperatively
and returning prefix-sound partial results flagged ``complete=False``;
every query carries a :class:`QueryTrace` (stage spans + per-shard
pruning stats) aggregated into a process-wide
:class:`~repro.metrics.registry.MetricsRegistry`.

Strategy routing (``top_k(..., strategy="auto")``) puts the paper's
model-specific indexes in the serving path: a cost-based
:class:`QueryRouter` predicts the wall time of sequential scan, quadtree
search, and Onion-layer linear top-K per query from each strategy's
recent measured executions (probing rivals on a counted schedule so
none starves), builds missing Onion indexes lazily keyed on archive
generation, and falls back to quadtree if a chosen index errors
mid-query. Routed answers are identical to every forced strategy's; the
decision is exported in trace metadata and the explain waterfall. :meth:`RetrievalService.composite_top_k` routes SPROC
fuzzy composite queries the same way.

One query or many, a request takes the same stages (admit, route,
cache, plan, execute, store, record — :mod:`repro.service.retrieval`),
and what a strategy *is* lives in one table, :data:`EXECUTORS`.
For busy-archive traffic, :meth:`RetrievalService.top_k_batch` answers
many queries at once through one pass of those stages and one batch
trace: a :class:`BatchPlanner` groups same-region, interval-boundable
queries and each group shares one region cover and takes round-robin
turns on one scan, while every query keeps its own frontier, bounds,
heap, counters, and deadline — answers and counted work stay
bit-for-bit identical to the single-query path.

See ``docs/TUTORIAL.md`` §8; the benchmark (``BENCHMARK.json``) prices
the layer as ``service.self_ms``, ``cache.hit_us`` and
``batch.speedup_vs_solo``.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".batching": "BatchPlan BatchPlanner",
        ".cache": "QueryCache model_fingerprint query_fingerprint",
        ".retrieval": (
            "EXECUTORS Executor RetrievalService ServiceStats "
            "SharedTopKHeap"
        ),
        ".routing": (
            "CostModel QueryRouter RoutingDecision StrategyCandidate"
        ),
        ".sharding": "row_band_shards",
        ".tracing": "BatchTrace CancellationToken QueryTrace StageSpan",
        "repro.index.onion_cache": "BuiltOnion OnionIndexCache",
        "repro.sproc.arbitration": "COMPOSITE_STRATEGIES",
    },
)
