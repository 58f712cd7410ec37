"""The concurrent retrieval service: sharded search behind a query cache.

This is the serving layer the ROADMAP's north star asks for on top of
the single-threaded engine. A :class:`RetrievalService` answers a
:class:`~repro.core.query.TopKQuery` by

1. checking an LRU cache keyed on a fingerprint of (model coefficients /
   attributes, clipped region, k, maximize, strategy knobs), invalidated
   when a watched archive's :attr:`~repro.data.archive.Archive.generation`
   moves or :meth:`RetrievalService.invalidate` is called;
2. on a miss, partitioning the region into disjoint row bands and
   running the engine's branch-and-bound per band on a thread pool. All
   shards offer into one lock-protected :class:`SharedTopKHeap`, so a
   strong discovery in any band immediately raises the pruning threshold
   in every other band — the shards cooperate rather than redundantly
   exploring;
3. merging the per-shard :class:`~repro.metrics.counters.CostCounter`
   and :class:`~repro.core.results.PruningAudit` records into one
   result.

Because every pruning test in the engine compares *strictly* against
the shared threshold and the deterministic smallest-``(row, col)``
tie-break is applied on every offer, the merged answer set is identical
to the single-engine :meth:`RasterRetrievalEngine.progressive_top_k`
answer at every shard count (property-tested, including boundary-score
ties). Heuristic pruning (``pruning="heuristic"``, ``margin < 1``) is
the one exception — it is unsound by design, sharded or not.

Hardening (bounded-latency serving):

* **Deadlines and cancellation** — ``top_k(..., deadline_s=...)`` (or a
  caller-owned :class:`~repro.service.tracing.CancellationToken` via
  ``cancel=``) threads one token through every shard's branch-and-bound
  loop. When it fires, all shards stop at their next wave of frontier
  pops and the service returns a *partial* result flagged ``complete=False``:
  whatever the shared heap holds, every score exact (offers only happen
  after exact evaluation), but possibly not the true top-K. Partial
  results are never cached.
* **Tracing and metrics** — every query carries a
  :class:`~repro.service.tracing.QueryTrace` (sequential stage spans
  ``cache_lookup`` / ``plan`` / ``search`` / ``merge`` /
  ``cache_store`` plus per-shard pruning stats) on ``result.trace``,
  and the service aggregates counts and stage latencies into a
  :class:`~repro.metrics.registry.MetricsRegistry` (the process-wide
  :func:`~repro.metrics.registry.global_registry` unless one is
  injected). Tracing never touches :class:`CostCounter` tallies:
  counted work is identical with tracing on.
* **Cache isolation** — cached entries are stored *and* served as
  defensive copies (fresh answer list, copied counter and audit), so a
  caller mutating a returned result can never corrupt later hits.

Batch serving: :meth:`RetrievalService.top_k_batch` answers many
queries through one cache pass, one plan, and (per compatible group)
one shared archive traversal — see :mod:`repro.service.batching` for
the grouping rules and
:meth:`~repro.core.engine.RasterRetrievalEngine.shared_scan_search`
for the executor (a solo shard search is its group of one, so the
exactness argument is "same code"). Shard fan-out for solo queries
and singleton fallbacks runs on one service-lifetime thread pool
instead of a per-query executor.
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.engine import (
    BatchQuerySpec,
    RasterRetrievalEngine,
    TopKHeap,
    ranked_answers,
)
from repro.core.query import TopKQuery
from repro.core.results import PruningAudit, RetrievalResult, ScoredLocation
from repro.data.archive import Archive
from repro.data.raster import RasterStack
from repro.embed.fusion import BLEND_FLOPS, FusionSpec
from repro.embed.tiles import TileEmbeddings
from repro.exceptions import QueryError
from repro.index.vector import FlatIPIndex, IVFIPIndex
from repro.metrics.counters import CostCounter
from repro.metrics.registry import MetricsRegistry, global_registry
from repro.service.batching import BatchPlanner, PlannedQuery
from repro.service.cache import QueryCache, query_fingerprint
from repro.service.routing import (
    BuiltOnion,
    QueryRouter,
    RoutingDecision,
)
from repro.service.sharding import row_band_shards
from repro.service.tracing import BatchTrace, CancellationToken, QueryTrace
from repro.sproc.dp import sproc_top_k
from repro.sproc.fast import fast_top_k
from repro.sproc.naive import naive_top_k
from repro.sproc.query import Assignment, CompositeQuery
from repro.telemetry.events import global_event_log
from repro.telemetry.explain import ExplainReport, explain_result
from repro.telemetry.export import TelemetrySink

if TYPE_CHECKING:
    from repro.telemetry.server import MetricsServer


class SharedTopKHeap(TopKHeap):
    """A :class:`TopKHeap` safe to share across shard threads.

    One lock covers offers *and* threshold/fullness reads: a stale
    threshold would merely make pruning conservative (the threshold only
    rises), but ``heapreplace`` mid-sift can transiently expose a value
    larger than the true minimum, which an unlocked reader could use to
    prune unsoundly.
    """

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self._lock = threading.Lock()

    def offer(self, score: float, cell: tuple[int, int]) -> None:
        with self._lock:
            super().offer(score, cell)

    def offer_block(self, scores, rows, cols) -> None:
        # One lock acquisition covers the whole block; the unlocked
        # _offer_block_impl core touches self._heap directly, never the
        # locked offer/threshold wrappers (the lock is not reentrant).
        with self._lock:
            self._offer_block_impl(scores, rows, cols)

    @property
    def full(self) -> bool:
        with self._lock:
            return len(self._heap) >= self.k

    @property
    def threshold(self) -> float:
        with self._lock:
            if len(self._heap) >= self.k:
                return self._heap[0][0]
            return float("-inf")

    def ranked(self) -> list[tuple[float, tuple[int, int]]]:
        with self._lock:
            return super().ranked()


@dataclass
class ServiceStats:
    """Serving tallies across a service's lifetime.

    Plain data: the owning :class:`RetrievalService` performs every
    mutation under its service lock, so the tallies stay exact under
    concurrent callers (the threaded-hammer regression test).
    """

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    invalidations: int = 0
    partial_results: int = 0
    batches: int = 0
    batched_queries: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered from cache (0.0 when idle)."""
        if self.queries == 0:
            return 0.0
        return self.cache_hits / self.queries


class RetrievalService:
    """Sharded, cached top-K retrieval over a raster stack.

    Parameters
    ----------
    stack:
        Attribute layers the queries evaluate over.
    leaf_size:
        Tile-screen leaf window for the underlying engine.
    n_shards:
        Default row-band count per query (overridable per call). One by
        default: shard threads share the GIL, and on the machines
        measured so far fanning a query out costs 1.4-2.4x the
        single-shard time (``service.shard_overhead_ratio``;
        ``BENCH_batch.json``: 31 ms at 1 shard vs. 48 ms at 4). A run on
        >= 4 cores (ROADMAP item 5e) is what could reverse this.
    pool_workers:
        Thread count of the service-lifetime shard pool. The default
        (``None``) resolves to ``max(8, 2 * n_shards)`` — enough threads
        that two concurrent queries at the default shard count never
        queue behind each other, independent of the machine's CPU count
        (pool sizing is an explicit serving knob, never a silent
        environment read). Both counts are published as the
        ``service.n_shards`` / ``service.pool_workers`` gauges at
        construction so an operator can read the fleet's configuration
        off ``/metrics``.
    cache_size:
        LRU capacity in cached results; ``0`` disables caching.
    archive:
        Optional source archive to watch: whenever its ``generation``
        moves (a layer was added), every cached answer is dropped before
        the next query executes. Use :meth:`from_archive` to build stack
        and watch in one step.
    registry:
        Where query counts, stage latencies, and the cache hit rate are
        aggregated; defaults to the process-wide
        :func:`~repro.metrics.registry.global_registry`.
    embedding_dim / embedding_seed:
        Configuration of the lazily built per-tile embedding grid that
        fused (``similar_to``) queries and :meth:`similar_tiles` score
        against; see :mod:`repro.embed`.
    """

    def __init__(
        self,
        stack: RasterStack,
        leaf_size: int = 16,
        n_shards: int = 1,
        pool_workers: int | None = None,
        cache_size: int = 128,
        archive: Archive | None = None,
        registry: MetricsRegistry | None = None,
        embedding_dim: int = 16,
        embedding_seed: int = 0,
    ) -> None:
        if n_shards < 1:
            raise QueryError(f"n_shards must be positive, got {n_shards}")
        if pool_workers is not None and pool_workers < 1:
            raise QueryError(
                f"pool_workers must be positive, got {pool_workers}"
            )
        self.engine = RasterRetrievalEngine(stack, leaf_size=leaf_size)
        self.n_shards = n_shards
        self.cache: QueryCache | None = (
            QueryCache(cache_size) if cache_size > 0 else None
        )
        self._archive = archive
        self._seen_generation = (
            archive.generation if archive is not None else None
        )
        self.stats = ServiceStats()
        self.registry = registry if registry is not None else global_registry()
        # Reentrant: _check_archive_generation calls invalidate() while
        # already holding the lock. Guards every stats mutation plus the
        # _seen_generation read-compare-update.
        self._lock = threading.RLock()
        self._planner = BatchPlanner()
        # Tile embeddings build lazily on the first fused query (or
        # explicit embeddings() call) and then follow the archive's
        # mutation contract: region refreshes + generation restamps.
        self._embedding_dim = int(embedding_dim)
        self._embedding_seed = int(embedding_seed)
        self._embeddings: TileEmbeddings | None = None
        # Cost-based strategy router (ROADMAP item 1). Construction is
        # cheap — Onion indexes inside its cache build lazily on the
        # first query routed onto them, keyed on archive generation.
        # An archive opened from a store names a directory beside it
        # where built indexes persist for the next process to open.
        self.router = QueryRouter(
            stack,
            registry=self.registry,
            sidecar_dir=getattr(archive, "index_dir", None),
        )
        # Shared shard pool, created lazily on the first multi-band
        # query and reused for every later one (spinning a pool up per
        # query costs more than small queries themselves). The finalizer
        # closes it when the service is collected — it must reference
        # the pool, never self, or the service would stay alive forever.
        self._pool: ThreadPoolExecutor | None = None
        self._pool_workers = (
            pool_workers if pool_workers is not None
            else max(8, 2 * n_shards)
        )
        # Configuration gauges: the effective (not just requested)
        # sizing knobs, readable off /metrics — a fleet operator should
        # never have to infer pool shape from source defaults.
        self.registry.gauge("service.n_shards", float(self.n_shards))
        self.registry.gauge(
            "service.pool_workers", float(self._pool_workers)
        )
        self.registry.gauge("service.cache_capacity", float(cache_size))
        # Telemetry export is opt-in: with no sink attached the hot path
        # pays one None check per query (the no-exporter fast path the
        # overhead benchmark pins).
        self._telemetry: TelemetrySink | None = None
        self._metrics_server: MetricsServer | None = None

    @property
    def pool_workers(self) -> int:
        """Effective shard-pool thread count (the resolved default when
        the constructor was given ``pool_workers=None``)."""
        return self._pool_workers

    def _shard_pool(self) -> ThreadPoolExecutor:
        """The service-lifetime executor shard searches run on.

        Safe to share across concurrent queries: shard tasks never wait
        on other pool futures, so a saturated pool only queues work —
        it can never deadlock.
        """
        with self._lock:
            if self._pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=self._pool_workers,
                    thread_name_prefix="repro-shard",
                )
                self._pool = pool
                weakref.finalize(self, pool.shutdown, wait=False)
            return self._pool

    def enable_telemetry(
        self,
        capacity: int = 256,
        jsonl_path=None,
        flush_interval_s: float = 0.5,
    ) -> TelemetrySink:
        """Attach (or return) the sink completed traces export into.

        Idempotent: the first call creates the sink (a bounded ring of
        recent traces, plus a background-flushed JSONL log when
        ``jsonl_path`` is given); later calls return the existing one
        unchanged. Until this is called, queries skip export entirely.
        """
        with self._lock:
            if self._telemetry is None:
                self._telemetry = TelemetrySink(
                    capacity=capacity,
                    jsonl_path=jsonl_path,
                    flush_interval_s=flush_interval_s,
                )
            return self._telemetry

    @property
    def telemetry(self) -> TelemetrySink | None:
        """The attached trace sink (``None`` until enabled)."""
        return self._telemetry

    def serve_metrics(
        self, port: int = 0, host: str = "127.0.0.1"
    ) -> MetricsServer:
        """Start (or return) the live diagnostics HTTP thread.

        Serves this service's registry as Prometheus text on
        ``/metrics``, liveness + lifetime stats on ``/healthz``, and the
        telemetry sink's recent traces on ``/traces`` (JSON) and
        ``/traces/chrome`` (Chrome ``trace_event`` document). Enables
        the telemetry sink as a side effect so ``/traces`` has data.
        ``port=0`` binds an ephemeral port — read it back from the
        returned server's ``.port``. Idempotent per service; ``close()``
        the returned server to release the socket.
        """
        # Imported here: the HTTP loop brings asyncio, which a fleet
        # worker (it never serves its own diagnostics) should not load.
        from repro.telemetry.server import MetricsServer

        with self._lock:
            if self._metrics_server is not None:
                return self._metrics_server
        sink = self.enable_telemetry()

        def health() -> dict:
            with self._lock:
                return {
                    "queries": self.stats.queries,
                    "cache_hits": self.stats.cache_hits,
                    "partial_results": self.stats.partial_results,
                    "batches": self.stats.batches,
                }

        server = MetricsServer(
            registry=self.registry,
            sink=sink,
            health=health,
            host=host,
            port=port,
        ).start()
        with self._lock:
            self._metrics_server = server
        return server

    @classmethod
    def from_archive(
        cls, archive: Archive, layers: list[str], **kwargs
    ) -> "RetrievalService":
        """Service over an archive's named raster layers, watching the
        archive so later ``add`` calls invalidate the cache."""
        return cls(archive.stack(layers), archive=archive, **kwargs)

    def invalidate(self) -> None:
        """Explicitly drop every cached answer and built index.

        The router's Onion indexes and the tile embedding grid are
        dropped unconditionally (they are derived from the archive
        exactly like cached answers); the result cache part — including
        the ``invalidations`` tally — is a no-op when caching is
        disabled, since there is nothing to invalidate there.
        """
        self.router.index_cache.invalidate()
        with self._lock:
            self._embeddings = None
        global_event_log().emit(
            "cache.invalidate", scope="full"
        )
        if self.cache is None:
            return
        self.cache.clear()
        with self._lock:
            self.stats.invalidations += 1

    def invalidate_region(self, region: tuple[int, int, int, int]) -> None:
        """Invalidate only what a dirty rectangle can have affected.

        The precise counterpart of :meth:`invalidate`, used when the
        watched archive reports a region-scoped mutation (the disk
        store's ``append_region``). Three layers of derived state:

        * the engine's screen aggregates are *re-derived in place* over
          the rectangle — they are not a cache that may be dropped, they
          are the pruning bounds, and serving from pre-mutation
          envelopes would be silently unsound;
        * built Onion indexes intersecting the rectangle are dropped,
          the rest restamped to the new generation (their cells are
          untouched, so they remain exact);
        * the tile embedding grid (when built) re-embeds exactly the
          tiles the rectangle touches and is restamped — surviving
          tile vectors stay bitwise what the original build produced;
        * cached answers whose query window intersects the rectangle
          are dropped; every other entry provably never read a mutated
          cell and survives.

        An empty rectangle (series appends) touches no raster state and
        invalidates nothing.
        """
        row0, col0, row1, col1 = region
        if row0 >= row1 or col0 >= col1:
            return
        self.engine.screen.refresh_region(region)
        with self._lock:
            embeddings = self._embeddings
        if embeddings is not None:
            embeddings.refresh_region(region)
            embeddings.generation = self._seen_generation
        self.router.index_cache.invalidate_region(
            region, self._seen_generation
        )
        if self.cache is not None:
            self.cache.invalidate_region(region)
        with self._lock:
            self.stats.invalidations += 1
        global_event_log().emit(
            "cache.invalidate",
            scope="region",
            region=list(region),
        )

    def _check_archive_generation(self) -> None:
        if self._archive is None:
            return
        with self._lock:
            generation = self._archive.generation
            if generation == self._seen_generation:
                return
            mutations = self._archive.mutations_since(self._seen_generation)
            self._seen_generation = generation
            if mutations is None:
                # The archive's bounded log no longer covers our lag (or
                # cannot scope the change): full invalidation is the
                # only sound answer.
                self.invalidate()
                return
            for _mutation_generation, region in mutations:
                if region is None:
                    self.invalidate()
                else:
                    self.invalidate_region(region)

    def embeddings(self) -> TileEmbeddings:
        """The per-tile embedding grid, built lazily and kept fresh.

        The first call embeds every tile of the stack over the engine's
        tile screen; later calls return the same grid, region-refreshed
        by whatever archive mutations have been replayed in between.
        The grid is stamped with the archive generation it reflects.
        """
        self._check_archive_generation()
        with self._lock:
            embeddings = self._embeddings
            if embeddings is None:
                build_start = time.perf_counter()
                embeddings = TileEmbeddings.build(
                    self.engine.stack,
                    self.engine.screen,
                    dim=self._embedding_dim,
                    seed=self._embedding_seed,
                    generation=self._seen_generation,
                )
                self._embeddings = embeddings
                self.registry.inc("service.embedding_builds")
                global_event_log().emit(
                    "index.embedding_build",
                    dim=self._embedding_dim,
                    build_seconds=time.perf_counter() - build_start,
                )
            elif embeddings.generation != self._seen_generation:
                # Region mutations were already replayed tile-by-tile in
                # invalidate_region; only raster-neutral mutations
                # (series appends) can leave the stamp behind.
                embeddings.generation = self._seen_generation
            return embeddings

    def similar_tiles(
        self,
        cell: tuple[int, int],
        k: int = 5,
        index: str = "flat",
        nprobe: int | None = None,
    ) -> list[ScoredLocation]:
        """Pure query-by-example: tiles most similar to ``cell``'s tile.

        Equivalent to ``top_k`` with ``alpha=0`` but at tile
        granularity: answers are tile-origin cells scored by cosine.
        ``index="flat"`` scans every tile vector (exact);
        ``index="ivf"`` goes through the coarse quantizer — exact with
        ``nprobe=None`` (cap-ordered probing with the threshold stop
        rule), approximate with a fixed ``nprobe``.
        """
        embeddings = self.embeddings()
        query_vector = embeddings.tile_vector(cell)
        if index == "flat":
            ranked = FlatIPIndex.from_embeddings(embeddings).search(
                query_vector, k
            )
        elif index == "ivf":
            ranked, _probed = IVFIPIndex.from_embeddings(embeddings).search(
                query_vector, k, nprobe=nprobe
            )
        else:
            raise QueryError(
                f"unknown vector index {index!r}; expected 'flat' or 'ivf'"
            )
        return [
            ScoredLocation(row=location[0], col=location[1], score=score)
            for score, location in ranked
        ]

    def _fusion_spec(
        self, query: TopKQuery, trace: QueryTrace
    ) -> FusionSpec:
        """Resolve a fused query's example cell against fresh embeddings
        and describe the resolved spec on the query's trace."""
        fusion = FusionSpec.build(
            self.embeddings(), query.similar_to, query.alpha
        )
        trace.metadata["fusion"] = {
            "similar_to": list(query.similar_to),
            "alpha": query.alpha,
            "dim": fusion.dim,
            "example_window": list(fusion.example_window),
            "tiles": fusion.n_tiles,
        }
        return fusion

    def _cache_region(
        self, query: TopKQuery, region: tuple[int, int, int, int]
    ) -> tuple[int, int, int, int]:
        """The rectangle a cached answer for ``query`` depends on.

        A fused answer reads the query region *and* the example tile
        (its vector is the similarity target), so the cache entry covers
        their bounding box — a mutation under the example tile then
        invalidates the entry. The bbox over-approximates (cells between
        the two rectangles also hit it), which only costs extra
        invalidation, never a stale answer.
        """
        if not query.fused:
            return region
        window = self.embeddings().tile_window(query.similar_to)
        return (
            min(region[0], window[0]),
            min(region[1], window[1]),
            max(region[2], window[2]),
            max(region[3], window[3]),
        )

    def top_k(
        self,
        query: TopKQuery,
        n_shards: int | None = None,
        use_model_levels: bool = True,
        pruning: str = "sound",
        heuristic_margin: float = 0.7,
        use_cache: bool = True,
        deadline_s: float | None = None,
        cancel: CancellationToken | None = None,
        explain: bool = False,
        strategy: str = "quadtree",
        trace_id: str | None = None,
    ) -> "RetrievalResult | ExplainReport":
        """Answer ``query`` through the cache and the shard pool.

        The answer set is identical to the single-engine
        ``progressive_top_k`` result (for sound pruning) at every shard
        count. A cache hit returns a defensive copy of the stored result
        with its original work counter — the work that *was* done to
        compute it — and ``"-cached"`` appended to the strategy label;
        mutating any returned result never affects later hits.

        ``strategy`` selects the execution structure:

        * ``"quadtree"`` (default) — the existing sharded progressive
          tile search, byte-for-byte the pre-router code path.
        * ``"auto"`` — the cost-based :class:`~repro.service.routing
          .QueryRouter` predicts the wall time of sequential scan,
          quadtree, and Onion-layer top-K from their measured executions
          and runs the fastest eligible one — or, on a counted schedule
          and never under ``deadline_s`` / ``cancel``, a rival it wants
          measured. Should the chosen index error mid-query, the service
          falls back to the quadtree path and records the reason.
          Answers (cells and order) are identical to every forced
          strategy's (property-tested);
          the full decision — candidates with predicted seconds and
          sample counts, chosen strategy, whether it was a probe,
          predicted vs actual seconds, fallback reason — rides
          on ``result.trace.metadata["routing"]`` and in the
          ``explain=True`` waterfall.
        * ``"onion"`` / ``"scan"`` — force that structure (errors
          propagate; no fallback). Forcing ``"onion"`` on a non-linear
          model raises :class:`~repro.exceptions.QueryError`.
        * ``"fused"`` / ``"embed-scan"`` — the fused pair, legal only
          for queries carrying a ``similar_to`` example. A fused query
          left on the default ``"quadtree"`` runs ``"fused"`` (the
          progressive tile search with blended bounds); ``"auto"``
          routes between the pair. ``"embed-scan"`` embeds/blends the
          whole region exhaustively — the fused calibration oracle.
          Model-only strategies cannot answer fused queries and raise.

        Routed strategies build any missing Onion index on first use
        (cached per (region, attributes), keyed on archive generation —
        an archive mutation transparently rebuilds). Index build time is
        never charged to query counters, matching the paper's amortized
        convention.

        ``deadline_s`` bounds the query's wall time: when it expires,
        every shard stops at its next loop check and the result comes
        back flagged ``complete=False`` with ``"-partial"`` appended to
        the strategy — a prefix-sound partial top-K (every returned
        score is exact). ``cancel`` hands in a caller-owned
        :class:`~repro.service.tracing.CancellationToken` for explicit
        cancellation; with both, whichever fires first stops the query.
        (Onion/scan executions are single batched evaluations and run to
        completion; deadlines bound only the quadtree path's loops.)
        Partial results are never cached. Every result carries a
        :class:`~repro.service.tracing.QueryTrace` on ``result.trace``.

        ``explain=True`` wraps the result in an
        :class:`~repro.telemetry.explain.ExplainReport` — the per-level
        pruning waterfall reconciled against the result's audit and
        counter (the underlying answer and counted work are unchanged;
        the result itself rides on ``report.result``).
        """
        _check_knobs(pruning, n_shards)
        if strategy not in (
            "quadtree", "auto", "onion", "scan", "fused", "embed-scan"
        ):
            raise QueryError(
                f"unknown strategy {strategy!r}; expected 'quadtree', "
                "'auto', 'onion', 'scan', 'fused', or 'embed-scan'"
            )
        if query.fused:
            if strategy in ("onion", "scan"):
                raise QueryError(
                    f"strategy {strategy!r} cannot answer a fused "
                    "(similar_to) query; use 'fused', 'embed-scan', or "
                    "'auto'"
                )
            if strategy == "quadtree":
                # The default structure for a fused query *is* the fused
                # tile search — same frontier, blended bounds.
                strategy = "fused"
        elif strategy in ("fused", "embed-scan"):
            raise QueryError(
                f"strategy {strategy!r} needs a similar_to example cell "
                "(with alpha < 1) on the query"
            )
        # ``trace_id`` lets a fronting process (the HTTP fleet) stamp
        # its correlation id on the worker-side trace, so one id follows
        # a request from admission through shard search in the exports.
        trace = QueryTrace(trace_id=trace_id)
        # A probe runs a strategy predicted slower; a query that may be
        # cut short must never be the one that pays for it.
        may_probe = deadline_s is None and cancel is None
        cancel = _deadline_token(deadline_s, cancel)
        with self._lock:
            self.stats.queries += 1

        decision: RoutingDecision | None = None
        resolved = "quadtree"
        if strategy != "quadtree":
            with trace.span("route"):
                # Routing observes the *fresh* generation so a stale
                # index can never be scored as already built.
                self._check_archive_generation()
                route_region = query.clip_region(self.engine.stack.shape)
                decision = self.router.route(
                    query,
                    route_region,
                    strategy=strategy,
                    generation=self._seen_generation,
                    probe=may_probe,
                )
                resolved = decision.chosen
                trace.metadata["routing"] = decision.as_dict()

        cached: RetrievalResult | None = None
        with trace.span("cache_lookup"):
            self._check_archive_generation()
            region = query.clip_region(self.engine.stack.shape)
            knobs = {
                "use_model_levels": use_model_levels,
                "pruning": pruning,
                "heuristic_margin": heuristic_margin,
            }
            # A routed quadtree uses the legacy key so auto-routed and
            # legacy callers share cache entries (the answers are
            # identical); "fused" is likewise the default structure for
            # fused queries (the similar_to/alpha pair in the
            # fingerprint already separates them from model-only
            # entries). Other strategies answer with different counted
            # work and carry their own entries.
            if resolved not in ("quadtree", "fused"):
                knobs["strategy"] = resolved
            key = query_fingerprint(query, region, **knobs)
            if use_cache and self.cache is not None:
                trace.cache_checked = True
                cached = self.cache.get(key)
        if cached is not None:
            result = self._serve_hit(cached, trace)
            if explain:
                return explain_result(result, query, region)
            return result
        if use_cache and self.cache is not None:
            with self._lock:
                self.stats.cache_misses += 1

        shards = self.n_shards if n_shards is None else n_shards
        run = (
            query, region, shards, use_model_levels, pruning,
            heuristic_margin, cancel, trace,
        )
        try:
            result, seconds = self._run_strategy(resolved, *run)
        except Exception as error:
            # Graceful degradation: fall back to the always-capable
            # path for the query family (quadtree, or the fused tile
            # search for similar_to queries), recording why. Forced
            # strategies propagate: the caller asked for this structure
            # specifically. The fallback result is cached under the
            # *fallback* key (that is what actually answered), never
            # under the failed strategy's key.
            fallback = "fused" if query.fused else "quadtree"
            if strategy != "auto" or resolved == fallback:
                raise
            assert decision is not None
            decision.record_fallback(
                failed=resolved,
                reason=f"{type(error).__name__}: {error}",
                to=fallback,
            )
            resolved = fallback
            knobs.pop("strategy", None)
            key = query_fingerprint(query, region, **knobs)
            result, seconds = self._run_strategy(resolved, *run)
        if decision is not None:
            self.router.observe(
                decision,
                seconds=seconds,
                tuples_examined=_observed_tuples(result, query),
                complete=result.complete,
            )
            trace.metadata["routing"] = decision.as_dict()

        if use_cache and self.cache is not None and result.complete:
            # Partial (deadline-truncated) answers must never be served
            # to a later query that had no deadline; the stored entry is
            # a copy, so the caller may freely mutate the returned one.
            with trace.span("cache_store"):
                self.cache.put(
                    key,
                    _result_copy(result, result.strategy),
                    region=self._cache_region(query, region),
                )
        self._conclude(result, trace, cancel)
        if explain:
            return explain_result(result, query, region)
        return result

    def top_k_batch(
        self,
        queries: Sequence[TopKQuery],
        *,
        n_shards: int | None = None,
        use_model_levels: bool | Sequence[bool] = True,
        pruning: str = "sound",
        heuristic_margin: float = 0.7,
        use_cache: bool = True,
        deadline_s: "float | Sequence[float | None] | None" = None,
        cancel: (
            "CancellationToken | Sequence[CancellationToken | None] | None"
        ) = None,
        trace_id: str | None = None,
    ) -> list[RetrievalResult]:
        """Answer many queries, sharing one archive traversal where legal.

        Results come back in input order, each bit-for-bit identical —
        answers, orderings, tie-breaks, and counted work — to what
        :meth:`top_k` would return for that query alone (a batch member
        runs the engine's one search step, the very step its solo search
        runs, over memoized traversal state; see DESIGN.md). The
        pipeline:

        1. **Cache peel** — each query is looked up individually;
           hits are returned as ``"-cached"`` copies without planning.
        2. **Plan** — the :class:`~repro.service.batching.BatchPlanner`
           groups remaining queries by clipped region; groups of >= 2
           interval-boundable models share one
           :meth:`~repro.core.engine.RasterRetrievalEngine
           .shared_scan_search` traversal, everything else (lone
           regions, ``pruning="heuristic"``) falls back to the ordinary
           sharded path. Validation is fail-fast: an unanswerable query
           raises :class:`~repro.exceptions.QueryError` before any
           query in the batch executes.
        3. **Execute** — shared scans run per group; each query keeps
           its own heap, counter, audit, and cancel token, so counted
           work stays attributable and a deadline retires *its* query
           prefix-soundly (``complete=False``, ``"-partial"``, never
           cached) while the rest of the group finishes exactly.

        ``use_model_levels``, ``deadline_s``, and ``cancel`` accept
        either one value for the whole batch or a sequence with one
        entry per query (mixed batches need per-query level knobs:
        knowledge/fuzzy models require ``use_model_levels=False``).
        Deadlines are measured from batch start. ``n_shards`` only
        shapes singleton fallbacks; shared scans are single-threaded by
        construction. The returned results carry per-query traces whose
        parent is the batch's :class:`~repro.service.tracing.BatchTrace`.
        """
        _check_knobs(pruning, n_shards)
        queries = list(queries)
        n_queries = len(queries)
        if n_queries == 0:
            return []
        levels = _broadcast(use_model_levels, n_queries, "use_model_levels")
        deadlines = _broadcast(deadline_s, n_queries, "deadline_s")
        cancels = _broadcast(cancel, n_queries, "cancel")
        tokens = [
            _deadline_token(value, parent)
            for value, parent in zip(deadlines, cancels)
        ]

        trace = BatchTrace(batch_size=n_queries, trace_id=trace_id)
        with self._lock:
            self.stats.queries += n_queries
            self.stats.batches += 1
        children = [trace.child() for _ in range(n_queries)]
        results: list[RetrievalResult | None] = [None] * n_queries
        keys: list = [None] * n_queries
        regions: list = [None] * n_queries
        misses: list[int] = []

        with trace.span("cache_lookup"):
            self._check_archive_generation()
            for index, query in enumerate(queries):
                child = children[index]
                cached: RetrievalResult | None = None
                with child.span("cache_lookup"):
                    regions[index] = query.clip_region(
                        self.engine.stack.shape
                    )
                    keys[index] = query_fingerprint(
                        query,
                        regions[index],
                        use_model_levels=levels[index],
                        pruning=pruning,
                        heuristic_margin=heuristic_margin,
                    )
                    if use_cache and self.cache is not None:
                        child.cache_checked = True
                        cached = self.cache.get(keys[index])
                if cached is not None:
                    results[index] = self._serve_hit(cached, child)
                    continue
                if use_cache and self.cache is not None:
                    with self._lock:
                        self.stats.cache_misses += 1
                misses.append(index)

        plan = None
        if misses:
            with trace.span("plan"):
                planned = []
                for index in misses:
                    # Fail-fast for the whole batch: every query is
                    # validated (and its cascade built) before any query
                    # runs, so a bad member can never leave the batch
                    # half-executed. (Fused members run the singleton
                    # path, where _execute builds their FusionSpec.)
                    with children[index].span("plan"):
                        progressive = self._prepare_tiles(
                            queries[index], levels[index]
                        )
                    planned.append(
                        PlannedQuery(
                            index=index,
                            query=queries[index],
                            region=regions[index],
                            use_model_levels=levels[index],
                            progressive=progressive,
                        )
                    )
                plan = self._planner.plan(planned, pruning=pruning)

        if plan is not None:
            with self._lock:
                self.stats.batched_queries += plan.batched
            for group in plan.groups:
                specs = [
                    BatchQuerySpec(
                        query=item.query,
                        heap=TopKHeap(item.query.k),
                        counter=CostCounter(),
                        audit=PruningAudit(),
                        progressive=item.progressive,
                        cancel=tokens[item.index],
                    )
                    for item in group
                ]
                with trace.span("search"):
                    self.engine.shared_scan_search(
                        specs, group[0].region, pruning=pruning,
                        heuristic_margin=heuristic_margin,
                    )
                for item, spec in zip(group, specs):
                    results[item.index] = _batch_member_result(
                        item, spec, len(group), children[item.index]
                    )
            for item in plan.singletons:
                results[item.index] = self._execute(
                    item.query,
                    item.region,
                    self.n_shards if n_shards is None else n_shards,
                    item.use_model_levels,
                    pruning,
                    heuristic_margin,
                    tokens[item.index],
                    children[item.index],
                )

        if misses and use_cache and self.cache is not None:
            with trace.span("cache_store"):
                for index in misses:
                    result = results[index]
                    if result.complete:
                        self.cache.put(
                            keys[index],
                            _result_copy(result, result.strategy),
                            region=self._cache_region(
                                queries[index], regions[index]
                            ),
                        )
        for index in misses:
            result = results[index]
            token = tokens[index]
            if not result.complete:
                # Why this member was truncated (deadline vs explicit
                # cancel) — exported with the trace so a retired
                # "-batch[N]-partial" member is diagnosable after the
                # fact.
                children[index].metadata["retire_reason"] = (
                    token.reason if token is not None else None
                ) or "cancelled"
            self._conclude(result, children[index], token)

        trace.finish(complete=all(r.complete for r in results))
        sink = self._telemetry
        if sink is not None:
            sink.record(trace)
        registry = self.registry
        registry.inc("service.batches")
        if plan is not None and plan.batched:
            registry.inc("service.batched_queries", plan.batched)
        registry.observe("service.batch_seconds", trace.wall_seconds)
        registry.observe("service.batch_size", float(n_queries))
        return results

    def _serve_hit(
        self, cached: RetrievalResult, trace: QueryTrace
    ) -> RetrievalResult:
        """Finish ``trace`` as a cache hit and hand out a ``"-cached"``
        defensive copy of the stored result."""
        with self._lock:
            self.stats.cache_hits += 1
        trace.cache_hit = True
        trace.finish(complete=cached.complete)
        self._record(trace)
        return _result_copy(
            cached, strategy=cached.strategy + "-cached", trace=trace
        )

    def _conclude(
        self,
        result: RetrievalResult,
        trace: QueryTrace,
        cancel: CancellationToken | None,
    ) -> None:
        """Where every executed query ends: tally a partial answer,
        finish its trace, attach it to the result and record it."""
        if not result.complete:
            with self._lock:
                self.stats.partial_results += 1
        trace.finish(
            complete=result.complete,
            cancel_reason=cancel.reason if cancel is not None else None,
        )
        result.trace = trace
        self._record(trace)

    def _run_strategy(
        self,
        resolved: str,
        query: TopKQuery,
        region: tuple[int, int, int, int],
        n_shards: int,
        use_model_levels: bool,
        pruning: str,
        heuristic_margin: float,
        cancel: CancellationToken | None,
        trace: QueryTrace,
    ) -> tuple[RetrievalResult, float]:
        """Run one strategy; returns its result and execution seconds.

        What the strategy needs built once per process or generation —
        the tile embeddings, a missing Onion index — is built first,
        under its own span: the seconds returned are what the router
        learns from, and a one-off build charged to whichever strategy
        happened to run first would be held against it for good.
        """
        if query.fused and self._embeddings is None:
            with trace.span("embed_build"):
                self.embeddings()
        if resolved == "onion":
            key = (region, tuple(query.model.attributes), self._seen_generation)
            if self.router.index_cache.peek(*key) is None:
                with trace.span("index_build"):
                    self.router.index_cache.get(*key, k=query.k)
        started = time.perf_counter()
        if resolved in ("quadtree", "fused"):
            result = self._execute(
                query, region, n_shards, use_model_levels, pruning,
                heuristic_margin, cancel, trace,
            )
        elif resolved == "onion":
            result = self._execute_onion(query, region, trace)
        elif resolved == "embed-scan":
            result = self._execute_embed_scan(query, region, trace)
        else:
            result = self._execute_scan(query, region, trace)
        return result, time.perf_counter() - started

    def _prepare_tiles(self, query: TopKQuery, use_model_levels: bool):
        """Validate ``query`` for the tile search; its cascade or None.

        Fused queries blend *whole-model* interval bounds with cosine
        caps; the level cascade does not apply, so their
        ``use_model_levels`` knob is ignored rather than an error.
        """
        return self.engine.prepare_tile_query(
            query, use_model_levels=use_model_levels and not query.fused
        )

    def _execute(
        self,
        query: TopKQuery,
        region: tuple[int, int, int, int],
        n_shards: int,
        use_model_levels: bool,
        pruning: str,
        heuristic_margin: float,
        cancel: CancellationToken | None,
        trace: QueryTrace,
    ) -> RetrievalResult:
        engine = self.engine
        fusion: FusionSpec | None = None
        with trace.span("plan"):
            progressive = self._prepare_tiles(query, use_model_levels)
            if query.fused:
                fusion = self._fusion_spec(query, trace)
            bands = row_band_shards(region, n_shards)
            heap = SharedTopKHeap(query.k)
            counters = [CostCounter() for _ in bands]
            audits = [PruningAudit() for _ in bands]
        shard_complete = [True] * len(bands)

        def run_shard(index: int) -> None:
            band, counter, audit = bands[index], counters[index], audits[index]
            started_s = trace.elapsed_s()
            start = time.perf_counter()
            ok = engine.shard_search(
                query, band, heap, counter, audit,
                progressive=progressive, pruning=pruning,
                heuristic_margin=heuristic_margin, cancel=cancel,
                fusion=fusion,
            )
            shard_complete[index] = ok
            # Trace-only timing: per-shard wall time is recorded beside
            # (never into) the shard counter, so merged counter tallies
            # stay identical to the untraced pre-hardening service.
            trace.add_shard(
                shard=index,
                band=band,
                started_s=started_s,
                wall_seconds=time.perf_counter() - start,
                tiles_screened=audit.tiles_screened,
                tiles_pruned=audit.tiles_pruned,
                total_work=counter.total_work,
                complete=ok,
            )

        total = CostCounter()
        if fusion is not None:
            # The one-off cosine grid is charged once per query (not per
            # shard), at the same rate embed-scan and the oracle charge.
            fusion.charge_build(total)
        with trace.span("search"):
            with total.timed():
                if len(bands) == 1:
                    run_shard(0)
                else:
                    pool = self._shard_pool()
                    futures = [
                        pool.submit(run_shard, index)
                        for index in range(len(bands))
                    ]
                    for future in futures:
                        future.result()

        with trace.span("merge"):
            audit = PruningAudit()
            for shard_counter, shard_audit in zip(counters, audits):
                total += shard_counter
                audit.absorb(shard_audit)
            total.note("shards", len(bands))
            answers = ranked_answers(heap, query.maximize)
            complete = all(shard_complete)
            if fusion is not None:
                strategy = "fused"
            elif use_model_levels:
                strategy = "both"
            else:
                strategy = "data-progressive"
            if pruning == "heuristic":
                strategy += "-heuristic"
            strategy += f"-sharded[{len(bands)}]"
            if not complete:
                strategy += "-partial"
        return RetrievalResult(
            answers=answers, counter=total, audit=audit, strategy=strategy,
            complete=complete,
        )

    def _execute_onion(
        self,
        query: TopKQuery,
        region: tuple[int, int, int, int],
        trace: QueryTrace,
    ) -> RetrievalResult:
        """Onion-layer execution: candidate generation + exact re-score.

        The index is used purely as a *candidate generator* — the union
        of the outermost K hull layers, which the containment theorem
        guarantees holds the true top-K of any linear objective. The
        candidates are then re-scored through ``model.evaluate_batch``
        and offered into the engine's :class:`TopKHeap`: the same
        per-cell arithmetic and the same tie-break machinery as the
        quadtree and scan paths, which is what makes routed answers
        bit-identical to theirs.
        """
        model = query.model
        with trace.span("index"):
            built = self.router.index_cache.get(
                region, tuple(model.attributes), self._seen_generation
            )
        counter = CostCounter()
        with trace.span("search"):
            with counter.timed():
                candidates = built.candidate_rows(query.k)
                layers = built.index.layers_needed(query.k)
                counter.add_nodes(layers)
                counter.add_tuples(int(candidates.size))
                columns = {
                    name: built.columns[name][candidates]
                    for name in model.attributes
                }
                counter.add_data_points(
                    int(candidates.size) * len(model.attributes)
                )
                scores = model.evaluate_batch(columns)
                counter.add_model_evals(
                    int(candidates.size), flops_each=model.complexity
                )
                sign = 1.0 if query.maximize else -1.0
                heap = TopKHeap(query.k)
                # Region-local row-major flattening: local flat order is
                # global (row, col) lexicographic order restricted to
                # the region, so decoding preserves tie semantics.
                width = region[3] - region[1]
                local_rows, local_cols = divmod(candidates, width)
                heap.offer_block(
                    sign * scores,
                    region[0] + local_rows,
                    region[1] + local_cols,
                )
        with trace.span("merge"):
            answers = ranked_answers(heap, query.maximize)
            counter.note("onion_layers", layers)
            counter.note("onion_candidates", int(candidates.size))
        return RetrievalResult(
            answers=answers, counter=counter, strategy="onion"
        )

    def _execute_scan(
        self,
        query: TopKQuery,
        region: tuple[int, int, int, int],
        trace: QueryTrace,
        fusion: FusionSpec | None = None,
    ) -> RetrievalResult:
        """Sequential-scan execution (the router's calibration oracle).

        :meth:`RasterRetrievalEngine.dense_top_k` cell for cell — the
        routine behind ``exhaustive_top_k`` — with the service's trace
        spans and tuple tallies added for the router's feedback. With
        ``fusion`` this is the ``embed-scan`` strategy: the cosine-grid
        build and one blend per cell are charged at the rates the
        progressive fused path and ``tests/oracles.py`` charge.
        """
        n_cells = (region[2] - region[0]) * (region[3] - region[1])
        counter = CostCounter()
        with trace.span("search"):
            with counter.timed():
                heap = self.engine.dense_top_k(query, region, counter, fusion)
                counter.add_tuples(n_cells)
                if fusion is not None:
                    fusion.charge_build(counter)
                    counter.add_partial_evals(
                        n_cells, flops_each=BLEND_FLOPS
                    )
        with trace.span("merge"):
            answers = ranked_answers(heap, query.maximize)
        return RetrievalResult(
            answers=answers, counter=counter,
            strategy="scan" if fusion is None else "embed-scan",
        )

    def _execute_embed_scan(
        self,
        query: TopKQuery,
        region: tuple[int, int, int, int],
        trace: QueryTrace,
    ) -> RetrievalResult:
        """Exhaustive fused execution (the fused calibration oracle).

        Embed-all-then-blend: the dense scan with every cell's score
        blended with its tile's cosine. ``tests/oracles.py`` mirrors
        this path counter for counter, and ``benchmarks/bench_embed.py``
        gates the progressive fused path against it.
        """
        with trace.span("index"):
            fusion = self._fusion_spec(query, trace)
        return self._execute_scan(query, region, trace, fusion)

    def warm_index(
        self,
        attributes: "Sequence[str] | TopKQuery",
        region: tuple[int, int, int, int] | None = None,
    ) -> BuiltOnion:
        """Pre-build the Onion index a routed query would use.

        Accepts either the attribute names or a :class:`TopKQuery`
        (whose model attributes and clipped region are taken). Building
        ahead of traffic keeps the one-time construction out of the
        first query's latency; the build is keyed on the current archive
        generation like every lazy build.

        **Depth.** Names alone peel ``PAPER_DEPTH`` (10) hull layers —
        what top-10 reads; a query peels ``max(10, query.k)``, deepening
        an index that is already cached but shallower (both within the
        cache's ``max_layers``). This is the one place an index gets
        deeper: a query whose ``k`` exceeds the depth it finds is
        answered exactly through the interior bucket, which ``auto``
        prices as a scan and routes elsewhere. Over a store, the index
        is opened from ``<store>.index/`` when an earlier process built
        it for the same window values, and published there otherwise.
        """
        self._check_archive_generation()
        k = 0
        if isinstance(attributes, TopKQuery):
            query = attributes
            names = tuple(query.model.attributes)
            region = query.clip_region(self.engine.stack.shape)
            k = query.k
        else:
            names = tuple(attributes)
            if region is None:
                rows, cols = self.engine.stack.shape
                region = (0, 0, rows, cols)
        return self.router.index_cache.get(
            region, names, self._seen_generation, k
        )

    def composite_top_k(
        self,
        query: CompositeQuery,
        k: int,
        strategy: str = "auto",
    ) -> "tuple[list[tuple[Assignment, float]], RoutingDecision]":
        """Answer a SPROC fuzzy composite query through the router.

        ``strategy`` is ``"auto"`` (cost-routed among the three SPROC
        implementations) or one of ``"naive"`` / ``"dp"`` / ``"fast"``.
        Returns the ``(assignment, score)`` answers plus the
        :class:`~repro.service.routing.RoutingDecision` that chose the
        implementation (with predicted-vs-actual seconds filled in). All
        three implementations return the same answer sets; the routing
        choice affects counted work only.
        """
        decision = self.router.route_composite(query, k, strategy=strategy)
        executors = {
            "naive": naive_top_k,
            "dp": sproc_top_k,
            "fast": fast_top_k,
        }
        counter = CostCounter()
        started = time.perf_counter()
        answers = executors[decision.chosen](query, k, counter=counter)
        self.router.observe(
            decision,
            seconds=time.perf_counter() - started,
            tuples_examined=counter.tuples_examined,
        )
        self.registry.inc("service.composite_queries")
        return answers, decision

    def _record(self, trace: QueryTrace) -> None:
        """Fold one finished trace into the metrics registry and export
        it. Batch children are folded into the registry individually but
        exported only once, inside their parent's trace tree."""
        sink = self._telemetry
        if sink is not None and trace.parent is None:
            sink.record(trace)
        registry = self.registry
        registry.inc("service.queries")
        if trace.cache_checked:
            registry.inc(
                "service.cache_hits" if trace.cache_hit
                else "service.cache_misses"
            )
        if not trace.complete:
            registry.inc("service.partial_results")
        if trace.cancel_reason is not None:
            registry.inc(f"service.cancelled.{trace.cancel_reason}")
        registry.observe("service.query_seconds", trace.wall_seconds)
        for stage, seconds in trace.stage_seconds().items():
            registry.observe(f"service.stage.{stage}_seconds", seconds)
        with self._lock:
            hit_rate = self.stats.hit_rate
        registry.gauge("service.cache_hit_rate", hit_rate)

    def __repr__(self) -> str:
        cached = len(self.cache) if self.cache is not None else 0
        return (
            f"RetrievalService(shape={self.engine.stack.shape}, "
            f"n_shards={self.n_shards}, cached={cached}, "
            f"queries={self.stats.queries})"
        )


def _check_knobs(pruning: str, n_shards: int | None) -> None:
    """Validate the knobs every strategy shares, once, at the door.

    Runs before stats, routing and the cache, so an invalid call is an
    error whatever the router would have picked and leaves no trace in
    the tallies, the probe schedule or a cache key.
    """
    if pruning not in ("sound", "heuristic"):
        raise QueryError(f"unknown pruning mode {pruning!r}")
    if n_shards is not None and n_shards < 1:
        raise QueryError(f"n_shards must be positive, got {n_shards}")


def _deadline_token(
    deadline_s: float | None, parent: CancellationToken | None
) -> CancellationToken | None:
    """``parent`` itself, or a deadline token chained onto it (whichever
    fires first stops the query)."""
    if deadline_s is None:
        return parent
    if deadline_s <= 0:
        raise QueryError(f"deadline_s must be positive, got {deadline_s}")
    return CancellationToken(deadline_s=deadline_s, parent=parent)


def _observed_tuples(result: RetrievalResult, query: TopKQuery) -> int:
    """Tuples a finished execution examined, for cost-model feedback.

    Onion/scan executions tally ``tuples_examined`` directly; the
    quadtree path counts window reads as data points, so its tuple
    count is derived as data points per attribute.
    """
    counter = result.counter
    if counter.tuples_examined:
        return counter.tuples_examined
    n_attrs = max(1, len(query.model.attributes))
    return int(counter.data_points // n_attrs)


def _broadcast(value, n_queries: int, name: str) -> list:
    """One knob value per query: a sequence is validated for length, a
    scalar is repeated. (Strings aren't knob sequences; none of the
    per-query knobs are string-typed.)"""
    if isinstance(value, (list, tuple)):
        if len(value) != n_queries:
            raise QueryError(
                f"{name} has {len(value)} entries for {n_queries} queries"
            )
        return list(value)
    return [value] * n_queries


def _batch_member_result(
    item: PlannedQuery,
    spec: BatchQuerySpec,
    group_size: int,
    child: QueryTrace,
) -> RetrievalResult:
    """Assemble one shared-scan member's result and per-query trace.

    The counter picks up the query's attributed share of the scan's
    wall clock (tallied beside, never into, the counted-work fields) and
    a ``batch_group`` note; the child trace gets a ``batch_search`` span
    of the same attributed duration, so summing child spans across the
    batch never exceeds the batch's wall time.
    """
    spec.counter.wall_seconds += spec.attributed_seconds
    spec.counter.note("batch_group", group_size)
    strategy = "both" if item.use_model_levels else "data-progressive"
    strategy += f"-batch[{group_size}]"
    if not spec.complete:
        strategy += "-partial"
        # The strategy suffix alone says only that it was truncated;
        # top_k_batch adds *why* (``retire_reason``) for every member.
        child.metadata["retired"] = f"batch[{group_size}]-partial"
    child.record_span("batch_search", spec.attributed_seconds)
    child.add_shard(
        shard=0,
        band=item.region,
        started_s=max(0.0, child.elapsed_s() - spec.attributed_seconds),
        wall_seconds=spec.attributed_seconds,
        tiles_screened=spec.audit.tiles_screened,
        tiles_pruned=spec.audit.tiles_pruned,
        total_work=spec.counter.total_work,
        complete=spec.complete,
    )
    return RetrievalResult(
        answers=ranked_answers(spec.heap, spec.query.maximize),
        counter=spec.counter,
        audit=spec.audit,
        strategy=strategy,
        complete=spec.complete,
    )


def _result_copy(
    source: RetrievalResult,
    strategy: str,
    trace: QueryTrace | None = None,
) -> RetrievalResult:
    """A defensive deep-ish copy: fresh answers list, copied counter and
    audit. ``ScoredLocation`` entries are frozen, so sharing them is
    safe; everything mutable is duplicated. The cache stores copies and
    serves copies, so no caller mutation can reach a stored entry."""
    return RetrievalResult(
        answers=list(source.answers),
        counter=source.counter.copy(),
        audit=source.audit.copy(),
        strategy=strategy,
        regret_bound=source.regret_bound,
        complete=source.complete,
        trace=trace,
    )
