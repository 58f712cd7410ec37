"""The retrieval service: one request pipeline behind a query cache.

This is the serving layer the ROADMAP's north star asks for on top of
the single-threaded engine. A :class:`RetrievalService` answers one
:class:`~repro.core.query.TopKQuery` (:meth:`RetrievalService.top_k`,
one :class:`_Request` under a root :class:`~repro.service.tracing
.QueryTrace`) or many (:meth:`RetrievalService.top_k_batch`, N under one
:class:`~repro.service.tracing.BatchTrace`) by the same stages — the
paper's flow (§4.2): a model query is admitted, matched to a
model-specific structure and answered top-K. A stage costs a request
the same either way:

1. **admit** — what can be refused from the query, the knobs and the
   stack's layer names is refused here, the same
   :class:`~repro.exceptions.QueryError` whichever strategy was asked
   for: an unknown strategy or pruning mode, a strategy of the other
   query family, a model attribute the stack lacks, a region off the grid.
2. **route** — a request not left on the default structure gets a
   :class:`~repro.service.routing.RoutingDecision` (``route`` span):
   ``"auto"`` picks by predicted wall time, a named strategy is checked.
3. **cache** — one fingerprint (model, clipped region, k, direction,
   fusion pair, knobs, and the strategy unless it is its family's
   default), one LRU lookup. A hit is answered here, a ``"-cached"``
   defensive copy, before anything else is built. Entries go when a
   watched archive's :attr:`~repro.data.archive.Archive.generation`
   moves (only those a dirty rectangle can have touched, when the
   archive names one) or on :meth:`RetrievalService.invalidate`.
4. **plan** — each miss gets, once, what its executor consumes: a
   missing Onion index or embedding grid under its own span (never on
   the router's clock), then the fusion spec (``plan``). The
   :class:`~repro.service.batching.BatchPlanner` groups >= 2
   default-structure misses over one region under sound pruning.
5. **execute** — one :meth:`~repro.core.engine.RasterRetrievalEngine
   .shared_scan_search` per group (a solo tile search is its group of
   one, so the exactness argument is "same code"); every other miss
   through its row of :data:`EXECUTORS`, the one table that says what a
   strategy is. Under ``"auto"`` a strategy that raises falls back to
   its family's default; a routed execution is reported to the router.
6. **store** — a complete answer is cached, as a copy; a partial never.
7. **record** — the trace is finished and :class:`ServiceStats` and the
   registry move, together and only here: a request that raised leaves
   both as it found them.

The default structure is the progressive tile search, optionally split
into disjoint row bands on one service-lifetime thread pool. Two or
more shards offer into one lock-protected :class:`SharedTopKHeap`, so a
discovery in any band raises the pruning threshold in every other, and
the per-shard counters and audits are merged into one result; one band
(the default) offers into a plain :class:`TopKHeap` and takes no lock.
Because every pruning test compares *strictly* against the shared
threshold and the smallest-``(row, col)`` tie-break is applied on every
offer, the answer set is the single-engine
:meth:`RasterRetrievalEngine.progressive_top_k` answer at every shard
count (property-tested, boundary ties included).
Heuristic pruning (``margin < 1``) is unsound by design, sharded or not.

Hardening (bounded-latency serving):

* **Deadlines and cancellation** — ``deadline_s=`` (or a caller-owned
  :class:`~repro.service.tracing.CancellationToken` via ``cancel=``)
  threads one token through every shard's branch-and-bound loop. When it
  fires, all shards stop at their next wave of frontier pops and the
  result is *partial*, flagged ``complete=False``: every score exact
  (offers only happen after exact evaluation), but possibly not the true
  top-K.
* **Tracing and metrics** — every answer carries its trace (sequential
  stage spans plus per-shard pruning stats) on ``result.trace``, folded
  into a :class:`~repro.metrics.registry.MetricsRegistry` (the
  process-wide one unless injected). Tracing never touches
  :class:`CostCounter` tallies: counted work is identical with it on.
* **Cache isolation** — entries are stored *and* served as defensive
  copies (fresh answer list, copied counter and audit), so a caller
  mutating a returned result can never corrupt later hits.
"""

from __future__ import annotations

import contextlib
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

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
from repro.index.vector import FlatIPIndex
from repro.metrics.counters import CostCounter
from repro.metrics.registry import MetricsRegistry, global_registry
from repro.service.batching import BatchPlanner
from repro.service.cache import QueryCache, query_fingerprint
from repro.service.routing import QueryRouter, RoutingDecision
from repro.service.sharding import row_band_shards
from repro.service.tracing import BatchTrace, CancellationToken, QueryTrace
from repro.telemetry.events import global_event_log
from repro.telemetry.export import TelemetrySink

if TYPE_CHECKING:
    import numpy as np

    from repro.index.onion_cache import BuiltOnion
    from repro.sproc.query import Assignment, CompositeQuery
    from repro.telemetry.explain import ExplainReport
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
        # One lock acquisition covers the whole block; the base entry
        # points touch self._heap directly, never the locked
        # offer/threshold wrappers (the lock is not reentrant).
        with self._lock:
            super().offer_block(scores, rows, cols)

    def offer_cells(self, scores, flat, width, origin=(0, 0)) -> None:
        with self._lock:
            super().offer_cells(scores, flat, width, origin)

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
    concurrent callers (the threaded-hammer regression test) — and in
    the record stage, beside the registry counters of the same names,
    so an answered request moves both and a rejected one neither.
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


@dataclass(slots=True)
class _Request:
    """One query on its way through the pipeline: the entry points fill
    the fields without a default from their arguments, and each stage
    reads what the stages before it left and fills in its own."""

    query: TopKQuery
    #: As requested; admission substitutes a fused query's default.
    strategy: str
    pruning: str
    heuristic_margin: float
    #: ``None`` until admission resolves it to the service's default.
    n_shards: int | None
    #: The caller's token, a deadline chained onto it; ``None`` for a
    #: query nothing can cut short.
    cancel: CancellationToken | None
    trace: QueryTrace
    region: tuple[int, int, int, int] | None = None
    #: The strategy that runs: the admitted one until the route stage
    #: (or a fallback) names another.
    resolved: str = ""
    decision: RoutingDecision | None = None
    #: Cache key; ``None`` while the request bypasses the cache.
    key: Hashable = None
    fusion: FusionSpec | None = None
    #: Seconds of the plan stage's per-query share (model check, fusion
    #: spec), which the router's sample includes; builds are excluded.
    plan_seconds: float = 0.0
    result: RetrievalResult | None = None


# -- executors and builds (the columns of EXECUTORS) ----------------------


def _plan_label(request: _Request) -> str:
    """The plan that ran: the service's tile search scores leaves
    densely (``both`` would mean the engine's level cascade). The label
    names the plan only: every plan scores and bounds in one arithmetic,
    so checking a reply needs no arithmetic read off it."""
    return request.resolved if request.fusion is not None else "data-progressive"


def _search_tiles(
    service: "RetrievalService", request: _Request
) -> RetrievalResult:
    """The progressive tile search over ``n_shards`` row bands, with (for
    a fused query) the fusion spec the plan stage left."""
    engine = service.engine
    query, trace, fusion = request.query, request.trace, request.fusion
    bands = row_band_shards(request.region, request.n_shards)
    # Only bands searched on several threads share a heap: one band
    # takes no lock.
    heap = TopKHeap(query.k) if len(bands) == 1 else SharedTopKHeap(query.k)
    counters = [CostCounter() for _ in bands]
    audits = [PruningAudit() for _ in bands]
    shard_complete = [True] * len(bands)

    def run_shard(index: int) -> None:
        band, counter, audit = bands[index], counters[index], audits[index]
        started_s = trace.elapsed_s()
        start = time.perf_counter()
        ok = engine.shard_search(
            query, band, heap, counter, audit,
            pruning=request.pruning,
            heuristic_margin=request.heuristic_margin,
            cancel=request.cancel, fusion=fusion,
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
                pool = service._shard_pool()
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
        strategy = _plan_label(request)
        if request.pruning == "heuristic":
            strategy += "-heuristic"
        strategy += f"-sharded[{len(bands)}]"
        if not complete:
            strategy += "-partial"
    return RetrievalResult(
        answers=answers, counter=total, audit=audit, strategy=strategy,
        complete=complete,
    )


def _search_onion(
    service: "RetrievalService", request: _Request
) -> RetrievalResult:
    """Onion-layer execution: candidate generation + exact re-score.

    The index is used purely as a *candidate generator* — the union
    of the outermost K hull layers, which the containment theorem
    guarantees holds the true top-K scores of any linear objective,
    and the next layers while :meth:`OnionIndex.reads_on` says a
    deeper cell may tie the K-th score and win it by its cell. The
    candidates are then re-scored through ``model.evaluate_batch``
    and offered into the engine's :class:`TopKHeap`: the same
    per-cell arithmetic and the same tie-break machinery as the
    quadtree and scan paths, which is what makes routed answers
    bit-identical to theirs.
    """
    query, region, trace = request.query, request.region, request.trace
    model = query.model
    with trace.span("index"):
        built = service.router.index_cache.get(
            region, tuple(model.attributes), service._seen_generation
        )
    counter = CostCounter()
    sign = 1.0 if query.maximize else -1.0
    heap = TopKHeap(query.k)
    # Region-local row-major flattening: local flat order is global
    # (row, col) lexicographic order restricted to the region, so
    # decoding (of the cells the heap keeps) preserves tie semantics.
    width = region[3] - region[1]

    def offer(rows: np.ndarray) -> np.ndarray:
        counter.add_tuples(int(rows.size))
        columns = {name: built.columns[name][rows] for name in model.attributes}
        counter.add_data_points(int(rows.size) * len(model.attributes))
        scores = sign * model.evaluate_batch(columns)
        counter.add_model_evals(int(rows.size), flops_each=model.complexity)
        heap.offer_cells(scores, rows, width, region[:2])
        return scores

    with trace.span("search"):
        with counter.timed():
            index = built.index
            layers = index.layers_needed(query.k)
            candidates = built.candidate_rows(query.k)
            scores = offer(candidates)
            n_candidates = int(candidates.size)
            last = scores[n_candidates - index.layer(layers - 1).size :]
            zero = not any(model.coefficients.values())
            while layers < index.n_layers and index.reads_on(
                layers - 1, last, heap.threshold, zero
            ):
                last = offer(index.layer(layers))
                n_candidates += last.size
                layers += 1
            counter.add_nodes(layers)
    with trace.span("merge"):
        answers = ranked_answers(heap, query.maximize)
        counter.note("onion_layers", layers)
        counter.note("onion_candidates", n_candidates)
    return RetrievalResult(
        answers=answers, counter=counter, strategy=request.resolved
    )


def _scan(
    service: "RetrievalService", request: _Request
) -> RetrievalResult:
    """Sequential-scan execution (the router's calibration oracles).

    :meth:`RasterRetrievalEngine.dense_top_k` cell for cell — the
    routine behind ``exhaustive_top_k`` — plus trace spans and the tuple
    tally the router reads. For a fused query this is embed-all-then-
    blend, the cosine-grid build and one blend per cell charged at the
    fused tile search's rates: ``tests/oracles.py`` mirrors it counter
    for counter and ``experiments/bench_embed.py`` (E11) holds that
    search to >= 3x fewer tuples than this scan.
    """
    query, region, fusion = request.query, request.region, request.fusion
    n_cells = (region[2] - region[0]) * (region[3] - region[1])
    counter = CostCounter()
    with request.trace.span("search"):
        with counter.timed():
            heap = service.engine.dense_top_k(query, region, counter, fusion)
            counter.add_tuples(n_cells)
            if fusion is not None:
                fusion.charge_build(counter)
                counter.add_partial_evals(
                    n_cells, flops_each=BLEND_FLOPS
                )
    with request.trace.span("merge"):
        answers = ranked_answers(heap, query.maximize)
    return RetrievalResult(
        answers=answers, counter=counter, strategy=request.resolved
    )


def _build_embeddings(service: "RetrievalService", request: _Request) -> None:
    """The tile embedding grid, when no fused query has built it yet."""
    if service._embeddings is None:
        with request.trace.span("embed_build"):
            service.embeddings()


def _build_index(service: "RetrievalService", request: _Request) -> None:
    """The Onion index over the request's window, when it is missing
    (deep enough for the request's ``k``)."""
    query = request.query
    key = (
        request.region, tuple(query.model.attributes),
        service._seen_generation,
    )
    if service.router.index_cache.peek(*key) is None:
        with request.trace.span("index_build"):
            service.router.index_cache.get(*key, k=query.k)


def _tallied_tuples(counter: CostCounter, query: TopKQuery) -> int:
    """Index and scan executions tally ``tuples_examined`` directly."""
    return counter.tuples_examined


def _window_tuples(counter: CostCounter, query: TopKQuery) -> int:
    """The tile search counts window reads as data points, so its tuple
    count is data points per attribute."""
    return int(counter.data_points // max(1, len(query.model.attributes)))


@dataclass(frozen=True)
class Executor:
    """One row of :data:`EXECUTORS`: what the pipeline knows about a
    strategy. Nothing else in the service names one."""

    #: The query family it answers: fused (``similar_to``) queries, or
    #: model-only ones.
    fused: bool
    #: How it runs: the answer to a planned request.
    run: Callable[["RetrievalService", _Request], RetrievalResult]
    #: Its family's default structure, the progressive tile search:
    #: what a query left on the default runs, what ``"auto"`` falls back
    #: to, whose entries keep the bare cache key (so routed and unrouted
    #: callers share them), and whose model the plan stage checks.
    default: bool = False
    #: What must exist before the clock starts, built when missing.
    prebuild: Callable[["RetrievalService", _Request], None] | None = None
    #: How the tuples it examined are read off its counter for the
    #: router's feedback.
    tuples: Callable[[CostCounter, TopKQuery], int] = _tallied_tuples


#: Strategy name -> executor: *the* place a strategy is added. The
#: strategies ``top_k`` accepts, the family legality rules, the default
#: and fallback per family, the cache-key rule, the builds kept off the
#: router's clock and the dispatch are all read off these rows. (The
#: router prices the same names in ``routing._PRIOR_RATES``; the wire
#: protocol lists them in ``protocol.STRATEGIES``.)
EXECUTORS: dict[str, Executor] = {
    "quadtree": Executor(
        fused=False, run=_search_tiles, default=True, tuples=_window_tuples
    ),
    "onion": Executor(fused=False, run=_search_onion, prebuild=_build_index),
    "scan": Executor(fused=False, run=_scan),
    "fused": Executor(
        fused=True, run=_search_tiles, default=True,
        prebuild=_build_embeddings, tuples=_window_tuples,
    ),
    "embed-scan": Executor(fused=True, run=_scan, prebuild=_build_embeddings),
}

#: Query family (``query.fused``) -> its default structure.
_FAMILY_DEFAULT = {
    row.fused: name for name, row in EXECUTORS.items() if row.default
}

#: What ``strategy=`` defaults to: a model-only query's default
#: structure, unrouted; admission reads it as "the family's default".
DEFAULT_STRATEGY = _FAMILY_DEFAULT[False]


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
        single-shard time (``service.shard_overhead_ratio`` in
        ``BENCHMARK.json``). A run on >= 4 cores (ROADMAP item 1(f))
        is what could reverse this.
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
        # Cost-based strategy router. Construction is
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

        def health() -> dict:
            with self._lock:
                return {
                    "queries": self.stats.queries,
                    "cache_hits": self.stats.cache_hits,
                    "partial_results": self.stats.partial_results,
                    "batches": self.stats.batches,
                }

        # Check and create under one hold of the (reentrant) lock: two
        # concurrent first callers must not each bind a socket.
        with self._lock:
            if self._metrics_server is None:
                self._metrics_server = MetricsServer(
                    registry=self.registry,
                    sink=self.enable_telemetry(),
                    health=health,
                    host=host,
                    port=port,
                ).start()
            return self._metrics_server

    @classmethod
    def from_archive(
        cls, archive: Archive, layers: list[str], **kwargs
    ) -> "RetrievalService":
        """Service over an archive's named raster layers, watching the
        archive so later ``add`` calls invalidate the cache."""
        return cls(archive.stack(layers), archive=archive, **kwargs)

    def invalidate(self) -> None:
        """Explicitly re-derive the screen and drop every cached answer
        and built index.

        The engine's screen envelopes are the pruning bounds, not a
        cache, so they are first re-derived over the whole grid (the
        refresh of :meth:`invalidate_region`, everywhere): a service
        that lost track of where the archive changed must not prune
        against envelopes from before it. The router's Onion indexes
        and the tile embedding grid are dropped unconditionally (they
        are derived from the archive exactly like cached answers); the
        result cache part — including the ``invalidations`` tally — is
        a no-op when caching is disabled, since there is nothing to
        invalidate there.
        """
        self.engine.screen.refresh_region((0, 0) + self.engine.stack.shape)
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
            if mutations is None or any(r is None for _, r in mutations):
                # The archive's bounded log no longer covers our lag, or
                # a mutation cannot be scoped: full invalidation is the
                # only sound answer, and once covers every mutation.
                self.invalidate()
                return
            for _mutation_generation, region in mutations:
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
        self, cell: tuple[int, int], k: int = 5
    ) -> list[ScoredLocation]:
        """Pure query-by-example: tiles most similar to ``cell``'s tile.

        Equivalent to ``top_k`` with ``alpha=0`` but at tile
        granularity: answers are tile-origin cells scored by cosine,
        from one exact scan of every tile vector (a service has a few
        thousand of them at most, so the scan is microseconds).
        """
        embeddings = self.embeddings()
        ranked = FlatIPIndex.from_embeddings(embeddings).search(
            embeddings.tile_vector(cell), k
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

    def top_k(
        self,
        query: TopKQuery,
        n_shards: int | None = None,
        pruning: str = "sound",
        heuristic_margin: float = 0.7,
        use_cache: bool = True,
        deadline_s: float | None = None,
        cancel: CancellationToken | None = None,
        explain: bool = False,
        strategy: str = DEFAULT_STRATEGY,
        trace_id: str | None = None,
    ) -> "RetrievalResult | ExplainReport":
        """Answer ``query`` through the cache and the shard pool.

        The answer set is identical to the single-engine
        ``progressive_top_k`` result (for sound pruning) at every shard
        count. The tile search scores its leaves densely, for every
        model family: the engine's level cascade reads fewer values but
        costs the served models wall time (DESIGN §6), so the service
        never runs it and the label reads ``data-progressive``. A cache
        hit returns a defensive copy of the stored result with its
        original work counter — the work that *was* done to compute it —
        and ``"-cached"`` appended to the strategy label; mutating any
        returned result never affects later hits.

        ``strategy`` selects the execution structure (a row of
        :data:`EXECUTORS`, or ``"auto"``); what none of them can answer
        — a model attribute the stack lacks, a region off the grid — is
        the same :class:`~repro.exceptions.QueryError` for all:

        * ``"quadtree"`` (default) — the sharded progressive tile
          search, unrouted.
        * ``"auto"`` — the cost-based :class:`~repro.service.routing
          .QueryRouter` predicts the wall time of sequential scan,
          quadtree, and Onion-layer top-K from their measured executions
          and runs the fastest eligible one — or, on a counted schedule
          and never under ``deadline_s`` / ``cancel``, a rival it wants
          measured. Should the chosen index error mid-query, the service
          falls back to the quadtree path and records the reason.
          Answers (cells and order) are identical to every forced
          strategy's (property-tested); the full decision — candidates
          with predicted seconds and sample counts, chosen strategy,
          whether it was a probe, predicted vs actual seconds, fallback
          reason — rides on ``result.trace.metadata["routing"]`` and in
          the ``explain=True`` waterfall.
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

        A routed strategy builds a missing Onion index on first use
        (cached per (region, attributes) and archive generation). Build
        time is never charged to query counters, matching the paper's
        amortized convention.

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
        request = _Request(
            query, strategy, pruning, heuristic_margin, n_shards,
            _deadline_token(deadline_s, cancel),
            # ``trace_id`` lets a fronting process (the HTTP fleet) stamp
            # its correlation id on the worker-side trace, so one id
            # follows a request from admission to shard search.
            QueryTrace(trace_id=trace_id),
        )
        self._serve([request], use_cache)
        if explain:
            # Loaded here: no fleet request asks for a waterfall.
            from repro.telemetry.explain import explain_result

            return explain_result(request.result, query, request.region)
        return request.result

    def top_k_batch(
        self,
        queries: Sequence[TopKQuery],
        *,
        n_shards: int | None = None,
        pruning: str = "sound",
        heuristic_margin: float = 0.7,
        use_cache: bool = True,
        deadline_s: "float | Sequence[float | None] | None" = None,
        cancel: (
            "CancellationToken | Sequence[CancellationToken | None] | None"
        ) = None,
        trace_id: str | None = None,
    ) -> list[RetrievalResult]:
        """Answer many queries, sharing one region's scan where legal.

        Results come back in input order, each bit-for-bit identical —
        answers, orderings, tie-breaks, and counted work — to what
        :meth:`top_k` would return for that query alone (a batch member
        runs the engine's one search step, the very step its solo search
        runs, bounding every node as its solo search does; see
        DESIGN.md). The members go through the stages :meth:`top_k` goes
        through (module docstring), every member on its default
        structure; what a batch adds:

        * **Fail-fast.** Every member is admitted, and every miss
          planned, before any member executes: an unanswerable query
          raises :class:`~repro.exceptions.QueryError` for the whole
          batch and leaves the tallies untouched.
        * **Shared scans.** The
          :class:`~repro.service.batching.BatchPlanner` groups misses by
          clipped region; groups of >= 2 interval-boundable models share
          one :meth:`~repro.core.engine.RasterRetrievalEngine
          .shared_scan_search` (``"-batch[N]"``): the region's cover,
          built once, and round-robin turns on it. Everything else
          (lone regions, fused members, ``pruning="heuristic"``) runs as
          it would alone. Each member keeps its own heap,
          counter, audit, and cancel token, so counted work stays
          attributable and a deadline retires *its* query prefix-soundly
          (``complete=False``, ``"-partial"``, never cached) while the
          rest of the group finishes exactly.

        ``deadline_s`` and ``cancel`` accept either one value for the
        whole batch or a sequence with one entry per query. Deadlines
        are measured from batch start. ``n_shards`` only shapes members
        that run alone; shared scans are single-threaded by
        construction. Each result's trace hangs off the batch's
        :class:`~repro.service.tracing.BatchTrace`.
        """
        queries = list(queries)
        n_queries = len(queries)
        if n_queries == 0:
            return []
        deadlines = _broadcast(deadline_s, n_queries, "deadline_s")
        cancels = _broadcast(cancel, n_queries, "cancel")
        batch = BatchTrace(batch_size=n_queries, trace_id=trace_id)
        requests = [
            _Request(
                query, DEFAULT_STRATEGY, pruning, heuristic_margin, n_shards,
                _deadline_token(deadline, parent), batch.child(),
            )
            for query, deadline, parent in zip(queries, deadlines, cancels)
        ]
        batched = self._serve(requests, use_cache, batch)
        results = [request.result for request in requests]
        batch.finish(complete=all(result.complete for result in results))
        sink = self._telemetry
        if sink is not None:
            sink.record(batch)
        with self._lock:
            self.stats.batches += 1
            self.stats.batched_queries += batched
        registry = self.registry
        registry.inc("service.batches")
        if batched:
            registry.inc("service.batched_queries", batched)
        registry.observe("service.batch_seconds", batch.wall_seconds)
        registry.observe("service.batch_size", float(n_queries))
        return results

    # -- the pipeline's stages, over one _Request per query ----------------

    def _admit(self, request: _Request) -> None:
        """Reject what no strategy can answer; resolve the rest. Runs
        before routing, the cache and every tally, so a client's mistake
        is the same error whatever the router would have picked, and
        leaves no trace in the tallies, the probe schedule or a key."""
        query, strategy = request.query, request.strategy
        if request.pruning not in ("sound", "heuristic"):
            raise QueryError(f"unknown pruning mode {request.pruning!r}")
        if request.n_shards is None:
            request.n_shards = self.n_shards
        elif request.n_shards < 1:
            raise QueryError(
                f"n_shards must be positive, got {request.n_shards}"
            )
        if strategy == DEFAULT_STRATEGY:
            # A fused query's default structure *is* the fused tile
            # search — same frontier, blended bounds.
            strategy = request.strategy = _FAMILY_DEFAULT[query.fused]
        elif strategy != "auto":
            if strategy not in EXECUTORS:
                raise QueryError(
                    f"unknown strategy {strategy!r}; expected 'auto' or "
                    f"one of {tuple(EXECUTORS)}"
                )
            if EXECUTORS[strategy].fused != query.fused:
                family = tuple(
                    n for n, e in EXECUTORS.items() if e.fused == query.fused
                )
                raise QueryError(
                    f"strategy {strategy!r} cannot answer a "
                    + ("fused (similar_to)" if query.fused else "model-only")
                    + " query (a fused one carries a similar_to example "
                    f"cell with alpha < 1); use 'auto' or one of {family}"
                )
        self.engine.require_attributes(query.model)
        request.region = query.clip_region(self.engine.stack.shape)
        request.resolved = strategy

    def _serve(
        self,
        requests: list[_Request],
        use_cache: bool,
        batch: BatchTrace | None = None,
    ) -> int:
        """Take requests through every stage, leaving each one's answer
        on ``request.result``. A batch's stages are spans of its trace
        as well; returns how many requests rode a shared scan."""
        stage = batch.span if batch is not None else contextlib.nullcontext
        caching = use_cache and self.cache is not None
        for request in requests:
            self._admit(request)
        # Once, ahead of both readers: routing must see the fresh
        # generation (a stale index is never scored as already built)
        # and the cache must have dropped what a mutation invalidated.
        self._check_archive_generation()
        for request in requests:
            if request.strategy != DEFAULT_STRATEGY:
                self._route(request)
        with stage("cache_lookup"):
            misses = [r for r in requests if not self._lookup(r, caching)]
        batched = 0
        if misses:
            with stage("plan"):
                # Every miss is prepared before any of them runs, so a
                # bad member can never leave a batch half-executed.
                for request in misses:
                    try:
                        self._prepare(request)
                    except Exception as error:
                        self._fall_back(request, error)
                plan = self._planner.plan(misses, pruning=misses[0].pruning)
            batched = plan.batched
            for group in plan.groups:
                with stage("search"):
                    self._scan_group(group)
            for request in plan.singletons:
                self._execute(request)
            if caching:
                with stage("cache_store"):
                    for request in misses:
                        self._store(request)
        for request in requests:
            self._record(request)
        return batched

    def _route(self, request: _Request) -> None:
        trace = request.trace
        with trace.span("route"):
            decision = self.router.route(
                request.query,
                request.region,
                strategy=request.strategy,
                generation=self._seen_generation,
                # A probe runs a strategy predicted slower; a query that
                # may be cut short must never be the one that pays.
                probe=request.cancel is None,
            )
            request.decision = decision
            request.resolved = decision.chosen
            trace.metadata["routing"] = decision.as_dict()

    def _cache_key(self, request: _Request) -> Hashable:
        knobs = {
            "pruning": request.pruning,
            "heuristic_margin": request.heuristic_margin,
        }
        # A family's default structure keeps the bare key, so routed and
        # unrouted callers share entries (the answers are identical; the
        # similar_to/alpha pair in the fingerprint already separates
        # fused entries from model-only ones). Other strategies answer
        # with different counted work and carry their own entries.
        if not EXECUTORS[request.resolved].default:
            knobs["strategy"] = request.resolved
        return query_fingerprint(request.query, request.region, **knobs)

    def _lookup(self, request: _Request, caching: bool) -> bool:
        """The cache stage for one request; True when a hit answered it
        (finished here, so its wall time is the hit's own)."""
        trace = request.trace
        hit: RetrievalResult | None = None
        with trace.span("cache_lookup"):
            if caching:
                request.key = self._cache_key(request)
                trace.cache_checked = True
                hit = self.cache.get(request.key)
        if hit is None:
            return False
        trace.cache_hit = True
        trace.finish(complete=hit.complete)
        request.result = _result_copy(
            hit, strategy=hit.strategy + "-cached", trace=trace
        )
        return True

    def _prepare(self, request: _Request) -> None:
        """Put on the record what ``request.resolved`` will consume.

        What it needs built once per process or generation comes first,
        under its own span and off the clock: the router learns from a
        query's own seconds, and a one-off build charged to whichever
        strategy happened to run first would be held against it for good.
        """
        executor = EXECUTORS[request.resolved]
        if executor.prebuild is not None:
            executor.prebuild(self, request)
        if not (executor.default or executor.fused):
            return
        query, trace = request.query, request.trace
        started = time.perf_counter()
        with trace.span("plan"):
            # The tile search scores leaves densely, so it needs only
            # node bounds: on the served models the level cascade reads
            # fewer values but costs more wall time (DESIGN §6, "Where
            # the cascade pays").
            if executor.default:
                self.engine.require_intervals(query.model)
            if executor.fused:
                request.fusion = self._fusion_spec(query, trace)
        request.plan_seconds = time.perf_counter() - started

    def _fall_back(self, request: _Request, error: Exception) -> None:
        """Graceful degradation: re-aim an ``"auto"`` request whose
        strategy raised at its family's always-capable default, noting
        why on the decision. Re-raises for a forced strategy (the caller
        asked for that structure) and when the default itself failed.
        The answer is cached under the *fallback's* key — that is what
        answers — never under the failed strategy's.
        """
        fallback = _FAMILY_DEFAULT[request.query.fused]
        if request.strategy != "auto" or request.resolved == fallback:
            raise error
        request.decision.record_fallback(
            failed=request.resolved,
            reason=f"{type(error).__name__}: {error}",
            to=fallback,
        )
        request.resolved = fallback
        if request.key is not None:
            request.key = self._cache_key(request)
        self._prepare(request)

    def _scan_group(self, group: list[_Request]) -> None:
        """One shared scan answering a planner group."""
        specs = [
            BatchQuerySpec(
                query=request.query,
                heap=TopKHeap(request.query.k),
                counter=CostCounter(),
                audit=PruningAudit(),
                cancel=request.cancel,
            )
            for request in group
        ]
        first = group[0]
        self.engine.shared_scan_search(
            specs, first.region, pruning=first.pruning,
            heuristic_margin=first.heuristic_margin,
        )
        for request, spec in zip(group, specs):
            request.result = _batch_member_result(request, spec, len(group))

    def _execute(self, request: _Request) -> None:
        """Run one miss through its row of :data:`EXECUTORS`; a routed
        execution's seconds (the fallback's own after a fallback, never
        the failed attempt's) and tuples are reported to the router."""
        started = time.perf_counter()
        try:
            result = EXECUTORS[request.resolved].run(self, request)
        except Exception as error:
            self._fall_back(request, error)
            started = time.perf_counter()
            result = EXECUTORS[request.resolved].run(self, request)
        seconds = request.plan_seconds + time.perf_counter() - started
        request.result = result
        decision = request.decision
        if decision is not None:
            tuples = EXECUTORS[request.resolved].tuples
            self.router.observe(
                decision,
                seconds=seconds,
                tuples_examined=tuples(result.counter, request.query),
                complete=result.complete,
            )
            request.trace.metadata["routing"] = decision.as_dict()

    def _store(self, request: _Request) -> None:
        result = request.result
        if not result.complete:
            # A partial (deadline-truncated) answer must never be served
            # to a later query that had no deadline.
            return
        region, fusion = request.region, request.fusion
        if fusion is not None:
            # A fused answer reads the query region *and* the example
            # tile (its vector is the similarity target), so the entry
            # covers their bounding box and a mutation under the example
            # tile invalidates it. The bbox over-approximates (cells
            # between the two rectangles also hit it), which only costs
            # extra invalidation, never a stale answer.
            window = fusion.example_window
            region = (
                min(region[0], window[0]),
                min(region[1], window[1]),
                max(region[2], window[2]),
                max(region[3], window[3]),
            )
        with request.trace.span("cache_store"):
            # The stored entry is a copy, so the caller may freely
            # mutate the returned one.
            self.cache.put(
                request.key, _result_copy(result, result.strategy),
                region=region,
            )

    def _record(self, request: _Request) -> None:
        """Where every answered request ends: an executed one's trace
        is finished and attached, the tallies and the registry counters
        of the same names move together, the trace is exported (a batch
        child once, inside its parent's tree)."""
        trace, result = request.trace, request.result
        if not trace.cache_hit:
            token = request.cancel
            reason = token.reason if token is not None else None
            if not result.complete:
                # Why it was truncated (deadline vs explicit cancel) —
                # exported with the trace so a retired "-partial" answer
                # is diagnosable after the fact.
                trace.metadata["retire_reason"] = reason or "cancelled"
            trace.finish(complete=result.complete, cancel_reason=reason)
            result.trace = trace
        stats, registry = self.stats, self.registry
        with self._lock:
            stats.queries += 1
            if trace.cache_hit:
                stats.cache_hits += 1
            elif trace.cache_checked:
                stats.cache_misses += 1
            if not trace.complete:
                stats.partial_results += 1
            hit_rate = stats.hit_rate
        sink = self._telemetry
        if sink is not None and trace.parent is None:
            sink.record(trace)
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
        for name, seconds in trace.stage_seconds().items():
            registry.observe(f"service.stage.{name}_seconds", seconds)
        registry.gauge("service.cache_hit_rate", hit_rate)

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
        # Loaded here: the wire carries no composite query, so a worker
        # never loads SPROC.
        from repro.sproc.arbitration import composite_top_k

        answers, decision = composite_top_k(self.router, query, k, strategy)
        self.registry.inc("service.composite_queries")
        return answers, decision

    def __repr__(self) -> str:
        cached = len(self.cache) if self.cache is not None else 0
        return (
            f"RetrievalService(shape={self.engine.stack.shape}, "
            f"n_shards={self.n_shards}, cached={cached}, "
            f"queries={self.stats.queries})"
        )


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
    request: _Request, spec: BatchQuerySpec, group_size: int
) -> RetrievalResult:
    """Assemble one shared-scan member's result and per-query trace.

    The counter picks up the query's attributed share of the scan's
    wall clock (tallied beside, never into, the counted-work fields) and
    a ``batch_group`` note; the child trace gets a ``batch_search`` span
    of the same attributed duration, so summing child spans across the
    batch never exceeds the batch's wall time.
    """
    child = request.trace
    spec.counter.wall_seconds += spec.attributed_seconds
    spec.counter.note("batch_group", group_size)
    strategy = _plan_label(request) + f"-batch[{group_size}]"
    if not spec.complete:
        strategy += "-partial"
        # The strategy suffix alone says only that it was truncated;
        # the record stage adds *why* (``retire_reason``).
        child.metadata["retired"] = f"batch[{group_size}]-partial"
    child.record_span("batch_search", spec.attributed_seconds)
    child.add_shard(
        shard=0,
        band=request.region,
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
