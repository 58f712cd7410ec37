"""Cost-based query routing over the paper's model-specific indexes.

The paper's headline numbers come from *model-specific* access methods —
Onion layers for linear top-K (ref [11], quoted at 13,000x over scan)
and SPROC for fuzzy composite queries (refs [15, 16]) — yet a serving
layer must pick a structure per query: the best choice depends on the
model family, K, the region size, and whether an index is already built.
This module is that chooser, in the score-candidates-and-explain shape
of cost-based optimizers:

* :class:`CostModel` — one wall-time predictor per strategy: seconds
  per size unit (region cells; candidate tuples for Onion; the
  ``O(M*K*L^2)`` / ``O(L^M)`` formulas for SPROC), the lower median of a
  short window of measured executions per size class, with a static
  prior until a strategy has been measured twice. Mirrored into a
  :class:`~repro.metrics.registry.MetricsRegistry` (``router.*``).
* :class:`OnionIndexCache` — build/refresh hook for per-(region,
  attributes) Onion indexes, keyed on the archive generation so a
  mutated archive transparently rebuilds.
* :class:`QueryRouter` — scores every candidate strategy for a query
  (including ineligible ones, with the reason), picks the eligible one
  predicted fastest — or, on a counted schedule, probes a rival so no
  strategy starves — and packages the whole comparison as a
  :class:`RoutingDecision` that the service surfaces in trace metadata
  and the explain waterfall.

Routing never changes answers: every routable strategy is exact and
shares the engine's tie-break convention (equal signed score -> smallest
``(row, col)``), so the router's choice affects counted work and wall
time only — property-tested bit-identical in
``tests/test_service_routing.py``.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import math
import os
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.query import TopKQuery
from repro.data.raster import RasterStack
from repro.data.table import Table
from repro.exceptions import QueryError
from repro.index.onion import OnionIndex
from repro.metrics.registry import MetricsRegistry, global_registry
from repro.models.linear import LinearModel
from repro.service.cache import regions_intersect
from repro.sproc.query import CompositeQuery
from repro.telemetry.events import global_event_log

#: The composite (SPROC) family, routed by
#: :meth:`QueryRouter.route_composite`. The raster and fused strategies
#: are the rows of :data:`repro.service.retrieval.EXECUTORS`; the router
#: only prices them (:data:`_PRIOR_RATES`) and says who may bid.
COMPOSITE_STRATEGIES = ("naive", "dp", "fast")

#: Prior seconds per size unit, read off the benchmark box once: region
#: cells for quadtree/scan/fused/embed-scan, candidate tuples for onion,
#: formula work units for the SPROC family. They only order strategies
#: nobody has measured yet; a window's second sample replaces them.
#: ``onion-build`` (hull peeling, per region cell) is charged to an
#: unbuilt index, so one query never triggers a build.
_PRIOR_RATES = {
    "quadtree": 1.5e-8,
    "scan": 2e-8,
    "onion": 4e-8,
    "onion-build": 3e-5,
    "fused": 1.6e-8,
    "embed-scan": 2.5e-8,
    "naive": 2e-7,
    "dp": 2e-7,
    "fast": 4e-7,
}

#: Samples a window keeps. Odd, so the median is a measured sample; nine
#: lets four outliers pass and is refilled within nine queries.
_WINDOW = 9

#: Samples before a window is believed: a strategy's first execution in
#: a process is usually its coldest, and the lower median of two is the
#: warmer one.
_MIN_SAMPLES = 2

#: Every this-many auto decisions of a family the runner-up is measured
#: instead of the preferred strategy: about 1 % of queries, and prime so
#: a periodic request mix does not always pay the probe at one position.
_PROBE_EVERY = 101

#: A probe may be predicted at most this many times the preferred
#: strategy's seconds, so probing adds at most 3/101 of wall time and an
#: O(L^M) enumeration is never "measured".
_PROBE_MAX_RATIO = 4.0


def _bucket(size: float) -> int:
    """The factor-four size class a sample is filed under (pruning
    strategies are sublinear in region cells, so one rate per strategy
    would mispredict across window sizes)."""
    return math.frexp(size)[1] // 2


@dataclass(frozen=True)
class StrategyCandidate:
    """One strategy's scored bid for a query.

    Ineligible candidates keep their ``reason`` so the routing decision
    explains *why* a structure was passed over, not just that it was.
    ``size`` is the predictor's size variable (region cells, or Onion
    candidate tuples), ``samples`` how many measured executions of that
    size class back ``predicted_seconds`` (fewer than two: a prior);
    ``predicted_seconds`` is ``None`` for ineligible candidates.
    ``built`` is False for an index that running the strategy would
    first have to build (its prediction then includes the build).
    """

    name: str
    eligible: bool
    reason: str | None = None
    size: int = 0
    predicted_seconds: float | None = None
    samples: int = 0
    built: bool = True

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "eligible": self.eligible,
            "reason": self.reason,
            "size": self.size,
            "predicted_seconds": self.predicted_seconds,
            "samples": self.samples,
            "built": self.built,
        }


def _rejected(name: str, reason: str) -> StrategyCandidate:
    return StrategyCandidate(name=name, eligible=False, reason=reason)


@dataclass
class RoutingDecision:
    """The router's full comparison for one query.

    ``chosen`` is the strategy that ran (after any fallback);
    ``routed`` is what the router picked and ``preferred`` what the cost
    model predicted fastest — they differ only on a probe, when
    ``probe`` says why another strategy was measured (``"warm-up"`` or
    ``"runner-up"``). ``forced`` is True when the caller named a
    strategy instead of asking for ``"auto"`` (the candidates are still
    scored). ``actual_seconds`` / ``actual_tuples`` are filled in after
    execution, for the explain waterfall's predicted-vs-actual view.
    """

    chosen: str
    routed: str
    preferred: str
    candidates: list[StrategyCandidate]
    forced: bool = False
    probe: str | None = None
    generation: int | None = None
    predicted_seconds: float | None = None
    fallback_from: str | None = None
    fallback_reason: str | None = None
    actual_seconds: float | None = None
    actual_tuples: int | None = None

    def record_fallback(self, failed: str, reason: str, to: str) -> None:
        """Note that ``failed`` errored and ``to`` answered instead."""
        self.fallback_from = failed
        self.fallback_reason = reason
        self.chosen = to

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view, exported verbatim in trace metadata."""
        return {
            "chosen": self.chosen,
            "routed": self.routed,
            "preferred": self.preferred,
            "probe": self.probe,
            "forced": self.forced,
            "generation": self.generation,
            "predicted_seconds": self.predicted_seconds,
            "actual_seconds": self.actual_seconds,
            "actual_tuples": self.actual_tuples,
            "fallback_from": self.fallback_from,
            "fallback_reason": self.fallback_reason,
            "candidates": [c.as_dict() for c in self.candidates],
        }


class CostModel:
    """One wall-time predictor per strategy, learned from executions.

    ``observe`` files a measured execution's seconds-per-size-unit under
    the strategy and the size class; ``score`` multiplies a size by
    the lower median of that class's recent samples (noise on a timing
    is one-sided, so of two middle samples the smaller is the warmer).
    A class with fewer than two samples borrows the nearest believed
    class's rate, and a strategy nobody has measured falls back on its
    prior. Rates and observation counts are mirrored into the registry
    under ``router.cost.<strategy>`` / ``router.observations.<strategy>``.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else global_registry()
        self._windows: dict[str, dict[int, deque[float]]] = {
            name: {} for name in _PRIOR_RATES
        }
        # Lower median of every believed window, kept current by observe
        # (a query is routed more often than a strategy is measured).
        self._rates: dict[str, dict[int, float]] = {
            name: {} for name in _PRIOR_RATES
        }
        self._pinned: dict[str, float] = {}
        self._lock = threading.Lock()

    def score(self, strategy: str, size: float) -> tuple[float, int]:
        """Predicted seconds for ``strategy`` on a query of ``size``, and
        the measured executions in that size class behind it."""
        here = _bucket(size)
        with self._lock:
            try:
                rates = self._rates[strategy]
            except KeyError:
                raise QueryError(f"unknown strategy {strategy!r}") from None
            rate = self._pinned.get(strategy)
            if rate is None:
                rate = rates.get(here)
            if rate is None:
                rate = (
                    rates[min(rates, key=lambda bucket: abs(bucket - here))]
                    if rates
                    else _PRIOR_RATES[strategy]
                )
            samples = len(self._windows[strategy].get(here, ()))
        return rate * max(0.0, size), samples

    def observe(self, strategy: str, size: float, seconds: float) -> None:
        """File one measured execution under the strategy's size class."""
        if strategy not in self._windows:
            raise QueryError(f"unknown strategy {strategy!r}")
        if size <= 0 or seconds < 0:
            return
        bucket = _bucket(size)
        with self._lock:
            window = self._windows[strategy].setdefault(
                bucket, deque(maxlen=_WINDOW)
            )
            window.append(seconds / size)
            rate = statistics.median_low(window)
            if len(window) >= _MIN_SAMPLES:
                self._rates[strategy][bucket] = rate
        self.registry.gauge(f"router.cost.{strategy}", rate)
        self.registry.inc(f"router.observations.{strategy}")

    def pin(self, strategy: str, rate: float) -> None:
        """Fix ``strategy``'s seconds per size unit, whatever is observed
        later (tests steer the router with this; nothing else does)."""
        if strategy not in self._windows:
            raise QueryError(f"unknown strategy {strategy!r}")
        with self._lock:
            self._pinned[strategy] = rate


@dataclass
class BuiltOnion:
    """One built Onion index plus the flattened region it covers.

    ``columns`` holds each attribute's region window flattened row-major,
    so local row ``i`` maps to the global cell
    ``(row0 + i // width, col0 + i % width)`` — region-local row-major
    order *is* global ``(row, col)`` lexicographic order restricted to
    the region, which is what keeps index-side tie-breaks aligned with
    the engine's.
    """

    index: OnionIndex
    columns: dict[str, np.ndarray]
    region: tuple[int, int, int, int]
    generation: int | None
    build_seconds: float
    n_cells: int
    #: The file this index is published as (``None``: nothing persists).
    sidecar: Path | None = None

    def candidate_rows(self, k: int) -> np.ndarray:
        """Local rows guaranteed to contain the top-``k`` of any linear
        objective: the layers :meth:`OnionIndex.layers_needed` names."""
        index = self.index
        return np.concatenate(
            [index.layer(i) for i in range(index.layers_needed(k))]
        )

    def candidate_count(self, k: int) -> int:
        sizes = self.index.layer_sizes()
        return int(sum(sizes[: self.index.layers_needed(k)]))


#: Hull layers every cached index is peeled to at least: top-10 is the
#: paper's deepest reported operating point (1,400x), and a top-k query
#: reads k layers. Peeling is where a cold start goes — on the
#: benchmark's 192 x 192 x 4 window (36,864 tuples, fat layers: 293,
#: 494, 676 ... tuples) one Qhull run per layer costs about 30 ms:
#:
#:     hull layers       1      5      10     19     31
#:     build seconds     0.05   0.16   0.32   0.63   0.93
#:     top-10 reads      all    all    8,618  8,618  8,618
#:
#: and layers 11+ are read by nobody who did not ask for them. A caller
#: that names a deeper k (``warm_index(TopKQuery)``, a forced
#: ``strategy="onion"`` on an unbuilt key) gets ``k`` layers instead.
PAPER_DEPTH = 10

#: Bumped when the sidecar's arrays or the digest's ingredients change;
#: part of the digest, so an old file is simply never asked for again.
SIDECAR_VERSION = 1


def _sidecar_name(
    attributes: tuple[str, ...],
    shape: tuple[int, int],
    columns: dict[str, np.ndarray],
) -> str:
    """File name of the index over exactly these window values: the
    name *is* the invalidation — a window that changed asks for a
    different file, so a stale one is never opened."""
    digest = hashlib.blake2b(
        repr((SIDECAR_VERSION, attributes, shape)).encode(), digest_size=16
    )
    for name in attributes:
        digest.update(columns[name].dtype.str.encode())
        digest.update(columns[name])
    return f"onion-{digest.hexdigest()}.npz"


def _open_sidecar(
    path: Path, table: Table, attributes: tuple[str, ...]
) -> OnionIndex | None:
    """The index published at ``path``, or ``None`` when there is none
    or it does not check out (reported as ``index.sidecar_rejected``)."""
    try:
        # Opened here: np.load leaves a path it cannot parse open.
        with open(path, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as data:
            version = int(data["version"])
            max_layers = int(data["max_layers"])
            layer_of = data["layer_of"]
    except FileNotFoundError:
        return None
    except Exception as error:  # noqa: BLE001 - any unreadable file is a miss
        fault = f"{type(error).__name__}: {error}"
    else:
        fault = _sidecar_fault(version, max_layers, layer_of, len(table))
        if fault is None:
            return OnionIndex(
                table,
                attributes=list(attributes),
                max_layers=max_layers,
                layer_of=layer_of.astype(np.intp),
            )
    global_event_log().emit(
        "index.sidecar_rejected", "warning", path=str(path), reason=fault
    )
    return None


def _sidecar_fault(
    version: int, max_layers: int, layer_of: np.ndarray, n_rows: int
) -> str | None:
    """Why these sidecar contents cannot be an index over ``n_rows``
    tuples (``None``: they can)."""
    if version != SIDECAR_VERSION:
        return f"version {version}, expected {SIDECAR_VERSION}"
    if layer_of.dtype != np.int16 or layer_of.shape != (n_rows,):
        return f"layer_of is {layer_of.dtype}{layer_of.shape}"
    if layer_of.min() < 0 or layer_of.max() >= max_layers:
        return f"layer numbers outside 0..{max_layers - 1}"
    if not np.bincount(layer_of).all():
        return "an empty layer"
    return None


def _publish_sidecar(path: Path, index: OnionIndex) -> None:
    """Write ``index`` to ``path`` so that a reader sees all of it or
    none (own temp file, then rename). A write that fails is reported
    (``index.sidecar_write_failed``) and otherwise ignored: the index
    is already in memory."""
    if index.n_layers > np.iinfo(np.int16).max:
        return
    temp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(temp, "wb") as handle:
                np.savez(
                    handle,
                    version=SIDECAR_VERSION,
                    max_layers=index.max_layers,
                    layer_of=index.layer_of().astype(np.int16),
                )
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)  # gone already once renamed
    except OSError as error:
        global_event_log().emit(
            "index.sidecar_write_failed",
            "warning",
            path=str(path),
            reason=f"{type(error).__name__}: {error}",
        )


class OnionIndexCache:
    """Build/refresh hook for per-(region, attributes) Onion indexes.

    Entries are keyed on the clipped region plus the attribute tuple and
    stamped with the archive generation they were built against;
    :meth:`get` transparently rebuilds when the generation moves, so a
    mutated archive can never serve answers from a stale index. Build
    cost (wall seconds, layer count) is recorded in the registry under
    ``router.index.*`` — queries never pay it into their own counters,
    matching the paper's convention that index construction is amortized.

    **Depth.** An index is peeled to ``max(PAPER_DEPTH, k)`` hull layers
    (its :attr:`~repro.index.onion.OnionIndex.depth`) plus the interior
    bucket, never past ``max_layers`` in all, where ``k`` is what the
    caller of :meth:`get` asked for. A deeper ``k``
    later *deepens* the cached index (peels its bucket on); a query
    whose ``k`` exceeds the depth it finds is still exact, through the
    bucket, and the router prices that as the scan it is.

    **Persistence.** With a ``sidecar_dir`` every index built is also
    published there as ``onion-<digest>.npz`` — each row's layer number
    (int16), the index's ``max_layers`` and a format version — where the digest is
    BLAKE2 over version, attribute names, window shape and the window's
    bytes. A later build of the same window values, in this process or
    any other, opens that file instead of peeling. The name is the only
    invalidation: a changed window digests to another name, and a file
    that fails its checks is ignored and replaced.
    """

    def __init__(
        self,
        stack: RasterStack,
        max_layers: int | None = 32,
        max_entries: int = 8,
        registry: MetricsRegistry | None = None,
        sidecar_dir: Path | None = None,
    ) -> None:
        if max_entries < 1:
            raise QueryError(
                f"max_entries must be positive, got {max_entries}"
            )
        self.stack = stack
        self.max_layers = max_layers
        self.max_entries = max_entries
        self.registry = registry if registry is not None else global_registry()
        self.sidecar_dir = sidecar_dir
        self._entries: dict[tuple, BuiltOnion] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def invalidate(self) -> None:
        """Drop every built index (explicit refresh hook)."""
        with self._lock:
            self._entries.clear()

    def invalidate_region(
        self,
        region: tuple[int, int, int, int],
        generation: int | None,
    ) -> int:
        """Drop indexes intersecting a dirty rectangle; restamp the rest.

        The region-scoped counterpart of :meth:`invalidate`: an index
        over a window the mutation never touched is built from exactly
        the same cell values before and after, so instead of dropping it
        we restamp it to the post-mutation ``generation`` — otherwise
        :meth:`peek`'s equality check would force a pointless rebuild.
        A dropped index's sidecar file is unlinked: nothing will ask for
        that name again unless the old values come back. Returns the
        number of entries dropped.
        """
        with self._lock:
            doomed = [
                key
                for key, built in self._entries.items()
                if regions_intersect(built.region, region)
            ]
            dropped = [self._entries.pop(key) for key in doomed]
            for built in self._entries.values():
                built.generation = generation
        for built in dropped:
            if built.sidecar is not None:
                with contextlib.suppress(OSError):
                    built.sidecar.unlink()
        return len(dropped)

    def peek(
        self,
        region: tuple[int, int, int, int],
        attributes: tuple[str, ...],
        generation: int | None,
    ) -> BuiltOnion | None:
        """The cached index for this key if fresh, without building."""
        key = (tuple(region), tuple(attributes))
        with self._lock:
            built = self._entries.get(key)
        if built is not None and built.generation == generation:
            return built
        return None

    def _max_layers_for(self, k: int) -> int:
        """The ``max_layers`` an index asked for top-``k`` is peeled to:
        its hull layers plus the bucket, within the cache's bound."""
        wanted = max(PAPER_DEPTH, k) + 1
        if self.max_layers is None:
            return wanted
        return min(wanted, self.max_layers)

    def get(
        self,
        region: tuple[int, int, int, int],
        attributes: tuple[str, ...],
        generation: int | None,
        k: int = 0,
    ) -> BuiltOnion:
        """The index for this key, deep enough for top-``k``: opened,
        built or deepened on a miss. The query path leaves ``k`` at 0,
        which any cached index satisfies — peeling inside a request
        would cost it tens of milliseconds per layer."""
        region, attributes = tuple(region), tuple(attributes)
        max_layers = self._max_layers_for(k)
        built = self.peek(region, attributes, generation)
        if built is not None and built.index.max_layers >= max_layers:
            return built
        built = (
            self._build(region, attributes, generation, max_layers)
            if built is None
            else self._deepen(built, max_layers)
        )
        with self._lock:
            self._entries[region, attributes] = built
            while len(self._entries) > self.max_entries:
                # Oldest-inserted entry goes first; index builds are rare
                # enough that plain FIFO beats carrying LRU bookkeeping.
                self._entries.pop(next(iter(self._entries)))
        return built

    def _build(
        self,
        region: tuple[int, int, int, int],
        attributes: tuple[str, ...],
        generation: int | None,
        max_layers: int,
    ) -> BuiltOnion:
        row0, col0, row1, col1 = region
        start = time.perf_counter()
        columns = {
            name: np.ascontiguousarray(
                self.stack[name].read_window(row0, col0, row1, col1)
            ).reshape(-1)
            for name in attributes
        }
        table = Table(f"region{region}", columns)
        sidecar = index = None
        if self.sidecar_dir is not None:
            sidecar = self.sidecar_dir / _sidecar_name(
                attributes, (row1 - row0, col1 - col0), columns
            )
            index = _open_sidecar(sidecar, table, attributes)
        source = "sidecar"
        if index is None or index.max_layers < max_layers:
            source = "peeled"
            if index is None:
                index = OnionIndex(
                    table, attributes=list(attributes), max_layers=max_layers
                )
            else:
                index.deepen(max_layers)
            if sidecar is not None:
                _publish_sidecar(sidecar, index)
        built = BuiltOnion(
            index=index,
            columns=columns,
            region=region,
            generation=generation,
            build_seconds=time.perf_counter() - start,
            n_cells=(row1 - row0) * (col1 - col0),
            sidecar=sidecar,
        )
        self._record(built, source, built.build_seconds)
        return built

    def _deepen(self, built: BuiltOnion, max_layers: int) -> BuiltOnion:
        start = time.perf_counter()
        # On a copy: a query on another thread may be reading the cached
        # index, and deepen() replaces its layer list.
        index = copy.copy(built.index)
        index.deepen(max_layers)
        if built.sidecar is not None:
            _publish_sidecar(built.sidecar, index)
        seconds = time.perf_counter() - start
        built = replace(
            built, index=index, build_seconds=built.build_seconds + seconds
        )
        self._record(built, "peeled", seconds)
        return built

    def _record(self, built: BuiltOnion, source: str, seconds: float) -> None:
        index = built.index
        self.registry.inc(
            "router.index.loads" if source == "sidecar"
            else "router.index.builds"
        )
        self.registry.observe("router.index.build_seconds", seconds)
        self.registry.gauge("router.index.layers", float(index.n_layers))
        global_event_log().emit(
            "index.onion_build",
            attributes=index.attributes,
            region=list(built.region),
            layers=index.n_layers,
            depth=index.depth,
            source=source,
            build_seconds=seconds,
        )


class QueryRouter:
    """Predicts every candidate strategy's wall time and picks the least.

    The router owns a :class:`CostModel` and an :class:`OnionIndexCache`
    (both injectable for tests). ``route`` handles raster top-K queries,
    ``route_composite`` the SPROC family. Every decision is counted in
    the registry (``router.decisions.<strategy>``); the caller reports
    execution outcomes back via :meth:`observe`.

    A strategy that is never chosen would never be measured again, so
    ``auto`` decisions also *probe*: until every eligible, already-built
    strategy of the family has ``_MIN_SAMPLES`` samples the
    least-observed one runs, and every ``_PROBE_EVERY``-th auto decision
    of a family runs the runner-up. Probes are counted, not timed or
    drawn, so one request sequence is always routed the same way.
    """

    def __init__(
        self,
        stack: RasterStack,
        cost_model: CostModel | None = None,
        index_cache: OnionIndexCache | None = None,
        registry: MetricsRegistry | None = None,
        onion_max_layers: int | None = 32,
        min_onion_cells: int = 256,
        sidecar_dir: Path | None = None,
    ) -> None:
        self.registry = registry if registry is not None else global_registry()
        self.cost_model = (
            cost_model if cost_model is not None
            else CostModel(registry=self.registry)
        )
        self.index_cache = (
            index_cache if index_cache is not None
            else OnionIndexCache(
                stack,
                max_layers=onion_max_layers,
                registry=self.registry,
                sidecar_dir=sidecar_dir,
            )
        )
        self.stack = stack
        self.min_onion_cells = min_onion_cells
        self._auto_decisions: dict[tuple[str, ...], int] = {}
        self._preferred: dict[tuple, str] = {}
        self._lock = threading.Lock()

    def _candidate(
        self, name: str, size: int, build_seconds: float | None = None
    ) -> StrategyCandidate:
        seconds, samples = self.cost_model.score(name, size)
        return StrategyCandidate(
            name=name,
            eligible=True,
            size=size,
            predicted_seconds=seconds + (build_seconds or 0.0),
            samples=samples,
            built=build_seconds is None,
        )

    # -- raster routing ---------------------------------------------------

    def route(
        self,
        query: TopKQuery,
        region: tuple[int, int, int, int],
        strategy: str = "auto",
        generation: int | None = None,
        probe: bool = True,
    ) -> RoutingDecision:
        """Score every raster strategy and choose (or validate) one.

        ``strategy="auto"`` picks the eligible candidate predicted
        fastest — or, when ``probe`` allows it, the one the probing rule
        wants measured; a named strategy is validated for eligibility
        (raising :class:`~repro.exceptions.QueryError` when the model
        family cannot use it) and returned as a forced decision with the
        same scored candidate list. Callers pass ``probe=False`` for a
        query that may be cut short (deadline, cancel token): a probe
        must never turn a complete answer into a partial one.
        """
        row0, col0, row1, col1 = region
        n_cells = (row1 - row0) * (col1 - col0)
        if query.fused:
            # Fused queries arbitrate between their own pair of exact
            # strategies; the model-only structures cannot blend the
            # similarity term and are listed only to explain why.
            return self._route_scored(
                strategy,
                self._fused_candidates(query, n_cells),
                generation,
                probe,
            )
        candidates = [
            self._candidate("scan", n_cells),
            self._candidate("quadtree", n_cells),
            self._onion_candidate(query, region, generation),
            _rejected(
                "sproc",
                "composite queries only — route CompositeQuery objects "
                "via composite_top_k",
            ),
        ]
        return self._route_scored(strategy, candidates, generation, probe)

    def _route_scored(
        self,
        strategy: str,
        candidates: list[StrategyCandidate],
        generation: int | None,
        probe: bool,
    ) -> RoutingDecision:
        """Pick (or validate) a strategy from a scored candidate list.
        The list's names identify the query family: one probe schedule
        per family."""
        family = tuple(c.name for c in candidates)
        eligible = [c for c in candidates if c.eligible]
        preferred = min(eligible, key=lambda c: c.predicted_seconds)
        for candidate in eligible:
            self.registry.gauge(
                f"router.predicted_seconds.{candidate.name}",
                candidate.predicted_seconds,
            )
        self._note_preferred(eligible, preferred)
        chosen, reason = preferred, None
        if strategy == "auto":
            if probe:
                chosen, reason = self._probe(family, eligible, preferred)
        else:
            if strategy not in family:
                raise QueryError(
                    f"unknown strategy {strategy!r}; expected 'auto' or "
                    f"one of {family}"
                )
            chosen = next(c for c in candidates if c.name == strategy)
            if not chosen.eligible:
                raise QueryError(
                    f"strategy {strategy!r} cannot answer this query: "
                    f"{chosen.reason}"
                )
        self.registry.inc(f"router.decisions.{chosen.name}")
        return RoutingDecision(
            chosen=chosen.name,
            routed=chosen.name,
            preferred=preferred.name,
            candidates=candidates,
            forced=strategy != "auto",
            probe=reason,
            generation=generation,
            predicted_seconds=chosen.predicted_seconds,
        )

    def _probe(
        self,
        family: tuple[str, ...],
        eligible: list[StrategyCandidate],
        preferred: StrategyCandidate,
    ) -> tuple[StrategyCandidate, str | None]:
        """The strategy this auto decision runs, and why if a probe.
        Rivals are the eligible strategies that need no index build and
        are predicted within ``_PROBE_MAX_RATIO`` of the preferred one."""
        with self._lock:
            count = self._auto_decisions.get(family, 0) + 1
            self._auto_decisions[family] = count
        budget = _PROBE_MAX_RATIO * preferred.predicted_seconds
        rivals = [
            c
            for c in eligible
            if c is not preferred
            and c.built
            and c.predicted_seconds <= budget
        ]
        cold = [
            c for c in (preferred, *rivals) if c.samples < _MIN_SAMPLES
        ]
        if cold:
            pick = min(cold, key=lambda c: (c.samples, c.predicted_seconds))
            return pick, None if pick is preferred else "warm-up"
        if rivals and count % _PROBE_EVERY == 0:
            runner_up = min(rivals, key=lambda c: c.predicted_seconds)
            return runner_up, "runner-up"
        return preferred, None

    def _note_preferred(
        self,
        eligible: list[StrategyCandidate],
        preferred: StrategyCandidate,
    ) -> None:
        """Emit ``router.strategy_switch`` when the preferred strategy
        for this kind of query (same candidates, same size class)
        changes."""
        kind = (*(c.name for c in eligible), _bucket(eligible[0].size))
        with self._lock:
            previous = self._preferred.get(kind)
            self._preferred[kind] = preferred.name
        if previous is not None and previous != preferred.name:
            self.registry.inc("router.strategy_switches")
            global_event_log().emit(
                "router.strategy_switch",
                previous=previous,
                preferred=preferred.name,
                predicted_seconds={
                    c.name: c.predicted_seconds for c in eligible
                },
            )

    def _fused_candidates(
        self, query: TopKQuery, n_cells: int
    ) -> list[StrategyCandidate]:
        """Score the fused strategy pair (plus explain-only rejects)."""
        candidates: list[StrategyCandidate] = []
        if getattr(query.model, "supports_intervals", False):
            candidates.append(self._candidate("fused", n_cells))
        else:
            candidates.append(
                _rejected(
                    "fused",
                    f"{type(query.model).__name__} cannot bound intervals; "
                    "the fused tile search prunes on blended envelopes",
                )
            )
        candidates.append(self._candidate("embed-scan", n_cells))
        for name in ("quadtree", "onion", "scan"):
            candidates.append(
                _rejected(
                    name,
                    "model-only strategy; it cannot blend embedding "
                    "similarity into the score",
                )
            )
        return candidates

    def _onion_candidate(
        self,
        query: TopKQuery,
        region: tuple[int, int, int, int],
        generation: int | None,
    ) -> StrategyCandidate:
        model = query.model
        if not isinstance(model, LinearModel):
            return _rejected(
                "onion",
                "Onion layers bound linear objectives only; "
                f"{type(model).__name__} is not a LinearModel",
            )
        row0, col0, row1, col1 = region
        n_cells = (row1 - row0) * (col1 - col0)
        if n_cells < self.min_onion_cells:
            return _rejected(
                "onion",
                f"region has {n_cells} cells < min_onion_cells="
                f"{self.min_onion_cells}; index build cannot amortize",
            )
        built = self.index_cache.peek(
            region, tuple(model.attributes), generation
        )
        if built is not None:
            return self._candidate("onion", built.candidate_count(query.k))
        # No index yet: estimate layer width from the hull of a
        # uniform-ish point cloud (~sqrt scaling with cell count) and
        # charge the one-time build to this query.
        est_layer_width = max(32, int(4 * math.sqrt(n_cells)))
        return self._candidate(
            "onion",
            min(n_cells, query.k * est_layer_width),
            build_seconds=self.cost_model.score("onion-build", n_cells)[0],
        )

    # -- composite routing ------------------------------------------------

    def route_composite(
        self, query: CompositeQuery, k: int, strategy: str = "auto"
    ) -> RoutingDecision:
        """Choose among the SPROC family for one composite query.

        Each implementation's size variable is its complexity formula
        evaluated on the query; the float cap keeps huge exponents
        comparable without overflow.
        """
        if strategy != "auto" and strategy not in COMPOSITE_STRATEGIES:
            raise QueryError(
                f"unknown composite strategy {strategy!r}; expected "
                f"'auto' or one of {COMPOSITE_STRATEGIES}"
            )
        n_objects = query.n_objects
        n_components = query.n_components
        log_l = math.log2(n_objects + 1)
        work = {
            # O(L^M) full Cartesian enumeration.
            "naive": min(float(n_objects) ** n_components, 1e18)
            * n_components,
            # SPROC DP: O(M * K * L^2).
            "dp": float(n_components) * k * n_objects * n_objects,
            # The [16] improvement: ~O(M*L*log L) sorting plus
            # best-first expansion bounded by K.
            "fast": (
                float(n_components) * n_objects * log_l
                + float(k) * k * math.log2(k + 1)
                + float(k) * n_components * n_objects
            ),
        }
        candidates = [
            self._candidate(name, int(min(work[name], 2**62)))
            for name in COMPOSITE_STRATEGIES
        ]
        return self._route_scored(strategy, candidates, None, probe=True)

    # -- feedback ---------------------------------------------------------

    def observe(
        self,
        decision: RoutingDecision,
        seconds: float,
        tuples_examined: int,
        complete: bool = True,
    ) -> None:
        """Report an execution outcome back into the cost model.

        ``seconds`` must time the strategy's execution alone — one-off
        lazy builds belong to their own span, not to this sample. Stamps
        the actuals onto the decision so trace metadata carries
        predicted-vs-actual, and records the prediction's relative error
        (forced decisions included) and, on a probe, what it cost over
        the preferred strategy's prediction. A truncated execution
        (``complete=False``) only stamps the actuals: it stopped early,
        so its seconds say nothing about the strategy.
        """
        decision.actual_seconds = seconds
        decision.actual_tuples = tuples_examined
        if not complete:
            return
        chosen = decision.chosen
        by_name = {c.name: c for c in decision.candidates if c.eligible}
        if chosen in by_name:
            # An Onion execution examines exactly its candidate tuples;
            # the routing-time size is an estimate when this query built
            # the index.
            size = (
                tuples_examined if chosen == "onion" else by_name[chosen].size
            )
            self.cost_model.observe(chosen, size, seconds)
        if decision.fallback_reason is not None:
            self.registry.inc("router.fallbacks")
        elif decision.predicted_seconds is not None and seconds > 0:
            error = abs(decision.predicted_seconds - seconds) / seconds
            self.registry.observe(f"router.estimate_error.{chosen}", error)
            if decision.probe is not None:
                self.registry.observe(
                    "router.regret_seconds",
                    seconds - by_name[decision.preferred].predicted_seconds,
                )


__all__ = [
    "BuiltOnion",
    "COMPOSITE_STRATEGIES",
    "CostModel",
    "OnionIndexCache",
    "PAPER_DEPTH",
    "QueryRouter",
    "RoutingDecision",
    "SIDECAR_VERSION",
    "StrategyCandidate",
]
