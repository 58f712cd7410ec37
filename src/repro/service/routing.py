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
* :class:`QueryRouter` — scores every candidate strategy for a query
  (including ineligible ones, with the reason), picks the eligible one
  predicted fastest — or, on a counted schedule, probes a rival so no
  strategy starves — and packages the whole comparison as a
  :class:`RoutingDecision` that the service surfaces in trace metadata
  and the explain waterfall. It owns an
  :class:`~repro.index.onion_cache.OnionIndexCache` for the Onion
  strategy's built indexes. The SPROC family is priced here but its
  size formulas and implementations live in
  :mod:`repro.sproc.arbitration`, loaded only by a composite query.

Routing never changes answers: every routable strategy is exact and
shares the engine's tie-break convention (equal signed score -> smallest
``(row, col)``), so the router's choice affects counted work and wall
time only — property-tested bit-identical in
``tests/test_service_routing.py``.
"""

from __future__ import annotations

import math
import statistics
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.query import TopKQuery
from repro.data.raster import RasterStack
from repro.exceptions import QueryError
from repro.index.onion_cache import OnionIndexCache
from repro.metrics.registry import MetricsRegistry, global_registry
from repro.models.linear import LinearModel
from repro.telemetry.events import global_event_log

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


class QueryRouter:
    """Predicts every candidate strategy's wall time and picks the least.

    The router owns a :class:`CostModel` and an :class:`OnionIndexCache`
    (both injectable for tests). ``route`` handles raster top-K queries,
    ``route_family`` the SPROC family. Every decision is counted in
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
        if query.model.supports_intervals:
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

    # -- priced-only families ---------------------------------------------

    def route_family(
        self, sizes: dict[str, float], strategy: str = "auto"
    ) -> RoutingDecision:
        """Choose among a family whose members the router only prices:
        ``sizes`` maps each member to its size variable (capped so that
        huge formula values stay comparable). The SPROC family comes
        here through :func:`repro.sproc.arbitration.route_composite`."""
        candidates = [
            self._candidate(name, int(min(size, 2**62)))
            for name, size in sizes.items()
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

