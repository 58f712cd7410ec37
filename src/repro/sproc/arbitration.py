"""Choosing a SPROC implementation per composite query.

The three implementations return the same answers at very different
costs, and which is cheapest depends on the query's shape: ``O(L^M)``
enumeration wins only for tiny products, the dynamic program's
``O(M*K*L^2)`` grows with the square of the object count, the sorted
best-first evaluation with ``L*log L``. Each formula, evaluated on the
query, is the size the serving layer's
:class:`~repro.service.routing.QueryRouter` multiplies by a learned
seconds-per-unit rate, so the choice improves with measured executions.

This module is what :meth:`RetrievalService.composite_top_k
<repro.service.retrieval.RetrievalService.composite_top_k>` calls; the
service imports it only when a composite query arrives, so a raster
worker never loads SPROC.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING

from repro.exceptions import QueryError
from repro.metrics.counters import CostCounter
from repro.sproc.dp import sproc_top_k
from repro.sproc.fast import fast_top_k
from repro.sproc.naive import naive_top_k
from repro.sproc.query import Assignment, CompositeQuery

if TYPE_CHECKING:
    from repro.service.routing import QueryRouter, RoutingDecision

#: Each composite strategy's implementation; all three return the same
#: answer sets and differ only in counted work.
IMPLEMENTATIONS = {"naive": naive_top_k, "dp": sproc_top_k, "fast": fast_top_k}

#: The composite (SPROC) family, in the router's candidate order.
COMPOSITE_STRATEGIES = tuple(IMPLEMENTATIONS)


def composite_sizes(query: CompositeQuery, k: int) -> dict[str, float]:
    """Each implementation's complexity formula evaluated on ``query``;
    the float cap keeps huge exponents comparable without overflow."""
    n_objects = query.n_objects
    n_components = query.n_components
    log_l = math.log2(n_objects + 1)
    return {
        # O(L^M) full Cartesian enumeration.
        "naive": min(float(n_objects) ** n_components, 1e18) * n_components,
        # SPROC DP: O(M * K * L^2).
        "dp": float(n_components) * k * n_objects * n_objects,
        # The [16] improvement: ~O(M*L*log L) sorting plus best-first
        # expansion bounded by K.
        "fast": (
            float(n_components) * n_objects * log_l
            + float(k) * k * math.log2(k + 1)
            + float(k) * n_components * n_objects
        ),
    }


def route_composite(
    router: QueryRouter,
    query: CompositeQuery,
    k: int,
    strategy: str = "auto",
) -> RoutingDecision:
    """Choose (or validate) the implementation for one composite query."""
    if strategy != "auto" and strategy not in COMPOSITE_STRATEGIES:
        raise QueryError(
            f"unknown composite strategy {strategy!r}; expected "
            f"'auto' or one of {COMPOSITE_STRATEGIES}"
        )
    return router.route_family(composite_sizes(query, k), strategy)


def composite_top_k(
    router: QueryRouter,
    query: CompositeQuery,
    k: int,
    strategy: str = "auto",
) -> tuple[list[tuple[Assignment, float]], RoutingDecision]:
    """Route one composite query, run the chosen implementation and
    report its measured seconds back to ``router``."""
    decision = route_composite(router, query, k, strategy)
    counter = CostCounter()
    started = time.perf_counter()
    answers = IMPLEMENTATIONS[decision.chosen](query, k, counter=counter)
    router.observe(
        decision,
        seconds=time.perf_counter() - started,
        tuples_examined=counter.tuples_examined,
    )
    return answers, decision
