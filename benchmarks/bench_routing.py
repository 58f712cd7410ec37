"""Routing benchmark: Onion-routed linear top-K vs the quadtree path.

The cost router's reason to exist is that for linear models the Onion
index answers top-K from a handful of hull layers while the quadtree
must branch-and-bound the whole region. This benchmark measures that gap
end-to-end through ``RetrievalService.top_k`` on a Gaussian scene — the
same distribution family as the paper's 13,000x Onion experiment — and
verifies the routed answers are bit-identical to the legacy path before
timing anything (exit 1 on any mismatch: the CI smoke contract).

The index is pre-built via ``warm_index`` so the gate times steady-state
queries; the one-time build cost is reported (and recorded) separately,
matching the paper's convention that index construction is amortized.

Gates: (full mode, 1024x1024) Onion-routed top-10 must be **>= 5x**
faster than the quadtree path; (both modes) once the router is warm,
``strategy="auto"`` must cost at most 1.15x the best forced strategy
(:mod:`routing_gate`). Either failing exits 1. ``--quick`` shrinks the
grid to 256x256 for CI, keeps the correctness contract, and reports the
Onion speedup without enforcing it (shared runners are too noisy for a
hard cross-strategy wall-clock gate on a small workload).

Both modes append an entry to ``BENCH_trajectory.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_routing.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.core.query import TopKQuery
from repro.data.raster import RasterLayer, RasterStack
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel
from repro.service import RetrievalService

from record import record_run
from routing_gate import auto_gate, report

GATE_SPEEDUP = 5.0
K = 10


def _best_of(func, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _fail(message: str) -> None:
    print(f"MISMATCH: {message}", file=sys.stderr)
    sys.exit(1)


def _answers(result) -> list[tuple[int, int, float]]:
    return [(a.row, a.col, round(a.score, 9)) for a in result.answers]


def _tuples(result, n_attrs: int) -> int:
    """Tuples examined; the quadtree path tallies data points instead."""
    counter = result.counter
    if counter.tuples_examined:
        return counter.tuples_examined
    return int(counter.data_points // max(1, n_attrs))


def build_workload(size: int) -> tuple[RasterStack, TopKQuery]:
    """A ``size x size`` Gaussian scene plus a two-attribute linear query.

    Continuous Gaussian layers give small convex-hull layers (the regime
    where Onion shines) while white-noise spatial structure gives the
    quadtree's envelope bounds nothing to prune on — the honest
    worst-case contrast the router is supposed to exploit.
    """
    rng = np.random.default_rng(7)
    stack = RasterStack()
    for name in ("elevation", "moisture"):
        stack.add(
            RasterLayer(name, rng.normal(size=(size, size)))
        )
    model = LinearModel(
        {"elevation": 0.6, "moisture": 0.4}, name="routing_bench"
    )
    return stack, TopKQuery(model=model, k=K)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small grid for CI: correctness + trajectory, no hard gate",
    )
    args = parser.parse_args()
    size = 256 if args.quick else 1024
    repeats = 2 if args.quick else 3

    print(f"routing benchmark ({'quick' if args.quick else 'full'} mode, "
          f"{size}x{size}, k={K})")
    stack, query = build_workload(size)
    service = RetrievalService(
        stack, leaf_size=16, cache_size=0, registry=MetricsRegistry()
    )

    built = service.warm_index(query)
    print(f"  onion build: {built.build_seconds:.3f}s "
          f"({built.index.n_layers} layers over {built.n_cells:,} cells)")

    legacy = service.top_k(query, use_cache=False)
    routed = service.top_k(query, strategy="onion", use_cache=False)
    if _answers(legacy) != _answers(routed):
        _fail("onion-routed answers diverge from the quadtree path")
    auto = service.top_k(query, strategy="auto", use_cache=False)
    if _answers(auto) != _answers(legacy):
        _fail("strategy='auto' answers diverge from the quadtree path")

    quadtree_s = _best_of(
        lambda: service.top_k(query, use_cache=False), repeats
    )
    onion_s = _best_of(
        lambda: service.top_k(query, strategy="onion", use_cache=False),
        repeats,
    )
    speedup = quadtree_s / onion_s
    n_attrs = len(query.model.attributes)
    quadtree_tuples = _tuples(legacy, n_attrs)
    onion_tuples = _tuples(routed, n_attrs)
    tuple_ratio = quadtree_tuples / max(1, onion_tuples)

    print(f"  quadtree: {quadtree_s * 1e3:8.2f} ms "
          f"({quadtree_tuples:,} tuples)")
    print(f"  onion:    {onion_s * 1e3:8.2f} ms "
          f"({onion_tuples:,} tuples)")
    print(f"  speedup:  {speedup:.1f}x wall, {tuple_ratio:.0f}x tuples")
    gate = auto_gate(service, query, ("onion", "quadtree", "scan"), repeats=8)
    gate_failure = report(gate, size)

    record_run(
        "routing-quick" if args.quick else "routing",
        {
            "grid": size,
            "onion_build_s": built.build_seconds,
            "quadtree_query_s": quadtree_s,
            "onion_query_s": onion_s,
            "onion_vs_quadtree_speedup": speedup,
            "tuple_ratio": tuple_ratio,
            "auto_chose": gate["auto_chose"],
            "auto_query_s": gate["auto_s"],
            "auto_vs_best_forced": gate["auto_vs_best"],
        },
        extra={
            "mode": "quick" if args.quick else "full",
            "cpus": os.cpu_count(),
        },
    )

    if gate_failure:
        print(gate_failure, file=sys.stderr)
        sys.exit(1)

    if not args.quick and speedup < GATE_SPEEDUP:
        print(
            f"GATE FAILED: onion speedup {speedup:.1f}x < "
            f"{GATE_SPEEDUP:.0f}x on {size}x{size}",
            file=sys.stderr,
        )
        sys.exit(1)
    print("ok")


if __name__ == "__main__":
    main()
