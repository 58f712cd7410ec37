"""Fused retrieval benchmark: progressive fusion vs embed-then-scan.

Query-by-example fused with a model (``alpha * model + (1 - alpha) *
cosine``) can be answered two ways: the exhaustive ``embed-scan``
strategy scores every cell of the region and blends, or the progressive
``fused`` strategy branch-and-bounds the quadtree with blended interval
bounds (model envelopes fused with per-node cosine caps) and only
descends where the blended upper bound clears the running threshold.

This benchmark proves the progressive path earns its keep: on a smooth
scene — the regime where interval bounds are tight — it must examine
**>= 3x fewer tuples** than the exhaustive scan on a 1024x1024 grid
(full mode; counted work, so the gate is deterministic, not a wall-clock
coin flip). In both modes, once the router is warm, ``strategy="auto"``
must cost at most 1.15x the faster forced strategy in wall time
(:mod:`routing_gate`) — fused wins at 1024x1024 and embed-scan at
256x256, so the two modes hold the router to opposite choices. Answers
are verified bit-identical between the two strategies before anything
is measured (exit 1 on mismatch), and both modes append an entry to
``BENCH_trajectory.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_embed.py [--quick]
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

GATE_TUPLE_RATIO = 3.0
K = 10
ALPHA = 0.5


def _fail(message: str) -> None:
    print(f"MISMATCH: {message}", file=sys.stderr)
    sys.exit(1)


def _answers(result) -> list[tuple[int, int, float]]:
    return [(a.row, a.col, a.score) for a in result.answers]


def _cells_examined(result, n_attrs: int) -> int:
    """Cells the strategy actually scored: the quadtree-based fused
    path tallies per-attribute data points, the scan tallies tuples."""
    counter = result.counter
    if counter.tuples_examined:
        return counter.tuples_examined
    return int(counter.data_points // max(1, n_attrs))


def build_workload(size: int) -> tuple[RasterStack, TopKQuery]:
    """A smooth ``size x size`` scene plus one fused query.

    Broad Gaussian bumps on a gradient give the quadtree tight interval
    envelopes and spatially coherent tile embeddings — the structure
    both halves of the blended bound prune on. The example cell sits on
    the main bump, so high-similarity tiles and high-score tiles
    coincide the way a real query-by-example does.
    """
    rng = np.random.default_rng(7)
    axis = np.linspace(-2.0, 2.0, size)
    xx, yy = np.meshgrid(axis, axis)
    bump = np.exp(-((xx - 0.6) ** 2 + (yy - 0.4) ** 2))
    ridge = np.exp(-((xx + 1.0) ** 2) * 2.0)
    stack = RasterStack()
    stack.add(
        RasterLayer(
            "elevation",
            bump + 0.3 * ridge + 0.02 * rng.normal(size=(size, size)),
        )
    )
    stack.add(
        RasterLayer(
            "moisture",
            0.5 * bump - 0.2 * yy + 0.02 * rng.normal(size=(size, size)),
        )
    )
    model = LinearModel(
        {"elevation": 0.6, "moisture": 0.4}, name="embed_bench"
    )
    # The peak of the main bump, in grid coordinates.
    peak = int(np.unravel_index(np.argmax(bump), bump.shape)[0])
    peak_col = int(np.unravel_index(np.argmax(bump), bump.shape)[1])
    return stack, TopKQuery(
        model=model, k=K, similar_to=(peak, peak_col), alpha=ALPHA
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small grid for CI: correctness + trajectory, no hard gate",
    )
    args = parser.parse_args()
    size = 256 if args.quick else 1024

    print(f"fused embedding benchmark "
          f"({'quick' if args.quick else 'full'} mode, {size}x{size}, "
          f"k={K}, alpha={ALPHA})")
    stack, query = build_workload(size)
    service = RetrievalService(
        stack, leaf_size=16, cache_size=0, registry=MetricsRegistry()
    )

    embed_start = time.perf_counter()
    embeddings = service.embeddings()
    embed_s = time.perf_counter() - embed_start
    print(f"  embeddings: {embeddings.n_tiles:,} tiles x "
          f"{embeddings.dim} dims in {embed_s:.3f}s")

    fused_start = time.perf_counter()
    fused = service.top_k(query, use_cache=False)
    fused_s = time.perf_counter() - fused_start
    scan_start = time.perf_counter()
    scan = service.top_k(query, strategy="embed-scan", use_cache=False)
    scan_s = time.perf_counter() - scan_start

    if _answers(fused) != _answers(scan):
        _fail("progressive fused answers diverge from embed-scan")
    auto = service.top_k(query, strategy="auto", use_cache=False)
    if _answers(auto) != _answers(scan):
        _fail("strategy='auto' fused answers diverge from embed-scan")

    n_attrs = len(query.model.attributes)
    fused_tuples = _cells_examined(fused, n_attrs)
    scan_tuples = _cells_examined(scan, n_attrs)
    tuple_ratio = scan_tuples / max(1, fused_tuples)

    print(f"  embed-scan: {scan_s * 1e3:8.2f} ms "
          f"({scan_tuples:,} tuples)")
    print(f"  fused:      {fused_s * 1e3:8.2f} ms "
          f"({fused_tuples:,} tuples)")
    print(f"  work ratio: {tuple_ratio:.1f}x fewer tuples")
    gate = auto_gate(service, query, ("fused", "embed-scan"), repeats=6)
    gate_failure = report(gate, size)

    record_run(
        "embed-quick" if args.quick else "embed",
        {
            "grid": size,
            "embed_build_s": embed_s,
            "embed_scan_query_s": scan_s,
            "fused_query_s": fused_s,
            "fused_tuple_speedup": tuple_ratio,
            "fused_tuples": fused_tuples,
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

    if not args.quick and tuple_ratio < GATE_TUPLE_RATIO:
        print(
            f"GATE FAILED: fused examined only {tuple_ratio:.1f}x fewer "
            f"tuples than embed-scan (< {GATE_TUPLE_RATIO:.0f}x) on "
            f"{size}x{size}",
            file=sys.stderr,
        )
        sys.exit(1)
    print("ok")


if __name__ == "__main__":
    main()
