"""Compact command-line demo: ``python -m repro``.

Runs a one-minute tour of the framework — one scenario per model family
plus the headline speedup — printing the same kind of evidence the
examples and benchmarks produce, at toy sizes.
"""

from __future__ import annotations

import argparse


def _demo_linear() -> None:
    from repro.core.engine import RasterRetrievalEngine
    from repro.core.query import TopKQuery
    from repro.models.linear import hps_risk_model
    from repro.synth.landsat import generate_scene
    from repro.synth.terrain import generate_dem

    print("== linear model: HPS risk over TM bands + DEM ==")
    dem = generate_dem((128, 128), seed=1)
    stack = generate_scene((128, 128), seed=2, terrain=dem)
    stack.add(dem)
    engine = RasterRetrievalEngine(stack, leaf_size=16)
    query = TopKQuery(model=hps_risk_model(), k=10)
    exhaustive = engine.exhaustive_top_k(query)
    progressive = engine.progressive_top_k(query)
    assert sorted(round(s, 9) for s in progressive.scores) == sorted(
        round(s, 9) for s in exhaustive.scores
    )
    best = progressive.answers[0]
    print(f"  top cell ({best.row}, {best.col}), R = {best.score:.2f}")
    print(
        f"  work: {exhaustive.counter.total_work:,} -> "
        f"{progressive.counter.total_work:,} "
        f"({exhaustive.counter.total_work / progressive.counter.total_work:.0f}x)"
    )


def _demo_fsm() -> None:
    from repro.apps import fireants

    print("== finite state model: Figure 1 fire ants ==")
    scenario = fireants.build_scenario(3, 3, n_days=365, seed=7)
    top = fireants.top_k_swarming_regions(scenario, k=3)
    for cell, run in top:
        print(
            f"  region {cell}: {run.accepting_days} swarm days, "
            f"first onset day {run.first_acceptance}"
        )


def _demo_knowledge() -> None:
    from repro.apps import geology

    print("== knowledge model: Figure 4 riverbed over well logs ==")
    scenario = geology.build_scenario(n_wells=15, seed=11)
    for match in geology.find_riverbeds(scenario, k_total=3):
        print(
            f"  {match.well_name}: score {match.score:.3f}, "
            f"{match.depth_top_m:.1f}-{match.depth_bottom_m:.1f} m"
        )


def _demo_onion() -> None:
    from repro.index.onion import OnionIndex
    from repro.index.scan import scan_top_k
    from repro.metrics.counters import CostCounter
    from repro.models.linear import LinearModel
    from repro.synth.gaussian import generate_gaussian_table

    print("== Onion index: linear top-1 vs sequential scan ==")
    table = generate_gaussian_table(20000, 3, seed=1)
    weights = {"x1": 0.5, "x2": 0.3, "x3": 0.2}
    index = OnionIndex(table, max_layers=3)
    onion_counter, scan_counter = CostCounter(), CostCounter()
    onion = index.top_k(weights, 1, counter=onion_counter)
    scan = scan_top_k(table, LinearModel(weights), 1, counter=scan_counter)
    assert onion[0][0] == scan[0][0]
    print(
        f"  tuples examined: scan {scan_counter.tuples_examined:,} vs "
        f"onion {onion_counter.tuples_examined} "
        f"({scan_counter.tuples_examined / onion_counter.tuples_examined:.0f}x)"
    )


def _demo_service() -> None:
    import time

    from repro.core.query import TopKQuery
    from repro.metrics.registry import MetricsRegistry
    from repro.models.linear import hps_risk_model
    from repro.service import RetrievalService
    from repro.synth.landsat import generate_scene
    from repro.synth.terrain import generate_dem

    print("== retrieval service: sharded search + cache + deadlines ==")
    dem = generate_dem((256, 256), seed=1)
    stack = generate_scene((256, 256), seed=2, terrain=dem)
    stack.add(dem)
    registry = MetricsRegistry()
    service = RetrievalService(stack, cache_size=32, registry=registry)
    query = TopKQuery(model=hps_risk_model(), k=10)

    single = service.engine.progressive_top_k(query)
    start = time.perf_counter()
    cold = service.top_k(query)
    cold_seconds = time.perf_counter() - start
    assert set(cold.locations) == set(single.locations)
    start = time.perf_counter()
    warm = service.top_k(query)
    warm_seconds = time.perf_counter() - start
    assert warm.strategy.endswith("-cached")

    print(
        f"  {cold.strategy}: merged work {cold.counter.total_work:,} "
        "(= single-engine answers)"
    )
    print(
        f"  cold {cold_seconds * 1e3:.1f} ms -> cached "
        f"{warm_seconds * 1e3:.3f} ms "
        f"({cold_seconds / warm_seconds:.0f}x), "
        f"hit rate {service.stats.hit_rate:.0%}"
    )

    deadline_s = max(cold_seconds / 8, 0.001)
    partial = service.top_k(query, use_cache=False, deadline_s=deadline_s)
    print(
        f"  deadline {deadline_s * 1e3:.1f} ms -> complete="
        f"{partial.complete}, {len(partial.answers)} prefix-sound answers "
        f"({partial.strategy})"
    )
    snapshot = registry.snapshot()
    search = snapshot["histograms"].get("service.stage.search_seconds", {})
    print(
        f"  metrics: {snapshot['counters'].get('service.queries', 0):.0f} "
        f"queries, hit rate "
        f"{snapshot['gauges'].get('service.cache_hit_rate', 0.0):.0%}, "
        f"search p90 {search.get('p90', 0.0) * 1e3:.1f} ms, "
        f"partials {snapshot['counters'].get('service.partial_results', 0):.0f}"
    )


def _demo_telemetry() -> None:
    import json
    import urllib.request

    from repro.core.query import TopKQuery
    from repro.metrics.registry import MetricsRegistry
    from repro.models.linear import hps_risk_model
    from repro.service import RetrievalService
    from repro.synth.landsat import generate_scene
    from repro.synth.terrain import generate_dem

    print("== telemetry: /metrics, explain waterfall, Chrome traces ==")
    dem = generate_dem((128, 128), seed=1)
    stack = generate_scene((128, 128), seed=2, terrain=dem)
    stack.add(dem)
    service = RetrievalService(stack, registry=MetricsRegistry())
    # Enable the sink (via the server) BEFORE querying — traces are
    # recorded at query completion, not retroactively.
    server = service.serve_metrics(port=0)
    print(f"  serving {server.url}/metrics (ephemeral port)")

    report = service.top_k(
        TopKQuery(model=hps_risk_model(), k=10), explain=True
    )
    print("  " + report.render().replace("\n", "\n  "))

    with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as r:
        samples = [
            line
            for line in r.read().decode().splitlines()
            if line.startswith("service_queries_total")
        ]
    print(f"  scraped: {samples[0]}")
    with urllib.request.urlopen(
        f"{server.url}/traces/chrome", timeout=10
    ) as r:
        events = json.loads(r.read())["traceEvents"]
    print(
        f"  chrome trace: {len(events)} events "
        "(save /traces/chrome to a file, open in chrome://tracing)"
    )
    server.close()


def _ingest_main(argv: list[str]) -> None:
    """``python -m repro ingest``: stream an archive into a disk store."""
    parser = argparse.ArgumentParser(
        prog="python -m repro ingest",
        description=(
            "Ingest an archive into an on-disk memory-mapped store "
            "directory (manifest.json + per-band value/aggregate files), "
            "servable with 'python -m repro serve --store DIR'."
        ),
    )
    parser.add_argument(
        "--out", required=True, help="store directory to create"
    )
    parser.add_argument(
        "--from-npz", default=None, metavar="PATH",
        help=(
            "serialize an existing .npz archive (see repro.data.io) "
            "instead of generating synthetic bands"
        ),
    )
    parser.add_argument(
        "--size", type=int, default=1024,
        help="synthetic grid edge length in cells (default 1024)",
    )
    parser.add_argument(
        "--bands", type=int, default=4,
        help="synthetic raster bands to generate (default 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="synthetic RNG seed (default 0)"
    )
    parser.add_argument(
        "--tile-size", type=int, default=256,
        help="row-strip granularity for streamed writes (default 256)",
    )
    parser.add_argument(
        "--leaf-size", type=int, default=16,
        help="screen leaf size the aggregates are built for (default 16)",
    )
    arguments = parser.parse_args(argv)

    from repro.data.store import ArchiveWriter, ingest_synthetic

    if arguments.from_npz is not None:
        from repro.data.io import load_archive

        archive = load_archive(arguments.from_npz)
        writer = ArchiveWriter.create(
            arguments.out,
            archive,
            tile_size=arguments.tile_size,
            screen_leaf_size=arguments.leaf_size,
        )
        print(
            f"ingested archive {archive.name!r} ({len(archive)} items) "
            f"into {arguments.out}"
        )
    else:
        writer = ingest_synthetic(
            arguments.out,
            size=arguments.size,
            n_bands=arguments.bands,
            seed=arguments.seed,
            tile_size=arguments.tile_size,
            screen_leaf_size=arguments.leaf_size,
        )
        print(
            f"ingested synthetic {arguments.size}x{arguments.size} store "
            f"({arguments.bands} bands, seed {arguments.seed}) "
            f"into {arguments.out}"
        )
    print(
        f"  generation {writer.generation}, leaf size "
        f"{writer.screen_leaf_size}; serve with: "
        f"python -m repro serve --store {arguments.out}"
    )


def _serve_main(argv: list[str]) -> None:
    """``python -m repro serve``: a live fleet over a synthetic scene."""
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve top-k retrieval over HTTP: an asyncio front end over "
            "a worker fleet (POST /query, POST /batch, GET /metrics, "
            "GET /healthz). Workers memory-map one store read-only: "
            "the one named by --store, or by default a temporary one "
            "the fleet writes from a synthetic scene."
        ),
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "serve this on-disk store directory (from 'python -m repro "
            "ingest') instead of generating a synthetic scene"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes in the fleet (default 2)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks an ephemeral port (default 8080)",
    )
    parser.add_argument(
        "--size", type=int, default=128,
        help="synthetic scene edge length in cells (default 128)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=64,
        help="queued requests beyond which arrivals are shed 429 (default 64)",
    )
    parser.add_argument(
        "--no-warm", action="store_true",
        help="skip prebuilding the HPS Onion index at worker startup",
    )
    parser.add_argument(
        "--no-ship-spans", action="store_true",
        help=(
            "disable cross-process span shipping (merged multi-pid "
            "traces at /traces/chrome; <5%% overhead, on by default)"
        ),
    )
    arguments = parser.parse_args(argv)

    from repro.models.linear import hps_risk_model
    from repro.serving import FleetConfig, ServingServer, WorkerFleet

    if arguments.store is not None:
        # Store mode: no synthetic scene, no temporary store, no
        # default warm hook (the store's bands need not match the HPS
        # attribute names) — workers memory-map the store read-only.
        fleet = WorkerFleet(
            config=FleetConfig(
                n_workers=arguments.workers,
                ship_spans=not arguments.no_ship_spans,
            ),
            store_path=arguments.store,
        )
        print(
            f"starting {arguments.workers} workers over on-disk store "
            f"{arguments.store} (memory-mapped, read-only)..."
        )
    else:
        from repro.synth.landsat import generate_scene
        from repro.synth.terrain import generate_dem

        size = (arguments.size, arguments.size)
        dem = generate_dem(size, seed=1)
        stack = generate_scene(size, seed=2, terrain=dem)
        stack.add(dem)
        warm = (
            []
            if arguments.no_warm
            else [
                {
                    "attributes": sorted(hps_risk_model().coefficients),
                    "region": None,
                }
            ]
        )
        fleet = WorkerFleet(
            stack,
            FleetConfig(
                n_workers=arguments.workers,
                warm=warm,
                ship_spans=not arguments.no_ship_spans,
            ),
        )
        print(
            f"starting {arguments.workers} workers over a "
            f"{arguments.size}x{arguments.size} scene "
            f"({len(stack.names)} bands, temporary in-memory store)..."
        )
    fleet.start()
    server = ServingServer(
        fleet,
        host=arguments.host,
        port=arguments.port,
        queue_depth=arguments.queue_depth,
    ).start()
    print(f"serving on {server.url}  (POST /query, POST /batch,")
    print("                           GET /metrics, /healthz, /slo,")
    print("                           /events, /traces, /traces/chrome)")
    print(f"watch it live: python -m repro top --url {server.url}")
    print("Ctrl-C to stop.")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nshutting down...")
    finally:
        server.close()
        fleet.stop()


def main(argv: list[str] | None = None) -> None:
    """Run the requested demos (all by default), or the fleet server."""
    import sys

    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw and raw[0] == "serve":
        _serve_main(raw[1:])
        return
    if raw and raw[0] == "ingest":
        _ingest_main(raw[1:])
        return
    if raw and raw[0] == "top":
        from repro.telemetry.console import main as top_main

        raise SystemExit(top_main(raw[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Model-based multi-modal retrieval: a one-minute tour.",
        epilog=(
            "Also: 'python -m repro ingest --out DIR' streams an archive "
            "into an on-disk store, 'python -m repro serve "
            "[--store DIR] --workers N --port P' starts the multi-process "
            "HTTP serving fleet, and 'python -m repro top --url URL' "
            "opens a live ops console against a running fleet."
        ),
    )
    parser.add_argument(
        "demo",
        nargs="?",
        choices=[
            "linear", "fsm", "knowledge", "onion", "service",
            "telemetry", "all",
        ],
        default="all",
        help="which demo to run",
    )
    arguments = parser.parse_args(argv)
    demos = {
        "linear": _demo_linear,
        "fsm": _demo_fsm,
        "knowledge": _demo_knowledge,
        "onion": _demo_onion,
        "service": _demo_service,
        "telemetry": _demo_telemetry,
    }
    if arguments.demo == "all":
        for demo in demos.values():
            demo()
            print()
    else:
        demos[arguments.demo]()


if __name__ == "__main__":
    main()
