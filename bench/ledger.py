"""The per-layer ledger, measured from outside (``--trace 1``).

A sample of the workload's positions is sent through four nested
shells, each a call into one layer's public functions: S0, an HTTP
round trip to a server process, timed here; and S1 (fleet), S2
(service) and S3 (engine), timed inside that same server process by
bench/shells.py, which says what each shell calls and why they run
there. Every shell call is recorded as a bench-side span (name, start,
end, parent shell, request id; one system-wide clock) kept in memory
and written to ``bench/out/`` with the result.

A layer's self time is its shell's floor minus the next shell's. Shell
payloads carry ``use_cache: false`` so all four shells do the same
work; the cache has its own probes. What no request isolates is covered
by fixed probes, drawn from the same seed whatever the workload, so
every traced run reports every per-layer metric. The probes run in this
process, whose heap has grown; they compare only with themselves.
"""

from __future__ import annotations

import copy
import http.client
import os
import pickle
import threading
import time
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from repro.core.engine import RasterRetrievalEngine
from repro.data.store import open_archive
from repro.service.retrieval import RetrievalService
from repro.serving import decode_query, encode_result
from repro.serving.protocol import WorkItem, WorkReply

import harness
import shells
import workloads
from oracle import Oracle
from workloads import Position, Workload

SAMPLE = 32
PASSES = 4
QUICK_PASSES = 2
#: S0 rounds (one traced and one untraced pass each) are repeated until
#: this much time is spent, so sub-millisecond samples get enough passes.
S0_BUDGET_S = 3.0
S0_MAX_ROUNDS = 16


def floors(
    call: Callable[[int], Any], count: int, passes: int
) -> tuple[np.ndarray, list[Any]]:
    """Per-position floor in ms of ``call(i)``, and the first pass's
    return values."""
    latencies, first = shells.timed_passes(call, count, passes)
    return floor_ms(latencies), first


def floor_ms(latencies: Any) -> np.ndarray:
    return np.asarray(latencies, dtype=float).min(axis=0) * 1e3


def uncached(position: Position) -> Position:
    """The same operation with the result cache switched off."""
    payload = copy.deepcopy(position.payload)
    for member in payload if position.kind == "batch" else [payload]:
        member["use_cache"] = False
    return Position(position.kind, position.cls, payload, weight=position.weight)


def pick_sample(workload: Workload, routed: Workload) -> list[Position]:
    """About ``SAMPLE`` HTTP-able positions, spread evenly over the
    pass, cache off. When fewer than eight of them are one model-only
    quadtree query (``http_routed``), first members of the routed
    batches are added as solo queries so the engine shell has work."""
    candidates = [p for p in workload.positions if p.kind != "append"]
    step = max(1, len(candidates) // SAMPLE)
    sample = [uncached(position) for position in candidates[::step][:SAMPLE]]
    if sum(engine_query(position) is not None for position in sample) < 8:
        batches = [p for p in routed.positions if p.kind == "batch"][:8]
        sample += [
            uncached(Position("query", "solo", batch.payload[0])) for batch in batches
        ]
    return sample


def service_call(service: RetrievalService, position: Position, **override: Any) -> Any:
    return shells.service_call(service, position.kind, position.payload, **override)


def engine_query(position: Position) -> Any:
    return shells.engine_query(position.kind, position.payload)


def examined_cells(result: Any, query: Any) -> int:
    """Cells a result examined, as the router's feedback counts them."""
    counter = result.counter
    if counter.tuples_examined:
        return counter.tuples_examined
    return counter.data_points // max(1, len(query.model.attributes))


def parse_prometheus(body: bytes) -> dict[str, float]:
    values = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def strategy_family(label: str) -> str:
    """The ``routing.share.*`` bucket of a result's strategy label."""
    for family in ("onion", "scan", "embed-scan", "fused"):
        if label.startswith(family):
            return family
    return "quadtree"


def mean(values: Any) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _timed_us(call: Callable[[], Any], loops: int = 200) -> float:
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(loops):
            call()
        best = min(best, time.perf_counter() - started)
    return best / loops * 1e6


class Ledger:
    """One traced run: the metrics, the operations verified, the spans."""

    def __init__(self, workload: Workload, quick: bool) -> None:
        self.workload = workload
        self.passes = QUICK_PASSES if quick else PASSES
        scene = workload.scene
        self.routed = (
            workload
            if workload.name == "http_routed"
            else workloads.build("http_routed", workload.seed, workload.grid, scene)
        )
        self.ingest = (
            workload
            if workload.name == "ingest_mixed"
            else workloads.build("ingest_mixed", workload.seed, workload.grid, scene)
        )
        self.sample = pick_sample(workload, self.routed)
        self.operations = [(p.kind, p.payload) for p in self.sample]
        self.oracle = Oracle(scene)
        self.metrics: dict[str, tuple[float, str]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.spans: list[shells.Span] = []
        self.floors: dict[str, Any] = {}

    def verify(self, replies: list[Any], positions: list[Position], what: str) -> None:
        self.attempted += len(replies)
        workload = self.workload
        checked = Workload(what, workload.seed, workload.grid, workload.scene, positions)
        self.failures.extend(
            f"{what}: {message}"
            for message in harness.check_pass(checked, replies, self.oracle, warm=False)
        )

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    # -- S0 and what only a live server can tell ---------------------------

    def http_side(self, server: harness.Instance) -> None:
        sample, count = self.sample, len(self.sample)
        client = harness.HttpClient(server.port)
        positions = [p for p in self.workload.positions if p.kind != "append"]
        _, warm_replies = client.http_pass(positions)
        self.verify(warm_replies, positions, "S0 warm pass")
        cpu_before, busy_before = server.cpu_s(), time.process_time()
        wall_before = time.perf_counter()
        _, replies = client.http_pass(positions)
        wall = time.perf_counter() - wall_before
        client_cpu = time.process_time() - busy_before
        server_cpu = server.cpu_s() - cpu_before
        self.verify(replies, positions, "S0 full pass")
        labels = [harness.strategies(p, r) for p, r in zip(positions, replies)]
        warm_labels = [harness.strategies(p, r) for p, r in zip(positions, warm_replies)]
        flat = [label for group in labels for label in group]
        for family in ("onion", "quadtree", "scan", "fused", "embed-scan"):
            share = mean(strategy_family(label) == family for label in flat)
            self.put(f"routing.share.{family}", share, "ratio")

        def strip(group: list[str]) -> list[str]:
            return [label.removesuffix("-cached") for label in group]

        self.put(
            "routing.flip_share",
            mean(strip(a) != strip(b) for a, b in zip(labels, warm_labels)),
            "ratio",
        )
        self.put("cache.hit_share", mean(l.endswith("-cached") for l in flat), "ratio")
        ops = sum(position.weight for position in positions)
        self.put("bench.client_cpu_share", client_cpu / wall, "ratio")
        self.put("server.cpu_ms_per_op", server_cpu / ops * 1e3, "ms")

        traced: list[list[float]] = []
        plain: list[list[float]] = []
        started = time.perf_counter()
        while len(traced) < self.passes or (
            time.perf_counter() - started < S0_BUDGET_S
            and len(traced) < S0_MAX_ROUNDS
        ):
            # Alternate so drift hits traced and untraced passes alike.
            latencies, first = shells.timed_passes(
                lambda i: client.send(sample[i])[1], count, 1, self.spans, "S0"
            )
            if not traced:
                self.verify(first, sample, "S0 shell")
            traced += latencies
            plain += shells.timed_passes(
                lambda i: client.send(sample[i])[1], count, 1
            )[0]
        self.floors["S0"] = floor_ms(traced + plain)
        self.put(
            "bench.trace_overhead_ratio",
            floor_ms(traced).sum() / floor_ms(plain).sum(),
            "ratio",
        )
        halves = [floor_ms(plain[0::2]).sum(), floor_ms(plain[1::2]).sum()]
        self.put(
            "bench.split_half_rel",
            abs(halves[0] - halves[1]) / np.mean(halves),
            "ratio",
        )

        keep_alive_ms = min(client.get("/healthz")[0] for _ in range(60)) * 1e3
        self.put("http.floor_ms", keep_alive_ms, "ms")
        fresh_ms = []
        for _ in range(30):
            started = time.perf_counter()
            once = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
            once.request("GET", "/healthz")
            once.getresponse().read()
            fresh_ms.append((time.perf_counter() - started) * 1e3)
            once.close()
        self.put("http.connect_ms", min(fresh_ms) - keep_alive_ms, "ms")

        # Two connections at once: the only place coalescing can occur.
        before = parse_prometheus(client.get("/metrics")[2])
        solo = [p for p in sample if engine_query(p) is not None] or sample
        sent = [0, 0]

        def hammer(slot: int) -> None:
            other = harness.HttpClient(server.port)
            try:
                for position in (solo * 8)[:24]:
                    other.send(position)
                    sent[slot] += 1
            finally:
                other.close()

        threads = [threading.Thread(target=hammer, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        scrapes = [client.get("/metrics") for _ in range(5)]
        after = parse_prometheus(scrapes[-1][2])
        coalesced = after.get("frontend_coalesced_total", 0.0) - before.get(
            "frontend_coalesced_total", 0.0
        )
        self.put("http.coalesced_share", coalesced / max(1, sum(sent)), "ratio")
        self.put(
            "telemetry.metrics_scrape_ms", min(s[0] for s in scrapes) * 1e3, "ms"
        )
        shed = after.get("frontend_shed_queue_total", 0.0) + after.get(
            "frontend_shed_rate_total", 0.0
        )
        self.put("http.shed_share", shed / after["frontend_requests_total"], "ratio")
        self.put(
            "http.server_request_ms",
            after["frontend_request_seconds_sum"]
            / after["frontend_request_seconds_count"]
            * 1e3,
            "ms",
        )
        self.put("fleet.restarts", after.get("fleet_restarts", 0.0), "count")
        self.put("fleet.start_s", server.fleet_start_s, "s")
        self.put("store.create_s", server.store_create_s, "s")
        store_bytes = harness.tree_bytes(server.store)
        aggregate_bytes = sum(
            path.stat().st_size for path in server.store.rglob("aggregates.npz")
        )
        self.put("store.bytes", store_bytes, "B")
        self.put("store.aggregate_bytes_share", aggregate_bytes / store_bytes, "ratio")
        client.close()

    # -- S1, S2, S3: timed inside the server process -----------------------

    def server_side(self, server: harness.Instance) -> None:
        sample = self.sample
        timed = server.shells(self.operations, self.passes, ["S1", "S2", "S3"])
        self.spans += [tuple(span) for span in timed["spans"]]
        for name in ("S1", "S2"):
            self.verify(timed[name]["replies"], sample, f"{name} shell")
            self.floors[name] = floor_ms(timed[name]["latencies"])
        s0, s1, s2 = (self.floors[name] for name in ("S0", "S1", "S2"))
        picked = timed["S3"]["picked"]
        s3 = floor_ms(timed["S3"]["latencies"])
        self.floors["S3"] = s3
        self.floors["picked"] = picked
        self.put("http.self_ms", np.mean(s0 - s1), "ms")
        self.put("fleet.self_ms", np.mean(s1 - s2), "ms")
        self.put("service.self_ms", np.mean(s2[picked] - s3), "ms")
        self.put("engine.top_k_ms", np.mean(s3), "ms")
        nested = (s0 >= s1) & (s1 >= s2)
        nested[picked] &= s2[picked] >= s3
        self.put("bench.nesting_share", np.mean(nested), "ratio")

        # Span shipping on, in a second server; its Onion index is not
        # warmed, so Onion-routed positions sit out.
        unrouted = [i for i, p in enumerate(sample) if p.cls != "onion"]
        cold = replace(self.workload, warm=[])
        with harness.Instance(cold, "serve", ship_spans=True) as shipping:
            timed = shipping.shells(
                [self.operations[i] for i in unrouted], self.passes, ["S1"]
            )
        self.put(
            "telemetry.span_ship_overhead_ratio",
            floor_ms(timed["S1"]["latencies"]).sum() / s1[unrouted].sum(),
            "ratio",
        )

    # -- fixed probes, in this process -------------------------------------

    def probes(self, store: Any) -> None:
        passes, sample, routed = self.passes, self.sample, self.routed
        opened = []
        for _ in range(5):
            started = time.perf_counter()
            open_archive(store)
            opened.append(time.perf_counter() - started)
        self.put("store.open_ms", min(opened) * 1e3, "ms")
        archive, service = shells.worker_service(str(store))
        stack = service.engine.stack
        built = []
        for _ in range(3):
            started = time.perf_counter()
            RasterRetrievalEngine(stack, leaf_size=archive.screen_leaf_size)
            built.append(time.perf_counter() - started)
        self.put("pyramid.screen_build_ms", min(built) * 1e3, "ms")
        picked = self.floors["picked"]
        started = time.perf_counter()
        service_call(service, sample[picked[0]])
        self.put("engine.first_query_ms", (time.perf_counter() - started) * 1e3, "ms")
        spec = routed.warm[0]
        onion = service.warm_index(tuple(spec["attributes"]), tuple(spec["region"]))
        self.put("onion.build_s", onion.build_seconds, "s")
        self.put("onion.layers", onion.index.n_layers, "count")
        started = time.perf_counter()
        service.embeddings()
        self.put("embed.build_s", time.perf_counter() - started, "s")

        # Exact counts and the price of the default shard count, on the
        # sampled positions the engine shell covers.
        engine_sample = [sample[i] for i in picked]
        # On every CPU, as a deployed worker runs: pinned to one, two
        # shard threads cannot contend and the default looks free.
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, harness.ALL_CPUS)
        try:
            one_ms, counted = floors(
                lambda i: service_call(service, engine_sample[i]), len(picked), passes
            )
            two_ms, _ = floors(
                lambda i: service_call(service, engine_sample[i], n_shards=None),
                len(picked),
                passes,
            )
        finally:
            os.sched_setaffinity(0, pinned)
        self.put("service.shard_overhead_ratio", two_ms.sum() / one_ms.sum(), "ratio")
        queries = [engine_query(position).query for position in engine_sample]
        nodes = sum(result.counter.nodes_visited for result in counted)
        self.put(
            "engine.cells_per_query",
            mean(examined_cells(r, q) for r, q in zip(counted, queries)),
            "count",
        )
        self.put("engine.nodes_per_query", nodes / len(counted), "count")
        self.put(
            "engine.prune_ratio",
            sum(r.audit.tiles_pruned for r in counted)
            / max(1, sum(r.audit.tiles_screened for r in counted)),
            "ratio",
        )
        self.put(
            "engine.us_per_node", self.floors["S3"].sum() * 1e3 / max(1, nodes), "us"
        )

        payload = engine_sample[0].payload
        document = encode_result(counted[0])
        self.put(
            "protocol.decode_query_us", _timed_us(lambda: decode_query(payload)), "us"
        )
        self.put(
            "protocol.encode_result_us",
            _timed_us(lambda: encode_result(counted[0])),
            "us",
        )
        item = WorkItem(kind="query", request_id=1, payload=payload)
        reply = WorkReply(request_id=1, worker_id=0, ok=True, value=document)
        self.put(
            "fleet.pickle_us",
            _timed_us(
                lambda: (
                    pickle.loads(pickle.dumps(item)),
                    pickle.loads(pickle.dumps(reply)),
                )
            ),
            "us",
        )

        # Cache probes: the workload's cacheable queries through this
        # process's service, twice; the second pass is the steady state.
        cacheable = [
            p
            for p in self.workload.positions
            if p.kind == "query" and p.payload.get("use_cache", True)
        ]
        for position in cacheable:
            service_call(service, position)
        entries, misses = len(service.cache), service.cache.misses
        for position in cacheable:
            service_call(service, position)
        inserted = service.cache.misses - misses
        self.put(
            "cache.evictions", inserted - (len(service.cache) - entries), "count"
        )
        hot = replace(engine_sample[0], payload={**payload, "use_cache": True})
        service_call(service, hot)
        self.put("cache.hit_us", _timed_us(lambda: service_call(service, hot)), "us")

        # Batches against their members sent alone.
        batches = [uncached(p) for p in routed.positions if p.kind == "batch"][:4]
        batch_ms, _ = floors(
            lambda i: service_call(service, batches[i]), len(batches), passes
        )
        members = [
            Position("query", "solo", member)
            for batch in batches
            for member in batch.payload
        ]
        solo_ms, _ = floors(
            lambda i: service_call(service, members[i]), len(members), passes
        )
        self.put("batch.ms_per_member", batch_ms.sum() / len(members), "ms")
        self.put("batch.speedup_vs_solo", solo_ms.sum() / batch_ms.sum(), "ratio")

        # Routed probes: auto against every forced strategy that can
        # answer, on the same queries.
        def forced(positions: list[Position], strategy: str) -> tuple[np.ndarray, list]:
            return floors(
                lambda i: service_call(service, positions[i], strategy=strategy),
                len(positions),
                passes,
            )

        onions = [uncached(p) for p in routed.positions if p.cls == "onion"][:8]
        fuseds = [uncached(p) for p in routed.positions if p.cls == "fused"][:8]
        auto = np.concatenate([forced(onions, "auto")[0], forced(fuseds, "auto")[0]])
        onion_ms, onion_results = forced(onions, "onion")
        fused_ms, fused_results = forced(fuseds, "fused")
        scan_ms, scan_results = forced(fuseds, "embed-scan")
        best = np.concatenate(
            [
                np.minimum.reduce(
                    [onion_ms, forced(onions, "quadtree")[0], forced(onions, "scan")[0]]
                ),
                np.minimum(fused_ms, scan_ms),
            ]
        )
        self.put("routing.regret_ratio", auto.sum() / best.sum(), "ratio")
        self.put("onion.query_ms", onion_ms.mean(), "ms")
        self.put(
            "onion.tuples_per_query",
            mean(result.counter.tuples_examined for result in onion_results),
            "count",
        )
        self.put("embed.fused_ms", fused_ms.mean(), "ms")
        self.put("embed.embed_scan_ms", scan_ms.mean(), "ms")
        fused_queries = [decode_query(p.payload).query for p in fuseds]
        self.put(
            "embed.cells_ratio",
            sum(examined_cells(r, q) for r, q in zip(fused_results, fused_queries))
            / sum(examined_cells(r, q) for r, q in zip(scan_results, fused_queries)),
            "ratio",
        )

    # -- the store's write path, on a store of its own ---------------------

    def write_path(self) -> None:
        ingest = self.ingest
        twin = Oracle(ingest.scene)
        with harness.Instance(ingest, "ingest") as writer:
            done = [writer.ingest_pass() for _ in range(1 + max(2, self.passes - 1))]
        for index, (_, replies) in enumerate(done):
            self.attempted += len(replies)
            self.failures.extend(
                f"ingest probe: {message}"
                for message in harness.check_pass(ingest, replies, twin, warm=index > 0)
            )
        ingest_ms = floor_ms([latencies for latencies, _ in done[1:]])
        by_class = {
            cls: [ms for ms, p in zip(ingest_ms, ingest.positions) if p.cls == cls]
            for cls in ("append", "recompute")
        }
        cells = ingest.blocks[0].size
        self.put("store.append_ms", mean(by_class["append"]), "ms")
        self.put(
            "store.append_us_per_cell", mean(by_class["append"]) * 1e3 / cells, "us"
        )
        self.put("store.read_after_append_ms", mean(by_class["recompute"]), "ms")
        self.put(
            "store.survivor_hit_share",
            mean(
                str(reply.get("strategy")).endswith("-cached")
                for _, replies in done[1:]
                for reply, position in zip(replies, ingest.positions)
                if position.cls == "hit"
            ),
            "ratio",
        )


def measure(workload: Workload, quick: bool) -> dict:
    ledger = Ledger(workload, quick)
    with harness.Instance(workload, "serve") as server:
        ledger.http_side(server)
        ledger.server_side(server)
        ledger.probes(server.store)
    ledger.write_path()
    return {
        "metrics": ledger.metrics,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in ledger.spans
        ],
        "shells": {
            "classes": [position.cls for position in ledger.sample],
            **{
                name: np.asarray(values).tolist()
                for name, values in ledger.floors.items()
            },
        },
    }
