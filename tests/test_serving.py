"""Serving-fleet suite: protocol, worker entrypoint, fleet, HTTP front end.

The headline contract is *bit-identity*: every answer a worker process
returns over HTTP equals the in-process ``top_k`` / ``top_k_batch``
result for the same query — same cells, same order, same float bits.
A hypothesis differential drives that through the fleet, and
deterministic scenarios cover the operational surface: deadline headers
becoming prefix-sound partials, 429 shedding when the queue fills,
per-client rate limits, worker-crash recovery (retried or failed
cleanly, never hung), warm-at-startup, and the in-flight coalescer.

Process-backed tests share one module-scoped 2-worker fleet (spawning
is the expensive part); HTTP servers are per-test (a thread + socket).
"""

from __future__ import annotations

import dataclasses
import http.client
import inspect
import json
import multiprocessing
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import TopKQuery
from repro.data.archive import Archive
from repro.data.raster import RasterLayer, RasterStack
from repro.data.store import ArchiveWriter
from repro.data.store.format import manifest_path
from repro.exceptions import QueryError
from repro.metrics.registry import MetricsRegistry, merge_snapshots
from repro.models.linear import LinearModel
from repro.service import CancellationToken, RetrievalService
from repro.serving import (
    FleetConfig,
    ProtocolError,
    ServingServer,
    StoreArchiveManifest,
    WorkerFleet,
    decode_query,
    encode_query,
    encode_result,
)
from repro.serving import http as serving_http
from repro.serving.http import TokenBucket
from repro.serving.protocol import (
    KNOB_DEFAULTS,
    MIN_DEADLINE_S,
    DecodedQuery,
    WorkItem,
    batch_key,
    deadline_remaining_s,
)
from repro.serving.worker import READY_ID, WorkerConfig, worker_main
from repro.telemetry.events import global_event_log
from repro.telemetry.prometheus import render_prometheus

SHAPE = (96, 96)
LAYERS = ("band_a", "band_b", "tie_a", "tie_b")


def _build_stack() -> RasterStack:
    """Two smooth bands + two small-integer tie layers: enough cells
    that deadlines can truncate, enough ties to stress ordering."""
    generator = np.random.default_rng(4242)
    stack = RasterStack()
    for name in LAYERS[:2]:
        stack.add(RasterLayer(name, generator.normal(size=SHAPE)))
    for name in LAYERS[2:]:
        stack.add(
            RasterLayer(
                name,
                generator.integers(0, 3, size=SHAPE).astype(float),
            )
        )
    return stack


def _model(seed: int) -> LinearModel:
    generator = np.random.default_rng(seed)
    return LinearModel(
        {
            name: float(generator.choice([-2.0, -1.0, 1.0, 2.0]))
            for name in LAYERS
        },
        intercept=0.25,
        name=f"m{seed}",
    )


@pytest.fixture(scope="module")
def serving_stack() -> RasterStack:
    return _build_stack()


@pytest.fixture(scope="module")
def local_service(serving_stack) -> RetrievalService:
    """In-process reference, configured exactly like the workers."""
    return RetrievalService(
        serving_stack,
        leaf_size=16,
        n_shards=2,
        cache_size=128,
        registry=MetricsRegistry(),
    )


@pytest.fixture(scope="module")
def fleet(serving_stack):
    """One 2-worker fleet for the whole module (spawn is the cost)."""
    fleet = WorkerFleet(
        serving_stack,
        FleetConfig(
            n_workers=2,
            n_shards=2,
            debug_hooks=True,
            warm=[{"attributes": ["band_a", "band_b"], "region": None}],
        ),
    )
    fleet.start()
    yield fleet
    fleet.stop()


def _post(server, path, payload, headers=None):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=60
    )
    try:
        connection.request(
            "POST", path, body=json.dumps(payload).encode(), headers=headers or {}
        )
        response = connection.getresponse()
        body = response.read()
        return response.status, json.loads(body), dict(response.getheaders())
    finally:
        connection.close()


def _get(server, path):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=60
    )
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# -- protocol (no processes) -------------------------------------------------


class TestProtocol:
    def test_query_round_trip(self):
        query = TopKQuery(
            model=_model(3), k=7, maximize=False, region=(2, 3, 40, 50)
        )
        payload = encode_query(
            query, strategy="auto", use_cache=False, heuristic_margin=0.5
        )
        decoded = decode_query(json.loads(json.dumps(payload)))
        assert decoded.query.k == 7
        assert decoded.query.maximize is False
        assert decoded.query.region == (2, 3, 40, 50)
        assert decoded.query.model.coefficients == query.model.coefficients
        assert decoded.query.model.intercept == query.model.intercept
        assert decoded.strategy == "auto"
        assert decoded.use_cache is False
        assert decoded.heuristic_margin == 0.5

    @pytest.mark.parametrize(
        "mutation",
        [
            {"k": 0},
            {"k": True},
            {"k": "ten"},
            {"maximize": 1},
            {"region": [1, 2, 3]},
            {"region": [1, 2, 3, True]},
            {"strategy": "warp"},
            {"pruning": "vibes"},
            {"heuristic_margin": float("nan")},
            {"n_shards": 0},
            {"bogus_field": 1},
            {"model": {"type": "linear", "coefficients": {}}},
            {"model": {"type": "svm"}},
            {"model": {"type": "linear", "coefficients": {"band_a": "x"}}},
        ],
    )
    def test_malformed_payloads_rejected(self, mutation):
        payload = encode_query(TopKQuery(model=_model(1), k=3))
        payload.update(mutation)
        with pytest.raises(ProtocolError):
            decode_query(payload)

    def test_encode_query_rejects_unknown_knob(self):
        with pytest.raises(ProtocolError):
            encode_query(TopKQuery(model=_model(1), k=3), turbo=True)

    def test_decode_query_names_a_retired_knob(self):
        payload = encode_query(TopKQuery(model=_model(1), k=3))
        payload["use_model_levels"] = True
        with pytest.raises(ProtocolError, match="use_model_levels"):
            decode_query(payload)

    def test_wire_knobs_agree_with_the_service(self):
        """A knob cannot be retired on one side and left on the other:
        the wire's knobs are ``DecodedQuery``'s and keywords of
        ``RetrievalService.top_k``, with one default on all three."""
        decoded = {
            field.name: field.default
            for field in dataclasses.fields(DecodedQuery)
            if field.name != "query"
        }
        assert set(KNOB_DEFAULTS) == set(decoded)
        parameters = inspect.signature(RetrievalService.top_k).parameters
        for knob, default in KNOB_DEFAULTS.items():
            assert knob in parameters, knob
            assert parameters[knob].kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            ), knob
            assert decoded[knob] == default, knob
            assert parameters[knob].default == default, knob

    def test_batch_key_groups_by_execution_knobs(self):
        compatible_a = encode_query(TopKQuery(model=_model(1), k=3))
        compatible_b = encode_query(TopKQuery(model=_model(2), k=9))
        incompatible = encode_query(
            TopKQuery(model=_model(1), k=3), use_cache=False
        )
        assert batch_key(compatible_a) == batch_key(compatible_b)
        assert batch_key(compatible_a) != batch_key(incompatible)

    def test_deadline_remaining_clamps_expired(self):
        assert deadline_remaining_s(None) is None
        remaining = deadline_remaining_s(100.0, now=250.0)
        assert remaining == MIN_DEADLINE_S > 0
        # No fresh budget: a token over what is left fires at once.
        assert CancellationToken(deadline_s=remaining).cancelled
        assert deadline_remaining_s(105.0, now=100.0) == pytest.approx(5.0)


class TestMergeSnapshots:
    def test_counters_sum_gauges_average_histograms_merge(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.inc("service.queries", 3)
        second.inc("service.queries", 5)
        first.gauge("service.cache_hit_rate", 0.2)
        second.gauge("service.cache_hit_rate", 0.6)
        for value in (0.001, 0.010, 0.100):
            first.observe("service.stage.search_seconds", value)
        second.observe("service.stage.search_seconds", 0.010)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["counters"]["service.queries"] == 8
        assert merged["gauges"]["service.cache_hit_rate"] == pytest.approx(0.4)
        histogram = merged["histograms"]["service.stage.search_seconds"]
        assert histogram["count"] == 4
        assert histogram["sum"] == pytest.approx(0.121)
        assert histogram["min"] == pytest.approx(0.001)
        assert histogram["max"] == pytest.approx(0.100)
        # The merged snapshot must render as valid exposition text.
        text = render_prometheus(merged)
        assert "service_queries_total 8" in text
        assert 'service_stage_search_seconds_bucket{le="+Inf"} 4' in text

    def test_mismatched_bucket_bounds_raise(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.01)
        snapshot = registry.snapshot()
        doctored = json.loads(json.dumps(snapshot))
        doctored["histograms"]["h"]["buckets"] = [[0.5, 1]]
        with pytest.raises(ValueError):
            merge_snapshots([snapshot, doctored])


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, now=lambda: clock[0])
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        retry_after = bucket.try_acquire()
        assert retry_after == pytest.approx(0.5)
        clock[0] += 0.5  # one token refilled
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_burst_never_exceeds_capacity(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, now=lambda: clock[0])
        clock[0] += 100.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


# -- worker entrypoint --------------------------------------------------------


class TestWorkerMain:
    def test_worker_over_store_manifest_bit_identical_to_in_process(
        self, serving_stack, tmp_path, monkeypatch
    ):
        """``worker_main`` driven directly (a thread, two pipes) over a
        store written from the stack answers exactly what the in-process
        service answers over the stack itself."""
        # worker_main wires its registry into the process-global event
        # log; in a thread that is *this* process's, so put it back.
        monkeypatch.setattr(global_event_log(), "registry", None)
        archive = Archive("direct")
        for name in serving_stack.names:
            archive.add(serving_stack[name])
        ArchiveWriter.create(tmp_path / "store", archive, screen_leaf_size=16)
        manifest = StoreArchiveManifest(
            path=str(tmp_path / "store"), layers=tuple(serving_stack.names)
        )
        request_read, request_write = multiprocessing.Pipe(duplex=False)
        reply_read, reply_write = multiprocessing.Pipe(duplex=False)
        worker = threading.Thread(
            target=worker_main,
            args=(0, manifest, request_read, reply_write, WorkerConfig()),
            daemon=True,
        )
        worker.start()
        try:
            assert reply_read.poll(60)
            assert reply_read.recv().request_id == READY_ID
            local = RetrievalService(
                serving_stack, leaf_size=16, registry=MetricsRegistry()
            )
            for seed in (31, 32, 33):
                query = TopKQuery(model=_model(seed), k=7)
                request_write.send(
                    WorkItem(
                        kind="query",
                        request_id=seed,
                        payload=encode_query(query),
                    )
                )
                assert reply_read.poll(60)
                reply = reply_read.recv()
                assert reply.ok, reply.error
                expected = encode_result(local.top_k(query))
                for document in (reply.value, expected):
                    document["counter"].pop("wall_seconds", None)
                    document.pop("trace_id", None)
                assert reply.value == expected
        finally:
            request_write.send(WorkItem(kind="shutdown", request_id=0))
            worker.join(30)
        assert not worker.is_alive()


# -- satellite 1: explicit service concurrency knobs -------------------------


class TestServiceConcurrencyKnobs:
    def test_pool_workers_default_and_override(self, serving_stack):
        registry = MetricsRegistry()
        service = RetrievalService(
            serving_stack, n_shards=3, registry=registry
        )
        assert service.pool_workers == max(8, 2 * 3)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["service.n_shards"] == 3.0
        assert snapshot["gauges"]["service.pool_workers"] == 8.0
        assert snapshot["gauges"]["service.cache_capacity"] == 128.0

        explicit = RetrievalService(
            serving_stack, n_shards=2, pool_workers=5
        )
        assert explicit.pool_workers == 5

    def test_pool_workers_validation(self, serving_stack):
        with pytest.raises(QueryError):
            RetrievalService(serving_stack, pool_workers=0)


# -- fleet differential ------------------------------------------------------


class TestFleetDifferential:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=25),
        maximize=st.booleans(),
        quarter=st.booleans(),
    )
    def test_worker_answers_bit_identical_to_in_process(
        self, fleet, local_service, seed, k, maximize, quarter
    ):
        region = (0, 0, SHAPE[0] // 2, SHAPE[1] // 2) if quarter else None
        query = TopKQuery(
            model=_model(seed), k=k, maximize=maximize, region=region
        )
        reply = fleet.submit_query(encode_query(query)).result(timeout=60)
        assert reply.ok, reply.error
        local = encode_result(local_service.top_k(query))
        assert reply.value["answers"] == local["answers"]
        assert reply.value["complete"] is True

    def test_batch_bit_identical_to_in_process(self, fleet, local_service):
        queries = [TopKQuery(model=_model(seed), k=5) for seed in range(6)]
        payloads = [encode_query(query) for query in queries]
        reply = fleet.submit_batch(payloads).result(timeout=60)
        assert reply.ok, reply.error
        local = [
            encode_result(result)
            for result in local_service.top_k_batch(queries)
        ]
        assert [member["answers"] for member in reply.value] == [
            member["answers"] for member in local
        ]

    def test_warm_hook_ran_at_startup(self, fleet):
        stats = fleet.stats()
        assert len(stats) == 2
        assert all(entry["onion_indexes"] >= 1 for entry in stats)
        assert all(
            entry["registry"]["counters"]["service.worker_starts"] >= 1
            for entry in stats
        )

    def test_fleet_warm_broadcast_reaches_every_worker(self, fleet):
        replies = fleet.warm_index(["tie_a", "tie_b"])
        assert len(replies) == 2
        assert all(reply.ok for reply in replies)
        assert all(reply.value["layers"] >= 1 for reply in replies)
        stats = fleet.stats()
        assert all(entry["onion_indexes"] >= 2 for entry in stats)


# -- HTTP front end ----------------------------------------------------------


class TestHttpFrontEnd:
    def test_query_over_http_matches_local(self, fleet, local_service):
        with ServingServer(fleet) as server:
            query = TopKQuery(model=_model(77), k=9)
            status, body, headers = _post(
                server, "/query", encode_query(query),
                headers={"X-Trace-Id": "trace-abc-123"},
            )
            assert status == 200
            local = encode_result(local_service.top_k(query))
            assert body["answers"] == local["answers"]
            assert body["trace_id"] == "trace-abc-123"
            assert headers["X-Trace-Id"] == "trace-abc-123"

    def test_batch_over_http_matches_local(self, fleet, local_service):
        with ServingServer(fleet) as server:
            queries = [
                TopKQuery(model=_model(seed), k=4) for seed in (11, 12, 13)
            ]
            status, body, _ = _post(
                server,
                "/batch",
                {"queries": [encode_query(query) for query in queries]},
            )
            assert status == 200
            local = [
                encode_result(result)
                for result in local_service.top_k_batch(queries)
            ]
            assert [member["answers"] for member in body["results"]] == [
                member["answers"] for member in local
            ]

    def test_concurrent_keep_alive_clients_see_only_200s(
        self, fleet, local_service
    ):
        """Four clients, one keep-alive connection each, driving
        uncached queries at once through both workers: every reply is a
        200 carrying the in-process answer — none shed, dropped or
        crossed between connections."""
        queries = {
            client: [TopKQuery(model=_model(100 * client + i), k=5) for i in range(8)]
            for client in range(4)
        }
        expected = {
            client: [encode_result(local_service.top_k(q))["answers"] for q in qs]
            for client, qs in queries.items()
        }
        replies = {client: [] for client in queries}

        def drive(server, client):
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=60
            )
            try:
                for query in queries[client]:
                    body = json.dumps(encode_query(query, use_cache=False))
                    connection.request("POST", "/query", body=body.encode())
                    response = connection.getresponse()
                    replies[client].append(
                        (response.status, json.loads(response.read()).get("answers"))
                    )
            finally:
                connection.close()

        with ServingServer(fleet, coalesce=False) as server:
            threads = [
                threading.Thread(target=drive, args=(server, client), daemon=True)
                for client in queries
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        for client in queries:
            assert replies[client] == [
                (200, answers) for answers in expected[client]
            ]

    def test_malformed_body_is_400_not_worker_work(self, fleet):
        with ServingServer(fleet) as server:
            status, body, _ = _post(server, "/query", {"k": 3})
            assert status == 400
            assert "model" in body["error"]
            status, body, _ = _post(
                server, "/batch", {"queries": []}
            )
            assert status == 400

    def test_unknown_attribute_is_400_on_a_forced_strategy(self, fleet):
        """The front end cannot know the stack's layers, so a typo in a
        model reaches a worker — whose admit stage refuses it as a
        client error whatever the strategy (a forced scan used to die
        on the stack lookup: 500 ``internal``)."""
        payload = encode_query(
            TopKQuery(model=LinearModel({"band_a": 1.0, "zzz": 2.0}), k=3)
        )
        payload["strategy"] = "scan"
        with ServingServer(fleet) as server:
            status, body, _ = _post(server, "/query", payload)
            assert status == 400
            assert body["kind"] == "query"
            assert "stack lacks model attributes ['zzz']" in body["error"]

    @pytest.mark.parametrize(
        "length, status",
        [("abc", 400), ("-5", 400), ("99999999999", 413)],
    )
    def test_bad_content_length_is_a_typed_4xx(
        self, fleet, raw_http, caplog, length, status
    ):
        with ServingServer(fleet) as server:
            request = (
                "POST /query HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\nX-Trace-Id: len-1\r\n\r\n"
            ).encode()
            [(got, headers, body)] = raw_http(server, request, closes=True)
            assert got == status
            assert "error" in json.loads(body)
            assert headers["X-Trace-Id"] == "len-1"
            assert headers["Connection"] == "close"
            counters = server.registry.snapshot()["counters"]
            assert counters["frontend.requests"] == 1
            assert "frontend.errors" not in counters
        # Refused on purpose, not by an exception escaping the loop.
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_oversized_head_is_a_typed_431(
        self, fleet, raw_http, caplog, oversized_head
    ):
        with ServingServer(fleet) as server:
            [(status, headers, body)] = raw_http(
                server, oversized_head, closes=True
            )
            assert status == 431
            assert "limit" in json.loads(body)["error"]
            assert headers["X-Trace-Id"]
            assert headers["Connection"] == "close"
            counters = server.registry.snapshot()["counters"]
            assert counters["frontend.requests"] == 1
            assert "frontend.errors" not in counters
        # Refused on purpose, not by an exception escaping the loop.
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_unknown_route_404_and_wrong_method_405(self, fleet):
        with ServingServer(fleet) as server:
            status, _ = _get(server, "/nope")
            assert status == 404
            status, _ = _get(server, "/query")
            assert status == 405

    def test_deadline_header_yields_prefix_sound_partial(self, fleet):
        with ServingServer(fleet) as server:
            # Hold both workers so the 1 ms budget runs out before the
            # query is dispatched (a query can finish inside it): it
            # still runs, and stops at its first loop check.
            sleeps = [
                fleet.submit(
                    WorkItem(kind="sleep", request_id=0, payload=0.3),
                    worker_id=worker_id,
                )
                for worker_id in range(2)
            ]
            query = TopKQuery(model=_model(991), k=40)
            status, body, _ = _post(
                server,
                "/query",
                encode_query(query, use_cache=False),
                headers={"X-Deadline-Ms": "1"},
            )
            for future in sleeps:
                future.result(timeout=30)
            assert status == 200
            assert body["complete"] is False
            assert body["strategy"].endswith("-partial")
            assert body["cancel_reason"] == "deadline"

    def test_bad_deadline_header_is_400(self, fleet):
        with ServingServer(fleet) as server:
            query = encode_query(TopKQuery(model=_model(1), k=3))
            for value in ("soon", "-5", "0"):
                status, body, _ = _post(
                    server, "/query", query,
                    headers={"X-Deadline-Ms": value},
                )
                assert status == 400
                assert "X-Deadline-Ms" in body["error"]

    def test_metrics_document_merges_workers_and_frontend(self, fleet):
        with ServingServer(fleet) as server:
            _post(
                server, "/query",
                encode_query(TopKQuery(model=_model(5), k=3)),
            )
            status, text = _get(server, "/metrics")
            assert status == 200
            exposition = text.decode()
            assert "service_worker_starts_total 2" in exposition
            assert "frontend_requests_total" in exposition
            assert "fleet_workers_alive 2" in exposition
            status, health = _get(server, "/healthz")
            assert status == 200
            payload = json.loads(health)
            assert payload["status"] == "ok"
            assert len(payload["workers"]) == 2

    def test_queue_full_sheds_429_with_retry_after(self, fleet):
        with ServingServer(fleet, queue_depth=1, coalesce=False) as server:
            # Pin both workers down so admitted queries cannot drain.
            sleeps = [
                fleet.submit(
                    WorkItem(kind="sleep", request_id=0, payload=1.2),
                    worker_id=worker_id,
                )
                for worker_id in range(2)
            ]
            payload = encode_query(
                TopKQuery(model=_model(8), k=3), use_cache=False
            )
            results = []
            lock = threading.Lock()

            def fire():
                status, _, headers = _post(server, "/query", payload)
                with lock:
                    results.append((status, headers.get("Retry-After")))

            threads = [
                threading.Thread(target=fire, daemon=True) for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            for future in sleeps:
                future.result(timeout=30)
            statuses = sorted(status for status, _ in results)
            assert 429 in statuses, statuses
            assert all(status in (200, 429) for status, _ in results)
            assert any(
                retry is not None
                for status, retry in results
                if status == 429
            )
            shed = server.registry.snapshot()["counters"].get(
                "frontend.shed_queue", 0
            )
            assert shed >= 1

    def test_client_rate_limit_429(self, fleet):
        with ServingServer(
            fleet, rate_limit=1.0, rate_burst=1.0
        ) as server:
            payload = encode_query(TopKQuery(model=_model(9), k=3))
            headers = {"X-Client-Id": "hammer"}
            first, _, _ = _post(server, "/query", payload, headers=headers)
            second, body, reply_headers = _post(
                server, "/query", payload, headers=headers
            )
            assert first == 200
            assert second == 429
            assert "rate limit" in body["error"]
            assert "Retry-After" in reply_headers
            # A different client is untouched by the hammer's bucket.
            other, _, _ = _post(
                server, "/query", payload,
                headers={"X-Client-Id": "polite"},
            )
            assert other == 200

    def test_rate_limit_table_drops_refilled_buckets_only(
        self, fleet, raw_http, monkeypatch
    ):
        # Buckets on a clock the test turns. A "{}" body passes the rate
        # limit (or not: 429) and is then refused as a 400, so nothing
        # here reaches a worker.
        clock = [0.0]
        monkeypatch.setattr(
            serving_http,
            "TokenBucket",
            lambda rate, burst: TokenBucket(rate, burst, now=lambda: clock[0]),
        )

        def ask(client: str) -> bytes:
            return (
                f"POST /query HTTP/1.1\r\nX-Client-Id: {client}\r\n"
                "Content-Length: 2\r\n\r\n{}"
            ).encode()

        with ServingServer(fleet, rate_limit=1.0, rate_burst=1.0) as server:
            for batch in range(20):
                # Everyone refills; the hammer spends its token at once,
                # then 500 one-shot clients arrive at the same instant.
                clock[0] += 2.0
                requests = [ask("hammer"), ask("hammer")] + [
                    ask(f"once-{batch}-{index}") for index in range(500)
                ] + [ask("hammer")]
                statuses = [
                    status
                    for status, _, _ in raw_http(
                        server, b"".join(requests), expect=len(requests)
                    )
                ]
                # Whatever was swept while the 500 arrived, the hammer's
                # drained bucket was not: a fresh one would let it in.
                assert statuses[:2] == [400, 429]
                assert statuses[2:-1] == [400] * 500
                assert statuses[-1] == 429
                assert len(server._buckets) <= serving_http._MAX_BUCKETS
            assert "once-0-0" not in server._buckets

    def test_coalescer_groups_compatible_queries(self, fleet, local_service):
        with ServingServer(fleet, coalesce=True, coalesce_max=8) as server:
            # Hold both workers so concurrent arrivals pile up in the
            # dispatch queue where the lanes can coalesce them.
            sleeps = [
                fleet.submit(
                    WorkItem(kind="sleep", request_id=0, payload=0.8),
                    worker_id=worker_id,
                )
                for worker_id in range(2)
            ]
            queries = [TopKQuery(model=_model(seed), k=6) for seed in range(60, 66)]
            results: dict[int, dict] = {}
            lock = threading.Lock()

            def fire(index: int) -> None:
                status, body, _ = _post(
                    server, "/query", encode_query(queries[index])
                )
                with lock:
                    results[index] = (status, body)

            threads = [
                threading.Thread(target=fire, args=(index,), daemon=True)
                for index in range(len(queries))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            for future in sleeps:
                future.result(timeout=30)
            assert len(results) == len(queries)
            for index, query in enumerate(queries):
                status, body = results[index]
                assert status == 200
                local = encode_result(local_service.top_k(query))
                assert body["answers"] == local["answers"], (
                    f"coalesced answer {index} diverged from in-process"
                )
            coalesced = server.registry.snapshot()["counters"].get(
                "frontend.coalesced", 0
            )
            assert coalesced >= 1, "no queries were coalesced under load"


# -- crash recovery (last: it respawns a worker) -----------------------------


class TestCrashRecovery:
    def test_crash_is_failed_cleanly_and_inflight_retried(self, fleet):
        before = fleet.restarts
        store = fleet._store_path
        # The query queued behind the crash dies with the worker; the
        # monitor must resubmit it elsewhere, never hang its future.
        crash = fleet.submit(
            WorkItem(kind="crash", request_id=0), worker_id=0
        )
        queued = fleet.submit(
            WorkItem(
                kind="query",
                request_id=0,
                payload=encode_query(TopKQuery(model=_model(21), k=5)),
            ),
            worker_id=0,
        )
        crash_reply = crash.result(timeout=30)
        assert crash_reply.ok is False
        assert crash_reply.error_kind == "crashed"
        queued_reply = queued.result(timeout=30)
        assert queued_reply.ok, queued_reply.error
        assert queued_reply.value["answers"]

        deadline = time.monotonic() + 30
        while fleet.restarts <= before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert fleet.restarts == before + 1

        # The respawned worker serves again (and re-ran its warm hook).
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            stats = fleet.stats()
            if len(stats) == 2 and all(
                entry["onion_indexes"] >= 1 for entry in stats
            ):
                break
            time.sleep(0.1)
        else:
            pytest.fail("respawned worker never became serviceable")
        reply = fleet.submit_query(
            encode_query(TopKQuery(model=_model(22), k=3))
        ).result(timeout=30)
        assert reply.ok, reply.error
        # ... out of the same temporary store the fleet wrote at start.
        assert fleet._store_path == store
        assert manifest_path(store).exists()
