"""Tests for the telemetry subsystem (PR 5, ISSUE 5).

Covers the tentpole and every satellite:

* trace-context propagation — span ids, parent links, CPU time — and
  the Chrome ``trace_event`` / JSONL exporters (empty input, unicode,
  ring-buffer overflow, concurrent export under live queries);
* Prometheus text exposition of registry snapshots, pinned to the
  format grammar with cumulative-monotone ``le`` buckets;
* the ``/metrics`` / ``/healthz`` / ``/traces`` HTTP endpoints;
* ``top_k(..., explain=True)`` pruning waterfalls reconciling exactly
  with the result's :class:`~repro.core.results.PruningAudit`;
* batch retirement-reason metadata (deadline vs explicit cancel).
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import urllib.request

import pytest

from repro.core.query import TopKQuery
from repro.metrics.registry import LatencyHistogram, MetricsRegistry
from repro.models.linear import hps_risk_model
from repro.service import CancellationToken, RetrievalService
from repro.service.tracing import BatchTrace, QueryTrace
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem
from repro.telemetry import (
    MetricsServer,
    TraceBuffer,
    chrome_trace_document,
    chrome_trace_events,
    escape_label_value,
    export_chrome_trace,
    render_prometheus,
    sanitize_metric_name,
)
from repro.telemetry.export import JsonlTraceExporter
from repro.telemetry.explain import explain_result


def _service(stack, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    return RetrievalService(stack, leaf_size=4, **kwargs)


def _fetch(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as reply:
        return reply.read()


#: One valid exposition sample: name, optional labels, value, optional
#: timestamp (a regex, not a client library — the toolchain is stdlib).
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\\\"n])*\")*\})?"
    r" [^ \n]+( [0-9]+)?$"
)
_COMMENT_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*$")


def lint_promtext(text: str) -> int:
    """Check a whole ``/metrics`` document against the Prometheus text
    grammar, line by line, and every histogram family for distinct
    ``le`` bounds ending in ``+Inf`` with cumulative counts; returns
    the number of samples."""
    samples = 0
    families: dict[str, list[tuple[float, float]]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            assert _COMMENT_RE.match(line), f"bad comment line {number}: {line!r}"
            continue
        assert _SAMPLE_RE.match(line), f"bad sample line {number}: {line!r}"
        samples += 1
        if "_bucket{" in line:
            bound = re.search(r'le="([^"]+)"', line)
            assert bound is not None, f"bucket without le, line {number}: {line!r}"
            families.setdefault(line.split("{", 1)[0], []).append(
                (
                    float(bound.group(1).replace("+Inf", "inf")),
                    float(line.rsplit(" ", 1)[1]),
                )
            )
    for name, buckets in families.items():
        bounds = [bound for bound, _ in sorted(buckets)]
        counts = [count for _, count in sorted(buckets)]
        assert bounds == sorted(set(bounds)), f"{name}: duplicate le {bounds}"
        assert bounds[-1] == float("inf"), f"{name}: no le=\"+Inf\" bucket"
        assert counts == sorted(counts), f"{name}: non-cumulative {counts}"
    return samples


# -- trace-context propagation (tentpole) -------------------------------------


class TestTraceContext:
    def test_solo_trace_has_ids_and_parent_links(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(16, 16, 2, seed=3)
        service = _service(stack)
        result = service.top_k(
            TopKQuery(model=make_random_linear_model(stack), k=3)
        )
        trace = result.trace
        assert re.fullmatch(r"[0-9a-f]{16}", trace.trace_id)
        assert trace.parent_span_id is None
        ids = {trace.span_id}
        for span in trace.spans:
            assert span.span_id not in ids  # unique within the trace
            ids.add(span.span_id)
        # Every stage span hangs off the root (or another stage span).
        for span in trace.spans:
            assert span.parent_id in ids
        # Shard records parent on the "search" stage span, not the root.
        search = next(s for s in trace.spans if s.name == "search")
        for shard in trace.shards:
            assert shard["span_id"] not in (s.span_id for s in trace.spans)
            assert shard["parent_id"] == search.span_id

    def test_batch_children_share_trace_id_and_id_space(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(16, 16, 2, seed=4)
        service = _service(stack)
        queries = [
            TopKQuery(model=make_random_linear_model(stack, seed=i), k=3)
            for i in range(3)
        ]
        results = service.top_k_batch(queries, use_cache=False)
        traces = [result.trace for result in results]
        batch_ids = {trace.trace_id for trace in traces}
        assert len(batch_ids) == 1  # one correlation id for the batch
        seen: set[int] = set()
        for trace in traces:
            assert trace.parent_span_id is not None
            for span_id in (
                trace.span_id,
                *(span.span_id for span in trace.spans),
            ):
                assert span_id not in seen  # allocator shared, no reuse
                seen.add(span_id)

    def test_span_cpu_time_bounded_by_wall_time(self):
        # Single-threaded span: process CPU time cannot exceed wall
        # time (plus scheduler/clock-resolution jitter).
        trace = QueryTrace()
        with trace.span("busy"):
            deadline = time.perf_counter() + 0.05
            while time.perf_counter() < deadline:
                sum(range(100))
        (span,) = trace.spans
        assert span.cpu_s is not None
        assert span.cpu_s <= span.duration_s + 0.015
        assert span.cpu_s > 0.0

    def test_record_span_has_no_cpu_reading(self):
        trace = QueryTrace()
        trace.record_span("external", 0.01)
        assert trace.spans[0].cpu_s is None


# -- Chrome / JSONL exporters (satellite 4) -----------------------------------


class TestChromeExport:
    def test_empty_input_is_a_valid_document(self, tmp_path):
        assert chrome_trace_events([]) == []
        path = export_chrome_trace([], tmp_path / "empty.json")
        document = json.loads(path.read_text())
        assert document == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_span_tree_is_parent_linked_and_durations_sum(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(16, 16, 2, seed=5)
        service = _service(stack)
        service.enable_telemetry()
        service.top_k(TopKQuery(model=make_random_linear_model(stack), k=3))
        service.top_k_batch(
            [
                TopKQuery(model=make_random_linear_model(stack, seed=9), k=2),
                TopKQuery(model=make_random_linear_model(stack, seed=8), k=2),
            ],
            use_cache=False,
        )
        events = chrome_trace_events(service.telemetry.recent())
        assert events
        by_key = {
            (event["args"]["trace_id"], event["args"]["span_id"]): event
            for event in events
        }
        roots = []
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            parent = event["args"].get("parent_id")
            if parent:
                assert (event["args"]["trace_id"], parent) in by_key
            else:
                roots.append(event)
        # One solo query root + one batch root.
        assert sorted(event["name"] for event in roots) == ["batch", "query"]
        # Sequential stage spans tile their query's wall time: per
        # trace, stage durations sum to <= the root's duration (the
        # same invariant the hypothesis span-sum property pins on the
        # live trace, re-checked here through the export pipeline).
        for root in roots:
            key = (root["args"]["trace_id"], root["args"]["span_id"])
            stage_total = sum(
                event["dur"]
                for event in events
                if event["cat"] == "stage"
                and event["args"].get("parent_id") == key[1]
                and event["args"]["trace_id"] == key[0]
            )
            assert stage_total <= root["dur"] * 1.01 + 1.0  # +1us slack

    def test_batch_children_nest_under_batch_root(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(12, 12, 2, seed=6)
        service = _service(stack)
        service.enable_telemetry()
        service.top_k_batch(
            [
                TopKQuery(model=make_random_linear_model(stack, seed=i), k=2)
                for i in range(3)
            ],
            use_cache=False,
        )
        (batch_dict,) = service.telemetry.recent()
        events = chrome_trace_events([batch_dict])
        batch_root = next(e for e in events if e["name"] == "batch")
        child_roots = [e for e in events if e["name"] == "query"]
        assert len(child_roots) == 3
        for child in child_roots:
            assert child["args"]["parent_id"] == batch_root["args"]["span_id"]
            assert child["args"]["trace_id"] == batch_root["args"]["trace_id"]

    def test_unicode_metadata_survives_export(self, tmp_path):
        trace = QueryTrace()
        trace.metadata["model"] = "пожар-모델-🔥"
        trace.finish()
        path = export_chrome_trace([trace.as_dict()], tmp_path / "u.json")
        document = json.loads(path.read_text())
        (event,) = document["traceEvents"]
        assert event["args"]["metadata"]["model"] == "пожар-모델-🔥"


class TestTraceBuffer:
    def test_overflow_drops_oldest_not_newest(self):
        buffer = TraceBuffer(capacity=3)
        for index in range(7):
            buffer.record({"trace_id": f"t{index}"})
        assert buffer.dropped == 4
        assert [t["trace_id"] for t in buffer.snapshot()] == [
            "t4", "t5", "t6"
        ]

    def test_snapshot_limit_returns_newest(self):
        buffer = TraceBuffer(capacity=8)
        for index in range(5):
            buffer.record({"trace_id": f"t{index}"})
        assert [t["trace_id"] for t in buffer.snapshot(2)] == ["t3", "t4"]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)


class TestJsonlExporter:
    def test_traces_land_on_disk_one_per_line(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        exporter = JsonlTraceExporter(path, flush_interval_s=0.05)
        for index in range(4):
            exporter.record({"trace_id": f"t{index}", "n": index})
        exporter.close()
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["trace_id"] for line in lines] == [
            "t0", "t1", "t2", "t3"
        ]

    def test_pending_ring_drops_oldest(self, tmp_path):
        exporter = JsonlTraceExporter(
            tmp_path / "t.jsonl", capacity=2, flush_interval_s=60.0
        )
        try:
            # Big interval: records pile up in the pending ring.
            for index in range(5):
                exporter.record({"n": index})
            # 5 records through a 2-slot ring: at least 3 dropped (the
            # background thread may have flushed some before overflow).
            assert exporter.dropped <= 3
            assert len(exporter._pending) <= 2
        finally:
            exporter.close()

    def test_concurrent_export_during_active_queries(
        self, tmp_path, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(16, 16, 2, seed=7)
        service = _service(stack, cache_size=0)
        service.enable_telemetry(
            capacity=64,
            jsonl_path=tmp_path / "live.jsonl",
            flush_interval_s=0.01,
        )
        query = TopKQuery(model=make_random_linear_model(stack), k=3)
        errors: list[BaseException] = []

        def run_queries() -> None:
            try:
                for _ in range(30):
                    service.top_k(query)
            except BaseException as error:  # noqa: BLE001 (test harness)
                errors.append(error)

        def run_exports() -> None:
            try:
                for _ in range(30):
                    chrome_trace_document(service.telemetry.recent())
            except BaseException as error:  # noqa: BLE001 (test harness)
                errors.append(error)

        threads = [
            threading.Thread(target=target)
            for target in (run_queries, run_queries, run_exports, run_exports)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        service.telemetry.close()
        lines = (tmp_path / "live.jsonl").read_text().strip().splitlines()
        assert len(lines) == 60  # every query exported exactly once
        for line in lines:
            json.loads(line)


# -- Prometheus exposition (satellite 1) --------------------------------------


class TestPrometheusRender:
    def test_exposition_format_pinned(self):
        registry = MetricsRegistry()
        registry.inc("service.queries", 3)
        registry.gauge("service.cache_size", 2)
        registry.observe("service.stage.search_seconds", 0.004)
        registry.observe("service.stage.search_seconds", 0.2)
        text = render_prometheus(registry.snapshot())
        lines = text.splitlines()
        assert "# TYPE service_queries_total counter" in lines
        assert "service_queries_total 3" in lines
        assert "# TYPE service_cache_size gauge" in lines
        assert "service_cache_size 2" in lines
        assert "# TYPE service_stage_search_seconds histogram" in lines
        assert "service_stage_search_seconds_count 2" in lines
        assert any(
            line.startswith("service_stage_search_seconds_sum ")
            for line in lines
        )
        assert 'service_stage_search_seconds_bucket{le="+Inf"} 2' in lines
        assert text.endswith("\n")

    def test_buckets_are_cumulative_and_monotone(self):
        histogram = LatencyHistogram(buckets_s=(0.01, 0.1, 1.0))
        for value in (0.005, 0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        buckets = histogram.cumulative_buckets()
        assert buckets == [(0.01, 2), (0.1, 3), (1.0, 4)]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        # And the renderer closes the family with le="+Inf" == count.
        text = render_prometheus(
            {"histograms": {"h": histogram.as_dict()}}
        )
        assert 'h_bucket{le="+Inf"} 5' in text.splitlines()

    def test_snapshot_buckets_render_in_le_order(self):
        registry = MetricsRegistry()
        for value in (0.002, 0.02, 0.02, 3.0):
            registry.observe("lat_seconds", value)
        text = render_prometheus(registry.snapshot())
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)
        assert bucket_counts[-1] == 4  # +Inf covers every observation

    def test_unicode_names_sanitized_and_labels_escaped(self):
        assert sanitize_metric_name("service.latência-ms") == (
            "service_lat_ncia_ms"
        )
        assert sanitize_metric_name("9lives") == "_9lives"
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        text = render_prometheus(
            {"counters": {"λ.count": 1}},
            labels={"model": 'hps "v2"\nβ'},
        )
        (sample,) = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        name, _ = sample.split("{", 1)
        assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name)
        assert '\\"v2\\"' in sample and "\\n" in sample
        assert "\n" not in sample

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""


# -- HTTP endpoints (tentpole) ------------------------------------------------


class TestMetricsServer:
    def test_endpoints_serve_metrics_health_and_traces(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(16, 16, 2, seed=8)
        service = _service(stack)
        server = service.serve_metrics(port=0)
        try:
            query = TopKQuery(model=make_random_linear_model(stack), k=3)
            service.top_k(query)
            service.top_k(query)  # cache hit

            text = _fetch(f"{server.url}/metrics").decode()
            assert lint_promtext(text) > 0
            assert "service_queries_total 2" in text.splitlines()
            assert "service_cache_hits_total 1" in text.splitlines()

            health = json.loads(_fetch(f"{server.url}/healthz"))
            assert health["status"] == "ok"
            assert health["queries"] == 2
            assert health["cache_hits"] == 1

            traces = json.loads(_fetch(f"{server.url}/traces"))
            assert len(traces) == 2
            assert traces[1]["cache_hit"] is True

            limited = json.loads(_fetch(f"{server.url}/traces?limit=1"))
            assert len(limited) == 1

            chrome = json.loads(_fetch(f"{server.url}/traces/chrome"))
            assert len(chrome["traceEvents"]) >= 2
        finally:
            server.close()

    def test_serve_metrics_is_idempotent(self, make_noise_stack):
        stack = make_noise_stack(8, 8, 1, seed=9)
        service = _service(stack)
        server = service.serve_metrics(port=0)
        try:
            assert service.serve_metrics() is server
        finally:
            server.close()

    def test_concurrent_first_callers_start_one_server(
        self, make_noise_stack, monkeypatch
    ):
        """Two threads racing the first ``serve_metrics`` get the same
        server, and only one socket was ever bound."""
        service = _service(make_noise_stack(8, 8, 1, seed=9))
        started = []
        real_start = MetricsServer.start

        def counting_start(server):
            started.append(real_start(server))
            time.sleep(0.05)  # hold the window open for the other caller
            return started[-1]

        monkeypatch.setattr(MetricsServer, "start", counting_start)
        barrier = threading.Barrier(2)
        returned = []

        def call():
            barrier.wait(timeout=30)
            returned.append(service.serve_metrics(port=0))

        threads = [threading.Thread(target=call) for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(returned) == 2 and returned[0] is returned[1]
            assert [server.port for server in started] == [returned[0].port]
        finally:
            for server in started:
                server.close()

    def test_unknown_route_404s_with_route_list(self):
        server = MetricsServer(MetricsRegistry()).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _fetch(f"{server.url}/nope")
            assert excinfo.value.code == 404
            payload = json.loads(excinfo.value.read())
            assert "/metrics" in payload["routes"]
        finally:
            server.close()

    def test_keep_alive_serves_two_requests_on_one_connection(self, raw_http):
        with MetricsServer(MetricsRegistry()) as server:
            request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            replies = raw_http(server, request + request, expect=2)
            assert [status for status, _, _ in replies] == [200, 200]
            assert json.loads(replies[1][2]) == {"status": "ok"}

    def test_close_hangs_up_an_idle_keep_alive_connection(self):
        server = MetricsServer(MetricsRegistry()).start()
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            started = time.monotonic()
            server.close()
            assert sock.recv(1) == b""
            assert time.monotonic() - started < 5

    def test_bad_content_length_is_400(self, raw_http):
        with MetricsServer(MetricsRegistry()) as server:
            request = b"GET /metrics HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
            [(status, _, body)] = raw_http(server, request, closes=True)
            assert status == 400
            assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_head_is_431(self, raw_http, caplog, oversized_head):
        with MetricsServer(MetricsRegistry()) as server:
            [(status, headers, body)] = raw_http(
                server, oversized_head, closes=True
            )
            assert status == 431
            assert "limit" in json.loads(body)["error"]
            assert headers["Connection"] == "close"
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_standalone_server_without_sink(self):
        registry = MetricsRegistry()
        registry.inc("up")
        with MetricsServer(registry, labels={"service": "repro"}) as server:
            text = _fetch(f"{server.url}/metrics").decode()
            assert 'up_total{service="repro"} 1' in text.splitlines()
            traces = json.loads(_fetch(f"{server.url}/traces"))
            assert traces == []


# -- explain waterfalls (tentpole) --------------------------------------------


class TestExplain:
    @pytest.fixture(scope="class")
    def hps_service(self):
        dem = generate_dem((64, 64), seed=1)
        stack = generate_scene((64, 64), seed=2, terrain=dem)
        stack.add(dem)
        return RetrievalService(
            stack, leaf_size=8, n_shards=2, registry=MetricsRegistry()
        )

    @staticmethod
    def _cascade_report(service, query):
        """Explain an engine run with the level cascade: the service
        scores leaves densely, so its replies have no level waterfall."""
        result = service.engine.progressive_top_k(query, use_model_levels=True)
        return explain_result(
            result, query, query.clip_region(service.engine.stack.shape)
        )

    def test_waterfall_reconciles_with_audit_totals(self, hps_service):
        query = TopKQuery(model=hps_risk_model(), k=10)
        served = hps_service.top_k(query, explain=True, use_cache=False)
        cascade = self._cascade_report(hps_service, query)
        assert served.level_rows == [] and cascade.level_rows
        for report in (served, cascade):
            audit = report.result.audit
            assert report.totals["visited"] == audit.tiles_screened
            assert report.totals.get("interval", 0) == audit.tiles_pruned
            assert sum(
                row["visited"] for row in report.tile_rows
            ) == audit.tiles_screened
            # Level waterfall mirrors the cascade tallies exactly.
            for row in report.level_rows:
                level = row["level"]
                assert row["entered"] == audit.cells_entered_level[level]
                assert row["pruned"] == audit.cells_pruned_at_level.get(
                    level, 0
                )

    def test_explain_does_not_change_the_answer(self, hps_service):
        # Counted work can vary run to run (the fixture's two shard
        # threads share one heap, so the threshold a band prunes against
        # depends on how they interleave), so the invariant explain
        # offers is answer identity plus internal reconciliation — not a
        # work-for-work match between independent runs.
        query = TopKQuery(model=hps_risk_model(), k=5)
        plain = hps_service.top_k(query, use_cache=False)
        explained = hps_service.top_k(query, explain=True, use_cache=False)
        assert [
            (a.row, a.col, round(a.score, 9))
            for a in explained.result.answers
        ] == [(a.row, a.col, round(a.score, 9)) for a in plain.answers]
        assert explained.totals["visited"] == (
            explained.result.audit.tiles_screened
        )

    def test_render_produces_aligned_tables(self, hps_service):
        query = TopKQuery(model=hps_risk_model(), k=5)
        served = hps_service.top_k(query, explain=True, use_cache=False)
        assert "tile pyramid" in served.render()
        assert "model cascade" not in served.render()
        report = self._cascade_report(hps_service, query)
        text = report.render()
        assert "tile pyramid" in text
        assert "model cascade" in text
        assert str(report) == text
        data = report.as_dict()
        json.dumps(data)  # JSON-ready
        assert data["totals"]["visited"] == (
            report.result.audit.tiles_screened
        )

    def test_cache_hit_explain_notes_cache_service(self, hps_service):
        query = TopKQuery(model=hps_risk_model(), k=7)
        hps_service.top_k(query)
        report = hps_service.top_k(query, explain=True)
        assert report.totals["cache_hit"] is True
        assert "served from cache" in report.render()


# -- batch retirement metadata (satellite 3) ----------------------------------


class TestBatchRetirementMetadata:
    def test_explicit_cancel_reason_rides_the_trace(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(32, 32, 2, seed=10)
        service = _service(stack)
        token = CancellationToken()
        token.cancel("load-shed")
        queries = [
            TopKQuery(model=make_random_linear_model(stack, seed=i), k=4)
            for i in range(3)
        ]
        results = service.top_k_batch(
            queries, cancel=[None, token, None], use_cache=False
        )
        retired = results[1].trace
        assert retired.metadata["retire_reason"] == "load-shed"
        survivors = (results[0].trace, results[2].trace)
        for trace in survivors:
            assert "retire_reason" not in trace.metadata

    def test_deadline_retirement_says_deadline(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(32, 32, 2, seed=11)
        service = _service(stack)
        queries = [
            TopKQuery(model=make_random_linear_model(stack, seed=i), k=4)
            for i in range(2)
        ]
        results = service.top_k_batch(
            queries, deadline_s=[1e-9, None], use_cache=False
        )
        squeezed = results[0]
        assert squeezed.complete is False
        assert squeezed.trace.metadata["retire_reason"] == "deadline"

    def test_retirement_metadata_reaches_the_export(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(32, 32, 2, seed=12)
        service = _service(stack)
        service.enable_telemetry()
        token = CancellationToken()
        token.cancel("shed")
        service.top_k_batch(
            [
                TopKQuery(model=make_random_linear_model(stack, seed=i), k=4)
                for i in range(2)
            ],
            cancel=[token, None],
            use_cache=False,
        )
        (batch_dict,) = service.telemetry.recent()
        retired = [
            child
            for child in batch_dict["children"]
            if child["metadata"].get("retire_reason")
        ]
        assert len(retired) == 1
        assert retired[0]["metadata"]["retire_reason"] == "shed"
        # And the Chrome export carries it in the child root's args.
        events = chrome_trace_events([batch_dict])
        tagged = [
            event
            for event in events
            if event["args"].get("metadata", {}).get("retire_reason")
        ]
        assert len(tagged) == 1


# -- sink wiring on the service (tentpole) ------------------------------------


class TestServiceTelemetryWiring:
    def test_disabled_by_default_and_idempotent_enable(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(8, 8, 1, seed=13)
        service = _service(stack)
        assert service.telemetry is None
        service.top_k(TopKQuery(model=make_random_linear_model(stack), k=2))
        sink = service.enable_telemetry(capacity=4)
        assert service.enable_telemetry() is sink
        assert sink.recent() == []  # queries before enabling not recorded

    def test_only_top_level_traces_recorded_once(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(16, 16, 2, seed=14)
        service = _service(stack)
        sink = service.enable_telemetry()
        service.top_k(TopKQuery(model=make_random_linear_model(stack), k=2))
        service.top_k_batch(
            [
                TopKQuery(model=make_random_linear_model(stack, seed=i), k=2)
                for i in range(3)
            ],
            use_cache=False,
        )
        recorded = sink.recent()
        # One solo trace + one batch trace; batch members ride inside
        # the batch's children, never as separate top-level entries.
        assert len(recorded) == 2
        assert "children" not in recorded[0]
        assert len(recorded[1]["children"]) == 3


# -- span-sum invariant through the whole pipeline ----------------------------


class TestSpanSumThroughExport:
    def test_batch_trace_children_durations_bounded_by_batch_wall(
        self, make_noise_stack, make_random_linear_model
    ):
        stack = make_noise_stack(16, 16, 2, seed=15)
        service = _service(stack)
        service.enable_telemetry()
        service.top_k_batch(
            [
                TopKQuery(model=make_random_linear_model(stack, seed=i), k=2)
                for i in range(4)
            ],
            use_cache=False,
        )
        (batch_dict,) = service.telemetry.recent()
        wall = batch_dict["wall_seconds"]
        child_total = sum(
            span["duration_s"]
            for child in batch_dict["children"]
            for span in child["spans"]
        )
        # Children execute sequentially inside the batch: their stage
        # spans cannot sum past the batch's wall clock.
        assert child_total <= wall * 1.05 + 1e-4

    def test_batch_trace_export_roundtrip_preserves_tree(self):
        batch = BatchTrace(batch_size=2)
        with batch.span("plan"):
            pass
        for _ in range(2):
            child = batch.child()
            with child.span("scan"):
                pass
            child.finish()
        batch.finish()
        data = batch.as_dict()
        events = chrome_trace_events([data])
        names = sorted(event["name"] for event in events)
        assert names == ["batch", "plan", "query", "query", "scan", "scan"]
        batch_root = next(e for e in events if e["name"] == "batch")
        for event in events:
            if event["name"] == "query":
                assert (
                    event["args"]["parent_id"]
                    == batch_root["args"]["span_id"]
                )
