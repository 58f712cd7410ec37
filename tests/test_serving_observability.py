"""Fleet-wide observability over the HTTP front end.

The headline acceptance test: one ``POST /query`` against a 2-worker
fleet with span shipping on yields a merged Chrome trace whose events
span **two distinct pids** (front end + worker) with the front-end
request span as the root — the cross-process stitching the tentpole
promises, driven end to end through real processes and real HTTP.

Around it: ``X-Trace-Id`` on every response status path (200, 400,
404, 405, 429, even malformed request lines), the ``/traces`` /
``/traces/chrome`` / ``/events`` / ``/slo`` read paths, and the ops
console rendering against the live server.
"""

from __future__ import annotations

import http.client
import json
import socket

import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.data.raster import RasterLayer, RasterStack
from repro.models.linear import LinearModel
from repro.serving import (
    FleetConfig,
    ServingServer,
    WorkerFleet,
    encode_query,
)
from repro.telemetry.console import render_dashboard
from repro.telemetry.events import EventLog
from tests.test_telemetry import lint_promtext

SHAPE = (64, 64)
LAYERS = ("band_a", "band_b")


def _build_stack() -> RasterStack:
    generator = np.random.default_rng(99)
    stack = RasterStack()
    for name in LAYERS:
        stack.add(RasterLayer(name, generator.normal(size=SHAPE)))
    return stack


def _query_payload(seed: int = 1, k: int = 5) -> dict:
    generator = np.random.default_rng(seed)
    model = LinearModel(
        {name: float(generator.normal()) for name in LAYERS},
        name=f"obs{seed}",
    )
    return encode_query(TopKQuery(model=model, k=k))


@pytest.fixture(scope="module")
def fleet():
    """A 2-worker fleet with span shipping ON and its own event log."""
    fleet = WorkerFleet(
        _build_stack(),
        FleetConfig(
            n_workers=2,
            ship_spans=True,
            warm=[{"attributes": list(LAYERS), "region": None}],
        ),
        event_log=EventLog(capacity=2048),
    )
    fleet.start()
    yield fleet
    fleet.stop()


def _request(server, method, path, payload=None, headers=None):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=60
    )
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        decoded = (
            json.loads(raw)
            if raw and "json" in content_type
            else raw.decode("utf-8", "replace")
        )
        return response.status, decoded, dict(response.getheaders())
    finally:
        connection.close()


class TestTraceIdHeader:
    """PR-10 satellite: X-Trace-Id on every response, error paths
    included."""

    def test_success_gets_trace_id(self, fleet):
        with ServingServer(fleet) as server:
            status, _, headers = _request(
                server, "POST", "/query", _query_payload()
            )
        assert status == 200
        assert len(headers["X-Trace-Id"]) == 16

    def test_supplied_trace_id_is_echoed(self, fleet):
        with ServingServer(fleet) as server:
            status, _, headers = _request(
                server,
                "POST",
                "/query",
                _query_payload(),
                headers={"X-Trace-Id": "feedfacefeedface"},
            )
        assert status == 200
        assert headers["X-Trace-Id"] == "feedfacefeedface"

    def test_404_has_trace_id(self, fleet):
        with ServingServer(fleet) as server:
            status, _, headers = _request(server, "GET", "/nope")
        assert status == 404
        assert "X-Trace-Id" in headers

    def test_405_has_trace_id(self, fleet):
        with ServingServer(fleet) as server:
            status, _, headers = _request(server, "GET", "/query")
        assert status == 405
        assert "X-Trace-Id" in headers

    def test_400_invalid_json_has_trace_id(self, fleet):
        with ServingServer(fleet) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=60
            )
            try:
                connection.request(
                    "POST", "/query", body=b"{not json",
                )
                response = connection.getresponse()
                response.read()
                status = response.status
                headers = dict(response.getheaders())
            finally:
                connection.close()
        assert status == 400
        assert "X-Trace-Id" in headers

    def test_429_rate_shed_has_trace_id(self, fleet):
        # burst < 1 token: every arrival is over-rate immediately.
        with ServingServer(fleet, rate_limit=0.001) as server:
            status, payload, headers = _request(
                server, "POST", "/query", _query_payload()
            )
        assert status == 429
        assert "X-Trace-Id" in headers
        assert "Retry-After" in headers

    def test_malformed_request_line_has_trace_id(self, fleet):
        with ServingServer(fleet) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.sendall(b"GARBAGE\r\n\r\n")
                raw = sock.recv(65536).decode("latin-1")
        assert raw.startswith("HTTP/1.1 400")
        assert "x-trace-id:" in raw.lower()


class TestFleetTraceShipping:
    def test_query_yields_multi_pid_chrome_trace(self, fleet):
        """THE acceptance test: one POST /query, two processes, one
        correctly-parented Chrome trace."""
        with ServingServer(fleet) as server:
            status, _, headers = _request(
                server, "POST", "/query", _query_payload(seed=7)
            )
            assert status == 200
            trace_id = headers["X-Trace-Id"]
            status, traces_doc, _ = _request(server, "GET", "/traces")
            status_c, chrome_doc, _ = _request(
                server, "GET", "/traces/chrome"
            )
        assert status == 200 and status_c == 200

        merged = next(
            t for t in traces_doc["traces"] if t["trace_id"] == trace_id
        )
        # The front-end request trace is the root and carries this
        # process's pid; the grafted worker tree carries the worker's.
        assert merged["parent_span_id"] is None
        children = merged.get("children") or []
        assert children, "no worker span tree was shipped"
        worker_tree = children[0]
        assert worker_tree["pid"] != merged["pid"]
        assert worker_tree["parent_span_id"] == merged["span_id"]
        # Worker-side stage spans (search waterfall) made the crossing.
        worker_stages = {s["name"] for s in worker_tree["spans"]}
        assert worker_stages  # e.g. plan/search/merge
        # Front-end spans recorded around dispatch.
        frontend_stages = {s["name"] for s in merged["spans"]}
        assert {"admit", "queue_wait", "worker"} <= frontend_stages

        # Chrome export: events from >= 2 distinct pids for this trace.
        events = [
            e
            for e in chrome_doc["traceEvents"]
            if e.get("args", {}).get("trace_id") == trace_id
        ]
        pids = {e["pid"] for e in events}
        assert len(pids) >= 2

    def test_parent_links_resolve_in_merged_trace(self, fleet):
        with ServingServer(fleet) as server:
            status, _, headers = _request(
                server, "POST", "/query", _query_payload(seed=8)
            )
            assert status == 200
            trace_id = headers["X-Trace-Id"]
            _, traces_doc, _ = _request(server, "GET", "/traces")
        merged = next(
            t for t in traces_doc["traces"] if t["trace_id"] == trace_id
        )

        ids: set[int] = set()

        def collect(node):
            ids.add(node["span_id"])
            for span in node.get("spans", ()):
                ids.add(span["span_id"])
            for shard in node.get("shards", ()):
                ids.add(shard["span_id"])
            for child in node.get("children", ()):
                collect(child)

        collect(merged)

        def check(node, is_root):
            if not is_root:
                assert node["parent_span_id"] in ids
            for span in node.get("spans", ()):
                assert span["parent_id"] in ids
            for shard in node.get("shards", ()):
                assert shard["parent_id"] in ids
            for child in node.get("children", ()):
                check(child, False)

        check(merged, True)

    def test_shed_request_trace_is_kept(self, fleet):
        """Tail sampling: a 429 always survives into /traces."""
        with ServingServer(fleet, rate_limit=0.001) as server:
            status, _, headers = _request(
                server, "POST", "/query", _query_payload()
            )
            assert status == 429
            trace_id = headers["X-Trace-Id"]
            _, traces_doc, _ = _request(server, "GET", "/traces")
        shed = next(
            t for t in traces_doc["traces"] if t["trace_id"] == trace_id
        )
        assert shed["metadata"]["status"] == 429
        assert shed["metadata"]["shed"] == "rate"


class TestEventsEndpoint:
    def test_events_cover_frontend_and_workers(self, fleet):
        with ServingServer(fleet, rate_limit=0.001) as server:
            _request(server, "POST", "/query", _query_payload())
            status, doc, _ = _request(server, "GET", "/events?limit=512")
        assert status == 200
        names = [e["event"] for e in doc["events"]]
        # Fleet lifecycle (front-end side).
        assert "worker.spawn" in names
        # Shedding (front-end side, correlated with a trace id).
        shed = next(e for e in doc["events"] if e["event"] == "frontend.shed")
        assert shed["severity"] == "warning"
        assert shed["trace_id"]
        # Worker-side events crossed the IPC boundary: the warm-at-boot
        # Onion build carries the worker_id stamped by the drain.
        builds = [
            e for e in doc["events"] if e["event"] == "index.onion_build"
        ]
        assert builds, f"no worker events drained; saw {sorted(set(names))}"
        assert all("worker_id" in e["attrs"] for e in builds)
        assert all("origin_seq" in e for e in builds)


class TestSLOEndpoint:
    def test_slo_document(self, fleet):
        with ServingServer(fleet) as server:
            for seed in range(3):
                _request(
                    server, "POST", "/query", _query_payload(seed=seed)
                )
            _request(server, "GET", "/metrics")  # one observation
            status, doc, _ = _request(server, "GET", "/slo")
        assert status == 200
        assert doc["status"] in ("ok", "warning", "critical")
        names = {s["name"] for s in doc["slos"]}
        assert names == {"availability", "latency_p99", "shed_rate"}
        for result in doc["slos"]:
            assert result["status"] in ("ok", "warning", "critical")
            assert result["windows"]
        assert "traffic" in doc

    def test_metrics_exposition_includes_slo_gauges(self, fleet):
        with ServingServer(fleet) as server:
            _request(server, "POST", "/query", _query_payload())
            status, _, _ = _request(server, "GET", "/slo")
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=60
            )
            try:
                connection.request("GET", "/metrics")
                response = connection.getresponse()
                text = response.read().decode()
            finally:
                connection.close()
        # The merged fleet document — worker snapshots, front-end
        # counters, SLO gauges, event tallies — is one well-formed
        # Prometheus exposition, every line of it.
        assert lint_promtext(text) > 0
        assert "slo_availability_status" in text
        assert "slo_availability_burn_rate_300s" in text
        assert "slo_latency_p99_burn_rate_300s" in text
        assert "events_emitted_total" in text
        assert "frontend_traces_kept_total" in text


class TestOpsConsole:
    def test_render_against_live_server(self, fleet):
        from repro.telemetry import console

        with ServingServer(fleet) as server:
            _request(server, "POST", "/query", _query_payload())
            frame = console.snapshot(server.url)
        assert "repro top" in frame
        assert "SLO" in frame
        assert "availability" in frame
        assert "worker" in frame

    def test_once_mode_exit_codes(self, fleet, capsys):
        from repro.telemetry import console

        with ServingServer(fleet) as server:
            code = console.main(["--once", "--url", server.url])
        assert code == 0
        assert "repro top" in capsys.readouterr().out
        # Unreachable server: clean non-zero, message on stderr.
        code = console.main(
            ["--once", "--url", "http://127.0.0.1:1"]
        )
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_render_dashboard_pure(self):
        frame = render_dashboard(
            healthz={
                "status": "ok",
                "queue_depth": 2,
                "restarts": 1,
                "workers": [
                    {"worker": 0, "alive": True, "pid": 41, "inflight": 3},
                    {"worker": 1, "alive": False, "pid": None, "inflight": 0},
                ],
            },
            slo={
                "status": "warning",
                "traffic": {
                    "qps": 12.5,
                    "p50_ms": 4.0,
                    "p99_ms": 80.0,
                    "availability": 0.995,
                    "shed_fraction": 0.01,
                },
                "slos": [
                    {
                        "name": "availability",
                        "status": "warning",
                        "burn_rate": 3.2,
                        "windows": [
                            {"window_s": 300.0, "burn_rate": 3.2},
                            {"window_s": 3600.0, "burn_rate": 4.0},
                        ],
                    }
                ],
            },
            events={
                "events": [
                    {
                        "ts": 1754700000.0,
                        "severity": "error",
                        "event": "worker.crash",
                        "attrs": {"worker_id": 1, "exitcode": -9},
                    }
                ]
            },
            url="http://x:1",
        )
        assert "WARN" in frame
        assert "worker.crash" in frame
        assert "worker_id=1" in frame
        assert "300s=3.20" in frame
