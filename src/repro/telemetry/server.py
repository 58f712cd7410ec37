"""A stdlib HTTP thread serving live metrics, health, and traces.

:class:`MetricsServer` is a route table over
:class:`repro.httpserver.HttpServer` — the same asyncio HTTP/1.1 loop
(own daemon thread, keep-alive) the serving front end rides; no
framework dependency, matching the container's baked-in toolchain.
Routes:

``GET /metrics``
    The owning registry's snapshot rendered as Prometheus text
    exposition (:mod:`repro.telemetry.prometheus`).
``GET /healthz``
    ``200`` JSON ``{"status": "ok", ...}`` with lifetime service stats;
    the liveness probe a load balancer polls.
``GET /traces``
    Recent completed traces (the sink's ring buffer) as a JSON array;
    ``?limit=N`` trims to the newest N.
``GET /traces/chrome``
    The same traces as a Chrome ``trace_event`` document — save the
    response body to a file and load it in ``chrome://tracing`` or
    Perfetto.

Start one via :meth:`RetrievalService.serve_metrics`, or construct
directly around any registry/sink pair. ``port=0`` binds an ephemeral
port (read it back from :attr:`MetricsServer.port`).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.httpserver import HttpServer, Reply, json_reply, limit_param, not_found
from repro.metrics.registry import MetricsRegistry
from repro.telemetry.export import TelemetrySink
from repro.telemetry.prometheus import CONTENT_TYPE, render_prometheus


class MetricsServer(HttpServer):
    """Background HTTP server exposing one registry + trace sink.

    Parameters
    ----------
    registry:
        Metrics source for ``/metrics``.
    sink:
        Trace source for ``/traces``; ``None`` serves empty arrays.
    health:
        Optional zero-arg callable returning extra ``/healthz`` fields
        (the service passes its lifetime stats).
    labels:
        Constant Prometheus labels stamped on every ``/metrics`` sample.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        sink: TelemetrySink | None = None,
        health: Callable[[], Mapping[str, Any]] | None = None,
        labels: Mapping[str, str] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        # The registry is what /metrics *shows*; the scrapes themselves
        # are not accounted into it.
        super().__init__(host, port, "repro-metrics-http")
        self.registry = registry
        self.sink = sink
        self._health = health
        self._labels = dict(labels) if labels else None

    async def route(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
        peer: str,
    ) -> Reply:
        route = path.split("?", 1)[0].rstrip("/") or "/"
        if route == "/metrics":
            text = render_prometheus(
                self.registry.snapshot(), labels=self._labels
            )
            return 200, text.encode("utf-8"), CONTENT_TYPE, None
        if route == "/healthz":
            payload: dict[str, Any] = {"status": "ok"}
            if self._health is not None:
                payload.update(self._health())
            return json_reply(200, payload)
        if route == "/traces":
            return json_reply(
                200,
                self.sink.recent(limit_param(path))
                if self.sink is not None
                else [],
            )
        if route == "/traces/chrome":
            return json_reply(
                200,
                self.sink.chrome_trace(limit_param(path))
                if self.sink is not None
                else {"traceEvents": [], "displayTimeUnit": "ms"},
            )
        return not_found(
            ["/metrics", "/healthz", "/traces", "/traces/chrome"]
        )
