"""Operator-facing observability over the serving layer.

PR 3 gave every query an in-process :class:`~repro.service.tracing
.QueryTrace` and a :class:`~repro.metrics.registry.MetricsRegistry`;
this package is what turns those into artifacts an operator can
actually look at:

* :mod:`repro.telemetry.export` — correlated trace export: Chrome
  ``trace_event`` JSON (``chrome://tracing`` / Perfetto), a bounded
  ring of recent traces, and a background-flushed JSONL event log.
* :mod:`repro.telemetry.prometheus` — Prometheus text exposition of
  registry snapshots (cumulative ``le`` buckets, label escaping).
* :mod:`repro.telemetry.server` — a stdlib HTTP thread serving
  ``/metrics``, ``/healthz``, ``/traces``, and ``/traces/chrome``;
  start it with :meth:`RetrievalService.serve_metrics`.
* :mod:`repro.telemetry.explain` — per-query pruning waterfalls
  (``top_k(..., explain=True)``) tying the paper's progressive-pruning
  claim to exact audit tallies.
* :mod:`repro.telemetry.distributed` — cross-process trace shipping:
  workers serialize completed span trees onto their replies, the front
  end re-parents them under its own request span, and a tail-based
  sampler decides what the bounded fleet buffer keeps.
* :mod:`repro.telemetry.events` — a process-safe structured event log
  (worker lifecycle, shedding, cache invalidations, index builds,
  ingest progress) drained to the front end and served at ``/events``.
* :mod:`repro.telemetry.slo` — declarative SLO specs evaluated as
  multi-window burn rates over merged metrics snapshots, exported as
  ``slo_*`` gauges and ``GET /slo``.
* :mod:`repro.telemetry.console` — ``python -m repro top``, a live
  stdlib-only terminal dashboard over ``/healthz`` + ``/slo`` +
  ``/events``.

With no sink attached the serving hot path pays one ``None`` check per
query. What the rest costs is measured, not assumed: the benchmark
(``BENCHMARK.json``) prices cross-process span shipping as
``telemetry.span_ship_overhead_ratio`` and span recording as
``bench.trace_overhead_ratio``. The in-process JSONL exporter is not
measured today — its last recorded run read about 11 % — and is
ROADMAP item 6(e)'s to price and gate.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".distributed": (
            "FleetTraceCollector TailSampler count_spans "
            "reparent_shipped ship_trace"
        ),
        ".events": "EventLog global_event_log set_global_event_log",
        ".explain": "ExplainReport explain_result",
        ".export": (
            "JsonlTraceExporter TelemetrySink TraceBuffer "
            "chrome_trace_document chrome_trace_events "
            "export_chrome_trace"
        ),
        ".prometheus": (
            "CONTENT_TYPE escape_label_value render_prometheus "
            "sanitize_metric_name"
        ),
        ".server": "MetricsServer",
        ".slo": "DEFAULT_SLOS SLOMonitor SLOSpec",
    },
)
