"""Performance metrics for model-based retrieval (paper Section 4).

Three concerns:

* :mod:`repro.metrics.counters` — work instrumentation (`CostCounter`),
  the substrate every speedup measurement is built on.
* :mod:`repro.metrics.accuracy` — the Section 4.1 miss/false-alarm cost
  model and the weighted total cost ``CT``.
* :mod:`repro.metrics.topk` — precision/recall at K against ground-truth
  occurrences.
* :mod:`repro.metrics.efficiency` — the Section 4.2 efficiency model
  ``O(nN)`` vs ``O(nN/(pm*pd))`` and speedup bookkeeping.
* :mod:`repro.metrics.registry` — process-wide serving metrics
  (counters, gauges, latency histograms) the retrieval service
  aggregates per-query traces into.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".accuracy": (
            "AccuracyReport CostModel cost_curve evaluate_cost "
            "optimal_threshold"
        ),
        ".counters": "CostCounter counted",
        ".efficiency": "EfficiencyModel SpeedupReport speedup",
        ".registry": "LatencyHistogram MetricsRegistry global_registry",
        ".roc": "RocCurve auc_score roc_curve",
        ".topk": "PrecisionRecall precision_recall_at_k",
    },
)
