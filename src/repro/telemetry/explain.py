"""Per-query explain plans: where the pruning went, level by level.

The paper's scalability argument is that progressive representations
prune work before it happens; :class:`ExplainReport` makes that claim
inspectable per query. ``RetrievalService.top_k(..., explain=True)``
returns one, built from the result's
:class:`~repro.core.results.PruningAudit` and
:class:`~repro.metrics.counters.CostCounter` — the same tallies the
benchmarks assert on, so the waterfall's totals reconcile exactly with
the counted work (property-tested in ``tests/test_telemetry.py``).

Two waterfalls:

* **tile pyramid** — per quadtree depth (coarse → fine): tiles bounded
  against envelopes (``visited``) and tiles discarded there by reason —
  ``interval`` (envelope bound below the top-K threshold), ``region``
  (outside the query window, never bounded), ``threshold`` (left on the
  frontier when the global bound closed the search), ``deadline`` /
  ``cancelled`` / ``budget`` (abandoned by an early stop). ``resolved``
  is the remainder that was expanded or exactly evaluated.
* **model cascade** — per progressive model level: candidate cells
  entering the level vs. cells its partial-score bound discarded.

Both render as a plain dict (:meth:`ExplainReport.as_dict`) and as an
aligned ASCII table (:meth:`ExplainReport.render`, also ``str()``).

Queries answered with ``strategy != "quadtree"`` additionally carry a
**routing** section — the cost router's scored candidates, the chosen
strategy with predicted vs actual seconds, and any fallback — read from
``result.trace.metadata["routing"]``
(see :mod:`repro.service.routing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.query import TopKQuery
from repro.core.results import RetrievalResult

#: Render order for known prune reasons; unknown reasons sort after.
_REASON_ORDER = (
    "interval", "region", "threshold", "deadline", "cancelled", "budget"
)


@dataclass
class ExplainReport:
    """One query's pruning waterfall plus its work ledger.

    ``result`` is the full :class:`~repro.core.results.RetrievalResult`
    (answers, counter, audit, trace) the explain wraps — explain never
    changes what the query computes, only what it reports.
    """

    result: RetrievalResult
    query: dict[str, Any]
    tile_rows: list[dict[str, Any]] = field(default_factory=list)
    level_rows: list[dict[str, Any]] = field(default_factory=list)
    totals: dict[str, Any] = field(default_factory=dict)
    reasons: tuple[str, ...] = ()
    #: The router's decision for this query (candidates, estimated vs
    #: actual cost, fallback) when it ran with ``strategy != "quadtree"``;
    #: ``None`` for legacy-path queries.
    routing: dict[str, Any] | None = None
    #: The fused-query blend (example cell, alpha, embedding dim) for
    #: ``similar_to`` queries; ``None`` for model-only queries. Read
    #: from ``result.trace.metadata["fusion"]``.
    fusion: dict[str, Any] | None = None

    # -- views -------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view: query descriptor, waterfalls, totals."""
        return {
            "query": dict(self.query),
            "strategy": self.result.strategy,
            "complete": self.result.complete,
            "routing": dict(self.routing) if self.routing else None,
            "fusion": dict(self.fusion) if self.fusion else None,
            "tile_waterfall": [dict(row) for row in self.tile_rows],
            "level_waterfall": [dict(row) for row in self.level_rows],
            "totals": dict(self.totals),
            "counter": self.result.counter.as_dict(),
        }

    def render(self) -> str:
        """The waterfalls as aligned ASCII tables (operator view)."""
        lines = [
            f"explain: {self.query.get('model', '?')} "
            f"k={self.query.get('k', '?')} "
            f"region={self.query.get('region')} "
            f"strategy={self.result.strategy}"
        ]
        if self.totals.get("cache_hit"):
            lines.append(
                "  served from cache — the waterfall below is the work "
                "recorded when the cached answer was computed"
            )
        lines.extend(self._routing_lines())
        lines.extend(self._fusion_lines())
        if self.tile_rows:
            columns = ["depth", "roots", "visited", *self.reasons, "resolved"]
            lines.append("  tile pyramid (coarse -> fine):")
            lines.extend(
                _ascii_table(
                    columns,
                    [
                        [row.get(column, 0) for column in columns]
                        for row in self.tile_rows
                    ],
                    footer=[
                        self.totals.get(column, "")
                        if column != "depth" else "total"
                        for column in columns
                    ],
                )
            )
        else:
            lines.append("  tile pyramid: no tile screening recorded")
        if self.level_rows:
            columns = ["level", "entered", "pruned", "survived"]
            lines.append("  model cascade (level 1 -> n):")
            lines.extend(
                _ascii_table(
                    columns,
                    [
                        [row.get(column, 0) for column in columns]
                        for row in self.level_rows
                    ],
                )
            )
        counter = self.result.counter
        lines.append(
            f"  work: {counter.total_work:,} total "
            f"({counter.data_points:,} data points, {counter.flops:,} "
            f"flops, {counter.model_evals:,} full + "
            f"{counter.partial_evals:,} partial evals)"
        )
        return "\n".join(lines)

    def _routing_lines(self) -> list[str]:
        """The routing section of the waterfall (empty without routing)."""
        routing = self.routing
        if not routing:
            return []
        mode = "forced" if routing.get("forced") else "auto"
        if routing.get("probe"):
            mode += (
                f", {routing['probe']} probe; "
                f"preferred={routing.get('preferred')}"
            )
        parts = [f"  routing: chosen={routing.get('chosen')} ({mode})"]
        predicted = routing.get("predicted_seconds")
        actual = routing.get("actual_seconds")
        if predicted is not None:
            parts.append(f"predicted={_seconds(predicted)}")
        if actual is not None:
            parts.append(f"actual={_seconds(actual)}")
        lines = [" ".join(parts)]
        if routing.get("fallback_from"):
            lines.append(
                f"    fallback: {routing['fallback_from']} -> "
                f"{routing.get('chosen')} "
                f"({routing.get('fallback_reason')})"
            )
        for candidate in routing.get("candidates", []):
            if candidate.get("eligible"):
                lines.append(
                    f"    candidate {candidate['name']}: "
                    f"size={candidate.get('size', 0):,} "
                    f"predicted={_seconds(candidate.get('predicted_seconds'))} "
                    f"samples={candidate.get('samples', 0)}"
                    + ("" if candidate.get("built", True) else " (+index build)")
                )
            else:
                lines.append(
                    f"    candidate {candidate['name']}: ineligible "
                    f"({candidate.get('reason')})"
                )
        return lines

    def _fusion_lines(self) -> list[str]:
        """The fused-blend section of the waterfall (empty if model-only)."""
        fusion = self.fusion
        if not fusion:
            return []
        alpha = fusion.get("alpha")
        beta = None if alpha is None else 1.0 - alpha
        return [
            f"  fusion: score = {alpha}*model + {beta}*cosine "
            f"(example cell {tuple(fusion.get('similar_to', ()))}, "
            f"tile window {tuple(fusion.get('example_window', ()))}, "
            f"{fusion.get('tiles')} tiles x dim {fusion.get('dim')})"
        ]

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return (
            f"ExplainReport(strategy={self.result.strategy!r}, "
            f"tile_rows={len(self.tile_rows)}, "
            f"level_rows={len(self.level_rows)})"
        )


def explain_result(
    result: RetrievalResult,
    query: TopKQuery,
    region: tuple[int, int, int, int],
) -> ExplainReport:
    """Build the explain report for one finished retrieval.

    Pure read of the result's audit/counter — calling it never perturbs
    counted work. The waterfall sums reconcile exactly:
    ``sum(visited) == audit.tiles_screened`` and ``sum(interval) ==
    audit.tiles_pruned``.
    """
    audit = result.audit
    trace = result.trace
    cache_hit = bool(trace is not None and trace.cache_hit)

    reasons_present: set[str] = set()
    for per_depth in audit.tiles_pruned_by_depth.values():
        reasons_present.update(per_depth)
    reasons = tuple(
        sorted(
            reasons_present,
            key=lambda reason: (
                _REASON_ORDER.index(reason)
                if reason in _REASON_ORDER
                else len(_REASON_ORDER),
                reason,
            ),
        )
    )

    depths = sorted(
        set(audit.tiles_visited_by_depth)
        | set(audit.tiles_pruned_by_depth)
        | set(audit.tiles_roots_by_depth)
    )
    tile_rows: list[dict[str, Any]] = []
    for depth in depths:
        row: dict[str, Any] = {
            "depth": depth,
            "roots": audit.tiles_roots_by_depth.get(depth, 0),
            "visited": audit.tiles_visited_by_depth.get(depth, 0),
        }
        pruned_here = audit.tiles_pruned_by_depth.get(depth, {})
        for reason in reasons:
            row[reason] = pruned_here.get(reason, 0)
        # Tiles neither pruned nor abandoned at this depth were resolved:
        # expanded into children or exactly evaluated at a leaf. Frontier
        # entries are either root-cover seeds (``roots``) or screened
        # children (``visited``); region misses never entered, so they
        # don't subtract. Clamped defensively — the audit invariants make
        # a negative remainder impossible, but explain must never crash
        # on a hand-built audit.
        row["resolved"] = max(
            0,
            row["roots"]
            + row["visited"]
            - sum(
                pruned_here.get(reason, 0)
                for reason in reasons
                if reason != "region"
            ),
        )
        tile_rows.append(row)

    level_rows = []
    for level in sorted(audit.cells_entered_level):
        entered = audit.cells_entered_level.get(level, 0)
        pruned = audit.cells_pruned_at_level.get(level, 0)
        level_rows.append(
            {
                "level": level,
                "entered": entered,
                "pruned": pruned,
                "survived": max(0, entered - pruned),
            }
        )

    totals: dict[str, Any] = {
        "roots": sum(row["roots"] for row in tile_rows),
        "visited": audit.tiles_screened,
        "resolved": sum(row["resolved"] for row in tile_rows),
        "cache_hit": cache_hit,
        "tile_prune_fraction": audit.tile_prune_fraction,
        "total_work": result.counter.total_work,
    }
    for reason in reasons:
        totals[reason] = sum(row[reason] for row in tile_rows)
    # Reconciliation invariant the tests pin: the per-depth breakdown is
    # exactly the audit's headline tallies, re-binned.
    assert totals["visited"] == audit.tiles_screened
    assert totals.get("interval", 0) == audit.tiles_pruned

    model = query.model
    descriptor = {
        "model": getattr(model, "name", None) or type(model).__name__,
        "k": query.k,
        "maximize": query.maximize,
        "region": tuple(region),
    }
    routing = None
    fusion = None
    if trace is not None:
        routing = trace.metadata.get("routing")
        fusion = trace.metadata.get("fusion")
    return ExplainReport(
        result=result,
        query=descriptor,
        tile_rows=tile_rows,
        level_rows=level_rows,
        totals=totals,
        reasons=reasons,
        routing=routing,
        fusion=fusion,
    )


def _ascii_table(
    columns: list[str],
    rows: list[list[Any]],
    footer: list[Any] | None = None,
) -> list[str]:
    """Right-aligned fixed-width table lines (two-space indent)."""
    body = [[_cell(value) for value in row] for row in rows]
    foot = [_cell(value) for value in footer] if footer else None
    widths = [
        max(
            len(str(column)),
            *(len(row[index]) for row in body),
            len(foot[index]) if foot else 0,
        )
        for index, column in enumerate(columns)
    ]
    def fmt(cells: list[str]) -> str:
        return "    " + "  ".join(
            cell.rjust(width) for cell, width in zip(cells, widths)
        )
    lines = [fmt([str(c) for c in columns])]
    lines.append("    " + "-" * (sum(widths) + 2 * (len(widths) - 1)))
    lines.extend(fmt(row) for row in body)
    if foot:
        lines.append("    " + "-" * (sum(widths) + 2 * (len(widths) - 1)))
        lines.append(fmt(foot))
    return lines


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _seconds(value: Any) -> str:
    """Human-scale seconds for the routing section (``?`` if absent)."""
    if not isinstance(value, (int, float)):
        return "?"
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}us"
