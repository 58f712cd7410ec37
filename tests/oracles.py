"""Brute-force reference implementations the differential suites pin to.

Every oracle here is deliberately *dumb*: score everything densely,
rank with numpy's lexsort under the library-wide tie-break convention
(descending score, then ascending ``(row, col)``), and — where counted
work is part of the contract — recompute the expected counter ledger
from first principles. The production paths must match these bitwise:

* :func:`flat_ip_oracle` — dense inner-product top-K over a vector set,
  the reference for :class:`repro.index.vector.FlatIPIndex`.
* :func:`exhaustive_fused` — score every cell of a region as
  ``alpha * model + (1 - alpha) * cosine`` and rank, plus the exact
  counter dict the service's ``embed-scan`` strategy must produce. It
  is the reference for every linear tile search too, cascade included:
  one arithmetic scores and bounds, so every strategy's reply equals it
  bit for bit, real-valued ties and all.
* :func:`table_top_k` — dense linear top-K over a table's rows, the
  reference for :class:`repro.index.onion.OnionIndex` at every depth.
* :func:`hull_layers_per_point` — convex-hull peeling that re-derives
  the distinct points and matches duplicates point by point on every
  layer; :func:`repro.index.hull.hull_layers` (which de-duplicates
  once) must return the same arrays.
* :func:`build_recursive` — the original top-down scalar quadtree
  build, one node object per window with its extrema recomputed over
  the node's full window; the flat node tables of
  :class:`repro.core.screening.TileScreen` must hold the same windows,
  child order and envelopes node for node.
* :func:`slow_thresholds_by_sorting` — the tail sampler's "slowest
  fraction of recent traffic" quantile, taken by sorting the sliding
  window afresh for every trace; :class:`repro.telemetry.distributed
  .TailSampler` (which keeps the window ordered as it goes) must hold
  the same threshold at every step.

The oracles reuse the library's *scoring* primitives (``evaluate_batch``,
the fusion blend) on purpose — the bitwise contract is about
search/pruning/tie-break machinery, and sharing the leaf arithmetic is
what makes "bit-identical" a meaningful demand rather than a tolerance
in disguise. There is one linear arithmetic: every bound the engine
prunes with is ``evaluate_batch`` at a corner of the box it bounds, so a
bound never sits below a score it covers. The *ranking* is independent:
lexsort, no heaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.embed.fusion import BLEND_FLOPS, FusionSpec
from repro.embed.tiles import TileEmbeddings
from repro.exceptions import IndexError_
from repro.index.hull import hull_vertices
from repro.index.vector import ip_scores

#: Counter fields the work-ledger contracts compare (wall_seconds and
#: notes are environment-dependent bookkeeping, not counted work).
COUNTER_FIELDS = (
    "data_points",
    "model_evals",
    "partial_evals",
    "flops",
    "tuples_examined",
    "nodes_visited",
)


def counter_dict(counter) -> dict[str, int]:
    """The counted-work fields of a :class:`CostCounter`, as a dict."""
    return {name: getattr(counter, name) for name in COUNTER_FIELDS}


def rank_top_k(
    scores: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: int
) -> list[tuple[float, tuple[int, int]]]:
    """Dense top-``k`` under the library tie-break, heap-free.

    Descending score; equal scores break to the smallest ``(row, col)``.
    ``lexsort`` keys are least-significant first, so the sign-flipped
    score (exact for floats) is the last key.
    """
    order = np.lexsort((cols, rows, -np.asarray(scores)))[:k]
    return [
        (float(scores[i]), (int(rows[i]), int(cols[i])))
        for i in order.tolist()
    ]


def flat_ip_oracle(
    vectors: np.ndarray, cells: np.ndarray, query: np.ndarray, k: int
) -> list[tuple[float, tuple[int, int]]]:
    """Reference answer for the flat inner-product index."""
    cells = np.asarray(cells)
    return rank_top_k(
        ip_scores(vectors, query), cells[:, 0], cells[:, 1], k
    )


def exhaustive_fused(
    stack,
    embeddings: TileEmbeddings | None,
    query,
    region: tuple[int, int, int, int],
) -> tuple[list[tuple[int, int, float]], dict[str, int]]:
    """Reference answers + work ledger for one (possibly fused) query.

    Scores every cell of ``region`` densely — model evaluation plus,
    for fused queries, the per-tile cosine against the example tile —
    and ranks with :func:`rank_top_k`. The returned counter dict is the
    ledger the service's exhaustive strategies must match exactly:
    ``embed-scan`` for fused queries, ``scan`` for model-only ones.
    """
    row0, col0, row1, col1 = region
    model = query.model
    columns = {
        name: stack[name].read_window(row0, col0, row1, col1, None)
        for name in model.attributes
    }
    scores = model.evaluate_batch(columns).reshape(-1)
    n_cells = scores.size
    if query.fused:
        fusion = FusionSpec.build(embeddings, query.similar_to, query.alpha)
        blended = fusion.blend(
            scores, fusion.region_cosines(region).reshape(-1)
        )
    else:
        fusion = None
        blended = scores
    sign = 1.0 if query.maximize else -1.0
    flat = np.arange(n_cells)
    rows = row0 + flat // (col1 - col0)
    cols = col0 + flat % (col1 - col0)
    ranked = rank_top_k(sign * blended, rows, cols, query.k)
    # Decode exactly as the service does: the stored signed score times
    # the sign again (an exact double flip).
    answers = [
        (cell[0], cell[1], sign * signed) for signed, cell in ranked
    ]
    expected = {
        "data_points": n_cells * len(model.attributes),
        "model_evals": n_cells,
        "partial_evals": 0,
        "flops": n_cells * model.complexity,
        "tuples_examined": n_cells,
        "nodes_visited": 0,
    }
    if fusion is not None:
        expected["partial_evals"] = embeddings.n_tiles + n_cells
        expected["flops"] += (
            embeddings.n_tiles * 2 * embeddings.dim
            + n_cells * BLEND_FLOPS
        )
    return answers, expected


def table_top_k(
    points: np.ndarray, weights: np.ndarray, k: int, maximize: bool = True
) -> list[tuple[int, float]]:
    """Dense linear top-``k`` over the rows of a point matrix, as the
    ``(row, score)`` pairs the table indexes return (ties to the
    smallest row)."""
    sign = 1.0 if maximize else -1.0
    rows = np.arange(points.shape[0])
    ranked = rank_top_k(sign * (points @ weights), rows, np.zeros_like(rows), k)
    return [(cell[0], sign * signed) for signed, cell in ranked]


def exact_answers(result) -> list[tuple[int, int, float]]:
    """A result's answers as exact (unrounded) triples."""
    return [(a.row, a.col, a.score) for a in result.answers]


def hull_layers_per_point(
    points: np.ndarray, max_layers: int | None = None
) -> list[np.ndarray]:
    """``hull_layers`` as it shipped before the one-pass de-duplication
    (moved here verbatim): peel the hull of what remains, then find the
    duplicates of the peeled points with a Python loop over every
    remaining point."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise IndexError_("points must be a 2-D array (n_points, n_dims)")

    remaining = np.arange(points.shape[0])
    layers: list[np.ndarray] = []
    while remaining.size:
        if max_layers is not None and len(layers) == max_layers - 1:
            layers.append(remaining.copy())
            break
        local_vertices = hull_vertices(points[remaining])
        representatives = remaining[local_vertices]

        # Duplicates of peeled points leave with their representative
        # (and join its layer), otherwise identical points recur forever.
        peeled_set = {tuple(points[i]) for i in representatives}
        peeled_mask = np.array(
            [tuple(points[i]) in peeled_set for i in remaining]
        )
        layers.append(np.sort(remaining[peeled_mask]))
        remaining = remaining[~peeled_mask]
    return layers


@dataclass
class QuadTreeNode:
    """One reference quadtree node over ``[row0:row1, col0:col1]``."""

    row0: int
    col0: int
    row1: int
    col1: int
    depth: int
    minimum: float
    maximum: float
    count: int
    children: list["QuadTreeNode"] = field(default_factory=list)

    def window(self) -> tuple[int, int, int, int]:
        return (self.row0, self.col0, self.row1, self.col1)


def build_recursive(values: np.ndarray, leaf_size: int) -> QuadTreeNode:
    """The quadtree build as it shipped before the array-backed grids
    (moved here from ``repro.pyramid.quadtree``): top-down recursion
    that recomputes ``min``/``max`` over every node's full window —
    O(area · depth) data touches."""
    if leaf_size <= 0:
        raise ValueError(f"leaf_size must be positive, got {leaf_size}")
    values = np.asarray(values, dtype=float)

    def _build(row0: int, col0: int, row1: int, col1: int, depth: int) -> QuadTreeNode:
        window = values[row0:row1, col0:col1]
        node = QuadTreeNode(
            row0=row0,
            col0=col0,
            row1=row1,
            col1=col1,
            depth=depth,
            minimum=float(window.min()),
            maximum=float(window.max()),
            count=window.size,
        )
        rows = row1 - row0
        cols = col1 - col0
        if rows <= leaf_size and cols <= leaf_size:
            return node
        row_mid = row0 + rows // 2 if rows > leaf_size else row1
        col_mid = col0 + cols // 2 if cols > leaf_size else col1
        for child_row0, child_row1 in ((row0, row_mid), (row_mid, row1)):
            if child_row0 >= child_row1:
                continue
            for child_col0, child_col1 in ((col0, col_mid), (col_mid, col1)):
                if child_col0 >= child_col1:
                    continue
                node.children.append(
                    _build(child_row0, child_col0, child_row1, child_col1, depth + 1)
                )
        return node

    rows, cols = values.shape
    return _build(0, 0, rows, cols, depth=0)


def slow_thresholds_by_sorting(
    walls: list[float], slow_fraction: float, window: int
) -> list["float | None"]:
    """For each duration of a stream, the slow threshold in force when
    it arrives: the ``(1 - slow_fraction)`` quantile of the (at most
    ``window``) durations before it, ``None`` while there are none or
    the rule is off. Sorts the window every time."""
    thresholds: list["float | None"] = []
    for position in range(len(walls)):
        recent = sorted(walls[max(0, position - window):position])
        if not recent or slow_fraction <= 0.0:
            thresholds.append(None)
            continue
        index = min(int(len(recent) * (1.0 - slow_fraction)), len(recent) - 1)
        thresholds.append(recent[index])
    return thresholds
