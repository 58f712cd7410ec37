"""The Onion index for linear-optimization top-K queries.

Reimplements the technique of Chang, Bergman, Castelli, Li, Lo and Smith,
"The Onion Technique: Indexing for Linear Optimization Queries" (SIGMOD
2000) — reference [11] of the reproduced paper, which quotes its result:
13,000x speedup for top-1 and 1,400x for top-10 over sequential scan on
three-attribute Gaussian data.

**Construction.** Partition the tuples into convex-hull layers by repeated
peeling (:func:`repro.index.hull.hull_layers`). Layer 1 is the outer hull,
layer 2 the hull of the interior, and so on.

**Query.** A linear objective ``w . x`` attains its maximum over any point
set at a vertex of the set's convex hull, so the best tuple is on layer 1;
inductively, the i-th best tuple lies within the first i layers. A top-K
query therefore evaluates only the tuples on the outermost K layers —
for Gaussian data a vanishing fraction of N — instead of all N tuples.

The optimal-layer containment gives an *exact* answer set; no
approximation is involved. It bounds scores, not rows: a point inside a
hull face is one layer deeper than the vertices it ties, so when the
K-th score is tied on such a face the query reads on
(:meth:`OnionIndex.reads_on`) for the smaller row.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.data.table import Table
from repro.exceptions import IndexError_
from repro.index.hull import group_by_layer, hull_layers, touches_hull
from repro.metrics.counters import CostCounter


class OnionIndex:
    """Convex-hull-layer index over a numeric table.

    Parameters
    ----------
    table:
        Source tuples.
    attributes:
        Columns to index (the model's attribute space); defaults to all.
    max_layers:
        How many layers the peel may produce: ``max_layers - 1`` true
        hull layers — the index's :attr:`depth` — and one final interior
        bucket of whatever is left inside them. ``None`` peels fully. A
        top-K query with K up to the depth reads its K hull layers; a
        larger K also reads the bucket, which makes it every tuple:
        always exact, at the price of a scan. Depth buys speed for deep
        queries with build time, never exactness. :meth:`deepen` peels
        an existing index's bucket further.
    layer_of:
        Each row's layer number from an earlier peel of these same
        tuples at this ``max_layers`` (:meth:`layer_of`), adopted in
        place of peeling — how a persisted index is reopened.

    Notes
    -----
    Index construction cost is excluded from query counters (the paper's
    speedups compare query work; the index is built once and amortized).
    Build statistics are exposed via :attr:`n_layers` and
    :meth:`layer_sizes`.
    """

    def __init__(
        self,
        table: Table,
        attributes: list[str] | None = None,
        max_layers: int | None = None,
        layer_of: np.ndarray | None = None,
    ) -> None:
        self.table = table
        self.attributes = (
            list(attributes) if attributes is not None else table.column_names
        )
        if not self.attributes:
            raise IndexError_("need at least one attribute to index")
        if max_layers is not None and max_layers <= 0:
            raise IndexError_("max_layers must be positive")
        self._points = table.matrix(self.attributes)
        self._max_layers = max_layers
        if layer_of is None:
            self._layers = hull_layers(self._points, max_layers=max_layers)
        else:
            if layer_of.shape != (len(table),):
                raise IndexError_("layer_of must hold one layer per row")
            self._layers = group_by_layer(layer_of)
        self._pending: list[np.ndarray] = []
        self._next_row = len(table)
        self._touches: dict[int, bool] = {}

    @property
    def max_layers(self) -> int | None:
        """The layer cap this index is peeled to (``None``: fully)."""
        return self._max_layers

    @property
    def depth(self) -> int | None:
        """Hull layers a query can read before it needs the interior
        bucket: the deepest K answered from layers alone (``None``: any)."""
        return None if self._max_layers is None else self._max_layers - 1

    @property
    def n_layers(self) -> int:
        """Number of onion layers."""
        return len(self._layers)

    def layer_sizes(self) -> list[int]:
        """Tuple count per layer, outermost first."""
        return [int(layer.size) for layer in self._layers]

    def layer_of(self) -> np.ndarray:
        """Each indexed row's layer number (pending tuples excluded)."""
        labels = np.empty(self._points.shape[0], dtype=int)
        for number, rows in enumerate(self._layers):
            labels[rows] = number
        return labels

    def layers_needed(self, k: int) -> int:
        """The containment minimum of layers a top-``k`` query reads:
        the outermost ``k`` (containment theorem) — or all of them, the
        interior bucket included, when the peel was capped short of
        ``k`` hull layers and the bucket may hold deeper optima. A tie
        at the K-th score may read further (:meth:`reads_on`)."""
        n_layers = len(self._layers)
        if self._max_layers is not None and k > n_layers - 1:
            return n_layers
        return min(k, n_layers)

    def deepen(self, max_layers: int | None) -> None:
        """Peel the interior bucket on, to ``max_layers`` in all.

        The result is layer for layer what peeling to ``max_layers``
        from scratch gives: duplicates leave with their representative,
        so the bucket holds every copy of each point still inside and
        its own peel is the continuation of the outer one. A depth the
        index already has is a no-op.
        """
        if self._max_layers is None or (
            max_layers is not None and max_layers <= self._max_layers
        ):
            return
        if len(self._layers) == self._max_layers:  # the last is a bucket
            bucket = self._layers[-1]
            inner = hull_layers(
                self._points[bucket],
                max_layers=None
                if max_layers is None
                else max_layers - self._max_layers + 1,
            )
            self._layers = self._layers[:-1] + [bucket[rows] for rows in inner]
            self._touches = {}
        self._max_layers = max_layers

    def layer(self, index: int) -> np.ndarray:
        """Row indices on the given layer (0 = outermost)."""
        if not 0 <= index < len(self._layers):
            raise IndexError_(
                f"layer {index} outside 0..{len(self._layers) - 1}"
            )
        return self._layers[index]

    @property
    def n_pending(self) -> int:
        """Appended tuples not yet merged into the layers."""
        return len(self._pending)

    def insert(self, values: dict[str, float]) -> int:
        """Append a tuple (returns its new row id).

        Appends go to a delta buffer that queries scan alongside the
        layers — the standard maintenance scheme for peeled indexes
        (re-peeling on every insert would cost a full rebuild). Call
        :meth:`rebuild` once the buffer grows past a few percent of the
        data to restore full pruning power; queries stay *exact* either
        way.
        """
        missing = [a for a in self.attributes if a not in values]
        if missing:
            raise IndexError_(f"insert missing attributes {missing}")
        point = np.array([float(values[a]) for a in self.attributes])
        self._pending.append(point)
        row = self._next_row
        self._next_row += 1
        return row

    def rebuild(self) -> None:
        """Merge pending tuples and re-peel the layers."""
        if not self._pending:
            return
        self._points = np.vstack([self._points] + self._pending)
        self._pending = []
        self._layers = hull_layers(self._points, max_layers=self._max_layers)
        self._touches = {}

    def reads_on(
        self, index: int, scores: np.ndarray, threshold: float, zero: bool
    ) -> bool:
        """Whether a query whose K-th signed score is ``threshold`` after
        reading layers ``0..index`` (``scores``, signed, on the last of
        them, in :meth:`layer` order) must read layer ``index + 1`` too,
        to settle a tie by row; ``zero`` says every weight is zero.

        Containment bounds scores, not rows: a deeper tuple scores at
        most this layer's best, and reaches it only on the hull face
        where that best is reached. A face with one vertex holds no
        deeper tuple; a wider face may, if a deeper tuple lies on this
        layer's hull at all (or every weight is zero, when the whole
        hull is the face).
        """
        tied = scores == threshold
        if np.count_nonzero(tied) < 2:
            return False
        if len(np.unique(self._points[self._layers[index][tied]], axis=0)) < 2:
            return False
        if zero:
            return True
        if index not in self._touches:
            self._touches[index] = touches_hull(
                self._points[self._layers[index]],
                self._points[np.concatenate(self._layers[index + 1 :])],
            )
        return self._touches[index]

    def _weights(self, model_weights: dict[str, float]) -> np.ndarray:
        missing = [a for a in self.attributes if a not in model_weights]
        if missing:
            raise IndexError_(f"query missing weights for {missing}")
        extra = [a for a in model_weights if a not in self.attributes]
        if extra:
            raise IndexError_(f"query has weights for unindexed attributes {extra}")
        return np.array([model_weights[a] for a in self.attributes])

    def top_k(
        self,
        model_weights: dict[str, float],
        k: int,
        maximize: bool = True,
        counter: CostCounter | None = None,
    ) -> list[tuple[int, float]]:
        """Exact top-K rows for the linear objective ``w . x``.

        Evaluates the outermost layers until K layers have been examined
        (the containment theorem guarantees the i-th best lies in the
        first i layers), plus any additional capped interior bucket if K
        exceeds the peeled depth, plus the next layer while a tuple on
        it may tie the K-th score. Returns ``(row_index, score)`` pairs,
        best first; work is tallied on ``counter``.
        """
        if k <= 0:
            raise IndexError_("k must be positive")
        weights = self._weights(model_weights)
        sign = 1.0 if maximize else -1.0

        # Min-heap of (signed score, -row): the root is the worst kept
        # answer under the service-wide tie-break (lowest score; among
        # score-equals the largest row), so a boundary-tying candidate
        # with a smaller row wins the eviction comparison and replaces
        # it. A strict score-only comparison here would keep whichever
        # tied row arrived first — hull-layer order, not row order.
        heap: list[tuple[float, int]] = []
        n_read = self.layers_needed(k)
        layer_index = 0
        while layer_index < n_read:
            rows = self._layers[layer_index]
            scores = sign * (self._points[rows] @ weights)
            if counter is not None:
                counter.add_nodes(1)  # one layer visited
                counter.add_tuples(rows.size)
                counter.add_model_evals(
                    rows.size, flops_each=2 * len(self.attributes)
                )
            for row, score in zip(rows, scores):
                entry = (float(score), -int(row))
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
            layer_index += 1
            if layer_index == n_read < len(self._layers) and self.reads_on(
                layer_index - 1, scores, heap[0][0], not weights.any()
            ):
                n_read += 1

        # Appended tuples live outside the layers until rebuild(): scan
        # the delta buffer so queries stay exact. The buffer is one more
        # structure unit visited — tallied as a node so cost accounting
        # covers the same scanned tuples before and after rebuild().
        if self._pending and counter is not None:
            counter.add_nodes(1)
        base_rows = self._points.shape[0]
        for offset, point in enumerate(self._pending):
            score = sign * float(point @ weights)
            if counter is not None:
                counter.add_tuples(1)
                counter.add_model_evals(
                    1, flops_each=2 * len(self.attributes)
                )
            entry = (score, -(base_rows + offset))
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

        ranked = sorted(heap, key=lambda item: (-item[0], -item[1]))
        return [(-neg_row, sign * score) for score, neg_row in ranked]

    def __repr__(self) -> str:
        return (
            f"OnionIndex({self.table.name!r}, attributes={self.attributes}, "
            f"layers={self.n_layers})"
        )
