"""The progressive retrieval engine (paper Sections 3.1-3.2, 4.2).

:class:`RasterRetrievalEngine` answers top-K model queries over a raster
stack four ways — the ablation grid of the Section 4.2 efficiency model:

====================  ======================  =========================
strategy              data representation     model execution
====================  ======================  =========================
``exhaustive``        every cell read         full model everywhere
``data-progressive``  tile envelopes first    full model on survivors
``model-progressive`` every cell read*        level cascade with bounds
``both``              tile envelopes first    level cascade on survivors
====================  ======================  =========================

(*) model-progressive reads only the attributes each level needs, which
is already a data saving; the *tile* axis is what the table's first
column refers to.

All four strategies return the same exact top-K *answer set* — not just
the score multiset: bounds are sound, pruning is strict, and score ties
at the K boundary break deterministically (smallest ``(row, col)`` wins,
see :class:`TopKHeap`) — so the comparison isolates work, not quality.
Work is tallied per strategy on a fresh
:class:`~repro.metrics.counters.CostCounter`.

There is one tile search. A query's frontier state (:class:`_ScanState`
over the caller's :class:`BatchQuerySpec`) advances through one
branch-and-bound step that pops a *wave* of frontier nodes — one node,
best-first, until the heap holds k answers, then up to
:data:`WAVE_WIDTH` — bounds all their children in one call over the
screen's flat node tables and scores all their leaves as one gathered
cell list. It reads the archive through one layer (:class:`_Scan`):
``progressive_top_k`` and
:meth:`RasterRetrievalEngine.shard_search` (the sharded service layer's
entry point, after :meth:`RasterRetrievalEngine.prepare_tile_query`) run
one state to exhaustion, :meth:`RasterRetrievalEngine.shared_scan_search`
runs N round-robin over a memoizing layer — so "a batch member equals
its solo search" holds because both are the same code. Likewise one
dense evaluator (:meth:`RasterRetrievalEngine.dense_top_k`) is the
exhaustive baseline and the service's scan strategies, and every
executor turns its heap into answers through :func:`ranked_answers`.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.query import TopKQuery
from repro.core.results import PruningAudit, RetrievalResult, ScoredLocation
from repro.core.screening import TileScreen
from repro.data.raster import RasterStack
from repro.exceptions import PlanError, QueryError
from repro.metrics.counters import CostCounter
from repro.models.base import Model
from repro.models.linear import LinearModel, stacked_interval_batch
from repro.models.progressive_linear import (
    ProgressiveLinearModel,
    TermContribution,
    analyze_contributions,
)

if TYPE_CHECKING:  # polled duck-typed; no runtime core->service dep
    from repro.embed.fusion import FusionSpec
    from repro.service.tracing import CancellationToken

#: Frontier nodes one step pops once the heap holds k answers (before
#: that a step pops one, so the first threshold is found best-first: a
#: wave from the first pop reads 1.6x the cells of a regional query and
#: is slower there). A module constant, not a knob — width changes work,
#: never answers. The sweep that chose it (whole-grid / 128² regional
#: top-10 at 1024² x 4, in-process floor p50 ms, cells and nodes vs.
#: width 1) is tabled in DESIGN.md §6: 8-32 are within noise of each
#: other, 64 reads more cells for no less time.
WAVE_WIDTH = 16


class TopKHeap:
    """Running top-K of (signed score, cell) with a threshold view.

    Tie-break convention (shared by every strategy, see DESIGN.md §6):
    on equal signed score the smallest ``(row, col)`` cell wins. Entries
    are stored as ``(score, (-row, -col))`` so the min-heap root is
    always the *worst kept* answer under that rule — lowest score, and
    among score-equals the largest cell — which makes the eviction
    comparison in :meth:`offer` implement the rule directly.

    :mod:`repro.service` shares one (lock-wrapped) instance across
    concurrent shard searches; because pruning compares strictly against
    :attr:`threshold`, a threshold raised early by another shard only
    tightens pruning and never changes the final answer set.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            # k=0 would make `full` true on an empty heap, so the first
            # threshold read (or offer eviction compare) indexes into
            # nothing and raises IndexError far from the real mistake.
            raise ValueError(f"top-K heap needs k >= 1, got {k}")
        self.k = k
        self._heap: list[tuple[float, tuple[int, int]]] = []

    def offer(self, score: float, cell: tuple[int, int]) -> None:
        self._offer_entry((score, (-cell[0], -cell[1])))

    def _offer_entry(self, entry: tuple[float, tuple[int, int]]) -> None:
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    def offer_block(
        self, scores: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> None:
        """Offer a whole block of (signed score, cell) candidates.

        Produces exactly the heap state per-cell :meth:`offer` calls
        would (the kept set is the k largest ``(score, (-row, -col))``
        tuples ever offered, which is order-independent), but prefilters
        in NumPy before any Python-level push:

        * when full, drop ``scores < threshold`` — such an entry loses
          the eviction comparison outright, whatever its cell (equal
          scores are kept: they can still win on the cell tie-break);
        * keep only candidates at or above the block's k-th largest
          score (``np.partition``) — at least k block-mates beat any
          entry strictly below that cutoff, so it can never be kept.
          ``>=`` keeps boundary-score ties for the tie-break to settle.
        """
        self._offer_block_impl(scores, rows, cols)

    def _offer_block_impl(
        self, scores: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> None:
        scores = np.asarray(scores)
        if scores.dtype != np.float64:
            # Narrower float blocks (e.g. float32 embedding dot products)
            # are widened *exactly* — every float32 is a float64 — so the
            # threshold/partition comparisons below run in the heap's own
            # dtype and the kept set is identical to offering the same
            # values pre-widened. One astype also leaves the result
            # contiguous, so non-contiguous views (strided slices, 2-D
            # column views) pay at most this single copy.
            scores = scores.astype(np.float64)
        scores = scores.reshape(-1)
        if scores.size == 0:
            # Zero-length blocks are legal input: a shared-scan leaf whose
            # sibling candidates were all pruned offers an empty block
            # rather than making every caller special-case it. Bail before
            # touching rows/cols (which may be empty lists of another
            # dtype) or the partition prefilter (np.partition rejects
            # empty input).
            return
        rows = np.asarray(rows).reshape(-1)
        cols = np.asarray(cols).reshape(-1)
        if len(self._heap) >= self.k:
            keep = scores >= self._heap[0][0]
            if not keep.all():
                scores = scores[keep]
                rows = rows[keep]
                cols = cols[keep]
            if scores.size == 0:
                # The threshold prefilter may drain the block entirely
                # (every candidate strictly below the K-th best); the
                # partition step below must never see a zero-length array.
                return
        if scores.size > self.k:
            cutoff = np.partition(scores, scores.size - self.k)[
                scores.size - self.k
            ]
            keep = scores >= cutoff
            scores = scores[keep]
            rows = rows[keep]
            cols = cols[keep]
        for score, row, col in zip(
            scores.tolist(), rows.tolist(), cols.tolist()
        ):
            self._offer_entry((score, (-int(row), -int(col))))

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    @property
    def threshold(self) -> float:
        """K-th best signed score so far (-inf until full)."""
        return self._heap[0][0] if self.full else float("-inf")

    def ranked(self) -> list[tuple[float, tuple[int, int]]]:
        """(score, cell) entries best-first: score descending, then
        smallest ``(row, col)``."""
        decoded = [
            (score, (-neg_row, -neg_col))
            for score, (neg_row, neg_col) in self._heap
        ]
        return sorted(decoded, key=lambda item: (-item[0], item[1]))


def ranked_answers(heap: TopKHeap, maximize: bool) -> list[ScoredLocation]:
    """A finished heap as best-first answers with unsigned scores.

    Heaps hold *signed* scores (negated for minimizing queries) so one
    comparison serves both directions; every executor ends by undoing
    the sign here.
    """
    sign = 1.0 if maximize else -1.0
    return [
        ScoredLocation(row=cell[0], col=cell[1], score=sign * signed)
        for signed, cell in heap.ranked()
    ]


@dataclass
class BatchQuerySpec:
    """One query's slot in a tile search.

    The caller supplies the query plus fresh per-query accounting
    objects (heap, counter, audit, optional cascade and cancel token);
    the search mutates them in place and fills the output fields.
    Keeping accounting per-spec is what makes shared-scan work
    *attributable*: each query's counter and audit record exactly the
    work its own solo search would have counted, no more.
    """

    query: TopKQuery
    heap: TopKHeap
    counter: CostCounter
    audit: PruningAudit
    progressive: ProgressiveLinearModel | None = None
    cancel: "CancellationToken | None" = None
    #: Output: False when this query's cancel token retired it early
    #: (its answers are then prefix-sound, not the true top-K).
    complete: bool = field(default=True, init=False)
    #: Output: wall seconds of scan work attributable to this query
    #: (its own frontier steps; shared cache fills are charged to
    #: whichever query triggered them). Child spans built from these
    #: therefore sum to at most the batch's wall time.
    attributed_seconds: float = field(default=0.0, init=False)


class _ScanState:
    """One query's best-first frontier — the only search state there is.

    Wraps the caller's :class:`BatchQuerySpec` with what the search owns
    (the frontier of ``(-upper, tiebreak, node id)`` entries and its
    tie-break counter), what is fixed per query (the cascade's attribute
    order and signed tail bounds) and the two things a solo caller may
    add: a ``fusion`` spec, and an anytime ``work_budget`` whose outcome
    lands in ``regret_bound``.

    ``fusion`` (a :class:`repro.embed.fusion.FusionSpec`, duck-typed
    here to keep core free of an embed dependency) blends embedding
    similarity into both the node bounds and the leaf scores; the search
    then maximizes ``alpha * model + (1 - alpha) * cosine`` with bounds
    that stay sound because both terms are bounded independently
    (DESIGN.md §10). It blends *whole-model* bounds, so it excludes a
    level cascade.
    """

    __slots__ = (
        "spec", "fusion", "work_budget", "regret_bound",
        "model", "sign", "frontier", "tiebreak", "ordered", "signed_tails",
    )

    def __init__(
        self,
        spec: BatchQuerySpec,
        fusion: "FusionSpec | None" = None,
        work_budget: int | None = None,
    ) -> None:
        if fusion is not None and spec.progressive is not None:
            raise QueryError(
                "fused search blends whole-model bounds; the level cascade "
                "does not apply (run with use_model_levels=False)"
            )
        self.spec = spec
        self.fusion = fusion
        self.work_budget = work_budget
        #: ``None`` without a budget; else 0.0 when the search finished
        #: within budget, or the bound at its early stop.
        self.regret_bound = None if work_budget is None else 0.0
        self.model = spec.query.model
        self.sign = sign = 1.0 if spec.query.maximize else -1.0
        self.frontier: list = []
        self.tiebreak = itertools.count()
        progressive = spec.progressive
        if progressive is not None:
            #: Cascade attributes, contribution order.
            self.ordered = [
                term.attribute for term in progressive.contributions
            ]
            #: ``signed_tails[n - 1]``: the most the terms after the
            #: first ``n`` can still add to a signed partial score.
            self.signed_tails = [
                max(sign * tail_low, sign * tail_high)
                for tail_low, tail_high in map(
                    progressive._tail_bounds, range(1, len(self.ordered))
                )
            ]


def _per_depth(depths: np.ndarray):
    """``(depth, n_nodes)`` pairs of an array of node depths (zero
    counts included; the audit's tallies ignore them)."""
    return enumerate(np.bincount(depths).tolist())


def _descending(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(-keys, kind="stable")`` from an unstable sort: one
    integer sort of ``(start of the key's run, index)`` pairs puts each
    run of equal keys (signed zeros included) back in index order."""
    order = np.argsort(-keys)
    ranked = keys[order]
    tied = ranked[1:] == ranked[:-1]
    if not tied.any():
        return order
    run = np.arange(order.size)
    run[1:][tied] = 0
    np.maximum.accumulate(run, out=run)
    shift = order.size.bit_length()
    return np.sort((run << shift) | order) & ((1 << shift) - 1)


def _audit_abandoned(
    audit: PruningAudit, frontier: list, reason: str, scan: "_Scan"
) -> None:
    """Tally a search's leftover frontier into the waterfall.

    Every entry still on the frontier when a search stops early
    (threshold close, deadline/cancel, anytime budget) was screened but
    never resolved; recording it with the stop reason keeps the explain
    waterfall's per-depth accounting exhaustive without touching the
    ``tiles_pruned`` envelope-prune total.
    """
    ids = [node for _, _, node in frontier]
    for depth, n_tiles in _per_depth(scan.depth[ids]):
        audit.prune_tiles(depth, n_tiles, reason=reason)


class _Scan:
    """The archive side of one traversal: what every step reads through.

    One traversal is one region walked from one root cover — the global
    screen root, or the minimal node cover of a sub-region, so a row
    band skips the shared upper tree levels. Nodes are ids into the
    screen's flat tables (re-exported here); a search asks this object
    for a model's bounds over a block of node ids and the cell list of a
    block of windows; attributes are read at flat cell ids through the
    stack's layers. With one query (this class) each is computed on
    demand and nothing is kept; :class:`_SharedScan` answers the same
    questions from batch-wide memos.
    """

    def __init__(
        self,
        engine: "RasterRetrievalEngine",
        region: tuple[int, int, int, int],
        roots: np.ndarray,
        pruning: str,
        heuristic_margin: float,
    ) -> None:
        if pruning not in ("sound", "heuristic"):
            raise QueryError(f"unknown pruning mode {pruning!r}")
        self.stack = engine.stack
        self.width = engine.stack.shape[1]
        self.screen = screen = engine.screen
        self.child, self.window = screen.child, screen.window
        self.leaf, self.depth = screen.leaf, screen.depth
        self.region = region
        self.roots = roots
        #: Bound source: ``None`` for the sound min/max envelopes, else
        #: the margin of the shrunken (unsound) pseudo-envelopes.
        self.margin = heuristic_margin if pruning == "heuristic" else None
        #: Whether anything below the roots can stick out of the region.
        #: A ``region_roots`` cover never does (its nodes lie inside the
        #: region or are leaves); the global root over a sub-region does.
        cover = self.window[roots]
        self.clips = bool(
            (cover[:, :2] < region[:2]).any()
            or (cover[:, 2:] > region[2:]).any()
        )

    def inside(self, ids: np.ndarray) -> np.ndarray:
        """Mask of the nodes ``ids`` that intersect the region."""
        row0, col0, row1, col1 = self.region
        window = self.window[ids].T
        return (
            (window[0] < row1) & (row0 < window[2])
            & (window[1] < col1) & (col0 < window[3])
        )

    def bounds(
        self, model: Model, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``model``'s interval ``(low, high)`` over each node of ``ids``."""
        return model.evaluate_interval_batch(
            *self.screen.envelope_block(ids, self.margin)
        )

    def leaf_cells(self, ids: np.ndarray):
        """``(rows, cols, sizes)`` of the leaves ``ids``: their windows,
        clipped to the region, as one cell list; ``sizes[p]`` cells of
        ``ids[p]``, leaf after leaf."""
        windows = self.window[ids]
        if self.clips:
            windows = np.hstack((
                np.maximum(windows[:, :2], self.region[:2]),
                np.minimum(windows[:, 2:], self.region[2:]),
            ))
        return self.cells(windows)

    @staticmethod
    def cells(windows: np.ndarray):
        """Flat ``(rows, cols, sizes)`` of an ``(n, 4)`` block of
        windows, each in row-major order, by broadcasting: no per-window
        work, ragged windows masked out of the common bounding shape."""
        row0, col0, row1, col1 = windows.T
        heights, widths = row1 - row0, col1 - col0
        height, width = int(heights.max()), int(widths.max())
        shape = (len(windows), height, width)
        down = np.arange(height)[None, :, None]
        across = np.arange(width)[None, None, :]
        rows = np.broadcast_to(row0[:, None, None] + down, shape)
        cols = np.broadcast_to(col0[:, None, None] + across, shape)
        if heights.min() == height and widths.min() == width:
            return rows.reshape(-1), cols.reshape(-1), heights * widths
        ragged = (down < heights[:, None, None]) & (
            across < widths[:, None, None]
        )
        return rows[ragged], cols[ragged], heights * widths


class _SharedScan(_Scan):
    """A scan several same-region queries take turns on.

    Node bounds are computed once per batch and memoized per node id in
    dense per-model tables, so a member's wave costs two fancy-indexes
    for whatever part of it another member already bounded; same-model
    queries (different k, direction, or deadline) share one table. Each
    query's counter is still charged exactly what the unshared path
    charges — the batch saves wall clock, never counted (attributable)
    work.
    """

    def __init__(
        self, engine, region, roots, pruning, heuristic_margin, models
    ):
        super().__init__(engine, region, roots, pruning, heuristic_margin)
        # Plain linear models sharing one attribute order are bounded
        # *stacked*: the first query to reach a block of nodes computes
        # the whole group's bounds in one elementwise pass (bitwise
        # identical per row to each model's own evaluate_interval_batch)
        # and fills every member's table. Other model families, and
        # lone linear models, are groups of one.
        groups: dict[object, list[Model]] = {}
        for model in models:
            key = (
                model.attributes if type(model) is LinearModel else id(model)
            )
            group = groups.setdefault(key, [])
            if not any(member is model for member in group):
                group.append(model)
        n_nodes = self.depth.size
        #: id(model) -> (its group, the group's "bounded" mask, its own
        #: (2, n_nodes) low/high table).
        self._memo = {}
        for group in groups.values():
            known = np.zeros(n_nodes, dtype=bool)
            for member in group:
                self._memo[id(member)] = (
                    group, known, np.empty((2, n_nodes))
                )

    def bounds(self, model, ids):
        group, known, table = self._memo[id(model)]
        missing = ids[~known[ids]]
        if missing.size:
            lows, highs = self.screen.envelope_block(missing, self.margin)
            if len(group) == 1:
                table[:, missing] = model.evaluate_interval_batch(lows, highs)
            else:
                for member, member_bounds in zip(
                    group, stacked_interval_batch(group, lows, highs)
                ):
                    self._memo[id(member)][2][:, missing] = member_bounds
            known[missing] = True
        return table[0, ids], table[1, ids]


class RasterRetrievalEngine:
    """Top-K model retrieval over an aligned raster stack.

    Parameters
    ----------
    stack:
        Attribute layers (e.g. TM bands + DEM).
    leaf_size:
        Tile-screen leaf window; the unit of exact evaluation.

    Notes
    -----
    The tile screen (quadtree aggregates) is built once at construction
    and excluded from query counters, mirroring the paper's treatment of
    index construction as amortized.
    """

    def __init__(self, stack: RasterStack, leaf_size: int = 16) -> None:
        if not stack.names:
            raise PlanError("engine needs a non-empty stack")
        self.stack = stack
        self.screen = TileScreen(stack, leaf_size=leaf_size)

    # -- baseline ----------------------------------------------------------

    def dense_top_k(
        self,
        query: TopKQuery,
        region: tuple[int, int, int, int],
        counter: CostCounter,
        fusion: "FusionSpec | None" = None,
    ) -> TopKHeap:
        """Full model on every cell of ``region``, into a fresh heap.

        The one dense evaluator: the sequential-scan baseline and the
        service's ``scan`` / ``embed-scan`` strategies are this routine
        plus their own labels and tallies. Window reads and model
        evaluations are charged to ``counter``; with ``fusion`` each
        cell's score is blended with its tile's cosine in the exact
        per-cell op order the progressive leaf blend uses (the caller,
        who owns the embeddings, charges the blend).
        """
        model = query.model
        row0, col0, row1, col1 = region
        columns = {
            name: self.stack[name].read_window(row0, col0, row1, col1, counter)
            for name in model.attributes
        }
        scores = model.evaluate_batch(columns).reshape(-1)
        counter.add_model_evals(scores.size, flops_each=model.complexity)
        if fusion is not None:
            scores = fusion.blend(
                scores, fusion.region_cosines(region).reshape(-1)
            )
        sign = 1.0 if query.maximize else -1.0
        heap = TopKHeap(query.k)
        # Region-local row-major order is global (row, col) order
        # restricted to the region, so decoding preserves tie semantics.
        # offer_block partition-prefilters down to the k best (plus
        # boundary-score ties, which its tie-break settles) before any
        # Python-level push.
        flat_rows, flat_cols = divmod(np.arange(scores.size), col1 - col0)
        heap.offer_block(sign * scores, row0 + flat_rows, col0 + flat_cols)
        return heap

    def exhaustive_top_k(self, query: TopKQuery) -> RetrievalResult:
        """Sequential-scan baseline: full model on every cell."""
        if query.fused:
            raise QueryError(
                "fused (similar_to) queries need embeddings; use "
                "RetrievalService.top_k"
            )
        counter = CostCounter()
        heap = self.dense_top_k(
            query, query.clip_region(self.stack.shape), counter
        )
        return RetrievalResult(
            answers=ranked_answers(heap, query.maximize), counter=counter,
            strategy="exhaustive",
        )

    # -- progressive -------------------------------------------------------

    def progressive_top_k(
        self,
        query: TopKQuery,
        use_tiles: bool = True,
        use_model_levels: bool = True,
        term_order: tuple[str, ...] | None = None,
        pruning: str = "sound",
        heuristic_margin: float = 0.7,
        work_budget: int | None = None,
        cancel: "CancellationToken | None" = None,
    ) -> RetrievalResult:
        """Progressive retrieval with either/both pruning mechanisms.

        ``term_order`` overrides the level cascade's attribute order
        (normally contribution-ordered); the planner ablation uses it to
        compare orderings. With both flags false this degenerates to the
        exhaustive scan (kept callable so the ablation grid is uniform).

        ``pruning`` selects the tile screen's bound source: ``"sound"``
        (min/max envelopes — exact results, the default) or
        ``"heuristic"`` (mean +/- ``heuristic_margin`` half-spreads —
        faster, may *miss answers*; the DESIGN.md pruning-rule ablation).
        Which answers it misses depends on the order nodes are expanded
        in (an unsound bound prunes against whatever threshold the heap
        holds at the time), so heuristic results are reproducible but
        tied to :data:`WAVE_WIDTH`; sound results are not.

        ``work_budget`` makes the retrieval *anytime* (Section 3.1's
        "incremental generation of model predictions"): once counted
        work passes the budget, tile-level search stops and the result
        carries a sound ``regret_bound`` — how much better any
        unexamined location could still score. Requires ``use_tiles``.

        ``cancel`` makes the tile search cooperatively cancellable
        (deadline or explicit): the branch-and-bound loop polls the
        token between waves of frontier pops and, once it fires, returns
        a partial result flagged ``complete=False`` whose answers are
        prefix-sound — every returned score is exact, but better cells
        may remain unexplored. Only the tile path polls; the
        ``use_tiles=False`` strategies evaluate one window and finish.
        """
        if query.fused:
            raise QueryError(
                "fused (similar_to) queries need embeddings; use "
                "RetrievalService.top_k"
            )
        region = query.clip_region(self.stack.shape)
        scan = _Scan(
            self, region, np.zeros(1, dtype=np.intp), pruning,
            heuristic_margin,
        )
        if work_budget is not None:
            if work_budget <= 0:
                raise QueryError("work_budget must be positive")
            if not use_tiles:
                raise QueryError(
                    "anytime retrieval needs the tile frontier; run with "
                    "use_tiles=True"
                )
        if not use_tiles and not use_model_levels:
            result = self.exhaustive_top_k(query)
            result.strategy = "none"
            return result

        if use_tiles:
            progressive = self.prepare_tile_query(
                query, use_model_levels, term_order
            )
        else:
            progressive = self._build_progressive(query.model, term_order)
        spec = BatchQuerySpec(
            query, TopKHeap(query.k), CostCounter(), PruningAudit(),
            progressive=progressive, cancel=cancel,
        )
        state = _ScanState(spec, work_budget=work_budget)
        if use_tiles:
            self._search([state], scan)
        else:
            rows, cols, _ = scan.cells(np.array([region]))
            self._evaluate_cells(state, rows, cols, scan)

        strategy = {
            (True, True): "both",
            (True, False): "data-progressive",
            (False, True): "model-progressive",
        }[(use_tiles, use_model_levels)]
        if pruning == "heuristic" and use_tiles:
            strategy += "-heuristic"
        if work_budget is not None:
            strategy += "-anytime"
        if not spec.complete:
            strategy += "-partial"
        return RetrievalResult(
            answers=ranked_answers(spec.heap, query.maximize),
            counter=spec.counter, audit=spec.audit, strategy=strategy,
            regret_bound=state.regret_bound, complete=spec.complete,
        )

    def _build_progressive(
        self, model: Model, term_order: tuple[str, ...] | None = None
    ) -> ProgressiveLinearModel:
        """Contribution-ordered levels; only linear models have them.

        ``term_order`` forces an explicit cascade order instead of the
        default contribution ranking.
        """
        if not isinstance(model, LinearModel):
            raise QueryError(
                f"model {type(model).__name__} does not support progressive "
                "levels; run with use_model_levels=False"
            )
        ranges = self.screen.attribute_ranges()
        missing = [a for a in model.attributes if a not in ranges]
        if missing:
            raise QueryError(f"stack lacks model attributes {missing}")
        spreads = {
            name: high - low
            for name, (low, high) in ranges.items()
            if name in model.attributes
        }
        if term_order is not None:
            if sorted(term_order) != sorted(model.attributes):
                raise QueryError(
                    f"term_order {term_order} does not cover the model's "
                    f"attributes {model.attributes}"
                )
            contributions = [
                TermContribution(
                    attribute=name,
                    coefficient=model.coefficients[name],
                    spread=spreads[name],
                )
                for name in term_order
            ]
        else:
            contributions = analyze_contributions(model, spreads=spreads)
        return ProgressiveLinearModel(
            model,
            contributions,
            {name: ranges[name] for name in model.attributes},
        )


    # -- shard entry points (the repro.service concurrency layer) ----------

    def prepare_tile_query(
        self,
        query: TopKQuery,
        use_model_levels: bool = True,
        term_order: tuple[str, ...] | None = None,
    ) -> ProgressiveLinearModel | None:
        """Validate ``query`` for tile search and build its level cascade.

        Performs the same compatibility checks as
        :meth:`progressive_top_k` with ``use_tiles=True`` and returns the
        cascade (or ``None`` when ``use_model_levels`` is false). The
        returned object is read-only during search, so one instance can
        be shared across concurrent :meth:`shard_search` calls.
        """
        model = query.model
        progressive = (
            self._build_progressive(model, term_order)
            if use_model_levels
            else None
        )
        if not model.supports_intervals:
            raise QueryError(
                f"model {type(model).__name__} cannot bound intervals; "
                "tile search needs evaluate_interval"
            )
        return progressive


    def shard_search(
        self,
        query: TopKQuery,
        region: tuple[int, int, int, int],
        heap: TopKHeap,
        counter: CostCounter,
        audit: PruningAudit,
        progressive: ProgressiveLinearModel | None = None,
        pruning: str = "sound",
        heuristic_margin: float = 0.7,
        cancel: "CancellationToken | None" = None,
        fusion: "FusionSpec | None" = None,
    ) -> bool:
        """Branch-and-bound restricted to ``region`` against a shared heap.

        The shard-scoped search entry point: ``region`` is an absolute,
        already-clipped grid window (one row band of a query's region),
        and the frontier starts from the screen's minimal node cover of
        that window. ``heap`` may be shared — and must then be lock-
        protected — across concurrent shard searches: because every
        pruning test compares *strictly* against the heap threshold, a
        threshold raised by another shard's discoveries only tightens
        pruning and never drops an answer.

        ``cancel`` (a :class:`~repro.service.tracing.CancellationToken`)
        is polled between waves of frontier pops; when it fires the shard stops
        promptly, leaving its exact discoveries in the shared heap.
        Returns whether the shard ran to completion (``False`` when the
        token stopped it early).
        """
        spec = BatchQuerySpec(
            query, heap, counter, audit, progressive=progressive,
            cancel=cancel,
        )
        scan = _Scan(
            self, region, self.screen.region_root_ids(region), pruning,
            heuristic_margin,
        )
        self._search([_ScanState(spec, fusion=fusion)], scan)
        return spec.complete

    def shared_scan_search(
        self,
        specs: list[BatchQuerySpec],
        region: tuple[int, int, int, int],
        pruning: str = "sound",
        heuristic_margin: float = 0.7,
    ) -> None:
        """One archive traversal answering every spec's query.

        Each query keeps its own best-first frontier and runs the very
        step its solo :meth:`shard_search` over ``region`` runs — same
        pops, same thresholds, same pruning — so every answer is
        bit-for-bit the solo answer and every per-query counter/audit is
        bit-for-bit the solo tally. What the scan *shares* is the
        archive side of the work (:class:`_SharedScan`): the batch pays
        the traversal cost once while each query is still charged the
        attributable work its solo search would have counted. A group of
        one shares nothing and is exactly the solo search.

        Queries advance round-robin, one wave per turn; a query
        *retires* — drops out of the scan while the others continue —
        when its frontier empties, when its best remaining bound falls
        below its own top-K threshold, or when its cancel token fires
        (the only case marked ``spec.complete = False``; its answers are
        then prefix-sound). Specs are mutated in place: heaps hold the
        answers, ``complete`` and ``attributed_seconds`` are filled per
        spec.
        """
        for spec in specs:
            if spec.query.fused:
                raise QueryError(
                    "shared-scan batches cannot blend embeddings; fused "
                    "(similar_to) members are planned as singletons"
                )
            if not spec.query.model.supports_intervals:
                raise QueryError(
                    f"model {type(spec.query.model).__name__} cannot bound "
                    "intervals; tile search needs evaluate_interval"
                )
        roots = self.screen.region_root_ids(region)
        if len(specs) > 1:
            scan = _SharedScan(
                self, region, roots, pruning, heuristic_margin,
                [spec.query.model for spec in specs],
            )
        else:
            scan = _Scan(self, region, roots, pruning, heuristic_margin)
        self._search([_ScanState(spec) for spec in specs], scan)

    def _search(self, states: list[_ScanState], scan: _Scan) -> None:
        """Seed every state's frontier from its roots, then run them all
        to retirement: round-robin while several are alive (timing each
        turn into ``attributed_seconds``), and straight through once one
        is left — nobody remains to take turns with."""
        roots = scan.roots.tolist()
        for state in states:
            spec = state.spec
            start = time.perf_counter()
            for upper, root in zip(
                self._uppers(state, scan.roots, scan).tolist(), roots
            ):
                heapq.heappush(
                    state.frontier, (-upper, next(state.tiebreak), root)
                )
            for depth, n_tiles in _per_depth(scan.depth[scan.roots]):
                spec.audit.root_tiles(depth, n_tiles)
            spec.attributed_seconds += time.perf_counter() - start
        active = states
        while len(active) > 1:
            survivors = []
            for state in active:
                start = time.perf_counter()
                alive = self._step(state, scan)
                state.spec.attributed_seconds += time.perf_counter() - start
                if alive:
                    survivors.append(state)
            active = survivors
        for state in active:
            start = time.perf_counter()
            while self._step(state, scan):
                pass
            state.spec.attributed_seconds += time.perf_counter() - start

    def _step(self, state: _ScanState, scan: _Scan) -> bool:
        """One wave of frontier pops for one query; False once it retires.

        Branch-and-bound over the tile screen, one decision sequence for
        every caller: frontier-empty exit, then the cancel poll and the
        budget stop, then the pops — one while the heap is still filling
        (strict best-first finds the first threshold with the fewest
        reads), up to :data:`WAVE_WIDTH` once it is full — then the
        wave's leaves scored as one cell list, then the children of its
        internal nodes bounded, screened and pushed as one block. A head
        that no longer beats the threshold retires the rest of the
        frontier, but the nodes this wave already popped beat it and are
        still searched. The token is polled once per wave and leaf
        evaluations are never interrupted, so every heap entry is an
        exact score.
        """
        spec = state.spec
        frontier = state.frontier
        if not frontier:
            return False
        heap = spec.heap
        audit = spec.audit
        stop = None
        if spec.cancel is not None and spec.cancel.cancelled:
            # Cooperative stop: leave the heap as-is. Offers happen only
            # after exact leaf evaluation, so the partial answer set is
            # prefix-sound (exact scores, possibly not the true top-K).
            stop = spec.cancel.reason or "cancelled"
            spec.complete = False
        elif (
            state.work_budget is not None
            and spec.counter.total_work >= state.work_budget
        ):
            stop = "budget"
        if stop is not None:
            _audit_abandoned(audit, frontier, stop, scan)
            if state.work_budget is not None:
                # Anytime regret: the best remaining frontier bound caps
                # how much any unexamined location can beat the K-th best.
                state.regret_bound = max(
                    0.0, -frontier[0][0] - heap.threshold
                )
            return False
        # One threshold read covers the wave's pops: the heap cannot
        # change until the leaves below are offered, and under a shared
        # heap a concurrently-raised threshold only tightens pruning.
        full = heap.full
        threshold = heap.threshold
        width = WAVE_WIDTH if full else 1
        popped = []
        while frontier and len(popped) < width:
            if full and -frontier[0][0] < threshold:
                # Every remaining node is bounded below the K-th best:
                # the whole frontier retires under the global threshold
                # (waterfall reason only — these are not envelope
                # prunes, so ``tiles_pruned`` stays untouched).
                _audit_abandoned(audit, frontier, "threshold", scan)
                frontier.clear()
                break
            popped.append(heapq.heappop(frontier)[2])
        if not popped:
            return False
        nodes = np.array(popped)
        at_leaf = scan.leaf[nodes]
        leaves = nodes[at_leaf]
        if leaves.size:
            rows, cols, sizes = scan.leaf_cells(leaves)
            self._evaluate_cells(state, rows, cols, scan, leaves, sizes)
        children = scan.child[nodes[~at_leaf]].reshape(-1)
        children = children[children >= 0]
        if scan.clips and children.size:
            inside = scan.inside(children)
            for depth, n_tiles in _per_depth(scan.depth[children[~inside]]):
                audit.prune_tiles(depth, n_tiles, reason="region")
            children = children[inside]
        if not children.size:
            return True
        uppers = self._uppers(state, children, scan)
        depths = scan.depth[children]
        for depth, n_tiles in _per_depth(depths):
            audit.screen_tiles(depth, n_tiles)
        if heap.full:
            # Read after the wave's leaves were offered: they can only
            # have raised it.
            pruned = uppers < heap.threshold
            if pruned.any():
                for depth, n_tiles in _per_depth(depths[pruned]):
                    audit.prune_tiles(depth, n_tiles)
                children, uppers = children[~pruned], uppers[~pruned]
        for upper, child in zip(uppers.tolist(), children.tolist()):
            heapq.heappush(frontier, (-upper, next(state.tiebreak), child))
        return True

    def _uppers(self, state: _ScanState, ids: np.ndarray, scan: _Scan):
        """Signed upper bounds (an array) of the nodes ``ids`` for one
        query's objective.

        One block evaluation replaces scalar interval calls; charged as
        ``len(ids)`` scalar boundings (one aggregate-node visit per
        attribute per node, one partial model evaluation per node)
        whether or not the scan answered from a memo.
        """
        counter = state.spec.counter
        counter.add_nodes(len(ids) * len(self.screen.attributes))
        counter.add_partial_evals(len(ids), flops_each=state.model.complexity)
        low, high = scan.bounds(state.model, ids)
        if state.fusion is not None:
            low, high = state.fusion.combine_bounds(ids, low, high, counter)
        return high if state.sign > 0 else -low

    def _evaluate_cells(
        self,
        state: _ScanState,
        rows: np.ndarray,
        cols: np.ndarray,
        scan: _Scan,
        leaves: np.ndarray | None = None,
        sizes: np.ndarray | None = None,
    ) -> None:
        """Exact evaluation of a cell list, with optional level cascade.

        The one leaf routine: a wave's leaf windows arrive concatenated
        (``leaves``/``sizes`` say which screen leaves, and how many
        cells of each, back to back), ``use_tiles=False`` passes its one
        rectangle. The list becomes flat cell ids once, and every
        attribute read is one :meth:`RasterLayer.take` of them; the
        query's counter is charged per value read, exactly as a solo
        read charges — sharing saves wall clock, never counted work.

        A ``state.fusion`` spec blends each cell's leaf-tile embedding
        cosine into its score before the sign is applied (fused cells
        always arrive with their ``leaves``).
        """
        if rows.size == 0:
            return
        spec = state.spec
        heap, counter, audit = spec.heap, spec.counter, spec.audit
        sign = state.sign
        model = state.model
        stack = scan.stack
        flat = rows * scan.width + cols

        if spec.progressive is None:
            columns = {
                name: stack[name].take(flat) for name in model.attributes
            }
            counter.add_data_points(rows.size * len(columns))
            scores = model.evaluate_batch(columns)
            counter.add_model_evals(scores.size, flops_each=model.complexity)
            if state.fusion is not None:
                scores = state.fusion.combine_leaves(
                    leaves, sizes, scores, counter
                )
            heap.offer_block(sign * scores, rows, cols)
            return

        # Level cascade: evaluate one contribution-ordered term at a time,
        # pruning candidates whose best completion cannot reach the K-th
        # best signed score. After level 1, candidates are processed in
        # descending partial-score order ("more complete model on the
        # regions predicted high risk sooner", Section 3.1), a block at a
        # time: the heap fills with strong scores early, so later blocks
        # prune after reading only the first attribute. Counts depend on
        # which cells share a block, so ties keep index order. Partial
        # sums accumulate in contribution order — the arithmetic the
        # ``both-*`` labels promise (ROADMAP 2a changes the offered value).
        coefficients = model.coefficients
        ordered, signed_tails = state.ordered, state.signed_tails
        audit.enter_level(1, rows.size)
        values = stack[ordered[0]].take(flat)
        counter.add_data_points(values.size)
        partial = model.intercept + coefficients[ordered[0]] * values
        counter.add_partial_evals(values.size, flops_each=2)
        if len(ordered) == 1:
            heap.offer_block(sign * partial, rows, cols)
            return

        signed_partial = sign * partial
        order = _descending(signed_partial)
        levels = [
            (level, stack[name], coefficients[name], signed_tails[level - 2])
            for level, name in enumerate(ordered[1:], start=2)
        ]
        block_size = max(4 * spec.query.k, 256)
        # Only an offer moves the heap, so one read per block is exact;
        # under a heap other shards share, the read goes stale low, which
        # prunes less and never wrongly.
        full, threshold = heap.full, heap.threshold
        read = 0  # values past level 1; each is one partial evaluation
        for start in range(0, order.size, block_size):
            block = order[start: start + block_size]
            # Every remaining candidate's bound is at most the block
            # leader's; once that falls below the K-th best, stop.
            if full and signed_partial[block[0]] + signed_tails[0] < threshold:
                audit.prune_at_level(1, int(order.size - start))
                break
            sums = partial[block]
            for level, layer, coefficient, tail in levels:
                if full:
                    # ``tail - sums`` is ``-sums + tail`` bit for bit.
                    upper = sums + tail if sign > 0 else tail - sums
                    keep = upper >= threshold
                    kept = int(np.count_nonzero(keep))
                    if kept < block.size:
                        audit.prune_at_level(level - 1, block.size - kept)
                        if not kept:
                            break
                        block, sums = block[keep], sums[keep]
                audit.enter_level(level, block.size)
                read += block.size
                sums = sums + coefficient * layer.take(flat[block])
            else:
                heap.offer_block(sign * sums, rows[block], cols[block])
                full, threshold = heap.full, heap.threshold
        counter.add_data_points(read)
        counter.add_partial_evals(read, flops_each=2)
