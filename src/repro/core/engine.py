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
runs N round-robin over the same layer — so "a batch member equals its
solo search" holds because both are the same code. Likewise one
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
from repro.core.screening import TileScreen, meets
from repro.data.raster import RasterStack
from repro.exceptions import PlanError, QueryError
from repro.metrics.counters import CostCounter
from repro.models.base import Model
from repro.models.linear import LinearModel
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

    :mod:`repro.service` shares one (lock-wrapped) instance across the
    concurrent shard searches of a query split into row bands; because
    pruning compares strictly against :attr:`threshold`, a threshold
    raised early by another shard only tightens pruning and never
    changes the final answer set.
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
        in NumPy (:meth:`_contenders`) before any Python-level push.
        """
        kept = self._contenders(scores, rows, cols)
        if kept is not None:
            self._push(*kept)

    def offer_cells(
        self, scores: np.ndarray, flat: np.ndarray, width: int,
        origin: tuple[int, int] = (0, 0),
    ) -> None:
        """:meth:`offer_block` of cells given as flat ids ``row * width +
        col`` of a grid whose cell 0 is ``origin``: the same prefilter,
        then ``(row, col)`` decoded for the survivors only."""
        kept = self._contenders(scores, flat)
        if kept is not None:
            scores, flat = kept
            rows, cols = np.divmod(flat, width)
            self._push(scores, rows + origin[0], cols + origin[1])

    def _contenders(self, scores: np.ndarray, *cells: np.ndarray):
        """``(scores, *cells)`` of the block's entries that can still be
        kept, or ``None`` when none can. Two filters, each dropping only
        entries that per-cell :meth:`offer` would also reject:

        * when full, drop ``scores < threshold`` — such an entry loses
          the eviction comparison outright, whatever its cell (equal
          scores are kept: they can still win on the cell tie-break);
        * keep only candidates at or above the block's k-th largest
          score (``np.partition``) — at least k block-mates beat any
          entry strictly below that cutoff, so it can never be kept.
          ``>=`` keeps boundary-score ties for the tie-break to settle.
        """
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
            # Zero-length blocks are legal input. Bail before touching the
            # cells (maybe empty lists of another dtype) or the partition
            # prefilter (np.partition rejects empty input).
            return None
        cells = [np.asarray(column).reshape(-1) for column in cells]
        if len(self._heap) >= self.k:
            keep = scores >= self._heap[0][0]
            if not keep.all():
                scores = scores[keep]
                cells = [column[keep] for column in cells]
            if scores.size == 0:
                # The threshold prefilter may drain the block entirely
                # (every candidate strictly below the K-th best); the
                # partition step below must never see a zero-length array.
                return None
        if scores.size > self.k:
            cutoff = np.partition(scores, scores.size - self.k)[
                scores.size - self.k
            ]
            keep = scores >= cutoff
            scores = scores[keep]
            cells = [column[keep] for column in cells]
        return scores, *cells

    def _push(
        self, scores: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> None:
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
    #: Output: wall seconds of this query's own frontier steps. Child
    #: spans built from these therefore sum to at most the batch's wall
    #: time.
    attributed_seconds: float = field(default=0.0, init=False)


class _ScanState:
    """One query's best-first frontier — the only search state there is.

    Wraps the caller's :class:`BatchQuerySpec` with what the search owns
    (the frontier of ``(-upper, tiebreak, node id)`` entries and its
    tie-break counter), what is fixed per query (the cascade's attribute
    order and favoured range ends, and the signed bound ``table`` of
    every screen node, ``+inf`` where the scan cannot reach, which
    :meth:`RasterRetrievalEngine._seed` fills and nothing keeps) and the
    two things a solo caller may add: a ``fusion`` spec, and an anytime
    ``work_budget`` whose outcome lands in ``regret_bound``.

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
        "model", "sign", "frontier", "tiebreak", "ordered", "ends",
        "table",
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
        self.sign = 1.0 if spec.query.maximize else -1.0
        self.frontier: list = []
        self.tiebreak = itertools.count()
        progressive = spec.progressive
        if progressive is not None:
            #: Cascade attributes, contribution order.
            self.ordered = [
                term.attribute for term in progressive.contributions
            ]
            #: Where a candidate's bound puts its unread attributes.
            self.ends = progressive.favoured_ends(spec.query.maximize)


def _per_depth(record, depths: np.ndarray, *reason: str) -> None:
    """``record(depth, n_nodes, *reason)`` for every depth of an array
    of node depths (zero counts included; the audit's tallies ignore
    them)."""
    for depth, n_nodes in enumerate(np.bincount(depths).tolist()):
        record(depth, n_nodes, *reason)


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
    _per_depth(audit.prune_tiles, scan.depth[ids], reason)


class _Scan:
    """The archive side of one traversal: what every step reads through.

    One traversal is one region walked from one root cover — the global
    screen root, or the minimal node cover of a sub-region, so a row
    band skips the shared upper tree levels. Nodes are ids into the
    screen's flat tables and per-node lists (re-exported here: a step
    branches on the lists, a wave's arrays index the tables). It names
    the nodes a search can reach, which each search bounds into its own
    table, and lists the cells of a block of leaves; attributes are read
    at flat cell ids through the stack's layers. Nothing is kept, so a
    batch's members, taking turns on one scan, bound every node exactly
    as their solo searches do.
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
        self.window, self.depth = screen.window, screen.depth
        self.children, self.depths = screen.children, screen.depths
        self.origin, self.full_leaf = screen.origin, screen.full_leaf
        self.template = screen.leaf_template
        self.region = region
        self.roots = roots
        #: Every node a step can bound: ``TileScreen.region_nodes``.
        self.nodes = screen.region_nodes(region)
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
        return meets(self.window[ids].T, self.region)

    def one_sided(self, state: _ScanState):
        """Per term of a plain linear model under sound pruning, the
        ``envelope_table`` row of the side ``state`` reads at
        :attr:`nodes` (a view over the whole grid), by attribute name;
        ``None`` for any other model or a heuristic margin."""
        model, names = state.model, self.screen.attributes
        if self.margin is not None or type(model) is not LinearModel:
            return None
        table = self.screen.envelope_table
        return {
            name: table[
                names.index(name)
                + len(names) * ((weight >= 0) == (state.sign > 0))
            ][self.nodes]
            for name, weight in model.coefficients.items()
        }

    def leaf_cells(self, ids: list[int]):
        """``(flat, sizes)`` of the leaves ``ids``: their windows,
        clipped to the region, as one flat cell list; ``sizes[p]`` cells
        of ``ids[p]``, leaf after leaf. Full leaves of a scan that
        cannot clip are their origins plus the screen's leaf template."""
        if not self.clips and all(self.full_leaf[node] for node in ids):
            flat = self.origin.take(ids)[:, None] + self.template
            return flat.reshape(-1), np.full(len(ids), self.template.size)
        windows = self.window[ids]
        if self.clips:
            windows = np.hstack((
                np.maximum(windows[:, :2], self.region[:2]),
                np.minimum(windows[:, 2:], self.region[2:]),
            ))
        return self.cells(windows)

    def cells(self, windows: np.ndarray):
        """Flat ids ``row * width + col`` and sizes of an ``(n, 4)``
        block of windows, each in row-major order, window after window:
        every origin plus one offset template of the block's bounding
        shape, ragged windows masked out of it."""
        row0, col0, row1, col1 = windows.T
        heights, widths = row1 - row0, col1 - col0
        height, width = int(heights.max()), int(widths.max())
        down = np.arange(height)[:, None]
        across = np.arange(width)
        template = down * self.width + across
        flat = (row0 * self.width + col0)[:, None, None] + template
        if heights.min() == height and widths.min() == width:
            return flat.reshape(-1), heights * widths
        ragged = (down < heights[:, None, None]) & (
            across < widths[:, None, None]
        )
        return flat[ragged], heights * widths


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
    The tile screen (the (min, max) quadtree) is built once at construction
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
        # restricted to the region, so decoding preserves tie semantics;
        # only the cells the prefilter keeps are decoded.
        heap.offer_cells(
            sign * scores, np.arange(scores.size), col1 - col0, (row0, col0)
        )
        return heap

    def exhaustive_top_k(self, query: TopKQuery) -> RetrievalResult:
        """Sequential-scan baseline: full model on every cell."""
        if query.fused:
            raise QueryError(
                "fused (similar_to) queries need embeddings; use "
                "RetrievalService.top_k"
            )
        self.require_attributes(query.model)
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
        ``"heuristic"`` (envelope midpoint +/- ``heuristic_margin``
        half-spreads — faster, may *miss answers*; the DESIGN.md
        pruning-rule ablation).
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
            flat, _ = scan.cells(np.array([region]))
            self._evaluate_cells(state, flat, scan)

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
        self.require_attributes(model)
        if not isinstance(model, LinearModel):
            raise QueryError(
                f"model {type(model).__name__} does not support progressive "
                "levels; run with use_model_levels=False"
            )
        ranges = self.screen.attribute_ranges()
        spreads = {
            name: high - low for name, (low, high) in ranges.items() if name in model.attributes
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
            model, contributions, {name: ranges[name] for name in model.attributes}
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
        self.require_attributes(model)
        progressive = (
            self._build_progressive(model, term_order) if use_model_levels else None
        )
        self.require_intervals(model)
        return progressive

    def require_attributes(self, model: Model) -> None:
        """The one missing-attribute check of every entry point and of
        the service's admit stage, before anything is read."""
        layers = self.stack.layers
        missing = [a for a in model.attributes if a not in layers]
        if missing:
            raise QueryError(f"stack lacks model attributes {missing}")

    @staticmethod
    def require_intervals(model: Model) -> None:
        """The one boundability check of tile search, here and in the
        service's plan span; planner and router read the same
        ``model.supports_intervals``."""
        if not model.supports_intervals:
            raise QueryError(
                f"model {type(model).__name__} cannot bound intervals; "
                "tile search needs evaluate_interval_batch"
            )

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
        """One region's scan answering every spec's query in turns.

        Each query keeps its own best-first frontier and runs the very
        step its solo :meth:`shard_search` over ``region`` runs, on the
        same :class:`_Scan` — same bounds, pops, thresholds and pruning
        — so every answer is bit-for-bit the solo answer and every
        per-query counter/audit is bit-for-bit the solo tally. What the
        members share is the region's root cover and the scan over it,
        built once, and their round-robin turns; nothing a member
        computes is kept for another. A group of one is exactly the solo
        search.

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
            self.prepare_tile_query(spec.query, use_model_levels=False)
        scan = _Scan(
            self, region, self.screen.region_root_ids(region), pruning,
            heuristic_margin,
        )
        self._search([_ScanState(spec) for spec in specs], scan)

    def _search(self, states: list[_ScanState], scan: _Scan) -> None:
        """Seed every state's frontier from its roots, then run them all
        to retirement: round-robin while several are alive (timing each
        turn into ``attributed_seconds``), and straight through once one
        is left — nobody remains to take turns with."""
        for state in states:
            start = time.perf_counter()
            self._seed(state, scan)
            state.spec.attributed_seconds += time.perf_counter() - start
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

    def _seed(self, state: _ScanState, scan: _Scan) -> None:
        """Fill a fresh state's bound table and push its roots.

        Every node the scan can reach is bounded at once, on the side of
        its interval the query reads — a sound linear search by one
        :meth:`evaluate_batch` of the ``envelope_table`` rows that side
        drives up, any other by one ``evaluate_interval_batch`` — and a
        fused search blends in that side's cosine caps. Each expression
        is elementwise, so a node's bound is bit for bit what any block
        of nodes gives it. Unreachable nodes read ``+inf`` (never
        prunes). The table dies with the search, so a
        :meth:`TileScreen.refresh_region` reaches the next one.
        """
        nodes, model, fusion = scan.nodes, state.model, state.fusion
        maximize = state.sign > 0
        columns = scan.one_sided(state)
        if columns is not None:
            bound = model.evaluate_batch(columns)
        else:
            bound = model.evaluate_interval_batch(
                *self.screen.envelope_block(nodes, scan.margin)
            )[int(maximize)]
        if fusion is not None:
            bound = fusion.blend(bound, fusion.caps[int(maximize)][nodes])
        if not maximize:
            bound = -bound
        if isinstance(nodes, slice):
            state.table = bound
        else:
            state.table = np.full(scan.depth.size, np.inf)
            state.table[nodes] = bound
        for upper, root in zip(
            self._uppers(state, scan.roots, scan).tolist(),
            scan.roots.tolist(),
        ):
            heapq.heappush(
                state.frontier, (-upper, next(state.tiebreak), root)
            )
        _per_depth(state.spec.audit.root_tiles, scan.depth[scan.roots])

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
        spec, frontier = state.spec, state.frontier
        if not frontier:
            return False
        heap, audit = spec.heap, spec.audit
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
                state.regret_bound = max(0.0, -frontier[0][0] - heap.threshold)
            return False
        # One threshold read covers the wave's pops: the heap cannot
        # change until the leaves below are offered, and under a shared
        # heap a concurrently-raised threshold only tightens pruning.
        full, threshold = heap.full, heap.threshold
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
        children = scan.children
        leaves = [node for node in popped if not children[node]]
        if leaves:
            flat, sizes = scan.leaf_cells(leaves)
            self._evaluate_cells(state, flat, scan, leaves, sizes)
        expanded = [node for node in popped if children[node]]
        kids = [kid for node in expanded for kid in children[node]]
        if scan.clips and kids:
            ids = np.array(kids)
            inside = scan.inside(ids)
            _per_depth(audit.prune_tiles, scan.depth[ids[~inside]], "region")
            _per_depth(audit.screen_tiles, scan.depth[ids[inside]])
            kids = ids[inside].tolist()
        else:  # a node's children all sit one depth below it
            for node in expanded:
                audit.screen_tiles(scan.depths[node] + 1, len(children[node]))
        if not kids:
            return True
        ids = np.array(kids)
        uppers = self._uppers(state, ids, scan)
        if heap.full:
            # Read after the wave's leaves were offered: they can only
            # have raised it.
            pruned = uppers < heap.threshold
            if pruned.any():
                _per_depth(audit.prune_tiles, scan.depth[ids[pruned]])
                kids, uppers = ids[~pruned].tolist(), uppers[~pruned]
        for upper, kid in zip(uppers.tolist(), kids):
            heapq.heappush(frontier, (-upper, next(state.tiebreak), kid))
        return True

    def _uppers(self, state: _ScanState, ids: np.ndarray, scan: _Scan):
        """Signed upper bounds (an array) of the nodes ``ids`` for one
        query's objective: the rows of its bound table (:meth:`_seed`).

        Charged as ``len(ids)`` scalar boundings — one aggregate-node
        visit per attribute per node, one partial model evaluation per
        node, and for a fused search one blend per node — as if each
        were bounded when it is reached.
        """
        counter = state.spec.counter
        counter.add_nodes(len(ids) * len(self.screen.attributes))
        counter.add_partial_evals(len(ids), flops_each=state.model.complexity)
        if state.fusion is not None:
            state.fusion.charge_blends(len(ids), counter)
        return state.table[ids]

    def _evaluate_cells(
        self,
        state: _ScanState,
        flat: np.ndarray,
        scan: _Scan,
        leaves: list[int] | None = None,
        sizes: np.ndarray | None = None,
    ) -> None:
        """Exact evaluation of a cell list, with optional level cascade.

        The one leaf routine: a wave's leaf windows arrive as one list of
        flat cell ids ``row * width + col`` (``leaves``/``sizes`` say
        which screen leaves, and how many cells of each, back to back),
        ``use_tiles=False`` passes its one rectangle. Every attribute
        read is one :meth:`RasterLayer.take` of them, and only the cells
        the heap's prefilter keeps are decoded to ``(row, col)``
        (:meth:`TopKHeap.offer_cells`); the query's counter is
        charged per value read, exactly as a solo read charges — sharing
        saves wall clock, never counted work.

        A ``state.fusion`` spec blends each cell's leaf-tile embedding
        cosine into its score before the sign is applied (fused cells
        always arrive with their ``leaves``).
        """
        if flat.size == 0:
            return
        spec = state.spec
        heap, counter, audit = spec.heap, spec.counter, spec.audit
        sign = state.sign
        model = state.model
        stack = scan.stack

        if spec.progressive is None:
            columns = {
                name: stack[name].take(flat) for name in model.attributes
            }
            counter.add_data_points(flat.size * len(columns))
            scores = model.evaluate_batch(columns)
            counter.add_model_evals(scores.size, flops_each=model.complexity)
            if state.fusion is not None:
                scores = state.fusion.combine_leaves(
                    leaves, sizes, scores, counter
                )
            heap.offer_cells(sign * scores, flat, scan.width)
            return

        # Level cascade: read one contribution-ordered attribute at a
        # time, pruning candidates whose bound cannot reach the K-th best
        # signed score. A bound is the score's own expression over the
        # attributes read so far, each unread one at its favoured range
        # end (``state.ends``): sound because rounding is monotone, and
        # the score itself once every attribute is read. After level 1,
        # candidates are processed in descending bound order ("more
        # complete model on the regions predicted high risk sooner",
        # Section 3.1), a block at a time: the heap fills with strong
        # scores early, so later blocks prune after reading only the
        # first attribute. Counts depend on which cells share a block, so
        # ties keep index order.
        ordered, ends = state.ordered, state.ends
        audit.enter_level(1, flat.size)
        first = stack[ordered[0]].take(flat)
        counter.add_data_points(first.size)
        counter.add_partial_evals(first.size, flops_each=2)
        signed = sign * model.evaluate_batch({**ends, ordered[0]: first})
        if len(ordered) == 1:
            heap.offer_cells(signed, flat, scan.width)
            return

        # Laid out once in that order, so every block is a slice.
        order = _descending(signed)
        flat, first, signed = flat[order], first[order], signed[order]
        levels = [
            (level, name, stack[name])
            for level, name in enumerate(ordered[1:], start=2)
        ]
        block_size = max(4 * spec.query.k, 256)
        # Only an offer moves the heap, so one read per block is exact;
        # under a heap other shards share, the read goes stale low, which
        # prunes less and never wrongly.
        full, threshold = heap.full, heap.threshold
        read = 0  # values past level 1; each is one partial evaluation
        for start in range(0, flat.size, block_size):
            stop = min(start + block_size, flat.size)
            # Every remaining candidate's bound is at most the block
            # leader's; once that falls below the K-th best, stop.
            if full and signed[start] < threshold:
                audit.prune_at_level(1, flat.size - start)
                break
            cells, bound = flat[start:stop], signed[start:stop]
            columns = {ordered[0]: first[start:stop]}
            # The block's last bound is its weakest (NaNs sort last):
            # when it reaches the K-th best, every candidate does.
            screen = full and not signed[stop - 1] >= threshold
            for level, name, layer in levels:
                if screen:
                    keep = bound >= threshold
                    kept = int(np.count_nonzero(keep))
                    if kept < cells.size:
                        audit.prune_at_level(level - 1, cells.size - kept)
                        if not kept:
                            break
                        cells = cells[keep]
                        columns = {n: v[keep] for n, v in columns.items()}
                audit.enter_level(level, cells.size)
                read += cells.size
                columns[name] = layer.take(cells)
                bound = sign * model.evaluate_batch({**ends, **columns})
                screen = full
            else:
                heap.offer_cells(bound, cells, scan.width)
                full, threshold = heap.full, heap.threshold
        counter.add_data_points(read)
        counter.add_partial_evals(read, flops_each=2)
