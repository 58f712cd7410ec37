"""Multi-attribute tile screening (the data side of progressive pruning).

A :class:`TileScreen` is the paper's progressive data representation:
one multi-resolution tree of (min, max) envelopes over a raster stack,
coarse windows bounded first. Tree structure depends only on grid shape
and leaf size (:func:`repro.pyramid.quadtree.grid_levels`), so one tree
serves every attribute layer: a node is one spatial window with a
(min, max) envelope *per attribute* — exactly the input
``Model.evaluate_interval`` needs to bound scores over the window.

Screen nodes are the branch-and-bound frontier of the retrieval engine,
and a node is one integer: its position in the screen's *flat node
tables*, every depth's grid concatenated in depth order
(``id = offset[depth] + row_index * n_cols[depth] + col_index``). The
envelopes are one ``(2 * n_attrs, n_nodes)`` table — the finest slice
holds the leaf grids, every coarser slice combines its children's — and
the structure (child ids, windows, leaf mask, depth, window origin)
five more, so bounding, region filtering and auditing a whole wave of
nodes is a handful of fancy-indexes (:meth:`TileScreen.envelope_block`),
and the same structure as per-node Python lists for the step that
branches on a few nodes at a time.
"""

from __future__ import annotations

import numpy as np

from repro.data.raster import RasterStack
from repro.exceptions import PlanError
from repro.pyramid.quadtree import (
    clip_region,
    grid_levels,
    interval_span,
    refresh_finest_grids,
)

#: Regions whose root covers (and node ids) a screen keeps.
COVER_MEMO = 1024


def meets(windows: np.ndarray, region: tuple[int, int, int, int]):
    """Mask of the windows that share a cell with ``region``; ``windows``
    is ``(4, n)``: rows ``row0, col0, row1, col1`` (half-open)."""
    row0, col0, row1, col1 = region
    return (
        (windows[0] < row1) & (row0 < windows[2])
        & (windows[1] < col1) & (col0 < windows[3])
    )


def _child_block(level, region, axis: int):
    """One axis of one depth's combine: the slice of its intervals that
    meet ``region`` (all of them for ``None``), the slice of the next
    depth's intervals that are their children, and each interval's first
    and last child as indexes into that slice."""
    if region is None:
        return slice(None), slice(None), level.first, level.last
    i0, i1 = interval_span(level.starts, region[axis], region[axis + 2])
    first, last = level.first[i0:i1], level.last[i0:i1]
    k0 = int(first[0])
    return slice(i0, i1), slice(k0, int(last[-1]) + 1), first - k0, last - k0


def _fold(first: np.ndarray, last: np.ndarray, out: np.ndarray, half: int):
    """``out`` = the minimum of ``first`` and ``last`` over the first
    ``half`` rows, their maximum over the rest."""
    np.minimum(first[:half], last[:half], out=out[:half])
    np.maximum(first[half:], last[half:], out=out[half:])


class TileScreen:
    """The (min, max) quadtree over every layer of a raster stack.

    Parameters
    ----------
    stack:
        The attribute layers (shared shape enforced by the stack); the
        screen covers all of them, in stack order.
    leaf_size:
        Quadtree leaf window size; leaves are the unit of exact
        evaluation, so smaller leaves prune more but bound more often.

    The leaf grids follow one rule at build and at every refresh
    (:meth:`_read_leaves`): copied from a layer's own leaf grids when it
    carries them for this leaf size (the disk store's
    ``quadtree_aggregates`` hook), so a store-backed screen never pages
    the raw values in, else one blockwise reduction over its values.
    The flat tables are public read-only state for the engine:
    ``envelope_table``, all minima over all maxima ``(2 * n_attrs,
    n_nodes)``, with halves ``lows``/``highs`` as views (rewritten in
    place by :meth:`refresh_region`), and the structure tables
    ``child`` ``(n_nodes, 4)`` (-1 where a node has fewer than four
    children), ``window`` ``(n_nodes, 4)``, ``leaf``, ``depth`` and
    ``origin`` (each window's flat cell id ``row0 * width + col0``)
    ``(n_nodes,)``, and ``leaf_template``, the row-major flat offsets of
    a full ``leaf_size`` × ``leaf_size`` window. A search step handles a
    handful of nodes at a time, so the structure it branches on is also
    kept as Python lists, indexed by node id: ``children`` (each node's
    child ids as a tuple, the -1 slots dropped, so a leaf's is empty),
    ``depths`` and ``full_leaf`` (a leaf spanning a whole template). All
    are built once and never touched again. Grid entries that are no
    tree node (a leaf's intervals persist to deeper grids) occupy ids no
    ``child`` row ever names. Per region, a search reads its root cover
    (:meth:`region_root_ids`) and the ids of every node it can reach
    (:meth:`region_nodes`), memoized together; per query, a fused
    search's cosine caps come from the same min/max combine as the
    envelopes (:meth:`node_extrema`).
    """

    def __init__(self, stack: RasterStack, leaf_size: int = 16) -> None:
        self.attributes = stack.names
        self.stack = stack
        self.leaf_size = leaf_size
        self._levels = grid_levels(stack.shape, leaf_size)
        self._offsets = [0]
        for row, col in self._levels:
            self._offsets.append(
                self._offsets[-1] + row.starts.size * col.starts.size
            )
        n_attrs, n_nodes = len(self.attributes), self._offsets[-1]
        self.envelope_table = np.empty((2 * n_attrs, n_nodes))
        self.lows, self.highs = np.split(self.envelope_table, 2)
        self._read_leaves((0, 0) + stack.shape)
        self._combine(self.envelope_table)
        self._build_structure_tables()
        self._covers: dict[tuple[int, int, int, int], tuple] = {}

    def _grids(self, table: np.ndarray, depth: int) -> np.ndarray:
        """One depth's slice of a node table (``envelope_table``, or any
        min-rows-over-max-rows table in node-id order) as ``(n_rows,
        n_row_intervals, n_col_intervals)`` grids — a view; depth ``-1``
        is the leaves."""
        depth %= len(self._levels)
        row, col = self._levels[depth]
        start, stop = self._offsets[depth], self._offsets[depth + 1]
        return table[:, start:stop].reshape(
            -1, row.starts.size, col.starts.size
        )

    def _read_leaves(self, region: tuple[int, int, int, int]) -> None:
        """Write the leaf entries of ``envelope_table`` whose windows
        meet ``region`` (clipped to the grid): the one leaf-grid rule of
        the build and of :meth:`refresh_region`.

        A layer that carries leaf grids for this leaf size (the disk
        store's ``quadtree_aggregates`` hook, which its writer refreshes
        on every append) is copied from them, one slice per side, so a
        store-backed screen never pages the raw values in; any other
        layer, or another leaf size, is re-reduced from its values by
        :func:`~repro.pyramid.quadtree.refresh_finest_grids`, each
        touched leaf over its whole window.
        """
        clipped = clip_region(region, self.shape)
        if clipped is None:
            return
        row, col = self._levels[-1]
        i0, i1 = interval_span(row.starts, clipped[0], clipped[2])
        j0, j1 = interval_span(col.starts, clipped[1], clipped[3])
        mins, maxs = np.split(self._grids(self.envelope_table, -1), 2)
        for a, name in enumerate(self.attributes):
            layer = self.stack[name]
            # Duck-typed, so plain layers pay nothing; the store has
            # checked the grids' shape against this tiling.
            supplier = getattr(layer, "quadtree_aggregates", None)
            grids = supplier(self.leaf_size) if supplier is not None else None
            if grids is None:
                refresh_finest_grids(
                    layer.values,
                    row.starts,
                    row.lengths,
                    col.starts,
                    col.lengths,
                    mins[a],
                    maxs[a],
                    clipped,
                )
            else:
                mins[a, i0:i1, j0:j1] = grids[0][i0:i1, j0:j1]
                maxs[a, i0:i1, j0:j1] = grids[1][i0:i1, j0:j1]

    def _combine(
        self,
        table: np.ndarray,
        region: tuple[int, int, int, int] | None = None,
    ) -> None:
        """Re-derive the coarser depths of a node table from its finest
        in place, children-wise (min and max are exact in any order):
        the first half of its rows by minimum, the second by maximum.
        Without a ``region`` every node is derived; with one, at each
        depth only the rectangle of nodes whose windows meet it
        (clipped to the grid), each from its block of children — the
        others' leaves did not change. Then check ``min <= max`` over
        the whole table — false for a NaN too, which would otherwise
        bound nothing and prune wrongly."""
        half = table.shape[0] // 2
        clipped = None if region is None else clip_region(region, self.shape)
        if region is None or clipped is not None:
            for depth in range(len(self._levels) - 2, -1, -1):
                row, col = self._levels[depth]
                rows, row_kids, row_first, row_last = _child_block(
                    row, clipped, 0
                )
                cols, col_kids, col_first, col_last = _child_block(
                    col, clipped, 1
                )
                # Slice the children's block first: a fancy-index of the
                # whole finer grid would cost as much as a full combine.
                fine = self._grids(table, depth + 1)[:, row_kids, col_kids]
                pairs = fine[:, row_first]
                _fold(pairs, fine[:, row_last], pairs, half)
                _fold(
                    pairs[..., col_first],
                    pairs[..., col_last],
                    self._grids(table, depth)[:, rows, cols],
                    half,
                )
        if not (table[:half] <= table[half:]).all():
            raise PlanError(
                "tile screen envelope has a NaN or a min above its max"
            )

    def node_extrema(self, grid: np.ndarray) -> np.ndarray:
        """``(2, n_nodes)``: the minimum over the maximum of a per-leaf
        ``grid`` (the leaf tiling's shape, :meth:`level_intervals`
        ``(-1)``) over each node's leaves, in node-id order — derived
        depth by depth with the very combine that builds
        ``envelope_table``. The fused search's cosine caps."""
        table = np.empty((2, self._offsets[-1]))
        self._grids(table, -1)[:] = grid
        self._combine(table)
        return table

    def _build_structure_tables(self) -> None:
        """Child ids, windows, leaf mask and depth of every node id, and
        the per-node lists a search step reads.

        Children sit in row-major slot order — the order the recursive
        build appends them in — with -1 in the slots of an unsplit axis,
        so dropping the negatives of ``child[ids]`` lists each node's
        children in the reference tree's order (``children``; a leaf's
        is the empty tuple).
        """
        leaf_size = self.leaf_size
        children, windows, leaves = [], [], []
        for depth, (row, col) in enumerate(self._levels):
            shape = (row.starts.size, col.starts.size)
            window = np.empty(shape + (4,), dtype=np.intp)
            window[..., 0] = row.starts[:, None]
            window[..., 1] = col.starts[None, :]
            window[..., 2] = (row.starts + row.lengths)[:, None]
            window[..., 3] = (col.starts + col.lengths)[None, :]
            tall = (row.lengths > leaf_size)[:, None]
            wide = (col.lengths > leaf_size)[None, :]
            child = np.full(shape + (4,), -1, dtype=np.intp)
            if row.first is not None:
                n_next = self._levels[depth + 1][1].starts.size
                base = self._offsets[depth + 1]
                top = base + row.first[:, None] * n_next
                bottom = base + row.last[:, None] * n_next
                left, right = col.first[None, :], col.last[None, :]
                child[..., 0] = np.where(tall | wide, top + left, -1)
                child[..., 1] = np.where(wide, top + right, -1)
                child[..., 2] = np.where(tall, bottom + left, -1)
                child[..., 3] = np.where(tall & wide, bottom + right, -1)
            children.append(child.reshape(-1, 4))
            windows.append(window.reshape(-1, 4))
            leaves.append(~(tall | wide).reshape(-1))
        self.child = np.concatenate(children)
        self.window = np.concatenate(windows)
        self.leaf = np.concatenate(leaves)
        self.depth = np.repeat(
            np.arange(len(self._levels), dtype=np.intp),
            np.diff(self._offsets),
        )
        # What one search step reads per popped node, as Python values:
        # built here, never lazily, as sharded searches read from threads
        # (the per-depth parts go first, to keep the build's peak low).
        del children, windows, leaves
        self.children = [()] * len(self.leaf)
        internal = np.flatnonzero(~self.leaf)
        slots = self.child[internal].T.tolist()
        for node, *kids in zip(internal.tolist(), *slots):
            if -1 in kids:  # an axis that did not split
                kids = [kid for kid in kids if kid >= 0]
            self.children[node] = tuple(kids)
        self.depths = self.depth.tolist()
        width = self.shape[1]
        row0, col0, row1, col1 = self.window.T
        self.origin = row0 * width + col0
        self.full_leaf = (
            self.leaf & (row1 - row0 == leaf_size) & (col1 - col0 == leaf_size)
        ).tolist()
        self.leaf_template = (
            np.arange(leaf_size)[:, None] * width + np.arange(leaf_size)
        ).reshape(-1)

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape."""
        return self.stack.shape

    @property
    def n_depths(self) -> int:
        """Number of tree depths (the root is depth 0)."""
        return len(self._levels)

    def level_intervals(
        self, depth: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(row_starts, row_lengths, col_starts, col_lengths)`` of the
        windows at a depth; depth ``-1`` is the leaf tiling. Consumers
        that pool over exactly the screen's tiles (the tile embedder)
        read the layout here."""
        row, col = self._levels[depth]
        return row.starts, row.lengths, col.starts, col.lengths

    def leaf_envelopes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lows, highs)``, each ``(n_attrs, n_leaf_tiles)``: the finest
        slice of the envelope table, tiles in row-major order (views)."""
        leaves = slice(self._offsets[-2], None)
        return self.lows[:, leaves], self.highs[:, leaves]

    def refresh_region(self, region: tuple[int, int, int, int]) -> None:
        """Re-derive the envelopes over a dirty rectangle.

        The region-scoped invalidation hook: after an in-place mutation
        of the underlying layers (disk-store ``append_region``), only
        the leaf entries the rectangle touches are rewritten, by the
        build's own leaf-grid rule (:meth:`_read_leaves`: a slice copy
        of a store layer's grids, which its writer has just refreshed,
        else a re-reduction of those leaves from the values); then only
        their ancestors are recombined, and the whole table re-checked.
        The structure tables and root covers depend on the grid shape
        alone and are not rebuilt. Without this the screen would keep
        pruning against pre-mutation envelopes — silently unsound. The
        whole grid as the rectangle re-derives every envelope.
        """
        self._read_leaves(region)
        self._combine(self.envelope_table, region)

    def envelope_block(
        self, ids: np.ndarray, margin: float | None = None
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Per-attribute ``(lows, highs)`` dicts over an array of node ids.

        In the shape ``Model.evaluate_interval_batch`` takes: element
        ``p`` of each array is the envelope of node ``ids[p]``, any mix
        of depths, one fancy-index per side. With ``margin`` the
        envelopes are the pruning-rule ablation's pseudo-envelopes
        (UNSOUND on purpose for ``margin < 1``): the envelope midpoint
        ``(min + max) / 2`` plus or minus ``margin`` half-spreads.
        Centering on the midpoint is what makes ``margin = 1`` recover
        exactly the sound (min, max) envelope; smaller margins shrink it
        symmetrically, prune more aggressively and can *miss answers*.
        """
        lows, highs = self.lows[:, ids], self.highs[:, ids]
        if margin is not None:
            if margin < 0:
                raise PlanError("margin must be non-negative")
            half_spread = (highs - lows) / 2.0
            midpoint = (lows + highs) / 2.0
            lows = midpoint - margin * half_spread
            highs = midpoint + margin * half_spread
        return dict(zip(self.attributes, lows)), dict(zip(self.attributes, highs))

    def region_root_ids(
        self, region: tuple[int, int, int, int]
    ) -> np.ndarray:
        """Minimal set of node ids covering ``region``, in window order.

        Descends from the root, keeping any node fully inside the region
        (or any leaf touching it) and recursing only through nodes that
        straddle the region boundary — so a row-band shard's
        branch-and-bound starts from O(boundary) sub-region roots
        instead of re-screening the whole tree from the global root.
        The nodes are pairwise disjoint, every one intersects the
        region, and together they cover it (leaves may overhang; the
        engine clips leaf evaluation to the region). Covers read only
        the never-changing structure tables, so each is kept read-only
        per region (up to :data:`COVER_MEMO`, emptied when full).
        """
        return self._region(region)[0]

    def region_nodes(
        self, region: tuple[int, int, int, int]
    ) -> np.ndarray | slice:
        """Ids of every node whose window meets ``region`` (clipped to
        the grid): every node a search of that region can bound, from
        the global root or from :meth:`region_root_ids`. The whole grid
        is ``slice(None)``, so a table indexed by it stays a view.
        Kept read-only in the region's cover entry."""
        return self._region(region)[1]

    def _region(self, region: tuple[int, int, int, int]):
        """``(root cover, node ids)`` of a region, memoized together."""
        rows, cols = self.shape
        key = clip_region(region, (rows, cols))
        if key is None:
            raise PlanError(
                f"region {region} does not intersect grid {self.shape}"
            )
        row0, col0, row1, col1 = key
        entry = self._covers.get(key)
        if entry is not None:
            return entry
        cover = []
        ids = np.zeros(1, dtype=np.intp)
        while ids.size:  # one tree level per turn
            window = self.window[ids].T
            touching = meets(window, key)
            ids, window = ids[touching], window[:, touching]
            resolved = self.leaf[ids] | (
                (row0 <= window[0]) & (window[2] <= row1)
                & (col0 <= window[1]) & (window[3] <= col1)
            )
            cover.append(ids[resolved])
            ids = self.child[ids[~resolved]].reshape(-1)
            ids = ids[ids >= 0]
        cover = np.concatenate(cover)
        origin = self.window[cover]
        cover = cover[np.lexsort((origin[:, 1], origin[:, 0]))]
        cover.setflags(write=False)
        if key == (0, 0, rows, cols):
            nodes = slice(None)
        else:
            nodes = np.flatnonzero(meets(self.window.T, key))
            nodes.setflags(write=False)
        if len(self._covers) >= COVER_MEMO:
            self._covers.clear()
        entry = self._covers[key] = (cover, nodes)
        return entry

    def attribute_ranges(self) -> dict[str, tuple[float, float]]:
        """Whole-grid (min, max) per attribute: the root's envelopes."""
        return {
            name: (float(low), float(high))
            for name, low, high in zip(
                self.attributes, self.lows[:, 0], self.highs[:, 0]
            )
        }
