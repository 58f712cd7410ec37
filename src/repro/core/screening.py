"""Multi-attribute tile screening (the data side of progressive pruning).

A :class:`TileScreen` maintains one quadtree of min/max aggregates per
attribute layer of a raster stack. Because quadtree structure depends
only on grid shape and leaf size, the per-layer trees are node-for-node
aligned, so any tree node corresponds to one spatial window with a
(min, max) envelope *per attribute* — exactly the input
``Model.evaluate_interval`` needs to bound scores over the window.

Screen nodes are the branch-and-bound frontier of the retrieval engine.
Inside the search a node is one integer: its position in the screen's
*flat node tables*, every depth's grid concatenated in depth order
(``id = offset[depth] + row_index * n_cols[depth] + col_index``). The
envelopes are one ``(2 * n_attrs, n_nodes)`` table and the structure —
child ids, windows, leaf mask, depth — four more, so bounding, region
filtering and auditing a whole wave of nodes is a handful of
fancy-indexes (:meth:`TileScreen.envelope_block`). :class:`ScreenNode`
objects exist only at the public edges (:meth:`TileScreen.root`,
:meth:`~TileScreen.children`, :meth:`~TileScreen.region_roots`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.raster import RasterStack
from repro.exceptions import PlanError
from repro.metrics.counters import CostCounter
from repro.pyramid.quadtree import QuadTree

#: Regions whose root covers a screen keeps (a cover is a few dozen ids).
COVER_MEMO = 1024


@dataclass(frozen=True)
class ScreenNode:
    """One spatial window of the screen's aligned quadtrees.

    Identified by grid coordinates ``(depth, row_index, col_index)``
    into the per-depth aggregate arrays; ``window`` and ``is_leaf`` are
    denormalized at construction so the engine's hot loop never goes
    back to the tree for them.
    """

    depth: int
    row_index: int
    col_index: int
    window: tuple[int, int, int, int]
    is_leaf: bool

    @property
    def size(self) -> int:
        """Number of cells covered."""
        row0, col0, row1, col1 = self.window
        return (row1 - row0) * (col1 - col0)


class TileScreen:
    """Aligned per-attribute quadtrees over a raster stack.

    Parameters
    ----------
    stack:
        The attribute layers (shared shape enforced by the stack).
    attributes:
        Which layers to screen (defaults to all in the stack).
    leaf_size:
        Quadtree leaf window size; leaves are the unit of exact
        evaluation, so smaller leaves prune more but bound more often.

    All per-attribute trees share one structure (same shape, same leaf
    size), so alignment holds by construction. The flat tables are public
    read-only state for the engine: ``envelope_table``, all minima over
    all maxima ``(2 * n_attrs, n_nodes)``, with halves ``lows``/``highs``
    as views (rewritten in place by :meth:`refresh_region`), and the
    structure tables ``child`` ``(n_nodes, 4)`` (-1 where a node has
    fewer than four children), ``window`` ``(n_nodes, 4)``, ``leaf``
    and ``depth`` ``(n_nodes,)``, built once and never touched again.
    Grid entries that are no tree node (a leaf's intervals persist to
    deeper grids) occupy ids no ``child`` row ever names.
    """

    def __init__(
        self,
        stack: RasterStack,
        attributes: list[str] | None = None,
        leaf_size: int = 16,
    ) -> None:
        self.attributes = list(attributes or stack.names)
        if not self.attributes:
            raise PlanError("tile screen needs at least one attribute")
        missing = [name for name in self.attributes if name not in stack]
        if missing:
            raise PlanError(f"stack lacks screened attributes {missing}")
        self.stack = stack
        self.leaf_size = leaf_size
        self._trees = {
            name: QuadTree(stack[name], leaf_size=leaf_size)
            for name in self.attributes
        }
        self._structure = structure = self._trees[self.attributes[0]]
        shapes = [
            structure.level_shape(depth) for depth in range(structure.n_depths)
        ]
        self._n_cols = [n_cols for _, n_cols in shapes]
        self._offsets = [0]
        for n_rows, n_cols in shapes:
            self._offsets.append(self._offsets[-1] + n_rows * n_cols)
        n_attrs, n_nodes = len(self.attributes), self._offsets[-1]
        self.envelope_table = np.empty((2 * n_attrs, n_nodes))
        self.lows, self.highs = np.split(self.envelope_table, 2)
        self._copy_envelopes()
        self._build_structure_tables()
        self._covers: dict[tuple[int, int, int, int], np.ndarray] = {}

    def _copy_envelopes(self) -> None:
        """Write every attribute tree's per-depth grids into their
        slices of the flat envelope arrays, in place; check min <= max."""
        for a, name in enumerate(self.attributes):
            tree = self._trees[name]
            for depth, (start, stop) in enumerate(
                zip(self._offsets, self._offsets[1:])
            ):
                self.lows[a, start:stop] = tree.level_mins(depth).ravel()
                self.highs[a, start:stop] = tree.level_maxs(depth).ravel()
        if (self.lows > self.highs).any():
            raise PlanError("tile screen envelope has a min above its max")

    def _build_structure_tables(self) -> None:
        """Child ids, windows, leaf mask and depth of every node id.

        Children sit in row-major slot order — the order the recursive
        build appends them in — with -1 in the slots of an unsplit axis,
        so dropping the negatives of ``child[ids]`` lists each node's
        children exactly as :meth:`QuadTree.child_indices` does.
        """
        structure, leaf_size = self._structure, self.leaf_size
        children, windows, leaves, depths = [], [], [], []
        for depth in range(structure.n_depths):
            row_starts, row_lengths, col_starts, col_lengths = (
                structure.level_intervals(depth)
            )
            shape = (row_starts.size, col_starts.size)
            window = np.empty(shape + (4,), dtype=np.intp)
            window[..., 0] = row_starts[:, None]
            window[..., 1] = col_starts[None, :]
            window[..., 2] = (row_starts + row_lengths)[:, None]
            window[..., 3] = (col_starts + col_lengths)[None, :]
            tall = (row_lengths > leaf_size)[:, None]
            wide = (col_lengths > leaf_size)[None, :]
            child = np.full(shape + (4,), -1, dtype=np.intp)
            if depth < structure.max_depth:
                # A child interval starts where its parent does.
                next_rows, _, next_cols, _ = structure.level_intervals(
                    depth + 1
                )
                first = (
                    self._offsets[depth + 1]
                    + np.searchsorted(next_rows, row_starts)[:, None]
                    * next_cols.size
                    + np.searchsorted(next_cols, col_starts)[None, :]
                )
                child[..., 0] = np.where(tall | wide, first, -1)
                child[..., 1] = np.where(wide, first + 1, -1)
                child[..., 2] = np.where(tall, first + next_cols.size, -1)
                child[..., 3] = np.where(
                    tall & wide, first + next_cols.size + 1, -1
                )
            children.append(child.reshape(-1, 4))
            windows.append(window.reshape(-1, 4))
            leaves.append(~(tall | wide).reshape(-1))
            depths.append(np.full(leaves[-1].size, depth, dtype=np.intp))
        self.child = np.concatenate(children)
        self.window = np.concatenate(windows)
        self.leaf = np.concatenate(leaves)
        self.depth = np.concatenate(depths)

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape."""
        return self.stack.shape

    @property
    def structure(self):
        """The structural quadtree every aggregate grid is laid out on.

        All screened attributes share one node geometry (same extent,
        same leaf size), so the first attribute's tree doubles as the
        screen's structural index. Consumers that need the node layout
        without the aggregates — e.g. the tile embedder, which pools
        statistics over exactly the screen's leaf tiles — read it here.
        """
        return self._structure

    def refresh_region(self, region: tuple[int, int, int, int]) -> None:
        """Re-aggregate every screened attribute over a dirty rectangle.

        The region-scoped invalidation hook: after an in-place mutation
        of the underlying layers (disk-store ``append_region``), each
        attribute tree recomputes only the touched leaf aggregates and
        re-derives its coarser grids, which are then copied into the
        flat envelope arrays in place and re-checked — the structure
        tables and root covers depend on the grid shape alone and are
        not rebuilt. Without this the screen would keep pruning against
        pre-mutation envelopes — silently unsound.
        """
        for name in self.attributes:
            self._trees[name].refresh_region(region)
        self._copy_envelopes()

    def node_id(self, node: ScreenNode) -> int:
        """Flat-table id of a screen node."""
        return (
            self._offsets[node.depth]
            + node.row_index * self._n_cols[node.depth]
            + node.col_index
        )

    def node(self, node_id: int) -> ScreenNode:
        """The :class:`ScreenNode` at a flat-table id."""
        depth = int(self.depth[node_id])
        row_index, col_index = divmod(
            int(node_id) - self._offsets[depth], self._n_cols[depth]
        )
        return ScreenNode(
            depth=depth,
            row_index=row_index,
            col_index=col_index,
            window=tuple(self.window[node_id].tolist()),
            is_leaf=bool(self.leaf[node_id]),
        )

    def root(self) -> ScreenNode:
        """The whole-grid screen node."""
        return self.node(0)

    def children(self, node: ScreenNode) -> list[ScreenNode]:
        """Aligned children of a screen node (empty for leaves).

        One structure serves every attribute tree, so children need no
        per-attribute window matching — alignment holds by construction.
        """
        return [
            self.node(child)
            for child in self.child[self.node_id(node)].tolist()
            if child >= 0
        ]

    def envelopes(
        self, node: ScreenNode, counter: CostCounter | None = None
    ) -> dict[str, tuple[float, float]]:
        """Per-attribute (min, max) over the node's window.

        Tallied as one aggregate-node visit per attribute — envelopes are
        precomputed constants, not data reads.
        """
        if counter is not None:
            counter.add_nodes(len(self.attributes))
        node_id = self.node_id(node)
        return {
            name: (float(low), float(high))
            for name, low, high in zip(
                self.attributes, self.lows[:, node_id], self.highs[:, node_id]
            )
        }

    def envelope_block(
        self, ids: np.ndarray, margin: float | None = None
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Per-attribute ``(lows, highs)`` dicts over an array of node ids.

        The batched counterpart of :meth:`envelopes`, in the shape
        ``Model.evaluate_interval_batch`` takes: element ``p`` of each
        array is the envelope of node ``ids[p]``, any mix of depths, one
        fancy-index per side. With ``margin`` the envelopes are the
        (unsound) :meth:`heuristic_envelopes`, same formula elementwise.
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

    def heuristic_envelopes(
        self,
        node: ScreenNode,
        margin: float,
        counter: CostCounter | None = None,
    ) -> dict[str, tuple[float, float]]:
        """Midpoint +/- margin*half-spread pseudo-envelopes (UNSOUND on
        purpose for ``margin < 1``).

        The DESIGN.md pruning-rule ablation: instead of the true (min,
        max), pretend each attribute stays within ``margin`` of the
        node's half-spread around the *envelope midpoint*
        ``(min + max) / 2``. Centering on the midpoint (not the mean,
        which can sit anywhere inside the envelope) is what makes
        ``margin = 1`` recover exactly the sound (min, max) envelope;
        smaller margins shrink it symmetrically, prune more aggressively
        and can *miss answers* — the recall/work trade the ablation
        benchmark quantifies.
        """
        if margin < 0:
            raise PlanError("margin must be non-negative")
        if counter is not None:
            counter.add_nodes(len(self.attributes))
        node_id = self.node_id(node)
        result = {}
        for name, low, high in zip(
            self.attributes, self.lows[:, node_id], self.highs[:, node_id]
        ):
            half_spread = (float(high) - float(low)) / 2.0
            midpoint = (float(low) + float(high)) / 2.0
            result[name] = (
                midpoint - margin * half_spread,
                midpoint + margin * half_spread,
            )
        return result

    def region_roots(
        self, region: tuple[int, int, int, int]
    ) -> list[ScreenNode]:
        """Minimal set of screen nodes covering ``region``.

        Descends from the root, keeping any node fully inside the region
        (or any leaf touching it) and recursing only through nodes that
        straddle the region boundary — so a row-band shard's
        branch-and-bound starts from O(boundary) sub-region roots
        instead of re-screening the whole tree from the global root.
        The returned nodes are pairwise disjoint, every one intersects
        the region, and together they cover it (leaves may overhang; the
        engine clips leaf evaluation to the region).
        """
        return [self.node(i) for i in self.region_root_ids(region).tolist()]

    def region_root_ids(
        self, region: tuple[int, int, int, int]
    ) -> np.ndarray:
        """:meth:`region_roots` as flat-table ids, in window order, kept
        read-only per region (up to :data:`COVER_MEMO`, emptied when
        full): a cover reads only the never-changing structure tables."""
        rows, cols = self.shape
        row0, col0 = max(0, region[0]), max(0, region[1])
        row1, col1 = min(rows, region[2]), min(cols, region[3])
        if row0 >= row1 or col0 >= col1:
            raise PlanError(
                f"region {region} does not intersect grid {self.shape}"
            )
        key = (row0, col0, row1, col1)
        cover = self._covers.get(key)
        if cover is not None:
            return cover
        cover = []
        ids = np.zeros(1, dtype=np.intp)
        while ids.size:  # one tree level per turn
            window = self.window[ids].T
            touching = (
                (window[0] < row1) & (row0 < window[2])
                & (window[1] < col1) & (col0 < window[3])
            )
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
        if len(self._covers) >= COVER_MEMO:
            self._covers.clear()
        self._covers[key] = cover
        return cover

    def attribute_ranges(self) -> dict[str, tuple[float, float]]:
        """Whole-grid (min, max) per attribute (root envelopes)."""
        return self.envelopes(self.root())
