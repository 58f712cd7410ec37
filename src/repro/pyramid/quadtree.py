"""Quadtree aggregates over raster layers.

A quadtree stores per-node min/max/mean/count for recursively quartered
windows of a raster — the sound ``(min, max)`` envelopes the tile screen
(:mod:`repro.core.screening`) bounds and prunes with. Aggregates are
tiny relative to data, so users charge node visits per node
(``nodes_visited``), not per cell.

The build is *array-backed* (the kernel layer, DESIGN.md): because a node
splits its row range iff the range is longer than ``leaf_size`` (and
likewise, independently, its column range), the tree is the depth-
synchronized product of a 1-D row-interval hierarchy and a 1-D
column-interval hierarchy. Aggregates therefore live in per-depth dense
grids of shape ``(n_row_intervals, n_col_intervals)``: the finest grid is
one vectorized blockwise ``reduceat`` over the raster, every coarser grid
combines its children with two more ``reduceat`` passes, and no Python
code ever loops over raster cells. A node is a grid index ``(depth, i,
j)``; there are no node objects. The original top-down scalar build
lives on in ``tests/oracles.py`` as the reference the grids are
property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.raster import RasterLayer


@dataclass
class _AxisLevel:
    """One depth of the 1-D interval hierarchy along a single axis.

    ``from_split[i]`` records whether interval ``i`` was created by
    splitting its parent (parent length > leaf) or persisted unchanged;
    ``child_starts[i]`` is the offset of interval ``i``'s first child in
    the next level's arrays (``None`` at the finest level until padded).
    """

    starts: np.ndarray
    lengths: np.ndarray
    from_split: np.ndarray
    child_starts: np.ndarray | None = None


def _axis_levels(extent: int, leaf_size: int) -> list[_AxisLevel]:
    """The interval hierarchy of one axis: split halves while > leaf."""
    levels = [
        _AxisLevel(
            starts=np.array([0], dtype=np.intp),
            lengths=np.array([extent], dtype=np.intp),
            from_split=np.array([False]),
        )
    ]
    while bool((levels[-1].lengths > leaf_size).any()):
        parent = levels[-1]
        starts: list[int] = []
        lengths: list[int] = []
        from_split: list[bool] = []
        child_starts = np.empty(parent.starts.size, dtype=np.intp)
        for index, (start, length) in enumerate(
            zip(parent.starts.tolist(), parent.lengths.tolist())
        ):
            child_starts[index] = len(starts)
            if length > leaf_size:
                half = length // 2
                starts.extend((start, start + half))
                lengths.extend((half, length - half))
                from_split.extend((True, True))
            else:
                starts.append(start)
                lengths.append(length)
                from_split.append(False)
        parent.child_starts = child_starts
        levels.append(
            _AxisLevel(
                starts=np.array(starts, dtype=np.intp),
                lengths=np.array(lengths, dtype=np.intp),
                from_split=np.array(from_split),
            )
        )
    return levels


def _pad_axis(levels: list[_AxisLevel], n_depths: int) -> None:
    """Extend a finished axis with identity levels to the common depth."""
    while len(levels) < n_depths:
        last = levels[-1]
        last.child_starts = np.arange(last.starts.size, dtype=np.intp)
        levels.append(
            _AxisLevel(
                starts=last.starts,
                lengths=last.lengths,
                from_split=np.zeros(last.starts.size, dtype=bool),
            )
        )


def finest_intervals(
    extent: int, leaf_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, lengths)`` of one axis's finest (leaf) intervals.

    This is the leaf tiling a :class:`QuadTree` over the same extent and
    leaf size bottoms out at — the shared vocabulary between the tree
    and the on-disk store's precomputed aggregate grids
    (:mod:`repro.data.store`), which must agree on it exactly.
    """
    if leaf_size <= 0:
        raise ValueError(f"leaf_size must be positive, got {leaf_size}")
    level = _axis_levels(extent, leaf_size)[-1]
    return level.starts, level.lengths


def finest_grids(
    values: np.ndarray, row_starts: np.ndarray, col_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mins, maxs, sums)`` leaf-aggregate grids over ``values``.

    The exact double-``reduceat`` (columns first) the quadtree build
    uses, exposed so the store's ingest writer produces bit-identical
    grids — including the sum, whose sequential reduction order this
    shares — without constructing a tree.
    """
    mins = np.minimum.reduceat(
        np.minimum.reduceat(values, col_starts, axis=1), row_starts, axis=0
    )
    maxs = np.maximum.reduceat(
        np.maximum.reduceat(values, col_starts, axis=1), row_starts, axis=0
    )
    sums = np.add.reduceat(
        np.add.reduceat(values, col_starts, axis=1), row_starts, axis=0
    )
    return mins, maxs, sums


def refresh_finest_grids(
    values: np.ndarray,
    row_starts: np.ndarray,
    row_lengths: np.ndarray,
    col_starts: np.ndarray,
    col_lengths: np.ndarray,
    mins: np.ndarray,
    maxs: np.ndarray,
    sums: np.ndarray,
    region: tuple[int, int, int, int],
) -> tuple[int, int, int, int]:
    """Recompute, in place, every leaf-grid entry intersecting ``region``.

    Only the leaf windows the dirty rectangle touches are re-reduced,
    each over its *full* window (a leaf straddling the region boundary
    needs its unchanged cells too). Because the per-window elements and
    reduction order match the from-scratch build exactly, the refreshed
    entries are bit-identical to rebuilding — the incremental-ingest
    contract the store's differential tests pin. Returns the half-open
    grid index window ``(i0, j0, i1, j1)`` that was recomputed.
    """
    row0, col0, row1, col1 = region
    rows, cols = values.shape
    row0, row1 = max(0, row0), min(rows, row1)
    col0, col1 = max(0, col0), min(cols, col1)
    if row0 >= row1 or col0 >= col1:
        return (0, 0, 0, 0)
    i0 = int(np.searchsorted(row_starts, row0, side="right")) - 1
    i1 = int(np.searchsorted(row_starts, row1, side="left"))
    j0 = int(np.searchsorted(col_starts, col0, side="right")) - 1
    j1 = int(np.searchsorted(col_starts, col1, side="left"))
    r_start = int(row_starts[i0])
    r_end = int(row_starts[i1 - 1] + row_lengths[i1 - 1])
    c_start = int(col_starts[j0])
    c_end = int(col_starts[j1 - 1] + col_lengths[j1 - 1])
    block = np.asarray(values[r_start:r_end, c_start:c_end])
    local_rows = row_starts[i0:i1] - r_start
    local_cols = col_starts[j0:j1] - c_start
    block_mins, block_maxs, block_sums = finest_grids(
        block, local_rows, local_cols
    )
    mins[i0:i1, j0:j1] = block_mins
    maxs[i0:i1, j0:j1] = block_maxs
    sums[i0:i1, j0:j1] = block_sums
    return (i0, j0, i1, j1)


class QuadTree:
    """Min/max/mean quadtree over a raster layer.

    Parameters
    ----------
    layer:
        Source raster.
    leaf_size:
        Stop subdividing when both window dimensions are <= this.

    Aggregates are stored as per-depth dense grids (``level_mins`` and
    friends): the grid at depth ``d`` holds one value per (row interval,
    column interval) pair, so any node ``(depth, i, j)`` is two array
    lookups, and whole frontiers slice out in one fancy-index. Not every
    grid entry is a distinct tree node — a leaf's intervals persist to
    deeper grids unchanged — but every entry is the correct aggregate of
    its window, which is what envelope assembly needs.
    """

    def __init__(self, layer: RasterLayer, leaf_size: int = 8) -> None:
        if leaf_size <= 0:
            raise ValueError(f"leaf_size must be positive, got {leaf_size}")
        self.layer = layer
        self.leaf_size = leaf_size
        rows, cols = layer.shape

        row_levels = _axis_levels(rows, leaf_size)
        col_levels = _axis_levels(cols, leaf_size)
        n_depths = max(len(row_levels), len(col_levels))
        _pad_axis(row_levels, n_depths)
        _pad_axis(col_levels, n_depths)
        self._row_levels = row_levels
        self._col_levels = col_levels
        self.max_depth = n_depths - 1

        self._mins: list[np.ndarray] = [np.empty(0)] * n_depths
        self._maxs: list[np.ndarray] = [np.empty(0)] * n_depths
        self._sums: list[np.ndarray] = [np.empty(0)] * n_depths
        self._counts: list[np.ndarray] = [np.empty(0)] * n_depths

        # Finest grid: one blockwise reduction over the raw raster — or,
        # when the layer carries precomputed leaf aggregates for this
        # leaf size (the disk store's MemmapRasterLayer), those grids
        # verbatim, skipping the full-raster pass entirely. The hook is
        # duck-typed so plain layers pay nothing.
        finest = self.max_depth
        row_starts = row_levels[finest].starts
        col_starts = col_levels[finest].starts
        supplier = getattr(layer, "quadtree_aggregates", None)
        precomputed = supplier(leaf_size) if supplier is not None else None
        if precomputed is not None:
            fmins, fmaxs, fsums = precomputed
            expected = (row_starts.size, col_starts.size)
            if fmins.shape != expected:  # pragma: no cover - store guards
                raise ValueError(
                    f"precomputed aggregate grid shape {fmins.shape} != "
                    f"expected {expected} for leaf_size={leaf_size}"
                )
            self._mins[finest] = np.array(fmins, dtype=float)
            self._maxs[finest] = np.array(fmaxs, dtype=float)
            self._sums[finest] = np.array(fsums, dtype=float)
        else:
            values = layer.values
            # Columns first: reduceat's inner loop is contiguous along
            # axis 1, so the expensive pass over the raw raster runs
            # there and the axis-0 pass only sees the narrow result.
            self._mins[finest], self._maxs[finest], self._sums[finest] = (
                finest_grids(values, row_starts, col_starts)
            )
        # Coarser grids: combine children, never re-touching the raster.
        self._combine_coarser()
        for depth in range(n_depths):
            self._counts[depth] = np.outer(
                row_levels[depth].lengths, col_levels[depth].lengths
            )

    def _combine_coarser(self) -> None:
        """(Re)build every coarser grid from the finest, children-wise."""
        for depth in range(self.max_depth - 1, -1, -1):
            row_child = self._row_levels[depth].child_starts
            col_child = self._col_levels[depth].child_starts
            self._mins[depth] = np.minimum.reduceat(
                np.minimum.reduceat(self._mins[depth + 1], col_child, axis=1),
                row_child,
                axis=0,
            )
            self._maxs[depth] = np.maximum.reduceat(
                np.maximum.reduceat(self._maxs[depth + 1], col_child, axis=1),
                row_child,
                axis=0,
            )
            self._sums[depth] = np.add.reduceat(
                np.add.reduceat(self._sums[depth + 1], col_child, axis=1),
                row_child,
                axis=0,
            )

    def refresh_region(self, region: tuple[int, int, int, int]) -> None:
        """Re-aggregate after the layer's values changed inside ``region``.

        Only finest-grid entries whose leaf windows intersect the dirty
        rectangle are recomputed from raw values (each over its full
        window, so boundary-straddling leaves stay correct); every
        coarser grid is then rebuilt from the finest — cheap pure-array
        work over the tiny aggregate grids, using the same reduction
        code as construction, which keeps the refreshed tree
        bit-identical to building from scratch on the mutated raster.
        A no-op for regions that miss the grid entirely.
        """
        finest = self.max_depth
        row = self._row_levels[finest]
        col = self._col_levels[finest]
        touched = refresh_finest_grids(
            self.layer.values,
            row.starts,
            row.lengths,
            col.starts,
            col.lengths,
            self._mins[finest],
            self._maxs[finest],
            self._sums[finest],
            region,
        )
        if touched == (0, 0, 0, 0):
            return
        self._combine_coarser()

    # -- array accessors (the kernel surface) ------------------------------

    @property
    def n_depths(self) -> int:
        """Number of grid depths (``max_depth + 1``)."""
        return self.max_depth + 1

    def level_shape(self, depth: int) -> tuple[int, int]:
        """Grid shape ``(n_row_intervals, n_col_intervals)`` at a depth."""
        self._check_depth(depth)
        return (
            self._row_levels[depth].starts.size,
            self._col_levels[depth].starts.size,
        )

    def level_mins(self, depth: int) -> np.ndarray:
        """Per-window minima grid at a depth."""
        self._check_depth(depth)
        return self._mins[depth]

    def level_maxs(self, depth: int) -> np.ndarray:
        """Per-window maxima grid at a depth."""
        self._check_depth(depth)
        return self._maxs[depth]

    def level_means(self, depth: int) -> np.ndarray:
        """Per-window means grid at a depth."""
        self._check_depth(depth)
        return self._sums[depth] / self._counts[depth]

    def level_counts(self, depth: int) -> np.ndarray:
        """Per-window cell counts grid at a depth."""
        self._check_depth(depth)
        return self._counts[depth]

    def level_intervals(
        self, depth: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(row_starts, row_lengths, col_starts, col_lengths)`` arrays."""
        self._check_depth(depth)
        row = self._row_levels[depth]
        col = self._col_levels[depth]
        return (row.starts, row.lengths, col.starts, col.lengths)

    def leaf_envelopes(self) -> tuple[np.ndarray, np.ndarray]:
        """(mins, maxs) grids over the finest tiling.

        The finest grid's windows are exactly the tree's leaf windows
        (leaves persist unchanged to the deepest depth).
        """
        return (self._mins[self.max_depth], self._maxs[self.max_depth])

    def index_window(self, depth: int, i: int, j: int) -> tuple[int, int, int, int]:
        """Window ``(row0, col0, row1, col1)`` of grid entry ``(i, j)``."""
        row = self._row_levels[depth]
        col = self._col_levels[depth]
        row0 = int(row.starts[i])
        col0 = int(col.starts[j])
        return (row0, col0, row0 + int(row.lengths[i]), col0 + int(col.lengths[j]))

    def index_is_leaf(self, depth: int, i: int, j: int) -> bool:
        """Whether grid entry ``(depth, i, j)`` is a leaf node."""
        return (
            int(self._row_levels[depth].lengths[i]) <= self.leaf_size
            and int(self._col_levels[depth].lengths[j]) <= self.leaf_size
        )

    def child_indices(self, depth: int, i: int, j: int) -> list[tuple[int, int]]:
        """Grid indices of the children of node ``(depth, i, j)``.

        Empty for leaves; otherwise the row-major product of the node's
        row children and column children at depth + 1 — the same order
        the reference top-down build appends children in.
        """
        if self.index_is_leaf(depth, i, j):
            return []
        row = self._row_levels[depth]
        col = self._col_levels[depth]
        row_first = int(row.child_starts[i])
        row_n = 2 if int(row.lengths[i]) > self.leaf_size else 1
        col_first = int(col.child_starts[j])
        col_n = 2 if int(col.lengths[j]) > self.leaf_size else 1
        return [
            (row_first + di, col_first + dj)
            for di in range(row_n)
            for dj in range(col_n)
        ]

    def _check_depth(self, depth: int) -> None:
        if not 0 <= depth <= self.max_depth:
            raise ValueError(f"depth {depth} outside 0..{self.max_depth}")

    def __repr__(self) -> str:
        return (
            f"QuadTree({self.layer.name!r}, depths={self.n_depths}, "
            f"leaf_size={self.leaf_size})"
        )
