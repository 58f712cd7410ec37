"""Quadtree tiling of a raster grid and its leaf (min, max) grids.

A node splits its row range iff the range is longer than ``leaf_size``
(and likewise, independently, its column range), so a quadtree over a
grid is the depth-synchronized product of a 1-D row-interval hierarchy
and a 1-D column-interval hierarchy. This module is the one place that
knows that tiling: :func:`grid_levels` gives every depth's intervals,
:func:`finest_intervals` one axis's leaf intervals (memoized,
read-only), :func:`clip_region` and :func:`interval_span` the intervals
a dirty rectangle meets, and :func:`finest_grids` /
:func:`refresh_finest_grids` reduce raw values to the leaf
``(min, max)`` grids. The tree itself — every depth's envelopes,
combined upward from those leaf grids — is the tile screen's flat
tables (:class:`repro.core.screening.TileScreen`); the on-disk store
(:mod:`repro.data.store`) persists the leaf grids only. The
original top-down scalar build lives on in ``tests/oracles.py`` as the
reference the tables are property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class _AxisLevel:
    """One depth of the 1-D interval hierarchy along a single axis.

    ``first[i]`` and ``last[i]`` index interval ``i``'s first and last
    child in the next level's arrays — equal where the interval persists
    unsplit, ``None`` at the finest level.
    """

    starts: np.ndarray
    lengths: np.ndarray
    first: np.ndarray | None = None
    last: np.ndarray | None = None


def _axis_levels(
    extent: int, leaf_size: int, n_levels: int = 1
) -> list[_AxisLevel]:
    """The interval hierarchy of one axis: split halves while > leaf,
    then repeat the finest level unchanged until there are ``n_levels``."""
    if leaf_size <= 0:
        raise ValueError(f"leaf_size must be positive, got {leaf_size}")
    levels = [
        _AxisLevel(
            starts=np.array([0], dtype=np.intp),
            lengths=np.array([extent], dtype=np.intp),
        )
    ]
    while len(levels) < n_levels or bool(
        (levels[-1].lengths > leaf_size).any()
    ):
        parent = levels[-1]
        split = parent.lengths > leaf_size
        head = np.where(split, parent.lengths // 2, parent.lengths)
        parent.last = np.cumsum(split + 1) - 1
        parent.first = parent.last - split
        starts = np.empty(parent.last[-1] + 1, dtype=np.intp)
        lengths = np.empty_like(starts)
        starts[parent.first], lengths[parent.first] = parent.starts, head
        starts[parent.last] = parent.starts + head * split
        lengths[parent.last] = parent.lengths - head * split
        levels.append(_AxisLevel(starts=starts, lengths=lengths))
    return levels


def grid_levels(
    shape: tuple[int, int], leaf_size: int
) -> list[tuple[_AxisLevel, _AxisLevel]]:
    """Per depth, the ``(row, column)`` interval levels of the quadtree
    over a ``shape`` grid; the axis that finishes splitting first
    repeats its leaf intervals down to the common depth."""
    rows, cols = shape
    row_levels = _axis_levels(rows, leaf_size)
    col_levels = _axis_levels(cols, leaf_size, len(row_levels))
    if len(col_levels) > len(row_levels):
        row_levels = _axis_levels(rows, leaf_size, len(col_levels))
    return list(zip(row_levels, col_levels))


@lru_cache(maxsize=64)
def finest_intervals(
    extent: int, leaf_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, lengths)`` of one axis's finest (leaf) intervals.

    The leaf tiling the tile screen's tree bottoms out at — the shared
    vocabulary between the screen and the on-disk store's precomputed
    leaf grids (:mod:`repro.data.store`), which must agree on it exactly.
    Memoized per ``(extent, leaf_size)``, as every append asks again,
    so the arrays are read-only.
    """
    level = _axis_levels(extent, leaf_size)[-1]
    level.starts.setflags(write=False)
    level.lengths.setflags(write=False)
    return level.starts, level.lengths


def clip_region(
    region: tuple[int, int, int, int], shape: tuple[int, int]
) -> tuple[int, int, int, int] | None:
    """``region`` clipped to a ``shape`` grid, or ``None`` when nothing
    of it is left."""
    row0, col0 = max(0, region[0]), max(0, region[1])
    row1, col1 = min(shape[0], region[2]), min(shape[1], region[3])
    if row0 >= row1 or col0 >= col1:
        return None
    return row0, col0, row1, col1


def interval_span(starts: np.ndarray, low: int, high: int) -> tuple[int, int]:
    """``(i0, i1)``: the intervals ``i0 <= i < i1`` of an axis tiling
    (its ``starts``, ascending from 0) that meet the non-empty range
    ``[low, high)`` inside the axis."""
    return (
        int(starts.searchsorted(low, side="right")) - 1,
        int(starts.searchsorted(high, side="left")),
    )


def finest_grids(
    values: np.ndarray, row_starts: np.ndarray, col_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(mins, maxs)`` leaf grids over ``values``.

    One blockwise double ``reduceat`` per side, columns first:
    ``reduceat``'s inner loop is contiguous along axis 1, so the
    expensive pass over the raw raster runs there and the axis-0 pass
    only sees the narrow result.
    """
    mins = np.minimum.reduceat(
        np.minimum.reduceat(values, col_starts, axis=1), row_starts, axis=0
    )
    maxs = np.maximum.reduceat(
        np.maximum.reduceat(values, col_starts, axis=1), row_starts, axis=0
    )
    return mins, maxs


def refresh_finest_grids(
    values: np.ndarray,
    row_starts: np.ndarray,
    row_lengths: np.ndarray,
    col_starts: np.ndarray,
    col_lengths: np.ndarray,
    mins: np.ndarray,
    maxs: np.ndarray,
    region: tuple[int, int, int, int],
) -> None:
    """Recompute, in place, every leaf-grid entry intersecting ``region``.

    Only the leaf windows the dirty rectangle touches are re-reduced,
    each over its *full* window (a leaf straddling the region boundary
    needs its unchanged cells too), so the refreshed entries equal a
    from-scratch build exactly — the incremental-ingest contract the
    store's differential tests pin. A region that misses the grid
    recomputes nothing.
    """
    clipped = clip_region(region, values.shape)
    if clipped is None:
        return
    row0, col0, row1, col1 = clipped
    i0, i1 = interval_span(row_starts, row0, row1)
    j0, j1 = interval_span(col_starts, col0, col1)
    r_start = int(row_starts[i0])
    r_end = int(row_starts[i1 - 1] + row_lengths[i1 - 1])
    c_start = int(col_starts[j0])
    c_end = int(col_starts[j1 - 1] + col_lengths[j1 - 1])
    block = np.asarray(values[r_start:r_end, c_start:c_end])
    mins[i0:i1, j0:j1], maxs[i0:i1, j0:j1] = finest_grids(
        block, row_starts[i0:i1] - r_start, col_starts[j0:j1] - c_start
    )
