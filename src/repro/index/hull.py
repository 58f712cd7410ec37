"""Convex-hull peeling utilities for the Onion index.

:func:`hull_vertices` returns the indices of points on the convex hull of
a point set, handling every degeneracy scipy's Qhull refuses: one point,
collinear/coplanar sets, duplicated points, and d = 1. :func:`hull_layers`
peels a point set into onion layers (hull, hull of the remainder, ...).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import IndexError_


def _affine_rank(points: np.ndarray) -> int:
    """Dimension of the affine span of the points."""
    if points.shape[0] <= 1:
        return 0
    centered = points - points[0]
    return int(np.linalg.matrix_rank(centered, tol=1e-10))


def hull_vertices(points: np.ndarray) -> np.ndarray:
    """Indices of the convex-hull vertices of ``points``.

    Falls back gracefully on degenerate inputs:

    * 0/1/2 points, or points whose affine span is lower-dimensional than
      the ambient space, are projected onto their span and the hull is
      taken there (1-D span → the two extremes; 0-D → the single point).
    * Exact duplicates are collapsed before the hull and re-expanded after
      (only one representative of each duplicate group is returned).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise IndexError_("points must be a 2-D array (n_points, n_dims)")
    n_points = points.shape[0]
    if n_points == 0:
        return np.array([], dtype=int)

    unique, representative_index = np.unique(points, axis=0, return_index=True)
    return np.sort(representative_index[_unique_hull_vertices(unique)])


def _unique_hull_vertices(unique: np.ndarray) -> np.ndarray:
    """Hull-vertex positions within ``unique``: distinct points in the
    lexicographic order ``np.unique(..., axis=0)`` leaves them in."""
    rank = _affine_rank(unique)
    if rank == 0:
        return np.array([0])
    if rank == 1:
        # Project onto the principal direction; extremes are the hull.
        direction = unique[-1] - unique[0]
        norm = np.linalg.norm(direction)
        projections = (unique - unique[0]) @ (direction / norm)
        extremes = {int(np.argmin(projections)), int(np.argmax(projections))}
        return np.array(sorted(extremes))
    if rank < unique.shape[1]:
        # Lower-dimensional flat: project onto an orthonormal basis of the
        # span and take the hull in that subspace.
        centered = unique - unique[0]
        _, _, v_transpose = np.linalg.svd(centered, full_matrices=False)
        projected = centered @ v_transpose[:rank].T
        return hull_vertices(projected)

    # Imported where Qhull runs: scipy.spatial is a third of a worker's
    # import time, and a process that peels nothing never needs it.
    from scipy.spatial import ConvexHull, QhullError

    try:
        return ConvexHull(unique).vertices
    except QhullError:
        # Rare residual degeneracies: joggle the input.
        try:
            return ConvexHull(unique, qhull_options="QJ").vertices
        except QhullError as error:
            raise IndexError_(f"convex hull failed: {error}") from error


def touches_hull(vertices: np.ndarray, inside: np.ndarray) -> bool:
    """Whether any point of ``inside`` lies on the boundary of the convex
    hull of ``vertices`` (``inside`` lies within that hull).

    A hull of lower dimension than the space has no interior, so every
    point counts as on it. The test has a small relative tolerance: a
    point near the boundary counts as on it, never the other way round.
    """
    if inside.shape[0] == 0:
        return False
    unique = np.unique(np.asarray(vertices, dtype=float), axis=0)
    if _affine_rank(unique) < unique.shape[1]:
        return True
    if unique.shape[1] == 1:
        low, high = unique[0, 0], unique[-1, 0]
        return bool(((inside <= low) | (inside >= high)).any())
    from scipy.spatial import ConvexHull, QhullError

    try:
        equations = ConvexHull(unique).equations
    except QhullError:
        return True
    # Facet equations are unit normals with offsets: <= 0 inside the hull.
    slack = inside @ equations[:, :-1].T + equations[:, -1]
    tolerance = 1e-9 * max(1.0, float(np.abs(unique).max()))
    return bool((slack.max(axis=1) >= -tolerance).any())


def hull_layers(
    points: np.ndarray, max_layers: int | None = None
) -> list[np.ndarray]:
    """Peel a point set into convex-hull layers.

    Returns a list of index arrays into ``points``; layer 0 is the outer
    hull, layer 1 the hull of what remains, and so on until all points
    are assigned (or ``max_layers`` is reached, in which case the final
    entry contains all remaining point indices as one interior bucket).

    Duplicate points land in the layer where their representative is
    peeled.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise IndexError_("points must be a 2-D array (n_points, n_dims)")

    if points.shape[0] == 0:
        return []
    # Peel over the distinct points: a subset of np.unique's output is
    # itself sorted and distinct, so every layer's hull runs on exactly
    # the array a fresh np.unique of the remaining points would give.
    unique, inverse = np.unique(points, axis=0, return_inverse=True)
    remaining = np.arange(unique.shape[0])
    layer_of = np.empty(unique.shape[0], dtype=int)
    n_layers = 0
    while remaining.size:
        if max_layers is not None and n_layers == max_layers - 1:
            peeled = np.arange(remaining.size)  # the interior bucket
        else:
            peeled = _unique_hull_vertices(unique[remaining])
        layer_of[remaining[peeled]] = n_layers
        n_layers += 1
        remaining = np.delete(remaining, peeled)
    # Duplicates of a peeled point leave with it (and join its layer).
    return group_by_layer(layer_of[inverse.reshape(-1)])


def group_by_layer(layer_of: np.ndarray) -> list[np.ndarray]:
    """The layers as ascending row-index arrays, from each row's layer
    number (the inverse of labelling rows by the layer they are on)."""
    order = np.argsort(layer_of, kind="stable")
    return np.split(order, np.cumsum(np.bincount(layer_of))[:-1])
