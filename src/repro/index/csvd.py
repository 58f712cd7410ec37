"""CSVD: clustering + singular value decomposition indexing (ref [14]).

The paper's Section 3.2 opens by noting that high-dimensional indexing
techniques are "utilized for processing similarity-based queries by
pruning the search space through range queries [14]" — Thomasian,
Castelli and Li's CSVD — before arguing such indexes are sub-optimal for
*model-based* queries. This module implements CSVD so that contrast is
measurable:

* **build**: k-means the points into clusters; inside each cluster, SVD
  the centered points and keep the leading components, storing each
  point's projection plus its (exactly known) residual norm;
* **nearest-neighbour search**: visit clusters in order of
  centroid distance; within a cluster, lower-bound each point's true
  distance by the projected distance minus its residual norm (a sound
  bound by the triangle inequality) and confirm survivors exactly;
* the search is **exact** — bounds only prune, never decide.

`top_k_linear` is also provided (linear bounds from projected box +
residual), so the model-query suboptimality argument can be run on the
same structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import heapq

import numpy as np

from repro.data.table import Table
from repro.exceptions import IndexError_
from repro.metrics.counters import CostCounter


def _kmeans_labels(points: np.ndarray, n_clusters: int, seed: int) -> np.ndarray:
    """k-means++ cluster label per row, with no cluster left empty.

    More clusters than *distinct* points leaves k-means++ nothing to
    seed the surplus from (its sampling weights are all zero), so the
    count is clipped to the distinct points; and should Lloyd's
    iterations still empty a cluster, one fewer is asked for.
    """
    # Imported where it runs: nothing on the serving path clusters.
    from scipy.cluster.vq import ClusterError, kmeans2

    n_clusters = min(n_clusters, np.unique(points, axis=0).shape[0])
    while True:
        try:
            _, labels = kmeans2(
                points, n_clusters, minit="++", seed=seed, missing="raise"
            )
            return labels
        except ClusterError:
            n_clusters -= 1


@dataclass
class _Cluster:
    """One CSVD cluster: centroid, local basis, projections, residuals."""

    centroid: np.ndarray
    basis: np.ndarray  # (kept_dims, n_dims) orthonormal rows
    projections: np.ndarray  # (n_members, kept_dims)
    residual_norms: np.ndarray  # (n_members,)
    rows: np.ndarray  # original table row ids


class CSVDIndex:
    """Clustered-SVD index for exact nearest-neighbour search.

    Parameters
    ----------
    table:
        Source tuples.
    attributes:
        Indexed columns (defaults to all).
    n_clusters:
        k-means cluster count (clipped to the distinct-row count).
    kept_dims:
        Local SVD components kept per cluster (clipped to dimensionality).
    seed:
        k-means initialization seed.
    """

    def __init__(
        self,
        table: Table,
        attributes: list[str] | None = None,
        n_clusters: int = 8,
        kept_dims: int = 2,
        seed: int = 0,
    ) -> None:
        self.table = table
        self.attributes = (
            list(attributes) if attributes is not None else table.column_names
        )
        if not self.attributes:
            raise IndexError_("need at least one attribute to index")
        if n_clusters <= 0:
            raise IndexError_("n_clusters must be positive")
        if kept_dims <= 0:
            raise IndexError_("kept_dims must be positive")

        points = table.matrix(self.attributes)
        n_dims = points.shape[1]
        self._points = points
        kept_dims = min(kept_dims, n_dims)
        self.kept_dims = kept_dims
        labels = _kmeans_labels(points, n_clusters, seed)
        self._clusters: list[_Cluster] = []
        for cluster_id in range(int(labels.max()) + 1):
            member_rows = np.where(labels == cluster_id)[0]
            members = points[member_rows]
            centroid = members.mean(axis=0)
            centered = members - centroid
            # SVD of the centered members; rows of vt are the local basis.
            _, _, vt = np.linalg.svd(centered, full_matrices=False)
            basis = vt[:kept_dims]
            projections = centered @ basis.T
            reconstructed = projections @ basis
            residual_norms = np.linalg.norm(centered - reconstructed, axis=1)
            self._clusters.append(
                _Cluster(
                    centroid=centroid,
                    basis=basis,
                    projections=projections,
                    residual_norms=residual_norms,
                    rows=member_rows,
                )
            )

    @property
    def n_clusters(self) -> int:
        """Number of non-empty clusters."""
        return len(self._clusters)

    def _query_vector(self, query: dict[str, float]) -> np.ndarray:
        missing = [a for a in self.attributes if a not in query]
        if missing:
            raise IndexError_(f"query missing attributes {missing}")
        return np.array([float(query[a]) for a in self.attributes])

    def nearest(
        self,
        query: dict[str, float],
        k: int = 1,
        counter: CostCounter | None = None,
    ) -> list[tuple[int, float]]:
        """Exact k nearest neighbours by Euclidean distance.

        Returns ``(row, distance)`` pairs, nearest first. Work tallies:
        one node per cluster visited, one tuple per candidate whose lower
        bound required an exact confirmation.
        """
        if k <= 0:
            raise IndexError_("k must be positive")
        target = self._query_vector(query)

        # Min-heap of (negated distance, -row): the root is the worst
        # kept answer (largest distance; among distance-ties the largest
        # row), matching the service-wide smallest-row-wins tie-break —
        # see scan_top_k, the canonical idiom.
        best: list[tuple[float, int]] = []

        def kth_distance() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        order = sorted(
            range(len(self._clusters)),
            key=lambda i: np.linalg.norm(
                self._clusters[i].centroid - target
            ),
        )
        for cluster_index in order:
            cluster = self._clusters[cluster_index]
            if counter is not None:
                counter.add_nodes(1)
            centered_query = target - cluster.centroid
            projected_query = cluster.basis @ centered_query
            query_residual = np.linalg.norm(
                centered_query - cluster.basis.T @ projected_query
            )
            projected_distances = np.linalg.norm(
                cluster.projections - projected_query, axis=1
            )
            # Sound lower bound on the true distance: in the orthogonal
            # decomposition span + complement,
            #   d^2 = d_proj^2 + ||r_p - r_q||^2 >= d_proj^2 + (|r_p| - |r_q|)^2.
            residual_gap = np.abs(cluster.residual_norms - query_residual)
            lower_bounds = np.sqrt(projected_distances**2 + residual_gap**2)

            for local_index in np.argsort(lower_bounds):
                # The bound is mathematically <= the true distance but
                # computed with different arithmetic, so it can land a
                # few ulps above it. Prune with relative slack: a bound
                # at (or negligibly above) the kth distance may hide an
                # equal-distance candidate with a smaller row, which the
                # tie-break must admit — survivors are confirmed exactly,
                # so the slack only costs confirmations, never exactness.
                # The absolute term covers kth distance exactly 0, where
                # a tied candidate's bound can still be a positive ulp.
                threshold = kth_distance()
                if lower_bounds[local_index] > threshold * (1 + 1e-9) + 1e-12:
                    break
                row = int(cluster.rows[local_index])
                if counter is not None:
                    counter.add_tuples(1)
                    counter.add_data_points(len(self.attributes))
                distance = float(
                    np.linalg.norm(self._points[row] - target)
                )
                entry = (-distance, -row)
                if len(best) < k:
                    heapq.heappush(best, entry)
                elif entry > best[0]:
                    heapq.heapreplace(best, entry)
        return [
            (-neg_row, -negated)
            for negated, neg_row in sorted(
                best, key=lambda e: (-e[0], -e[1])
            )
        ]

    def top_k_linear(
        self,
        weights: dict[str, float],
        k: int,
        maximize: bool = True,
        counter: CostCounter | None = None,
    ) -> list[tuple[int, float]]:
        """Exact linear top-K via cluster-level score bounds.

        Upper-bounds ``w.x`` over a cluster by the centroid score plus
        ``|w|`` times each member's distance bound (projection norm +
        residual) — a loose, similarity-oriented bound, which is exactly
        why the paper calls such indexes sub-optimal for model queries.
        """
        if k <= 0:
            raise IndexError_("k must be positive")
        weight_vector = self._query_vector(weights)
        sign = 1.0 if maximize else -1.0
        signed = sign * weight_vector
        weight_norm = float(np.linalg.norm(signed))

        best: list[tuple[float, int]] = []

        def kth_score() -> float:
            return best[0][0] if len(best) == k else float("-inf")

        cluster_bounds = []
        for cluster in self._clusters:
            centroid_score = float(signed @ cluster.centroid)
            member_extents = np.sqrt(
                np.sum(cluster.projections**2, axis=1)
            ) + cluster.residual_norms
            bound = centroid_score + weight_norm * float(member_extents.max())
            cluster_bounds.append(bound)

        for cluster_index in np.argsort(cluster_bounds)[::-1]:
            cluster = self._clusters[cluster_index]
            if counter is not None:
                counter.add_nodes(1)
            if cluster_bounds[cluster_index] < kth_score():
                break
            for row in cluster.rows:
                if counter is not None:
                    counter.add_tuples(1)
                    counter.add_model_evals(
                        1, flops_each=2 * len(self.attributes)
                    )
                score = float(signed @ self._points[row])
                # Canonical tie idiom (see scan_top_k): (score, -row)
                # entries make equal-score smaller rows win eviction.
                entry = (score, -int(row))
                if len(best) < k:
                    heapq.heappush(best, entry)
                elif entry > best[0]:
                    heapq.heapreplace(best, entry)
        return [
            (-neg_row, sign * score)
            for score, neg_row in sorted(
                best, key=lambda e: (-e[0], -e[1])
            )
        ]

    def __repr__(self) -> str:
        return (
            f"CSVDIndex({self.table.name!r}, clusters={self.n_clusters}, "
            f"kept_dims={self.kept_dims})"
        )
