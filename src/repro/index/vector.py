"""Vector similarity index over tile embeddings (DESIGN.md §10).

:class:`FlatIPIndex` is an exact inner-product top-K over a flat set of
embedding vectors — score every vector, one ``offer_block`` into
:class:`~repro.core.engine.TopKHeap`, so it inherits the library-wide
tie-break convention (equal score -> smallest ``(row, col)``). The
differential suite pins it bitwise against a numpy argsort oracle. At
the scale it serves (at most a few thousand tile vectors) the full scan
is microseconds, which is why there is no coarse quantizer beside it.

Scores accumulate dimension-by-dimension in float64 (term order, never
a BLAS matmul), so a gathered row subset (a refresh block, a region's
tiles) scores bitwise what the full matrix scores.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import TopKHeap
from repro.exceptions import IndexError_
from repro.metrics.counters import CostCounter


def ip_scores(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Float64 inner products of each row with ``query``, term-ordered.

    Accumulates one dimension at a time so any row subset (a refresh
    block, a region's tiles) produces bitwise the same score per row as
    the full matrix would — summation-order stability that a GEMV call
    does not guarantee.
    """
    matrix = np.asarray(vectors)
    if matrix.ndim != 2:
        raise IndexError_(
            f"vector matrix must be 2-D, got shape {matrix.shape}"
        )
    matrix = matrix.astype(np.float64, copy=False)
    flat_query = np.asarray(query, dtype=np.float64).reshape(-1)
    if flat_query.size != matrix.shape[1]:
        raise IndexError_(
            f"query has {flat_query.size} dims, vectors have "
            f"{matrix.shape[1]}"
        )
    scores = flat_query[0] * matrix[:, 0]
    for d in range(1, flat_query.size):
        scores += flat_query[d] * matrix[:, d]
    return scores


def _check_cells(cells: np.ndarray, n: int) -> np.ndarray:
    cells = np.asarray(cells)
    if cells.shape != (n, 2):
        raise IndexError_(
            f"cells must have shape ({n}, 2), got {cells.shape}"
        )
    return cells


class FlatIPIndex:
    """Exact inner-product top-K by full scan + ``offer_block``."""

    def __init__(self, vectors: np.ndarray, cells: np.ndarray) -> None:
        self._vectors = np.asarray(vectors)
        if self._vectors.ndim != 2 or self._vectors.shape[0] == 0:
            raise IndexError_(
                "flat index needs a non-empty (n, dim) vector matrix"
            )
        self._cells = _check_cells(cells, self._vectors.shape[0])

    @classmethod
    def from_embeddings(cls, embeddings) -> "FlatIPIndex":
        """Index a :class:`~repro.embed.tiles.TileEmbeddings` grid.

        Each tile is addressed by its origin cell, so results read as
        grid locations like every other retrieval answer.
        """
        grid = embeddings.vectors
        n_i, n_j, dim = grid.shape
        rows = np.repeat(
            np.asarray(embeddings.tile_row_starts, dtype=np.intp), n_j
        )
        cols = np.tile(
            np.asarray(embeddings.tile_col_starts, dtype=np.intp), n_i
        )
        return cls(grid.reshape(n_i * n_j, dim), np.stack([rows, cols], 1))

    @property
    def n(self) -> int:
        return self._vectors.shape[0]

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    def search(
        self,
        query: np.ndarray,
        k: int,
        counter: CostCounter | None = None,
    ) -> list[tuple[float, tuple[int, int]]]:
        """Top-``k`` ``(score, (row, col))`` best-first."""
        scores = ip_scores(self._vectors, query)
        if counter is not None:
            counter.add_tuples(scores.size)
            counter.add_model_evals(scores.size, flops_each=2 * self.dim)
        heap = TopKHeap(k)
        heap.offer_block(scores, self._cells[:, 0], self._cells[:, 1])
        return heap.ranked()
