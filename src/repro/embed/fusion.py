"""Fused model + similarity scoring (DESIGN.md §10).

A fused query scores every cell as

    combined = alpha * model(cell) + (1 - alpha) * cosine(tile, example)

where ``cosine`` is the inner product between the unit embedding of the
cell's tile and the unit embedding of the example tile. A
:class:`FusionSpec` packages everything the tile search needs to bound
and evaluate that objective: the example's query vector, the finest
tile-cosine grid, and the min/max cosine caps of every tile screen
node, in node-id order.

Soundness of the combined bounds: with ``alpha`` and ``1 - alpha`` both
non-negative, ``model`` inside its interval envelope, and the node's
cosine inside its cap, the blend of the two upper (lower) bounds upper-
(lower-) bounds the blend — and because IEEE round-to-nearest is
monotone under multiplication by a non-negative constant and addition,
the *computed* bound also dominates the *computed* leaf score, so the
bitwise tie-break conventions survive fusion. The engine consumes the
spec duck-typed (:attr:`FusionSpec.caps`, :meth:`FusionSpec.blend`,
:meth:`FusionSpec.charge_blends`, :meth:`FusionSpec.combine_leaves`),
which keeps ``repro.core`` free of an embed dependency.
"""

from __future__ import annotations

import numpy as np

from repro.embed.tiles import TileEmbeddings

#: Counter flops charged per blended bound or leaf blend: two
#: multiplications and one addition.
BLEND_FLOPS = 3


class FusionSpec:
    """Per-query fusion state for the progressive tile search.

    Read-only after construction, so one spec is safely shared across
    concurrent shard searches (like the level cascade it replaces).
    """

    def __init__(
        self,
        alpha: float,
        similar_to: tuple[int, int],
        example_window: tuple[int, int, int, int],
        dim: int,
        n_tiles: int,
        cosines: np.ndarray,
        caps: np.ndarray,
        row_starts: np.ndarray,
        col_starts: np.ndarray,
    ) -> None:
        self.alpha = float(alpha)
        self.beta = 1.0 - self.alpha
        self.similar_to = similar_to
        self.example_window = example_window
        self.dim = dim
        self.n_tiles = n_tiles
        self._cosines = cosines
        #: ``(2, n_nodes)``: each screen node's minimum over its maximum
        #: tile cosine, in node-id order (``TileScreen.node_extrema``).
        self.caps = caps
        self._row_starts = row_starts
        self._col_starts = col_starts

    @classmethod
    def build(
        cls,
        embeddings: TileEmbeddings,
        similar_to: tuple[int, int],
        alpha: float,
    ) -> "FusionSpec":
        """Resolve an example cell into a ready-to-search spec.

        Computes the full tile-cosine grid once (term-order inner
        products, see :meth:`TileEmbeddings.cosines`) plus its per-node
        caps; tile search then does O(1) lookups per node and per leaf.
        """
        query_vector = embeddings.tile_vector(similar_to)
        cosines = embeddings.cosines(query_vector)
        return cls(
            alpha=alpha,
            similar_to=(int(similar_to[0]), int(similar_to[1])),
            example_window=embeddings.tile_window(similar_to),
            dim=embeddings.dim,
            n_tiles=embeddings.n_tiles,
            cosines=cosines,
            caps=embeddings.cosine_caps(cosines),
            row_starts=embeddings.tile_row_starts,
            col_starts=embeddings.tile_col_starts,
        )

    def charge_build(self, counter) -> None:
        """Tally the cosine-grid construction on a query's counter.

        One partial evaluation per tile at ``2 * dim`` flops (the
        multiply-add per dimension) — the same rate the embed-scan
        strategy and the exhaustive oracle charge, so strategies stay
        comparable on counted work.
        """
        counter.add_partial_evals(self.n_tiles, flops_each=2 * self.dim)

    def charge_blends(self, n: int, counter) -> None:
        """Tally ``n`` blends (of a node bound or a leaf's cosine)."""
        counter.add_partial_evals(n, flops_each=BLEND_FLOPS)

    def blend(self, scores: np.ndarray, cosines) -> np.ndarray:
        """The fused objective, op-order pinned: ``a*model + b*cos``.

        ``cosines`` may be a scalar (one leaf tile) or a per-cell array;
        both produce bitwise the same float per cell, so the progressive
        leaf blend and the embed-scan/oracle full-grid blend agree.
        """
        return self.alpha * scores + self.beta * cosines

    def region_cosines(
        self, region: tuple[int, int, int, int]
    ) -> np.ndarray:
        """Per-cell cosine grid over ``region`` (each cell its tile's).

        The embed-scan strategy and the exhaustive oracle broadcast tile
        cosines to cells through this one lookup, so both see the exact
        floats :meth:`combine_leaves` blends into the progressive leaves.
        """
        row_tiles = (
            np.searchsorted(
                self._row_starts,
                np.arange(region[0], region[2]),
                side="right",
            )
            - 1
        )
        col_tiles = (
            np.searchsorted(
                self._col_starts,
                np.arange(region[1], region[3]),
                side="right",
            )
            - 1
        )
        return self._cosines[np.ix_(row_tiles, col_tiles)]

    def combine_leaves(
        self,
        ids: np.ndarray,
        sizes: np.ndarray,
        scores: np.ndarray,
        counter,
    ) -> np.ndarray:
        """Blend exact cell scores with their leaves' (exact) cosines.

        ``scores`` lists the cells of screen leaves ``ids`` back to back,
        ``sizes[p]`` of them for ``ids[p]``. A leaf is one tile, so its
        cap is its cosine — the float :meth:`region_cosines` hands the
        embed-scan for every cell of that tile — repeated per cell; the
        blend is the per-cell fused objective, term-ordered as
        ``alpha * model + beta * cosine``. Charged once per leaf.
        """
        self.charge_blends(len(ids), counter)
        return self.blend(scores, np.repeat(self.caps[0][ids], sizes))
