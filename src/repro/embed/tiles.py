"""Per-tile embeddings over a raster stack (DESIGN.md §10).

Query-by-example needs every archive tile summarized as a fixed-length
vector. Heavy learned encoders are out of scope for a pure-numpy
reproduction, so the embedder here is the classical cheap pipeline the
SARCH line of work bottoms out in once the encoder is stripped away:
pooled band statistics (mean/std/min/max per attribute, over exactly the
tile screen's leaf windows) pushed through a seeded random Gaussian
projection and L2-normalized. The result is deterministic, refreshable
region-by-region (the same double-``reduceat`` discipline as the
quadtree aggregates, so a partial refresh is bit-identical to a full
rebuild), and cheap enough that the whole tile grid embeds in one pass.

Everything numeric is accumulated *term-order* — explicit loops over
feature/vector dimensions, never BLAS matmuls — so a sub-block refresh,
a memory-mapped twin of the stack, and a partition-gathered subset all
produce bit-identical floats. That discipline is what lets the
differential suite demand bitwise equality instead of tolerances.
"""

from __future__ import annotations

import numpy as np

from repro.core.screening import TileScreen
from repro.data.raster import RasterStack
from repro.exceptions import EmbeddingError, QueryError

#: Pooled statistics per attribute, in feature order.
TILE_STATS = ("mean", "std", "min", "max")

#: On-disk payload version for :meth:`TileEmbeddings.save`.
EMBEDDINGS_FORMAT = 1


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """L2-normalize the last axis in float64, zeros left as zeros."""
    sumsq = vectors[..., 0] * vectors[..., 0]
    for d in range(1, vectors.shape[-1]):
        sumsq = sumsq + vectors[..., d] * vectors[..., d]
    norms = np.sqrt(sumsq)
    safe = np.where(norms > 0.0, norms, 1.0)
    return vectors / safe[..., None]


class TileEmbedder:
    """Deterministic tile-vector pipeline: pooled stats -> projection.

    Parameters
    ----------
    attributes:
        Band names, in the order their statistics enter the feature
        vector (``len(attributes) * len(TILE_STATS)`` features).
    dim:
        Output embedding dimensionality.
    seed:
        Seed of the Gaussian projection matrix; two embedders agree on
        every vector iff ``(attributes, dim, seed)`` agree.
    """

    def __init__(
        self, attributes: tuple[str, ...], dim: int = 16, seed: int = 0
    ) -> None:
        if not attributes:
            raise EmbeddingError("embedder needs at least one attribute")
        if dim < 1:
            raise EmbeddingError(f"embedding dim must be >= 1, got {dim}")
        self.attributes = tuple(attributes)
        self.dim = int(dim)
        self.seed = int(seed)
        self.n_features = len(self.attributes) * len(TILE_STATS)
        rng = np.random.default_rng(self.seed)
        # Scaled so projected coordinates stay O(feature scale); the
        # scale cancels under L2 normalization but keeps raw projections
        # comparable across feature counts.
        self.projection = rng.standard_normal(
            (self.n_features, self.dim)
        ) / np.sqrt(float(self.n_features))

    def features_block(
        self,
        columns: dict[str, np.ndarray],
        row_starts: np.ndarray,
        row_lengths: np.ndarray,
        col_starts: np.ndarray,
        col_lengths: np.ndarray,
    ) -> np.ndarray:
        """Pooled statistics grid ``(n_i, n_j, n_features)`` (float64).

        ``columns`` maps each attribute to a value window whose rows and
        columns the start/length arrays tile exactly (starts are local
        to the window). Statistics reduce with ``reduceat`` in the same
        column-then-row order as :func:`repro.pyramid.quadtree
        .finest_grids`, so any window that covers whole tiles yields the
        same per-tile floats as the full-grid pass — the property the
        region-scoped refresh leans on.
        """
        counts = np.multiply.outer(
            np.asarray(row_lengths, dtype=np.float64),
            np.asarray(col_lengths, dtype=np.float64),
        )
        features = np.empty(
            counts.shape + (self.n_features,), dtype=np.float64
        )
        for index, name in enumerate(self.attributes):
            values = np.asarray(columns[name], dtype=np.float64)
            sums = np.add.reduceat(
                np.add.reduceat(values, col_starts, axis=1),
                row_starts,
                axis=0,
            )
            sumsq = np.add.reduceat(
                np.add.reduceat(values * values, col_starts, axis=1),
                row_starts,
                axis=0,
            )
            mins = np.minimum.reduceat(
                np.minimum.reduceat(values, col_starts, axis=1),
                row_starts,
                axis=0,
            )
            maxs = np.maximum.reduceat(
                np.maximum.reduceat(values, col_starts, axis=1),
                row_starts,
                axis=0,
            )
            means = sums / counts
            # Rounding can push E[x^2] - E[x]^2 a hair negative on
            # constant tiles; clamp before the sqrt.
            variance = np.maximum(sumsq / counts - means * means, 0.0)
            base = index * len(TILE_STATS)
            features[..., base + 0] = means
            features[..., base + 1] = np.sqrt(variance)
            features[..., base + 2] = mins
            features[..., base + 3] = maxs
        return features

    def embed_block(self, features: np.ndarray) -> np.ndarray:
        """Project + unit-normalize a feature grid; float32 vectors.

        The projection accumulates feature-by-feature (term order, not a
        BLAS matmul), so embedding a sub-block of tiles reproduces the
        full-grid floats exactly — GEMM kernels do not promise that.
        """
        if features.shape[-1] != self.n_features:
            raise EmbeddingError(
                f"feature block has {features.shape[-1]} features, "
                f"embedder expects {self.n_features}"
            )
        projected = np.multiply.outer(
            features[..., 0], self.projection[0]
        )
        for f in range(1, self.n_features):
            projected += np.multiply.outer(
                features[..., f], self.projection[f]
            )
        return _unit_rows(projected).astype(np.float32)


class TileEmbeddings:
    """The embedded tile grid of one archive generation.

    Holds one float32 unit vector per tile-screen leaf window, the leaf
    tiling itself, and the screen (whose envelope combine builds the
    fused search's cosine caps). Mutations ride the
    same contract as every other derived structure (DESIGN.md §9):
    :meth:`refresh_region` re-embeds exactly the tiles a dirty rectangle
    touches — bit-identical to a rebuild — and the caller restamps
    :attr:`generation`. :attr:`embedded_tiles` counts every tile ever
    embedded by this instance, so tests can assert a refresh paid for
    dirty tiles only.
    """

    def __init__(
        self,
        embedder: TileEmbedder,
        stack: RasterStack,
        screen: TileScreen,
        vectors: np.ndarray,
        generation: int | None = None,
    ) -> None:
        row_starts, row_lengths, col_starts, col_lengths = (
            screen.level_intervals(-1)
        )
        expected = (row_starts.size, col_starts.size, embedder.dim)
        if vectors.shape != expected or vectors.dtype != np.float32:
            raise EmbeddingError(
                f"vector grid {vectors.shape}/{vectors.dtype} does not "
                f"match tile grid {expected}/float32"
            )
        self.embedder = embedder
        self.generation = generation
        self.embedded_tiles = 0
        self._stack = stack
        self._screen = screen
        self._vectors = vectors
        self._vectors64: np.ndarray | None = None
        self._row_starts = np.asarray(row_starts)
        self._row_lengths = np.asarray(row_lengths)
        self._col_starts = np.asarray(col_starts)
        self._col_lengths = np.asarray(col_lengths)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        stack: RasterStack,
        screen: TileScreen,
        dim: int = 16,
        seed: int = 0,
        generation: int | None = None,
    ) -> "TileEmbeddings":
        """Embed every tile of ``stack`` over ``screen``'s leaf tiling."""
        embedder = TileEmbedder(tuple(stack.names), dim=dim, seed=seed)
        row_starts, row_lengths, col_starts, col_lengths = (
            screen.level_intervals(-1)
        )
        rows, cols = stack.shape
        columns = {
            name: stack[name].read_window(0, 0, rows, cols, None)
            for name in embedder.attributes
        }
        features = embedder.features_block(
            columns, row_starts, row_lengths, col_starts, col_lengths
        )
        vectors = embedder.embed_block(features)
        built = cls(embedder, stack, screen, vectors, generation=generation)
        built.embedded_tiles = built.n_tiles
        return built

    # -- geometry ----------------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Tile grid shape ``(n_tile_rows, n_tile_cols)``."""
        return (self._row_starts.size, self._col_starts.size)

    @property
    def dim(self) -> int:
        return self.embedder.dim

    @property
    def n_tiles(self) -> int:
        return self._row_starts.size * self._col_starts.size

    @property
    def vectors(self) -> np.ndarray:
        """The float32 unit-vector grid ``(n_i, n_j, dim)``."""
        return self._vectors

    @property
    def tile_row_starts(self) -> np.ndarray:
        """Row starts (cell coords) of the tile grid."""
        return self._row_starts

    @property
    def tile_col_starts(self) -> np.ndarray:
        """Column starts (cell coords) of the tile grid."""
        return self._col_starts

    def tile_index(self, cell: tuple[int, int]) -> tuple[int, int]:
        """Tile grid coordinates of the tile containing ``cell``."""
        row, col = int(cell[0]), int(cell[1])
        rows, cols = self._stack.shape
        if not (0 <= row < rows and 0 <= col < cols):
            raise QueryError(
                f"example cell {cell} lies outside the {rows}x{cols} grid"
            )
        i = int(np.searchsorted(self._row_starts, row, side="right")) - 1
        j = int(np.searchsorted(self._col_starts, col, side="right")) - 1
        return (i, j)

    def tile_window(
        self, cell: tuple[int, int]
    ) -> tuple[int, int, int, int]:
        """Cell window of the tile containing ``cell``."""
        i, j = self.tile_index(cell)
        row0 = int(self._row_starts[i])
        col0 = int(self._col_starts[j])
        return (
            row0,
            col0,
            row0 + int(self._row_lengths[i]),
            col0 + int(self._col_lengths[j]),
        )

    def tile_vector(self, cell: tuple[int, int]) -> np.ndarray:
        """Float64 view of the unit vector of the tile holding ``cell``.

        Returned un-renormalized: cosines against it are then plain
        inner products with the stored float32 unit vectors, which is
        what every consumer (fused search, vector indexes, oracles)
        computes.
        """
        i, j = self.tile_index(cell)
        return self._vectors[i, j].astype(np.float64)

    # -- similarity --------------------------------------------------------

    def cosines(self, query_vector: np.ndarray) -> np.ndarray:
        """Inner products of every tile vector with ``query_vector``.

        Float64, accumulated dimension-by-dimension (term order) so the
        grid is bitwise reproducible for any tile subset.
        """
        query = np.asarray(query_vector, dtype=np.float64).reshape(-1)
        if query.size != self.dim:
            raise EmbeddingError(
                f"query vector has {query.size} dims, embeddings "
                f"have {self.dim}"
            )
        if self._vectors64 is None:
            # Exact float32 -> float64 widening, cached across queries
            # and dropped whenever a refresh rewrites tiles.
            self._vectors64 = self._vectors.astype(np.float64)
        vectors = self._vectors64
        scores = query[0] * vectors[..., 0]
        for d in range(1, self.dim):
            scores += query[d] * vectors[..., d]
        return scores

    def cosine_caps(self, cosines: np.ndarray) -> np.ndarray:
        """``(2, n_nodes)``: the min over the max of a tile-cosine grid
        below each screen node, in node-id order — exact query-specific
        similarity envelopes (a leaf's is its one tile's cosine), by the
        screen's own envelope combine (:meth:`TileScreen.node_extrema`).
        """
        return self._screen.node_extrema(cosines)

    # -- mutation ----------------------------------------------------------

    def refresh_region(self, region: tuple[int, int, int, int]) -> int:
        """Re-embed exactly the tiles a dirty rectangle intersects.

        Returns how many tiles were re-embedded (0 for an empty or
        out-of-grid rectangle). Surviving tiles are untouched — their
        vectors remain bitwise what the original build produced — and
        refreshed tiles match what a from-scratch rebuild over the
        mutated stack would produce, because the statistics and the
        projection both accumulate in a block-size-independent order.
        """
        rows, cols = self._stack.shape
        row0 = max(0, int(region[0]))
        col0 = max(0, int(region[1]))
        row1 = min(rows, int(region[2]))
        col1 = min(cols, int(region[3]))
        if row0 >= row1 or col0 >= col1:
            return 0
        i0 = max(
            0, int(np.searchsorted(self._row_starts, row0, "right")) - 1
        )
        i1 = int(np.searchsorted(self._row_starts, row1, "left"))
        j0 = max(
            0, int(np.searchsorted(self._col_starts, col0, "right")) - 1
        )
        j1 = int(np.searchsorted(self._col_starts, col1, "left"))
        # Whole-tile read window covering the dirty tile block.
        r0 = int(self._row_starts[i0])
        r1 = int(self._row_starts[i1 - 1] + self._row_lengths[i1 - 1])
        c0 = int(self._col_starts[j0])
        c1 = int(self._col_starts[j1 - 1] + self._col_lengths[j1 - 1])
        columns = {
            name: self._stack[name].read_window(r0, c0, r1, c1, None)
            for name in self.embedder.attributes
        }
        features = self.embedder.features_block(
            columns,
            self._row_starts[i0:i1] - r0,
            self._row_lengths[i0:i1],
            self._col_starts[j0:j1] - c0,
            self._col_lengths[j0:j1],
        )
        self._vectors[i0:i1, j0:j1] = self.embedder.embed_block(features)
        self._vectors64 = None
        dirty = (i1 - i0) * (j1 - j0)
        self.embedded_tiles += dirty
        return dirty

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Persist vectors + config + generation as one ``.npz`` file."""
        np.savez(
            path,
            format=np.int64(EMBEDDINGS_FORMAT),
            vectors=self._vectors,
            attributes=np.array(self.embedder.attributes),
            dim=np.int64(self.dim),
            seed=np.int64(self.embedder.seed),
            generation=np.int64(
                -1 if self.generation is None else self.generation
            ),
        )

    @classmethod
    def load(
        cls, path, stack: RasterStack, screen: TileScreen
    ) -> "TileEmbeddings":
        """Reopen a saved grid against the stack/screen it was built on.

        The tile geometry is rebuilt from ``screen`` (it is
        structural, not data); the payload must
        match the stack's bands and declare the same embedder config,
        otherwise its vectors would silently mean something else.
        """
        with np.load(path, allow_pickle=False) as payload:
            if int(payload["format"]) != EMBEDDINGS_FORMAT:
                raise EmbeddingError(
                    f"unsupported embeddings format {int(payload['format'])}"
                )
            attributes = tuple(str(a) for a in payload["attributes"])
            if attributes != tuple(stack.names):
                raise EmbeddingError(
                    f"saved embeddings cover bands {attributes}, "
                    f"stack has {tuple(stack.names)}"
                )
            embedder = TileEmbedder(
                attributes,
                dim=int(payload["dim"]),
                seed=int(payload["seed"]),
            )
            generation = int(payload["generation"])
            built = cls(
                embedder,
                stack,
                screen,
                np.ascontiguousarray(payload["vectors"]),
                generation=None if generation < 0 else generation,
            )
        return built
