"""Gridded raster layers (imagery bands, DEMs, derived surfaces).

A :class:`RasterLayer` wraps a 2-D numpy array with a name and optional
cost instrumentation: reads that go through :meth:`RasterLayer.read` and
:meth:`RasterLayer.read_window` are tallied on the supplied
:class:`~repro.metrics.counters.CostCounter`, which is how every benchmark
measures "data points touched". Direct ``.values`` access is available for
uninstrumented code (tests, synthesis).

A :class:`RasterStack` is a set of layers sharing one grid — the archive
view a multi-band linear model evaluates over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ArchiveError, LayerMismatchError
from repro.metrics.counters import CostCounter


class RasterLayer:
    """A named 2-D grid of float values.

    Parameters
    ----------
    name:
        Layer identifier (e.g. ``"tm_band4"``, ``"elevation"``).
    values:
        2-D array; copied to float64 and made read-only so layers are
        safely shareable between pyramids, indexes and engines.
    """

    def __init__(self, name: str, values: np.ndarray) -> None:
        array = np.array(values, dtype=float)
        if array.ndim != 2:
            raise ArchiveError(f"layer {name!r} must be 2-D, got {array.ndim}-D")
        if array.size == 0:
            raise ArchiveError(f"layer {name!r} must be non-empty")
        if not np.isfinite(array).all():
            # NaN/inf would silently break envelope soundness (min/max
            # aggregates propagate NaN, disabling pruning guarantees), so
            # bad values are rejected at the archive boundary.
            raise ArchiveError(f"layer {name!r} contains non-finite values")
        array.setflags(write=False)
        self.name = name
        self._values = array

    @property
    def values(self) -> np.ndarray:
        """The underlying (read-only) array."""
        return self._values

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape as ``(rows, cols)``."""
        return self._values.shape  # type: ignore[return-value]

    @property
    def size(self) -> int:
        """Total number of cells."""
        return self._values.size

    def read(self, row: int, col: int, counter: CostCounter | None = None) -> float:
        """Read one cell, tallying one data point on ``counter``.

        Out-of-range indices (including negative ones) raise instead of
        wrapping around numpy-style: a single-cell read at ``(-1, 0)``
        silently returning the last row's value — and tallying its cost —
        would corrupt both answers and counted work.
        """
        rows, cols = self.shape
        if not (0 <= row < rows and 0 <= col < cols):
            raise ArchiveError(
                f"cell ({row}, {col}) outside grid {rows}x{cols} "
                f"on layer {self.name!r}"
            )
        value = float(self._values[row, col])
        if counter is not None:
            counter.add_data_points(1)
        return value

    def read_window(
        self,
        row0: int,
        col0: int,
        row1: int,
        col1: int,
        counter: CostCounter | None = None,
    ) -> np.ndarray:
        """Read the half-open window ``[row0:row1, col0:col1]``.

        Tallies the window size on ``counter``. Bounds are clipped to the
        grid; an empty window raises, reporting the caller's original
        (pre-clip) bounds so the error points at what was actually asked.
        """
        requested = (row0, col0, row1, col1)
        rows, cols = self.shape
        row0, row1 = max(0, row0), min(rows, row1)
        col0, col1 = max(0, col0), min(cols, col1)
        if row0 >= row1 or col0 >= col1:
            raise ArchiveError(
                f"empty window [{requested[0]}:{requested[2]}, "
                f"{requested[1]}:{requested[3]}] on layer {self.name!r} "
                f"(grid {rows}x{cols})"
            )
        window = self._values[row0:row1, col0:col1]
        if counter is not None:
            counter.add_data_points(window.size)
        return window

    def gather(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        counter: CostCounter | None = None,
    ) -> np.ndarray:
        """Fancy-index gather ``values[rows, cols]`` (tallied if counted).

        The engine's leaf-evaluation cascade reads scattered surviving
        cells through this accessor instead of touching ``.values``
        directly, so a layer subclass may re-represent its storage (e.g.
        the memory-mapped layers of :mod:`repro.data.store`) without the
        engine knowing. Returns a fresh writable array (fancy indexing
        always copies).
        """
        values = self._values[rows, cols]
        if counter is not None:
            counter.add_data_points(values.size)
        return values

    def read_all(self, counter: CostCounter | None = None) -> np.ndarray:
        """Read the whole grid, tallying every cell."""
        if counter is not None:
            counter.add_data_points(self.size)
        return self._values

    def __repr__(self) -> str:
        return f"RasterLayer({self.name!r}, shape={self.shape})"


@dataclass
class RasterStack:
    """A set of raster layers sharing one grid.

    This is what a multi-attribute model evaluates over: attribute names
    map to layers, every layer has the same shape.
    """

    layers: dict[str, RasterLayer] = field(default_factory=dict)

    def __post_init__(self) -> None:
        shapes = {layer.shape for layer in self.layers.values()}
        if len(shapes) > 1:
            raise LayerMismatchError(f"stack layers disagree on shape: {shapes}")

    @property
    def shape(self) -> tuple[int, int]:
        """Shared grid shape; raises if the stack is empty."""
        if not self.layers:
            raise ArchiveError("empty raster stack has no shape")
        return next(iter(self.layers.values())).shape

    @property
    def names(self) -> list[str]:
        """Layer names in insertion order."""
        return list(self.layers)

    def add(self, layer: RasterLayer) -> None:
        """Add a layer, enforcing the shared-shape invariant."""
        if layer.name in self.layers:
            raise ArchiveError(f"duplicate layer {layer.name!r} in stack")
        if self.layers and layer.shape != self.shape:
            raise LayerMismatchError(
                f"layer {layer.name!r} shape {layer.shape} != stack shape {self.shape}"
            )
        self.layers[layer.name] = layer

    def __getitem__(self, name: str) -> RasterLayer:
        try:
            return self.layers[name]
        except KeyError:
            raise ArchiveError(f"no layer {name!r} in stack") from None

    def __contains__(self, name: str) -> bool:
        return name in self.layers

    def __len__(self) -> int:
        return len(self.layers)

    def subset(self, names: list[str]) -> "RasterStack":
        """A stack view containing only the named layers."""
        return RasterStack({name: self[name] for name in names})

    def read_point(
        self, row: int, col: int, counter: CostCounter | None = None
    ) -> dict[str, float]:
        """Read all layers at one cell → attribute dict."""
        return {
            name: layer.read(row, col, counter) for name, layer in self.layers.items()
        }

    def read_all(self, counter: CostCounter | None = None) -> dict[str, np.ndarray]:
        """Read every layer fully → attribute-name → array dict."""
        return {name: layer.read_all(counter) for name, layer in self.layers.items()}
