"""Opening a store: memmap-backed layers and the live disk archive.

:func:`open_archive` validates the manifest and materializes a
:class:`DiskArchive` whose raster layers are
:class:`MemmapRasterLayer` instances — the values array is a view
over an ``np.load(..., mmap_mode="r")`` mapping, so *opening* an 8192^2 multi-band
archive touches no pixel pages at all, and serving a query pages in
only the tiles its branch-and-bound actually visits. Series and tables
are tiny and loaded eagerly.

The mapping is shared, not private: a writer appending through
``mode="r+"`` to the same files is visible to already-open readers,
which is what makes in-process incremental ingest
(:meth:`DiskArchive.append_region`) coherent — the writer hands the
leaf grids it refreshed to the layers, then the archive records a
*region-scoped* mutation, so the service layer's screen copies the
dirty rectangle's leaves from those grids (recombining only their
ancestors) and keeps every cached answer that doesn't intersect it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.data.archive import Archive
from repro.data.catalog import CatalogEntry, Modality
from repro.data.raster import RasterLayer
from repro.data.series import DepthSeries, TimeSeries
from repro.data.store.format import (
    aggregates_path,
    read_manifest,
    values_path,
)
from repro.data.table import Table
from repro.exceptions import ArchiveError
from repro.pyramid.quadtree import finest_intervals

#: The dirty rectangle recorded for mutations that touch no raster cell
#: (series appends): empty, so it intersects nothing and no spatial
#: cache entry is invalidated — but the generation still moves.
_EMPTY_REGION = (0, 0, 0, 0)


class MemmapRasterLayer(RasterLayer):
    """A raster layer whose values live on disk, paged in on demand.

    Construction deliberately bypasses ``RasterLayer.__init__``: the
    base class scans the whole array for non-finite values, which would
    fault in every page of a bigger-than-RAM band. Finiteness is instead
    enforced at the ingest boundary (:class:`ArchiveWriter` rejects
    non-finite blocks), so only cheap structural checks run here.

    The layer also carries the store's precomputed leaf (min, max)
    grids and exposes them through :meth:`quadtree_aggregates` — the
    duck-typed hook :class:`~repro.core.screening.TileScreen` probes, so
    neither building a screen over a disk stack nor refreshing it after
    an append reduces over raw pixels.
    """

    def __init__(
        self,
        name: str,
        path: str | Path,
        screen_leaf_size: int | None = None,
    ) -> None:
        path = Path(path)
        try:
            values = np.load(path, mmap_mode="r")
        except (OSError, ValueError) as error:
            raise ArchiveError(
                f"cannot map band {name!r} values at {path}: {error}"
            ) from None
        if values.ndim != 2:
            raise ArchiveError(
                f"layer {name!r} must be 2-D, got {values.ndim}-D"
            )
        if values.size == 0:
            raise ArchiveError(f"layer {name!r} must be non-empty")
        if values.dtype != np.float64:
            raise ArchiveError(
                f"stored band {name!r} must be float64, got {values.dtype}"
            )
        self.name = name
        # A base-class view over the mapping, not the np.memmap
        # subclass, whose __array_finalize__ runs on every slice: a
        # leaf-by-leaf quadtree query measured 2-7 % slower through it.
        # The mapping (same pages, still read-only) lives on as ``.base``.
        self._values = values.view(np.ndarray)
        self._path = path
        self._screen_leaf_size = screen_leaf_size
        self._aggregates: tuple[np.ndarray, np.ndarray] | None = None

    def quadtree_aggregates(
        self, leaf_size: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Stored leaf-level (mins, maxs), if built at this size.

        Returns ``None`` for any other leaf size — the screen then falls
        back to a full reduction over the (memmapped) values, which is
        correct but pages the whole band in.
        """
        if self._aggregates is None or leaf_size != self._screen_leaf_size:
            return None
        return self._aggregates

    def _set_aggregates(
        self, grids: tuple[np.ndarray, np.ndarray] | None
    ) -> None:
        """Adopt leaf grids: the stored ones at open, refreshed ones
        after an append."""
        self._aggregates = grids

    def __repr__(self) -> str:
        return (
            f"MemmapRasterLayer({self.name!r}, shape={self.shape}, "
            f"path={str(self._path)!r})"
        )


class DiskArchive(Archive):
    """An archive opened from a store directory.

    Behaves exactly like :class:`~repro.data.archive.Archive` for
    readers; additionally exposes the incremental-ingest surface
    (:meth:`append_region`, :meth:`append_days`) by lazily binding an
    :class:`~repro.data.store.writer.ArchiveWriter` to itself, so
    mutations hit disk *and* flow back into this process as
    region-scoped mutation records.
    """

    def __init__(self, root: Path, manifest: dict) -> None:
        super().__init__(manifest["archive_name"])
        self.root = Path(root)
        self._manifest = manifest
        self._writer: Any | None = None

    @property
    def tile_size(self) -> int:
        """Row-strip granularity the store was ingested with."""
        return int(self._manifest["tile_size"])

    @property
    def screen_leaf_size(self) -> int:
        """Leaf size the stored aggregates were built for.

        Serving layers should build their engines at this leaf size —
        any other forfeits the precomputed aggregates and pages every
        band in at startup.
        """
        return int(self._manifest["screen_leaf_size"])

    @property
    def index_dir(self) -> Path:
        """Where indexes derived from this store persist:
        ``<store>.index``, *beside* the store directory — derived data
        stays out of the tree whose bytes the manifest accounts for."""
        return Path(f"{self.root.resolve()}.index")

    def writer(self) -> Any:
        """The bound writer (created on first use)."""
        if self._writer is None:
            # Imported here: writer.py must not be a load-time dependency
            # of the read path (and the import is cyclic at module level).
            from repro.data.store.writer import ArchiveWriter

            self._writer = ArchiveWriter(
                self.root, self._manifest, bound=self
            )
        return self._writer

    def append_region(
        self,
        updates: dict[str, np.ndarray],
        region: tuple[int, int, int, int],
    ) -> None:
        """Overwrite a rectangle of one or more bands, on disk and live."""
        self.writer().append_region(updates, region)

    def append_days(
        self,
        series_name: str,
        axis: np.ndarray,
        attributes: dict[str, np.ndarray],
    ) -> None:
        """Extend a stored series, on disk and live."""
        self.writer().append_days(series_name, axis, attributes)

    # -- writer callbacks --------------------------------------------------

    def _apply_region_append(
        self,
        refreshed: dict[str, tuple[np.ndarray, np.ndarray]],
        region: tuple[int, int, int, int],
    ) -> None:
        for name, grids in refreshed.items():
            layer = self.raster(name)
            if isinstance(layer, MemmapRasterLayer):
                layer._set_aggregates(grids)
        # The memmaps themselves already see the new bytes (shared
        # mapping of the same inode); only the mutation record is needed.
        self._record_mutation(region)

    def _apply_series_append(self, series: TimeSeries | DepthSeries) -> None:
        self._items[series.name] = series
        self._record_mutation(_EMPTY_REGION)

    def __repr__(self) -> str:
        return (
            f"DiskArchive({self.name!r}, root={str(self.root)!r}, "
            f"items={len(self)}, generation={self.generation})"
        )


def open_archive(path: str | Path) -> DiskArchive:
    """Open a store directory as a live :class:`DiskArchive`.

    Fails loudly (``ArchiveError``) on anything structurally wrong:
    missing/empty/truncated manifest, unsupported format version,
    unmappable band files, shape mismatches between manifest and data.
    """
    root = Path(path)
    manifest = read_manifest(root)
    archive = DiskArchive(root, manifest)
    leaf_size = archive.screen_leaf_size
    for record in manifest["items"]:
        entry = CatalogEntry(
            name=record["name"],
            modality=Modality(record["modality"]),
            description=record.get("description", ""),
            tags=dict(record.get("tags", {})),
            units=record.get("units", ""),
        )
        kind = record["kind"]
        if kind == "raster":
            layer = MemmapRasterLayer(
                record["name"],
                values_path(root, record),
                screen_leaf_size=leaf_size,
            )
            expected = (int(record["rows"]), int(record["cols"]))
            if layer.shape != expected:
                raise ArchiveError(
                    f"band {record['name']!r} at {values_path(root, record)} "
                    f"has shape {layer.shape}, manifest says {expected}"
                )
            layer._set_aggregates(_load_aggregates(root, record, leaf_size))
            archive.add(layer, entry)
        elif kind in ("time_series", "depth_series"):
            series_type = TimeSeries if kind == "time_series" else DepthSeries
            target = root / record["file"]
            with np.load(target) as bundle:
                series = series_type(
                    record["name"],
                    bundle["axis"],
                    {
                        attribute: bundle[f"attr/{attribute}"]
                        for attribute in record["attributes"]
                    },
                )
            archive.add(series, entry)
        elif kind == "table":
            target = root / record["file"]
            with np.load(target) as bundle:
                table = Table(
                    record["name"],
                    {
                        column: bundle[f"col/{column}"]
                        for column in record["columns"]
                    },
                )
            archive.add(table, entry)
        else:
            raise ArchiveError(
                f"store manifest at {root} has unknown item kind {kind!r}"
            )
    # Load-time add() calls bumped the in-memory generation; reset it to
    # the persisted one so it lines up with the manifest (and with any
    # other process reading the same store).
    archive._generation = int(manifest["generation"])
    archive._mutations.clear()
    return archive


def _load_aggregates(
    root: Path, record: dict, leaf_size: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """A band's leaf ``(mins, maxs)`` grids, checked against the leaf
    tiling of its grid at ``leaf_size``. A ``sums`` grid, which stores
    written before the screen dropped it still hold, is ignored."""
    target = aggregates_path(root, record)
    if not target.exists():
        return None
    try:
        with np.load(target) as bundle:
            grids = (np.array(bundle["mins"]), np.array(bundle["maxs"]))
    except (OSError, ValueError, KeyError) as error:
        raise ArchiveError(
            f"corrupt aggregates for band {record['name']!r} at {target}: "
            f"{error}"
        ) from None
    expected = tuple(
        finest_intervals(int(record[axis]), leaf_size)[0].size
        for axis in ("rows", "cols")
    )
    for name, grid in zip(("mins", "maxs"), grids):
        if grid.shape != expected:
            raise ArchiveError(
                f"aggregates for band {record['name']!r} at {target}: "
                f"{name} grid has shape {grid.shape}, the leaf tiling at "
                f"leaf size {leaf_size} needs {expected}"
            )
    return grids
