"""Streaming ingest into the on-disk store.

:class:`ArchiveWriter` owns every mutation of a store directory:

* :meth:`ArchiveWriter.create` — serialize a whole in-memory
  :class:`~repro.data.archive.Archive`, band values streamed to raw
  ``.npy`` chunk files in row strips (never a second resident copy) and
  leaf (min, max) grids precomputed beside them;
* :meth:`ArchiveWriter.create_empty` — lay out an all-zero store to be
  filled by region appends, which is how bigger-than-RAM archives are
  ingested: the synthetic pipeline (:func:`ingest_synthetic`) is just
  ``create_empty`` + one :meth:`append_region` per row strip;
* :meth:`ArchiveWriter.append_region` — overwrite one rectangle of one
  or more bands in place and re-reduce **only** the leaf aggregates the
  rectangle touches (coarser levels are re-derived from the finest
  grid by the tile screen, so refreshing the finest grid is the whole
  incremental story on disk). The refreshed grids are handed to a
  bound archive's layers, and a tile screen over them copies the
  touched leaves from there instead of reducing the values again;
* :meth:`ArchiveWriter.append_days` — extend a time/depth series.

Every mutation bumps the manifest generation (manifest rewritten
atomically, last) and, when the writer is bound to an open
:class:`~repro.data.store.reader.DiskArchive`, records a region-scoped
mutation on it so serving caches can invalidate precisely.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.data.archive import Archive
from repro.data.catalog import CatalogEntry, Modality
from repro.data.raster import RasterLayer, RasterStack
from repro.data.series import DepthSeries, TimeSeries
from repro.data.store.format import (
    STORE_FORMAT_VERSION,
    aggregates_path,
    band_dir,
    read_manifest,
    values_path,
    write_manifest,
)
from repro.data.table import Table
from repro.exceptions import ArchiveError
from repro.pyramid.quadtree import (
    finest_grids,
    finest_intervals,
    refresh_finest_grids,
)

#: Row-strip height used by streaming writes and synthetic ingest. A
#: fixed constant (not derived from tile_size) so the synthetic
#: generator's per-strip RNG seeding is reproducible independent of
#: store knobs.
STRIP_ROWS = 1024


def _event_log():
    # Imported lazily: repro.data.store loads during ``repro`` package
    # init (via repro.models), before repro.telemetry — whose package
    # init imports repro.core — can be imported without a cycle.
    from repro.telemetry.events import global_event_log

    return global_event_log()


def _catalog_record(name: str, entry: CatalogEntry) -> dict:
    return {
        "name": name,
        "modality": entry.modality.value,
        "description": entry.description,
        "tags": entry.tags,
        "units": entry.units,
    }


class ArchiveWriter:
    """Mutator of one store directory (create, append, extend).

    Not thread-safe; one writer per store at a time. Construct through
    :meth:`create`, :meth:`create_empty`, or :meth:`open` — never
    directly.
    """

    def __init__(
        self, root: Path, manifest: dict, bound: Any | None = None
    ) -> None:
        self.root = Path(root)
        self._manifest = manifest
        #: The DiskArchive to notify on mutations (duck-typed to avoid
        #: a writer -> reader import cycle), or None for standalone
        #: ingest.
        self._bound = bound
        #: Per-band writable finest aggregate grids, loaded lazily.
        self._finest: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- properties --------------------------------------------------------

    @property
    def generation(self) -> int:
        return int(self._manifest["generation"])

    @property
    def tile_size(self) -> int:
        return int(self._manifest["tile_size"])

    @property
    def screen_leaf_size(self) -> int:
        return int(self._manifest["screen_leaf_size"])

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        archive: Archive,
        tile_size: int = 256,
        screen_leaf_size: int = 16,
    ) -> "ArchiveWriter":
        """Serialize ``archive`` into a new store directory at ``path``."""
        root = _new_root(path)
        records: list[dict] = []
        for index, name in enumerate(archive.names()):
            entry = archive.entry(name)
            item = archive.item(name)
            record = _catalog_record(name, entry)
            if isinstance(item, RasterLayer):
                rows, cols = item.shape
                record.update(
                    kind="raster", dir=f"bands/{index}", rows=rows, cols=cols
                )
                directory = band_dir(root, record)
                directory.mkdir(parents=True)
                _stream_values(
                    directory / "values.npy", item.values, tile_size
                )
                _write_aggregates(
                    aggregates_path(root, record),
                    *_finest_from_values(item.values, screen_leaf_size),
                )
            elif isinstance(item, (TimeSeries, DepthSeries)):
                record.update(
                    kind=(
                        "time_series"
                        if isinstance(item, TimeSeries)
                        else "depth_series"
                    ),
                    file=f"series/{index}.npz",
                    attributes=item.attribute_names,
                )
                target = root / record["file"]
                target.parent.mkdir(parents=True, exist_ok=True)
                arrays = {
                    f"attr/{attribute}": item.values(attribute)
                    for attribute in item.attribute_names
                }
                np.savez(target, axis=item.axis, **arrays)
            elif isinstance(item, Table):
                record.update(
                    kind="table",
                    file=f"tables/{index}.npz",
                    columns=item.column_names,
                )
                target = root / record["file"]
                target.parent.mkdir(parents=True, exist_ok=True)
                np.savez(
                    target,
                    **{
                        f"col/{column}": item.column(column)
                        for column in item.column_names
                    },
                )
            else:  # pragma: no cover - archive enforces its item types
                raise ArchiveError(
                    f"unserializable item type {type(item).__name__}"
                )
            records.append(record)
        manifest = _new_manifest(
            archive.name, tile_size, screen_leaf_size, records
        )
        # Manifest last: a crash anywhere above leaves a directory that
        # read_manifest rejects loudly instead of half-loading.
        write_manifest(root, manifest)
        return cls(root, manifest)

    @classmethod
    def create_empty(
        cls,
        path: str | Path,
        name: str,
        shape: tuple[int, int],
        bands: list[str],
        tile_size: int = 256,
        screen_leaf_size: int = 16,
    ) -> "ArchiveWriter":
        """Lay out an all-zero multi-band store to be region-appended.

        ``open_memmap`` creates the value files without touching their
        pages (sparse where the filesystem allows), so creating an
        empty 8192^2 store is instant; the zero aggregates written
        beside them are consistent with the zero-filled data.
        """
        rows, cols = int(shape[0]), int(shape[1])
        if rows <= 0 or cols <= 0:
            raise ArchiveError(f"store shape must be positive, got {shape}")
        if not bands:
            raise ArchiveError("store needs at least one band")
        if len(set(bands)) != len(bands):
            raise ArchiveError(f"duplicate band names in {bands}")
        root = _new_root(path)
        row_starts, _ = finest_intervals(rows, screen_leaf_size)
        col_starts, _ = finest_intervals(cols, screen_leaf_size)
        grid_shape = (row_starts.size, col_starts.size)
        records: list[dict] = []
        for index, band in enumerate(bands):
            if "/" in band:
                raise ArchiveError(
                    f"band name {band!r} must not contain '/'"
                )
            record = _catalog_record(band, _default_raster_entry(band))
            record.update(
                kind="raster", dir=f"bands/{index}", rows=rows, cols=cols
            )
            directory = band_dir(root, record)
            directory.mkdir(parents=True)
            out = np.lib.format.open_memmap(
                directory / "values.npy",
                mode="w+",
                dtype=np.float64,
                shape=(rows, cols),
            )
            out.flush()
            del out
            zeros = np.zeros(grid_shape)
            _write_aggregates(aggregates_path(root, record), zeros, zeros)
            records.append(record)
        manifest = _new_manifest(name, tile_size, screen_leaf_size, records)
        write_manifest(root, manifest)
        return cls(root, manifest)

    @classmethod
    def open(cls, path: str | Path, bound: Any | None = None) -> "ArchiveWriter":
        """Open an existing store for appends (manifest validated)."""
        root = Path(path)
        return cls(root, read_manifest(root), bound=bound)

    # -- mutation ----------------------------------------------------------

    def append_region(
        self,
        updates: dict[str, np.ndarray],
        region: tuple[int, int, int, int],
    ) -> None:
        """Overwrite ``region`` of the given bands and re-aggregate it.

        ``updates`` maps band names to arrays of exactly the region's
        shape. The write path per band: write the rectangle through an
        ``r+`` memmap (pages outside it are never touched), re-reduce
        the leaf aggregate entries the rectangle intersects in place
        (bit-identical to a from-scratch rebuild — see
        :func:`~repro.pyramid.quadtree.refresh_finest_grids`; the leaf
        intervals are memoized per grid, not re-derived per band),
        rewrite the band's aggregate file. One generation bump covers
        the whole call, and a bound archive gets one region-scoped
        mutation, after its layers have adopted the refreshed grids —
        the leaf grids a service's screen refresh copies.
        """
        if not updates:
            raise ArchiveError("append_region needs at least one band update")
        region = tuple(int(value) for value in region)
        row0, col0, row1, col1 = region
        if row0 >= row1 or col0 >= col1:
            raise ArchiveError(f"empty append region {region}")
        refreshed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, block in updates.items():
            record = self._raster_record(name)
            rows, cols = int(record["rows"]), int(record["cols"])
            if not (0 <= row0 and row1 <= rows and 0 <= col0 and col1 <= cols):
                raise ArchiveError(
                    f"append region {region} outside band {name!r} grid "
                    f"{rows}x{cols}"
                )
            block = np.asarray(block, dtype=np.float64)
            if block.shape != (row1 - row0, col1 - col0):
                raise ArchiveError(
                    f"update for band {name!r} has shape {block.shape}, "
                    f"region {region} needs "
                    f"{(row1 - row0, col1 - col0)}"
                )
            if not np.isfinite(block).all():
                # The memmap read path skips the whole-array finiteness
                # scan an in-memory RasterLayer performs, so the ingest
                # boundary is where bad values must be stopped.
                raise ArchiveError(
                    f"update for band {name!r} contains non-finite values"
                )
            mapped = np.load(values_path(self.root, record), mmap_mode="r+")
            mapped[row0:row1, col0:col1] = block
            mapped.flush()
            mins, maxs = self._load_finest(name, record)
            row_starts, row_lengths = finest_intervals(
                rows, self.screen_leaf_size
            )
            col_starts, col_lengths = finest_intervals(
                cols, self.screen_leaf_size
            )
            refresh_finest_grids(
                mapped,
                row_starts,
                row_lengths,
                col_starts,
                col_lengths,
                mins,
                maxs,
                region,
            )
            del mapped
            _write_aggregates(aggregates_path(self.root, record), mins, maxs)
            refreshed[name] = (mins, maxs)
        self._manifest["generation"] = self.generation + 1
        write_manifest(self.root, self._manifest)
        _event_log().emit(
            "store.append_region",
            region=list(region),
            bands=sorted(updates),
            generation=self.generation,
        )
        if self._bound is not None:
            self._bound._apply_region_append(refreshed, region)

    def append_days(
        self,
        series_name: str,
        axis: np.ndarray,
        attributes: dict[str, np.ndarray],
    ) -> None:
        """Extend a stored series with new samples (e.g. new days).

        The new axis must continue strictly increasing past the stored
        axis, and ``attributes`` must cover exactly the stored attribute
        names. The merged series is re-validated through the series
        constructor before anything is written. Raster caches are
        untouched: the bound archive records an *empty* dirty rectangle,
        so the generation moves without invalidating any spatial entry.
        """
        record = self._series_record(series_name)
        target = self.root / record["file"]
        with np.load(target) as bundle:
            old_axis = bundle["axis"]
            old_attributes = {
                attribute: bundle[f"attr/{attribute}"]
                for attribute in record["attributes"]
            }
        axis = np.asarray(axis, dtype=float)
        if axis.ndim != 1 or axis.size == 0:
            raise ArchiveError(
                f"append to series {series_name!r} needs a non-empty 1-D axis"
            )
        if axis[0] <= old_axis[-1]:
            raise ArchiveError(
                f"appended axis for series {series_name!r} must start after "
                f"the stored axis (stored ends at {old_axis[-1]}, append "
                f"starts at {axis[0]})"
            )
        expected = set(record["attributes"])
        if set(attributes) != expected:
            raise ArchiveError(
                f"append to series {series_name!r} must cover attributes "
                f"{sorted(expected)}, got {sorted(attributes)}"
            )
        merged_axis = np.concatenate([old_axis, axis])
        merged_attributes = {
            attribute: np.concatenate(
                [old_attributes[attribute], np.asarray(values, dtype=float)]
            )
            for attribute, values in attributes.items()
        }
        series_type = (
            TimeSeries if record["kind"] == "time_series" else DepthSeries
        )
        # Constructor validation (finite values, shape match) runs
        # before any bytes hit disk.
        series = series_type(series_name, merged_axis, merged_attributes)
        np.savez(
            target,
            axis=series.axis,
            **{
                f"attr/{attribute}": series.values(attribute)
                for attribute in series.attribute_names
            },
        )
        self._manifest["generation"] = self.generation + 1
        write_manifest(self.root, self._manifest)
        _event_log().emit(
            "store.append_days",
            series=series_name,
            appended=int(axis.size),
            generation=self.generation,
        )
        if self._bound is not None:
            self._bound._apply_series_append(series)

    # -- internals ---------------------------------------------------------

    def _raster_record(self, name: str) -> dict:
        for record in self._manifest["items"]:
            if record["name"] == name:
                if record["kind"] != "raster":
                    raise ArchiveError(
                        f"store item {name!r} is {record['kind']}, "
                        "expected raster"
                    )
                return record
        raise ArchiveError(f"store has no band {name!r}")

    def _series_record(self, name: str) -> dict:
        for record in self._manifest["items"]:
            if record["name"] == name:
                if record["kind"] not in ("time_series", "depth_series"):
                    raise ArchiveError(
                        f"store item {name!r} is {record['kind']}, "
                        "expected a series"
                    )
                return record
        raise ArchiveError(f"store has no series {name!r}")

    def _load_finest(
        self, name: str, record: dict
    ) -> tuple[np.ndarray, np.ndarray]:
        cached = self._finest.get(name)
        if cached is None:
            with np.load(aggregates_path(self.root, record)) as bundle:
                cached = (np.array(bundle["mins"]), np.array(bundle["maxs"]))
            self._finest[name] = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"ArchiveWriter({str(self.root)!r}, "
            f"generation={self.generation})"
        )


def _new_root(path: str | Path) -> Path:
    root = Path(path)
    if root.exists() and any(root.iterdir()):
        raise ArchiveError(
            f"refusing to create a store in non-empty directory {root}"
        )
    root.mkdir(parents=True, exist_ok=True)
    return root


def _new_manifest(
    name: str, tile_size: int, screen_leaf_size: int, records: list[dict]
) -> dict:
    if tile_size <= 0:
        raise ArchiveError(f"tile_size must be positive, got {tile_size}")
    if screen_leaf_size <= 0:
        raise ArchiveError(
            f"screen_leaf_size must be positive, got {screen_leaf_size}"
        )
    return {
        "format_version": STORE_FORMAT_VERSION,
        "archive_name": name,
        "tile_size": tile_size,
        "screen_leaf_size": screen_leaf_size,
        "generation": 0,
        "items": records,
    }


def _default_raster_entry(name: str) -> CatalogEntry:
    return CatalogEntry(name=name, modality=Modality.IMAGERY)


def _stream_values(
    target: Path, values: np.ndarray, tile_size: int
) -> None:
    """Write a band to a raw ``.npy`` in row strips (one pass, no copy)."""
    rows, _cols = values.shape
    out = np.lib.format.open_memmap(
        target, mode="w+", dtype=np.float64, shape=values.shape
    )
    step = max(int(tile_size), 1)
    for row0 in range(0, rows, step):
        out[row0 : row0 + step] = values[row0 : row0 + step]
    out.flush()
    del out


def _finest_from_values(
    values: np.ndarray, screen_leaf_size: int
) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = values.shape
    row_starts, _ = finest_intervals(rows, screen_leaf_size)
    col_starts, _ = finest_intervals(cols, screen_leaf_size)
    return finest_grids(values, row_starts, col_starts)


def _write_aggregates(target: Path, mins: np.ndarray, maxs: np.ndarray) -> None:
    np.savez(target, mins=mins, maxs=maxs)


# -- synthetic ingest (CLI, benchmarks, differential tests) ---------------


def _strip_values(
    seed: int, band: int, row0: int, n_rows: int, cols: int
) -> np.ndarray:
    """One reproducible row strip of one synthetic band.

    Seeded per (seed, band, strip start) so any strip regenerates
    independently — the in-memory differential twin
    (:func:`synthetic_stack`) produces bit-identical values without
    replaying the whole stream.
    """
    rng = np.random.default_rng([seed, band, row0])
    return rng.standard_normal((n_rows, cols))


def ingest_synthetic(
    path: str | Path,
    size: int,
    n_bands: int = 4,
    seed: int = 0,
    tile_size: int = 256,
    screen_leaf_size: int = 16,
) -> ArchiveWriter:
    """Stream a synthetic ``size x size`` multi-band store to ``path``.

    Bounded memory: the store is laid out empty, then filled one
    :data:`STRIP_ROWS`-row strip at a time through the ordinary
    :meth:`ArchiveWriter.append_region` path — so this doubles as an
    end-to-end exercise of incremental ingest, and never holds more
    than one strip of one band's worth of fresh values plus the leaf
    aggregate grids.
    """
    size = int(size)
    writer = ArchiveWriter.create_empty(
        path,
        name=f"synthetic-{size}x{size}",
        shape=(size, size),
        bands=[f"band{i}" for i in range(n_bands)],
        tile_size=tile_size,
        screen_leaf_size=screen_leaf_size,
    )
    n_strips = -(-size // STRIP_ROWS)
    _event_log().emit(
        "store.ingest_start",
        path=str(path),
        size=size,
        bands=n_bands,
        strips=n_strips,
    )
    for strip, row0 in enumerate(range(0, size, STRIP_ROWS), start=1):
        n_rows = min(STRIP_ROWS, size - row0)
        updates = {
            f"band{i}": _strip_values(seed, i, row0, n_rows, size)
            for i in range(n_bands)
        }
        writer.append_region(updates, (row0, 0, row0 + n_rows, size))
        _event_log().emit(
            "store.ingest_progress",
            severity="debug",
            strip=strip,
            strips=n_strips,
            rows_done=row0 + n_rows,
        )
    _event_log().emit(
        "store.ingest_complete", path=str(path), size=size
    )
    return writer


def synthetic_stack(size: int, n_bands: int = 4, seed: int = 0) -> RasterStack:
    """The in-memory twin of :func:`ingest_synthetic` (bit-identical).

    Differential tests and benchmarks compare memmap-served answers
    against an engine over this stack; fits-in-RAM sizes only.
    """
    size = int(size)
    stack = RasterStack()
    for band in range(n_bands):
        strips = [
            _strip_values(
                seed, band, row0, min(STRIP_ROWS, size - row0), size
            )
            for row0 in range(0, size, STRIP_ROWS)
        ]
        stack.add(
            RasterLayer(
                f"band{band}",
                strips[0] if len(strips) == 1 else np.concatenate(strips),
            )
        )
    return stack
