"""The on-disk, memory-mapped archive store (ROADMAP: archives > RAM).

Everything else in :mod:`repro.data` is an in-memory numpy structure
rebuilt per process; this package is the persistent form. A store is a
*directory*:

``manifest.json``
    Versioned JSON catalog — archive name, per-item records, the tile
    size data was ingested in, the screen leaf size aggregates were
    built for, and a monotone generation counter.
``bands/<i>/values.npy``
    One raw :mod:`np.lib.format` array file per raster band, written
    streamed and loaded back **memory-mapped** — a query pages in only
    the tiles it actually visits, so serving RSS is bounded far below
    the raw array footprint.
``bands/<i>/aggregates.npz``
    Precomputed leaf-level (min, max) grids, so opening a store never
    scans the raster: the engine's
    :class:`~repro.core.screening.TileScreen` builds its tree from these
    tiny grids bit-identically to an in-memory build.
``series/<i>.npz`` / ``tables/<i>.npz``
    Small eager-loaded items (weather series, well logs, tables).

Ingest is incremental: :meth:`ArchiveWriter.append_region` rewrites one
rectangle of a band in place and re-reduces only the touched leaf
aggregates; :meth:`ArchiveWriter.append_days` extends a series. Both
bump the manifest generation and record a *region-scoped* mutation on
any bound :class:`DiskArchive`, which is what lets the serving layer
invalidate only the cache entries the dirty rectangle intersects.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".format": "STORE_FORMAT_VERSION read_manifest write_manifest",
        ".reader": "DiskArchive MemmapRasterLayer open_archive",
        ".writer": "ArchiveWriter ingest_synthetic synthetic_stack",
    },
)
