"""Multi-modal archive substrate.

The paper's archives hold imagery (Landsat bands, DEMs), station time
series (weather), depth series (well logs) and tabular records. This
package provides in-memory equivalents with an explicit, instrumented
access layer so "data points touched" is measurable:

* :mod:`repro.data.raster` — 2-D gridded layers and aligned stacks,
* :mod:`repro.data.series` — time series and depth series,
* :mod:`repro.data.table` — tabular record sets (credit records, tuples),
* :mod:`repro.data.catalog` — metadata catalog (modalities, provenance),
* :mod:`repro.data.archive` — the named collection tying it together,
* :mod:`repro.data.store` — the on-disk, memory-mapped persistent form
  (tiled band files + precomputed aggregates + incremental ingest).
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".archive": "Archive",
        ".catalog": "CatalogEntry Modality",
        ".io": "load_archive save_archive",
        ".raster": "RasterLayer RasterStack",
        ".series": "DepthSeries TimeSeries",
        ".store": "ArchiveWriter DiskArchive MemmapRasterLayer open_archive",
        ".table": "Table",
    },
)
