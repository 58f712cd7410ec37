"""Model-specific indexing support (paper Section 3.2).

* :mod:`repro.index.onion` — the **Onion** convex-hull-layer index [11]
  for linear-optimization top-K queries, the paper's headline index
  (13,000x top-1 / 1,400x top-10 speedups on 3-attribute Gaussian data).
* :mod:`repro.index.onion_cache` — the serving layer's built Onion
  indexes over raster windows: cached per (region, attributes) and
  archive generation, persisted as sidecar files beside a disk store.
* :mod:`repro.index.hull` — convex-hull peeling utilities with robust
  degenerate-input handling.
* :mod:`repro.index.rtree` — an R*-tree; the paper's point of contrast
  ("optimized for spatial range queries ... sub-optimal for model-based
  queries"), equipped with best-first linear top-K so the contrast is
  measurable.
* :mod:`repro.index.csvd` — clustering + SVD similarity index (the [14]
  technique the paper contrasts model-based indexing with).
* :mod:`repro.index.scan` — the instrumented sequential-scan baseline
  every speedup is measured against.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".csvd": "CSVDIndex",
        ".hull": "hull_layers hull_vertices",
        ".onion": "OnionIndex",
        ".onion_cache": "BuiltOnion OnionIndexCache",
        ".rtree": "RStarTree Rect",
        ".scan": "scan_top_k",
        ".vector": "FlatIPIndex ip_scores",
    },
)
