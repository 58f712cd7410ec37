"""Model-specific indexing support (paper Section 3.2).

* :mod:`repro.index.onion` — the **Onion** convex-hull-layer index [11]
  for linear-optimization top-K queries, the paper's headline index
  (13,000x top-1 / 1,400x top-10 speedups on 3-attribute Gaussian data).
* :mod:`repro.index.hull` — convex-hull peeling utilities with robust
  degenerate-input handling.
* :mod:`repro.index.rtree` — an R*-tree; the paper's point of contrast
  ("optimized for spatial range queries ... sub-optimal for model-based
  queries"), equipped with best-first linear top-K so the contrast is
  measurable.
* :mod:`repro.index.gridfile` — a grid-file index (secondary baseline).
* :mod:`repro.index.csvd` — clustering + SVD similarity index (the [14]
  technique the paper contrasts model-based indexing with).
* :mod:`repro.index.scan` — the instrumented sequential-scan baseline
  every speedup is measured against.
"""

from repro.index.csvd import CSVDIndex
from repro.index.gridfile import GridFileIndex
from repro.index.hull import hull_layers, hull_vertices
from repro.index.onion import OnionIndex
from repro.index.rtree import RStarTree, Rect
from repro.index.scan import scan_top_k
from repro.index.vector import FlatIPIndex, ip_scores

__all__ = [
    "CSVDIndex",
    "FlatIPIndex",
    "GridFileIndex",
    "OnionIndex",
    "RStarTree",
    "Rect",
    "hull_layers",
    "hull_vertices",
    "ip_scores",
    "scan_top_k",
]
