"""Multi-resolution data representations (paper Section 3.1).

"Multi-resolution representations, such as wavelets, can be used to
provide rough approximations of information at low resolutions (low data
volumes), with more detailed views at higher resolutions."

* :mod:`repro.pyramid.pyramid` — resolution pyramids over rasters with
  per-cell min/max/mean envelopes, the structure progressive engines
  descend through.
* :mod:`repro.pyramid.quadtree` — the quadtree tiling of a grid and its
  leaf (min, max) grids, from which the tile screen
  (:class:`repro.core.screening.TileScreen`) builds its sound envelope
  tree and the on-disk store precomputes its aggregates.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".pyramid": "PyramidLevel ResolutionPyramid",
        ".series_pyramid": "SeriesLevel SeriesPyramid",
    },
)
