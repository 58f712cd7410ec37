"""Multi-resolution data representations (paper Section 3.1).

"Multi-resolution representations, such as wavelets, can be used to
provide rough approximations of information at low resolutions (low data
volumes), with more detailed views at higher resolutions."

* :mod:`repro.pyramid.wavelet` — 1-D/2-D Haar discrete wavelet transform
  with perfect reconstruction, the compressed-domain substrate of [13].
* :mod:`repro.pyramid.pyramid` — resolution pyramids over rasters with
  per-cell min/max/mean envelopes, the structure progressive engines
  descend through.
* :mod:`repro.pyramid.quadtree` — quadtree aggregates supporting sound
  bound queries over arbitrary tiles.
"""

from repro.pyramid.pyramid import PyramidLevel, ResolutionPyramid
from repro.pyramid.quadtree import QuadTree
from repro.pyramid.series_pyramid import SeriesLevel, SeriesPyramid
from repro.pyramid.streaming import ProgressiveStream, Refinement
from repro.pyramid.wavelet import (
    haar_decompose_1d,
    haar_decompose_2d,
    haar_reconstruct_1d,
    haar_reconstruct_2d,
)

__all__ = [
    "ProgressiveStream",
    "PyramidLevel",
    "QuadTree",
    "Refinement",
    "ResolutionPyramid",
    "SeriesLevel",
    "SeriesPyramid",
    "haar_decompose_1d",
    "haar_decompose_2d",
    "haar_reconstruct_1d",
    "haar_reconstruct_2d",
]
