"""The model-based retrieval framework (paper Section 3).

This package is the paper's primary contribution: top-K model-based
retrieval that beats sequential model application by combining

1. **progressive model execution** — contribution-ordered model levels
   whose partial evaluations yield sound score intervals,
2. **progressive data representation** — tile-level aggregate envelopes
   (quadtrees over the raster stack) screened before any cell is read,
3. **model-specific pruning** — branch-and-bound against the running
   top-K, exact because every bound is sound.

* :mod:`repro.core.query` — query descriptions,
* :mod:`repro.core.screening` — multi-attribute tile screens,
* :mod:`repro.core.engine` — the retrieval engine (exhaustive baseline +
  the four-way progressive ablation the Section 4.2 model predicts),
* :mod:`repro.core.planner` — progressive plan construction and the
  contribution-vs-selectivity ordering the paper contrasts,
* :mod:`repro.core.results` — ranked results with pruning audit trails,
* :mod:`repro.core.workflow` — the Figure 5 hypothesize → fit → retrieve
  → revise → apply loop.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".engine": "RasterRetrievalEngine",
        ".multimodal": "MultiModalQuery RasterFactor RegionFactor",
        ".planner": "ExecutionPlan plan_query",
        ".query": "TopKQuery",
        ".results": "RetrievalResult ScoredLocation",
        ".screening": "TileScreen",
        ".series_engine": (
            "SeriesModel SeriesRetrievalEngine SpellCountModel "
            "ThresholdCountModel"
        ),
        ".workflow": "ModelingWorkflow WorkflowIteration",
    },
)
