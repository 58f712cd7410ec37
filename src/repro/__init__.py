"""repro — model-based multi-modal information retrieval from large archives.

A from-scratch reproduction of Li, Chang, Bergman and Smith, "Model-Based
Multi-modal Information Retrieval from Large Archives" (ICDCS 2000).

Public surface (see README for the tour):

* :mod:`repro.core` — the progressive retrieval framework (engine,
  planner, workflow);
* :mod:`repro.models` — the three model families (linear, finite state,
  Bayesian/knowledge);
* :mod:`repro.index` — model-specific indexes (Onion, R*-tree, CSVD,
  sequential scan);
* :mod:`repro.sproc` — fuzzy Cartesian composite-object retrieval;
* :mod:`repro.data` / :mod:`repro.pyramid` / :mod:`repro.abstraction` —
  the archive substrate and progressive data representations;
* :mod:`repro.synth` — synthetic data generators standing in for the
  paper's proprietary sources;
* :mod:`repro.metrics` — the Section 4 accuracy and efficiency metrics;
* :mod:`repro.apps` — the paper's application scenarios, packaged;
* :mod:`repro.service` — the concurrent serving layer (sharded search
  plus query caching) over the engine.

Every package surface, this one included, is lazy (:mod:`repro._lazy`):
a name is imported when it is first read.
"""

from repro._lazy import surface

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        "repro.core.engine": "RasterRetrievalEngine",
        "repro.core.query": "TopKQuery",
        "repro.core.results": "RetrievalResult",
        "repro.core.workflow": "ModelingWorkflow",
        "repro.data.archive": "Archive",
        "repro.index.onion": "OnionIndex",
        "repro.metrics.counters": "CostCounter",
        "repro.models.linear": "LinearModel fit_linear_model hps_risk_model",
        "repro.service.retrieval": "RetrievalService",
    },
)
