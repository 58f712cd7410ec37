"""Application scenarios from the paper's introduction.

Each module builds a synthetic archive for one of the paper's motivating
applications and exposes the domain model plus a high-level retrieval
entry point:

* :mod:`repro.apps.epidemiology` — Hantavirus Pulmonary Syndrome risk
  (linear model over TM bands + DEM; Figure 2/3 Bayesian house rule);
* :mod:`repro.apps.fireants` — fire-ants swarming forecast (Figure 1 FSM
  over a weather-station grid);
* :mod:`repro.apps.geology` — riverbed strata retrieval (Figure 4
  knowledge model over well logs, evaluated with SPROC);
* :mod:`repro.apps.agriculture` — precision-agriculture crop monitoring
  (progressive feature extraction + harvest-window logic);
* :mod:`repro.apps.credit` — FICO-style scorecard retrieval with the
  Onion index.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__, {}, submodules="agriculture credit epidemiology fireants geology"
)
