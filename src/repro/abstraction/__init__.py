"""Multiple abstraction levels (paper Section 3.1).

"Multiple abstraction level representations rely on the fact that raw
information can be processed into alternate formulations such as features
(texture, color, shape, etc.) and semantics that require lower data
volumes at the expense of fidelity."

* :mod:`repro.abstraction.features` — block feature extraction (moments,
  histograms, texture energy, gradients), with cheap and expensive tiers
  for the progressive-extraction speedup of [12] (experiment E3);
* :mod:`repro.abstraction.contours` — threshold-region/contour
  extraction ("very rapid identification of areas with low or high
  parameter values, but with a loss of accuracy");
* :mod:`repro.abstraction.semantics` — block classifiers over pyramid
  levels, the progressive classification of [13] (experiment E2).
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".contours": "threshold_regions",
        ".features": (
            "BlockFeatures cheap_features expensive_features "
            "extract_block_features"
        ),
        ".semantics": (
            "BlockClassifier ProgressiveClassifier "
            "ThresholdClassifier"
        ),
    },
)
