"""Experiment E2 — progressive classification speedup (Section 3.1, [13]).

Paper claim: "a 30-times speedup can be achieved through applying
progressive classification on progressively represented data".

We classify synthetic imagery into high/low-risk regions through a
resolution pyramid: coarse cells whose min/max envelope falls on one side
of the class boundary label their whole footprint; only boundary-
straddling cells descend. Labels are *identical* to full-resolution
classification; the work ratio is the measurement. Smoothness (spatial
autocorrelation) is the knob — the paper's satellite scenes are at the
smooth end, where the ratio reaches the quoted ~30x.
"""

from __future__ import annotations

import numpy as np

from repro.abstraction.semantics import ProgressiveClassifier, ThresholdClassifier
from repro.metrics.counters import CostCounter
from repro.pyramid.pyramid import ResolutionPyramid
from repro.synth.landsat import generate_band

SHAPE = (512, 512)


def _ratio(smoothness: float, n_thresholds: int = 1) -> tuple[float, float]:
    band = generate_band(SHAPE, seed=5, smoothness=smoothness)
    thresholds = list(np.linspace(70.0, 100.0, n_thresholds + 1)[:-1] + 5.0)
    classifier = ThresholdClassifier(thresholds)
    pyramid = ResolutionPyramid(band, n_levels=7)
    progressive = ProgressiveClassifier(pyramid, classifier)

    full_counter, progressive_counter = CostCounter(), CostCounter()
    full = progressive.classify_full(full_counter)
    labels, audit = progressive.classify(progressive_counter)
    assert np.array_equal(full, labels), "progressive must stay exact"
    return (
        full_counter.total_work / progressive_counter.total_work,
        audit.coarse_fraction,
    )


class TestProgressiveClassification:
    def test_smoothness_sweep_reaches_paper_band(self, benchmark, report):
        report.header("~30x speedup for progressive classification [13]")
        ratios = []
        for smoothness in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0):
            ratio, coarse_fraction = _ratio(smoothness)
            ratios.append(ratio)
            report.row(
                smoothness=smoothness,
                work_ratio=ratio,
                coarse_fraction=coarse_fraction,
            )
        assert ratios == sorted(ratios), "smoother imagery must prune more"
        assert ratios[-1] > 25.0, "smooth regime must reach the ~30x claim"

        band = generate_band(SHAPE, seed=5, smoothness=3.5)
        pyramid = ResolutionPyramid(band, n_levels=7)
        progressive = ProgressiveClassifier(
            pyramid, ThresholdClassifier([85.0])
        )
        benchmark(progressive.classify)

    def test_more_classes_cost_more(self, benchmark, report):
        report.header("class-boundary density controls the attainable ratio")
        for n_thresholds in (1, 2, 3):
            ratio, coarse_fraction = _ratio(3.0, n_thresholds)
            report.row(
                classes=n_thresholds + 1,
                work_ratio=ratio,
                coarse_fraction=coarse_fraction,
            )
        benchmark(lambda: None)

    def test_wall_clock_full_resolution_baseline(self, benchmark):
        band = generate_band(SHAPE, seed=5, smoothness=3.5)
        pyramid = ResolutionPyramid(band, n_levels=7)
        progressive = ProgressiveClassifier(
            pyramid, ThresholdClassifier([85.0])
        )
        benchmark(progressive.classify_full)
