"""Experiment E11 — fused model + similarity retrieval (paper §2, §3.2).

Paper claim: the archive serves model-based queries *and* multi-modal
content similarity ("retrieve regions similar to this example") over the
same tile hierarchy.

A query-by-example fused with a model (``alpha * model + (1 - alpha) *
cosine``) can be answered two ways: the exhaustive ``embed-scan``
strategy scores every cell and blends, or the progressive ``fused``
strategy branch-and-bounds the quadtree with blended interval bounds
(model envelopes fused with per-node cosine caps) and descends only
where the blended upper bound clears the running threshold.

We reproduce the *shape*: on a smooth 1024x1024 scene — the regime
where interval bounds are tight — the progressive path returns the
identical answers while examining **>= 3x fewer tuples** than the scan
(counted work, so the assertion is deterministic). Whether ``auto``
then picks the faster of the two in wall time is the serving system's
claim, not the paper's: ``routing.regret_ratio`` on the ``http_routed``
workload (BENCHMARK.json) owns it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.data.raster import RasterLayer, RasterStack
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel
from repro.service import RetrievalService

SIZE = 1024
K = 10
ALPHA = 0.5


def _answers(result) -> list[tuple[int, int, float]]:
    return [(a.row, a.col, a.score) for a in result.answers]


def _cells_examined(result, n_attrs: int) -> int:
    """Cells the strategy actually scored: the quadtree-based fused
    path tallies per-attribute data points, the scan tallies tuples."""
    counter = result.counter
    if counter.tuples_examined:
        return counter.tuples_examined
    return counter.data_points // n_attrs


@pytest.fixture(scope="module")
def workload():
    """A smooth scene plus one fused query.

    Broad Gaussian bumps on a gradient give the quadtree tight interval
    envelopes and spatially coherent tile embeddings — the structure
    both halves of the blended bound prune on. The example cell sits on
    the main bump, so high-similarity tiles and high-score tiles
    coincide the way a real query-by-example does.
    """
    rng = np.random.default_rng(7)
    axis = np.linspace(-2.0, 2.0, SIZE)
    xx, yy = np.meshgrid(axis, axis)
    bump = np.exp(-((xx - 0.6) ** 2 + (yy - 0.4) ** 2))
    ridge = np.exp(-((xx + 1.0) ** 2) * 2.0)
    stack = RasterStack()
    stack.add(
        RasterLayer(
            "elevation",
            bump + 0.3 * ridge + 0.02 * rng.normal(size=(SIZE, SIZE)),
        )
    )
    stack.add(
        RasterLayer(
            "moisture",
            0.5 * bump - 0.2 * yy + 0.02 * rng.normal(size=(SIZE, SIZE)),
        )
    )
    model = LinearModel({"elevation": 0.6, "moisture": 0.4}, name="e11_query")
    peak_row, peak_col = np.unravel_index(np.argmax(bump), bump.shape)
    query = TopKQuery(
        model=model, k=K, similar_to=(int(peak_row), int(peak_col)), alpha=ALPHA
    )
    service = RetrievalService(
        stack, leaf_size=16, cache_size=0, registry=MetricsRegistry()
    )
    service.embeddings()
    return service, query


class TestFusedRetrieval:
    def test_progressive_fusion_vs_embed_scan(self, benchmark, workload, report):
        service, query = workload
        report.header(
            "model + query-by-example similarity over one tile hierarchy: "
            "progressive fusion examines >= 3x fewer tuples than embed-then-scan"
        )
        fused = service.top_k(query, use_cache=False)
        scan = service.top_k(query, strategy="embed-scan", use_cache=False)
        auto = service.top_k(query, strategy="auto", use_cache=False)
        assert _answers(fused) == _answers(scan)
        assert _answers(auto) == _answers(scan)

        benchmark.pedantic(
            service.top_k, args=(query,), kwargs={"use_cache": False},
            rounds=3, iterations=1,
        )

        n_attrs = len(query.model.attributes)
        fused_tuples = _cells_examined(fused, n_attrs)
        scan_tuples = _cells_examined(scan, n_attrs)
        tuple_ratio = scan_tuples / fused_tuples
        report.row(
            grid=f"{SIZE}x{SIZE}",
            k=K,
            alpha=ALPHA,
            scan_tuples=scan_tuples,
            fused_tuples=fused_tuples,
            tuple_ratio=tuple_ratio,
            wall_ratio=scan.counter.wall_seconds / fused.counter.wall_seconds,
        )
        assert tuple_ratio >= 3.0
