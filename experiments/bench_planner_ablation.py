"""Planner ablation — contribution vs selectivity term ordering (S3.1).

Paper claim: "query planning usually rearranges the execution order so
that operations resulting in maximal filtering will be executed earlier.
In contrast, progressive model generation will select those operations
that are most relevant to the final results to be executed first."

We build a scene where the two orderings disagree — a high-contribution
smooth layer vs a low-contribution blocky (highly tile-selective) layer —
and measure the level-cascade work under each ordering. Contribution
ordering wins for model-based top-K because early partial sums carry most
of the score, so tail bounds tighten fastest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import RasterRetrievalEngine
from repro.core.planner import plan_query
from repro.core.query import TopKQuery
from repro.core.screening import TileScreen
from repro.data.raster import RasterLayer, RasterStack
from repro.models.linear import LinearModel

SHAPE = (256, 256)


def _answers(result):
    """Exact ``(row, col, score)`` answers, best first: a term order
    changes the cascade's work, never its answers or their scores."""
    return [(a.row, a.col, a.score) for a in result.answers]


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(111)
    stack = RasterStack()
    # Dominant smooth field: carries 10x the score contribution.
    from repro.synth.landsat import generate_band

    dominant = generate_band(
        SHAPE, seed=112, name="dominant", mean=50.0, std=20.0, smoothness=3.0
    )
    stack.add(dominant)
    # Blocky minor field: tiny per-tile envelopes (classically "selective").
    blocky = np.repeat(
        np.repeat(rng.uniform(0, 10, (16, 16)), 16, 0), 16, 1
    )
    stack.add(RasterLayer("blocky_minor", blocky))
    # A third mid-contribution noise field.
    noise = generate_band(
        SHAPE, seed=113, name="noise_mid", mean=20.0, std=8.0, smoothness=1.5
    )
    stack.add(noise)
    return stack


@pytest.fixture(scope="module")
def model():
    return LinearModel(
        {"dominant": 1.0, "blocky_minor": 0.3, "noise_mid": 0.5},
        name="ablation",
    )


class TestPlannerAblation:
    def test_orderings_disagree_and_contribution_wins(
        self, benchmark, scene, model, report
    ):
        report.header("contribution-first vs selectivity-first term order")
        screen = TileScreen(scene, leaf_size=16)
        query = TopKQuery(model=model, k=10)
        engine = RasterRetrievalEngine(scene, leaf_size=16)
        baseline = engine.exhaustive_top_k(query)

        contribution = plan_query(query, screen, ordering="contribution")
        selectivity = plan_query(query, screen, ordering="selectivity")
        assert contribution.term_order != selectivity.term_order
        report.row(
            contribution_order=" > ".join(contribution.term_order),
            selectivity_order=" > ".join(selectivity.term_order),
        )

        works = {}
        for plan in (contribution, selectivity):
            result = engine.progressive_top_k(
                query,
                use_tiles=False,  # isolate the cascade-ordering effect
                term_order=plan.term_order,
            )
            assert _answers(result) == _answers(baseline)
            works[plan.ordering] = result.counter.total_work
            report.row(ordering=plan.ordering, cascade_work=works[plan.ordering])

        report.row(
            contribution_advantage=works["selectivity"] / works["contribution"]
        )
        assert works["contribution"] < works["selectivity"]
        benchmark(
            engine.progressive_top_k, query, False, True,
            contribution.term_order,
        )

    def test_worst_order_still_exact_but_expensive(
        self, benchmark, scene, model, report
    ):
        """Reversed contribution order: exactness survives, work suffers —
        ordering is purely a performance lever."""
        report.header("reversed (worst) ordering sanity check")
        screen = TileScreen(scene, leaf_size=16)
        query = TopKQuery(model=model, k=10)
        engine = RasterRetrievalEngine(scene, leaf_size=16)
        baseline = engine.exhaustive_top_k(query)

        best_plan = plan_query(query, screen, ordering="contribution")
        worst_order = tuple(reversed(best_plan.term_order))
        best = engine.progressive_top_k(
            query, use_tiles=False, term_order=best_plan.term_order
        )
        worst = engine.progressive_top_k(
            query, use_tiles=False, term_order=worst_order
        )
        assert _answers(worst) == _answers(baseline)
        report.row(
            best_work=best.counter.total_work,
            worst_work=worst.counter.total_work,
            penalty=worst.counter.total_work / best.counter.total_work,
        )
        assert worst.counter.total_work >= best.counter.total_work
        benchmark(lambda: None)
