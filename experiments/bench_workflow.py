"""Experiment F5 — the Figure 5 model-revision workflow.

Paper artifact: the hypothesize -> fit -> retrieve -> revise -> apply
loop, with the complaint that "substantial re-computation on the entire
data set is required even when there is a small revision of the model".

Reproduction: run the revision loop to convergence twice — retrieving
exhaustively (the status quo) and progressively (the framework) — and
price each iteration. The progressive loop makes small revisions cheap,
which is exactly the property the paper's framework exists to provide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import RasterRetrievalEngine
from repro.core.workflow import ModelingWorkflow
from repro.data.raster import RasterLayer
from repro.models.linear import hps_risk_model
from repro.synth.events import latent_risk_field
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem

SHAPE = (256, 256)
ATTRIBUTES = tuple(hps_risk_model().attributes)


@pytest.fixture(scope="module")
def engine():
    dem = generate_dem(SHAPE, seed=91)
    stack = generate_scene(SHAPE, seed=92, terrain=dem)
    stack.add(dem)
    truth = latent_risk_field(
        stack, hps_risk_model().coefficients, noise_std=0.15, seed=93
    )
    stack.add(RasterLayer("incidents", truth))
    return RasterRetrievalEngine(stack, leaf_size=16)


def _initial_cells(n=60, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (int(row), int(col))
        for row, col in zip(
            rng.integers(0, SHAPE[0], n), rng.integers(0, SHAPE[1], n)
        )
    ]


class TestWorkflowCost:
    def test_revision_loop_progressive_vs_exhaustive(
        self, benchmark, engine, report
    ):
        report.header("Figure 5 loop: per-iteration retrieval cost")
        runs = {}
        for progressive in (False, True):
            workflow = ModelingWorkflow(
                engine, "incidents", progressive=progressive
            )
            iterations = workflow.run(
                ATTRIBUTES, _initial_cells(), k=25, max_iterations=4,
                tolerance=0.0,
            )
            label = "progressive" if progressive else "exhaustive"
            runs[label] = workflow
            for iteration in iterations:
                report.row(
                    strategy=label,
                    iteration=iteration.iteration,
                    retrieval_work=iteration.cost.total_work,
                    coefficient_delta=(
                        iteration.coefficient_delta
                        if iteration.coefficient_delta != float("inf")
                        else -1.0
                    ),
                )
        ratio = (
            runs["exhaustive"].total_cost.total_work
            / runs["progressive"].total_cost.total_work
        )
        report.row(total_work_ratio=ratio)
        assert ratio > 3.0

        # Both loops land on the same model (retrieval is exact either way).
        final_progressive = runs["progressive"].iterations[-1].model
        final_exhaustive = runs["exhaustive"].iterations[-1].model
        for name in ATTRIBUTES:
            assert final_progressive.coefficients[name] == pytest.approx(
                final_exhaustive.coefficients[name], abs=1e-6
            )

        workflow = ModelingWorkflow(engine, "incidents", progressive=True)
        benchmark.pedantic(
            workflow.run,
            args=(ATTRIBUTES, _initial_cells()),
            kwargs={"k": 25, "max_iterations": 2, "tolerance": 0.0},
            rounds=2,
            iterations=1,
        )

    def test_small_revision_is_cheap(self, benchmark, engine, report):
        """The paper's pain point: after a small coefficient change, the
        progressive engine re-answers quickly because pruning still bites;
        the exhaustive engine pays full price every time."""
        from repro.core.query import TopKQuery
        from repro.models.linear import LinearModel

        report.header("cost of re-running after a small model revision")
        base = hps_risk_model()
        revised = LinearModel(
            {
                name: weight * (1.0 + 0.02 * i)
                for i, (name, weight) in enumerate(base.coefficients.items())
            },
            name="revised",
        )
        for label, model in (("original", base), ("revised", revised)):
            query = TopKQuery(model=model, k=25)
            exhaustive = engine.exhaustive_top_k(query)
            progressive = engine.progressive_top_k(query)
            report.row(
                model=label,
                exhaustive_work=exhaustive.counter.total_work,
                progressive_work=progressive.counter.total_work,
                ratio=exhaustive.counter.total_work
                / progressive.counter.total_work,
            )
            assert sorted(round(s, 9) for s in progressive.scores) == sorted(
                round(s, 9) for s in exhaustive.scores
            )
        benchmark(lambda: None)
