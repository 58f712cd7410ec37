"""Experiment E5b — p_m on the clock: where the level cascade pays.

Paper claim (§3.1, §4.2): a progressive model saves the terms a search
does not read — p_m in the efficiency model E5 measures in tuples.
This sweep prices that saving in wall time: the tile search with the
level cascade (``use_model_levels=True``) against the same search
scoring its leaves densely (``False``), over 4-, 8-, 16- and 32-band
copies of E5's scene (each extra copy of a band is shifted, so no two
layers are equal) with flat and halving contribution profiles, plus
decays of 0.35 and 0.7 at 32 terms.

Each row prints the median over the models of each plan's per-query CPU
floor and their ratio. The service serves dense leaves (DESIGN §6,
"Where the cascade pays"); this is the sweep behind that choice. Both
plans must return the same cells; the timing is printed, never asserted.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.engine import RasterRetrievalEngine
from repro.core.query import TopKQuery
from repro.data.raster import RasterLayer, RasterStack
from repro.models.linear import LinearModel
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem

SHAPE = (512, 512)
MODELS = 8
PASSES = 3
PROFILES = [
    (terms, decay) for terms in (4, 8, 16, 32) for decay in (1.0, 0.5)
] + [(32, 0.35), (32, 0.7)]


@pytest.fixture(scope="module")
def bands():
    dem = generate_dem(SHAPE, seed=21)
    stack = generate_scene(SHAPE, seed=22, terrain=dem)
    stack.add(dem)
    return {name: stack[name].values for name in stack.names}


@pytest.fixture(scope="module")
def engines(bands):
    """The engine for a band count, building it on first use; only the
    most recent one is cached (a 32-band stack is the largest thing the
    sweep holds)."""
    built: dict[int, RasterRetrievalEngine] = {}

    def engine(terms: int) -> RasterRetrievalEngine:
        if terms not in built:
            built.clear()
            stack = RasterStack()
            for copy in range(terms // len(bands)):
                for name, values in bands.items():
                    shifted = np.roll(values, (37 * copy, 53 * copy), (0, 1))
                    stack.add(RasterLayer(f"{name}_{copy}", shifted))
            built[terms] = RasterRetrievalEngine(stack, leaf_size=16)
        return built[terms]

    return engine


def _models(engine, terms: int, decay: float) -> list[LinearModel]:
    """Models whose terms contribute ``decay ** rank`` (jittered ±20 %),
    ranks dealt to the layers at random."""
    rng = np.random.default_rng([terms, int(decay * 100)])
    ranges = engine.screen.attribute_ranges()
    names = engine.stack.names
    models = []
    for index in range(MODELS):
        order = rng.permutation(terms)
        jitter = rng.uniform(0.8, 1.2, terms)
        coefficients = {}
        for rank, layer in enumerate(order):
            low, high = ranges[names[layer]]
            coefficients[names[layer]] = decay**rank * jitter[rank] / (high - low)
        models.append(LinearModel(coefficients, name=f"sweep-{index}"))
    return models


@pytest.mark.parametrize("terms, decay", PROFILES)
def test_cascade_against_dense_leaves(
    benchmark, engines, report, terms, decay
):
    report.header(
        "p_m: the cascade skips terms; on the clock it pays only for "
        "long models with a light tail"
    )
    engine = engines(terms)
    floors = {True: [], False: []}
    for model in _models(engine, terms, decay):
        query = TopKQuery(model=model, k=10)
        best, cells = {}, {}
        for _ in range(PASSES):
            for levels in (True, False):
                start = time.thread_time()
                result = engine.progressive_top_k(query, use_model_levels=levels)
                seconds = time.thread_time() - start
                best[levels] = min(best.get(levels, seconds), seconds)
                cells[levels] = [(a.row, a.col) for a in result.answers]
        assert cells[True] == cells[False]
        for levels in floors:
            floors[levels].append(best[levels])
    cascade_ms = float(np.median(floors[True])) * 1e3
    dense_ms = float(np.median(floors[False])) * 1e3
    report.row(
        terms=terms,
        decay=decay,
        cascade_ms=cascade_ms,
        dense_ms=dense_ms,
        ratio=cascade_ms / dense_ms,
    )
    # Only so that ``--benchmark-only`` runs this row; the table above
    # is the measurement.
    benchmark.pedantic(
        engine.progressive_top_k, args=(query,),
        kwargs={"use_model_levels": False}, rounds=1, iterations=1,
    )
