"""The served tile search's work, pinned.

The service's default strategy bounds frontier nodes and scores dense
leaves; how it does either (one bound call per wave or one table per
query, a decode per offered cell or per kept one, a lock or none) must
not change what a query does. The answers, every integer
``CostCounter`` field and the whole ``PruningAudit`` below were recorded
before the per-query bound table, over a scene whose rounded values tie
heavily: solo ``top_k`` and ``top_k_batch`` members, whole-grid and
regional windows, both directions, k 1, 10 and 100. A batch member's
work is its solo search's, so both are held to the same pin; every
answer is also checked against the dense brute force.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.data.raster import RasterLayer, RasterStack
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem
from tests.oracles import COUNTER_FIELDS, exact_answers, exhaustive_fused

SHAPE = (256, 256)
#: The paper's HPS weights with two signs flipped, and small integer
#: weights whose final scores tie too.
PAPER = LinearModel(
    {"tm_band4": 0.443, "tm_band5": 0.222, "tm_band7": -0.153,
     "elevation": -0.183}
)
INTEGER = LinearModel(
    {"tm_band4": 2.0, "tm_band5": -1.0, "tm_band7": 1.0, "elevation": -0.5},
    intercept=3.0,
)
WINDOWS = {"whole": None, "regional": (5, 9, 133, 250)}


def _queries(window):
    """name -> query of one window: both directions, k 1/10/100."""
    return {
        f"{window}-{'max' if maximize else 'min'}-k{k}": TopKQuery(
            model=PAPER if maximize else INTEGER, k=k, maximize=maximize,
            region=WINDOWS[window],
        )
        for maximize in (True, False)
        for k in (1, 10, 100)
    }


#: name -> (sha256 prefix of the ``(row, col, score)`` answers; integer
#: counter fields in ``COUNTER_FIELDS`` order; the audit).
PINNED = {
    "regional-max-k1": (
        "1ca7b406a488b6fe",
        (15628, 3907, 108, 32120, 0, 432),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 14,
         "tiles_pruned_by_depth": {3: {"interval": 6, "threshold": 8},
                                   4: {"interval": 8, "threshold": 59}},
         "tiles_roots_by_depth": {2: 2, 3: 10, 4: 72},
         "tiles_screened": 24,
         "tiles_visited_by_depth": {3: 8, 4: 16}},
    ),
    "regional-max-k10": (
        "815c995d2a16734f",
        (18764, 4691, 112, 38424, 0, 448),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 16,
         "tiles_pruned_by_depth": {3: {"interval": 5, "threshold": 8},
                                   4: {"interval": 11, "threshold": 55}},
         "tiles_roots_by_depth": {2: 2, 3: 10, 4: 72},
         "tiles_screened": 28,
         "tiles_visited_by_depth": {3: 8, 4: 20}},
    ),
    "regional-max-k100": (
        "9f28d6d35bc8de6f",
        (21132, 5283, 116, 43192, 0, 464),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 16,
         "tiles_pruned_by_depth": {3: {"interval": 3, "threshold": 9},
                                   4: {"interval": 13, "threshold": 54}},
         "tiles_roots_by_depth": {2: 2, 3: 10, 4: 72},
         "tiles_screened": 32,
         "tiles_visited_by_depth": {3: 8, 4: 24}},
    ),
    "regional-min-k1": (
        "251e316b0c6a8907",
        (10232, 2558, 112, 21360, 0, 448),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 26,
         "tiles_pruned_by_depth": {3: {"interval": 7, "threshold": 6},
                                   4: {"interval": 19, "threshold": 59}},
         "tiles_roots_by_depth": {2: 2, 3: 10, 4: 72},
         "tiles_screened": 28,
         "tiles_visited_by_depth": {3: 8, 4: 20}},
    ),
    "regional-min-k10": (
        "8740c199a69cd981",
        (22200, 5550, 116, 45328, 0, 464),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 25,
         "tiles_pruned_by_depth": {3: {"interval": 6, "threshold": 6},
                                   4: {"interval": 19, "threshold": 50}},
         "tiles_roots_by_depth": {2: 2, 3: 10, 4: 72},
         "tiles_screened": 32,
         "tiles_visited_by_depth": {3: 8, 4: 24}},
    ),
    "regional-min-k100": (
        "7112dd923e604877",
        (37932, 9483, 124, 76856, 0, 496),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 22,
         "tiles_pruned_by_depth": {3: {"interval": 4, "threshold": 6},
                                   4: {"interval": 18, "threshold": 42}},
         "tiles_roots_by_depth": {2: 2, 3: 10, 4: 72},
         "tiles_screened": 40,
         "tiles_visited_by_depth": {3: 8, 4: 32}},
    ),
    "whole-max-k1": (
        "d446c551d0ed04be",
        (32768, 8192, 169, 66888, 0, 676),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 92,
         "tiles_pruned_by_depth": {2: {"interval": 4, "threshold": 1},
                                   3: {"interval": 18},
                                   4: {"interval": 70, "threshold": 2}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 168,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 44, 4: 104}},
    ),
    "whole-max-k10": (
        "ad965b3e27f28a87",
        (43008, 10752, 185, 87496, 0, 740),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 94,
         "tiles_pruned_by_depth": {2: {"interval": 4, "threshold": 1},
                                   3: {"interval": 14},
                                   4: {"interval": 76, "threshold": 2}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 184,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 44, 4: 120}},
    ),
    "whole-max-k100": (
        "8cfb1992ab2844c7",
        (58368, 14592, 193, 118280, 0, 772),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 84,
         "tiles_pruned_by_depth": {2: {"interval": 3, "threshold": 2},
                                   3: {"interval": 12},
                                   4: {"interval": 69, "threshold": 2}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 192,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 44, 4: 128}},
    ),
    "whole-min-k1": (
        "e4c17824a79e7a8d",
        (11264, 2816, 101, 23336, 0, 404),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 54,
         "tiles_pruned_by_depth": {2: {"interval": 3, "threshold": 5},
                                   3: {"interval": 15, "threshold": 5},
                                   4: {"interval": 36, "threshold": 1}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 100,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 32, 4: 48}},
    ),
    "whole-min-k10": (
        "f2dd1cdbd2b97f38",
        (18432, 4608, 133, 37928, 0, 532),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 75,
         "tiles_pruned_by_depth": {2: {"interval": 3, "threshold": 3},
                                   3: {"interval": 19, "threshold": 3},
                                   4: {"interval": 53, "threshold": 1}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 132,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 40, 4: 72}},
    ),
    "whole-min-k100": (
        "e02eba05a390b238",
        (37888, 9472, 141, 76904, 0, 564),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 64,
         "tiles_pruned_by_depth": {2: {"interval": 3, "threshold": 2},
                                   3: {"interval": 22, "threshold": 3},
                                   4: {"interval": 39}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 140,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 44, 4: 76}},
    ),
}


@pytest.fixture(scope="module")
def stack():
    dem = generate_dem(SHAPE, seed=7)
    scene = generate_scene(SHAPE, seed=8, terrain=dem)
    scene.add(dem)
    return RasterStack({
        name: RasterLayer(name, np.round(scene[name].values))
        for name in scene.names
    })


@pytest.fixture(scope="module")
def service(stack):
    return RetrievalService(
        stack, leaf_size=16, cache_size=0, registry=MetricsRegistry()
    )


def _observed(result):
    answers = exact_answers(result)
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()[:16]
    counter = tuple(getattr(result.counter, name) for name in COUNTER_FIELDS)
    return digest, counter, dataclasses.asdict(result.audit)


def _check(stack, query, result, name, label):
    assert result.strategy == label
    region = query.clip_region(SHAPE)
    assert exact_answers(result) == exhaustive_fused(
        stack, None, query, region
    )[0]
    assert _observed(result) == PINNED[name]


@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_solo_top_k(stack, service, window):
    for name, query in _queries(window).items():
        _check(
            stack, query, service.top_k(query), name,
            "data-progressive-sharded[1]",
        )


@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_batch_members_do_their_solo_work(stack, service, window):
    queries = _queries(window)
    results = service.top_k_batch(list(queries.values()))
    for (name, query), result in zip(queries.items(), results):
        _check(stack, query, result, name, "data-progressive-batch[6]")
