"""The flat leaf cascade, pinned.

The leaf routine reads a wave's cells by flat id, reads the heap's
threshold once per 256-cell block and orders level-1 candidates with an
unstable sort plus an index tie-break. None of that may change what a
query does: the answers, every integer ``CostCounter`` field and the
whole ``PruningAudit`` below were recorded before that rewrite, over a
scene whose rounded values tie heavily (a few hundred distinct values
per band), and every score is checked against the brute-force oracle.
Block membership is the invariant these counts depend on.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    BatchQuerySpec,
    RasterRetrievalEngine,
    TopKHeap,
    _descending,
)
from repro.core.query import TopKQuery
from repro.core.results import PruningAudit
from repro.data.raster import RasterLayer, RasterStack
from repro.metrics.counters import CostCounter
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem
from tests.oracles import COUNTER_FIELDS, exact_answers, exhaustive_cascade

SHAPE = (256, 256)
#: The paper's HPS weights with two signs flipped: level 1 (band 4)
#: ties on ~160 values, the full score rarely.
PAPER = LinearModel(
    {"tm_band4": 0.443, "tm_band5": 0.222, "tm_band7": -0.153,
     "elevation": -0.183}
)
#: Small integer weights: exact arithmetic, ties in the final score too.
INTEGER = LinearModel(
    {"tm_band4": 2.0, "tm_band5": -1.0, "tm_band7": 1.0, "elevation": -0.5},
    intercept=3.0,
)
CLIPPED = (5, 9, 133, 250)  # every edge off the 16-cell leaf grid

#: name -> (query, progressive_top_k knobs).
SCENARIOS = {
    "whole": (TopKQuery(model=PAPER, k=10), {}),
    "aligned": (TopKQuery(model=PAPER, k=10, region=(64, 32, 192, 160)), {}),
    "clipped": (TopKQuery(model=PAPER, k=10, region=CLIPPED), {}),
    "minimize": (
        TopKQuery(model=INTEGER, k=10, maximize=False, region=CLIPPED), {}
    ),
    "k1": (TopKQuery(model=INTEGER, k=1), {}),
    # 120 cells, k = 200: the region is the answer.
    "k_all": (TopKQuery(model=PAPER, k=200, region=(100, 100, 110, 112)), {}),
    "single": (TopKQuery(model=LinearModel({"tm_band5": -1.0}), k=10), {}),
    "no_tiles": (
        TopKQuery(model=PAPER, k=10, region=CLIPPED), {"use_tiles": False}
    ),
    "heuristic": (TopKQuery(model=PAPER, k=10), {"pruning": "heuristic"}),
}
#: The two members of one shared scan over ``CLIPPED``.
SHARED = (
    TopKQuery(model=PAPER, k=10, region=CLIPPED),
    TopKQuery(model=INTEGER, k=25, maximize=False, region=CLIPPED),
)

#: name -> (answer cells best first, or their count for ``k_all``;
#: integer counter fields in ``COUNTER_FIELDS`` order; the audit).
PINNED = {
    "whole": (
        [(145, 49), (148, 46), (155, 11), (133, 2), (133, 0), (155, 12),
         (132, 0), (144, 46), (158, 11), (147, 45)],
        (29154, 0, 29339, 59788, 0, 740),
        {"cells_entered_level": {1: 10752, 2: 10752, 3: 6922, 4: 728},
         "cells_pruned_at_level": {2: 3830, 3: 6194},
         "tiles_pruned": 94,
         "tiles_pruned_by_depth": {2: {"interval": 4, "threshold": 1},
                                   3: {"interval": 14},
                                   4: {"interval": 76, "threshold": 2}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 184,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 44, 4: 120}},
    ),
    "aligned": (
        [(145, 49), (148, 46), (144, 46), (147, 45), (145, 50), (145, 47),
         (144, 47), (149, 46), (146, 33), (146, 50)],
        (11886, 0, 11951, 24292, 0, 260),
        {"cells_entered_level": {1: 4352, 2: 4352, 3: 2619, 4: 563},
         "cells_pruned_at_level": {2: 1733, 3: 2056},
         "tiles_pruned": 28,
         "tiles_pruned_by_depth": {2: {"interval": 1, "region": 10},
                                   3: {"interval": 4, "region": 6},
                                   4: {"interval": 23}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 64,
         "tiles_visited_by_depth": {1: 4, 2: 6, 3: 14, 4: 40}},
    ),
    "clipped": (
        [(131, 10), (130, 9), (131, 9), (94, 45), (132, 10), (129, 9),
         (130, 10), (132, 11), (94, 46), (99, 13)],
        (13908, 0, 13999, 28544, 0, 364),
        {"cells_entered_level": {1: 4691, 2: 4691, 3: 3986, 4: 540},
         "cells_pruned_at_level": {2: 705, 3: 3446},
         "tiles_pruned": 35,
         "tiles_pruned_by_depth": {2: {"interval": 3, "region": 4},
                                   3: {"interval": 12,
                                       "region": 8,
                                       "threshold": 1},
                                   4: {"interval": 20, "region": 14}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 90,
         "tiles_visited_by_depth": {1: 4, 2: 12, 3: 28, 4: 46}},
    ),
    "minimize": (
        [(7, 239), (29, 247), (6, 234), (7, 236), (7, 149), (28, 247),
         (8, 239), (5, 239), (7, 234), (8, 238)],
        (15158, 0, 15275, 31252, 0, 468),
        {"cells_entered_level": {1: 5550, 2: 5550, 3: 3556, 4: 502},
         "cells_pruned_at_level": {2: 1994, 3: 3054},
         "tiles_pruned": 55,
         "tiles_pruned_by_depth": {2: {"interval": 2,
                                       "region": 4,
                                       "threshold": 1},
                                   3: {"interval": 12,
                                       "region": 4,
                                       "threshold": 3},
                                   4: {"interval": 41}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 116,
         "tiles_visited_by_depth": {1: 4, 2: 12, 3: 32, 4: 68}},
    ),
    "k1": (
        [(144, 1)],
        (10671, 0, 10836, 22662, 0, 660),
        {"cells_entered_level": {1: 4352, 2: 4352, 3: 1468, 4: 499},
         "cells_pruned_at_level": {2: 2884, 3: 969},
         "tiles_pruned": 97,
         "tiles_pruned_by_depth": {2: {"interval": 3},
                                   3: {"interval": 23, "threshold": 6},
                                   4: {"interval": 71, "threshold": 4}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 164,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 52, 4: 92}},
    ),
    "k_all": (
        120,
        (480, 0, 485, 1000, 0, 20),
        {"cells_entered_level": {1: 120, 2: 120, 3: 120, 4: 120},
         "cells_pruned_at_level": {},
         "tiles_pruned": 0,
         "tiles_pruned_by_depth": {1: {"region": 3},
                                   2: {"region": 3},
                                   3: {"region": 3},
                                   4: {"region": 3}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 4,
         "tiles_visited_by_depth": {1: 1, 2: 1, 3: 1, 4: 1}},
    ),
    "single": (
        [(157, 3), (168, 135), (169, 134), (169, 135), (169, 138),
         (172, 134), (158, 3), (167, 2), (169, 136), (169, 137)],
        (1536, 0, 1585, 3170, 0, 196),
        {"cells_entered_level": {1: 1536},
         "cells_pruned_at_level": {},
         "tiles_pruned": 19,
         "tiles_pruned_by_depth": {1: {"threshold": 1},
                                   2: {"interval": 4, "threshold": 5},
                                   3: {"interval": 4, "threshold": 3},
                                   4: {"interval": 11, "threshold": 3}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 48,
         "tiles_visited_by_depth": {1: 4, 2: 12, 3: 12, 4: 20}},
    ),
    "no_tiles": (
        [(131, 10), (130, 9), (131, 9), (94, 45), (132, 10), (129, 9),
         (130, 10), (132, 11), (94, 46), (99, 13)],
        (46674, 0, 46674, 93348, 0, 0),
        {"cells_entered_level": {1: 30848, 2: 10969, 3: 4287, 4: 570},
         "cells_pruned_at_level": {1: 19879, 2: 6682, 3: 3717},
         "tiles_pruned": 0,
         "tiles_pruned_by_depth": {},
         "tiles_roots_by_depth": {},
         "tiles_screened": 0,
         "tiles_visited_by_depth": {}},
    ),
    "heuristic": (
        [(145, 49), (148, 46), (155, 11), (133, 2), (133, 0), (155, 12),
         (132, 0), (144, 46), (158, 11), (147, 45)],
        (13054, 0, 13143, 26820, 0, 356),
        {"cells_entered_level": {1: 4352, 2: 4352, 3: 3664, 4: 686},
         "cells_pruned_at_level": {2: 688, 3: 2978},
         "tiles_pruned": 39,
         "tiles_pruned_by_depth": {1: {"threshold": 1},
                                   2: {"threshold": 6},
                                   3: {"interval": 9, "threshold": 3},
                                   4: {"interval": 30, "threshold": 1}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 88,
         "tiles_visited_by_depth": {1: 4, 2: 12, 3: 24, 4: 48}},
    ),
    "shared0": (
        [(131, 10), (130, 9), (131, 9), (94, 45), (132, 10), (129, 9),
         (130, 10), (132, 11), (94, 46), (99, 13)],
        (13895, 0, 14007, 28686, 0, 448),
        {"cells_entered_level": {1: 4691, 2: 4691, 3: 3996, 4: 517},
         "cells_pruned_at_level": {2: 695, 3: 3479},
         "tiles_pruned": 16,
         "tiles_pruned_by_depth": {3: {"interval": 5, "threshold": 8},
                                   4: {"interval": 11, "threshold": 55}},
         "tiles_roots_by_depth": {2: 2, 3: 10, 4: 72},
         "tiles_screened": 28,
         "tiles_visited_by_depth": {3: 8, 4: 20}},
    ),
    "shared1": (
        [(7, 239), (29, 247), (6, 234), (7, 236), (7, 149), (28, 247),
         (8, 239), (5, 239), (7, 234), (8, 238), (6, 238), (7, 238),
         (5, 233), (6, 233), (8, 149), (28, 249), (9, 239), (7, 240),
         (8, 234), (6, 239), (5, 235), (5, 238), (29, 248), (5, 231),
         (6, 230)],
        (20163, 0, 20283, 41286, 0, 480),
        {"cells_entered_level": {1: 7262, 2: 7262, 3: 4978, 4: 661},
         "cells_pruned_at_level": {2: 2284, 3: 4317},
         "tiles_pruned": 23,
         "tiles_pruned_by_depth": {3: {"interval": 5, "threshold": 6},
                                   4: {"interval": 18, "threshold": 48}},
         "tiles_roots_by_depth": {2: 2, 3: 10, 4: 72},
         "tiles_screened": 36,
         "tiles_visited_by_depth": {3: 8, 4: 28}},
    ),
}


@pytest.fixture(scope="module")
def engine():
    dem = generate_dem(SHAPE, seed=7)
    scene = generate_scene(SHAPE, seed=8, terrain=dem)
    scene.add(dem)
    stack = RasterStack({
        name: RasterLayer(name, np.round(scene[name].values))
        for name in scene.names
    })
    return RasterRetrievalEngine(stack, leaf_size=16)


def _oracle(engine, query, k=None):
    """Exact answers of ``query`` (to depth ``k``) under the cascade's
    arithmetic."""
    region = query.clip_region(SHAPE)
    if k is not None:
        query = dataclasses.replace(query, k=k)
    return exhaustive_cascade(
        engine.stack, engine.prepare_tile_query(query), query, region
    )


def _pinned(cells, counter, audit, expected):
    want_cells, want_counter, want_audit = expected
    assert cells == want_cells
    assert tuple(getattr(counter, name) for name in COUNTER_FIELDS) == (
        want_counter
    )
    assert dataclasses.asdict(audit) == want_audit


class TestPinnedCounts:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_answers_counters_and_audit(self, engine, name):
        query, knobs = SCENARIOS[name]
        result = engine.progressive_top_k(query, **knobs)
        answers = exact_answers(result)
        cells = [(row, col) for row, col, _ in answers]
        if name == "k_all":
            row0, col0, row1, col1 = query.region
            assert sorted(cells) == [
                (row, col)
                for row in range(row0, row1) for col in range(col0, col1)
            ]
            cells = len(cells)
        _pinned(cells, result.counter, result.audit, PINNED[name])
        if name == "heuristic":
            # Unsound bounds may miss answers; what they return is exact.
            everything = _oracle(engine, query, k=SHAPE[0] * SHAPE[1])
            exact = {(row, col): score for row, col, score in everything}
            assert all(exact[row, col] == s for row, col, s in answers)
        else:
            assert answers == _oracle(engine, query)

    def test_shared_scan_members(self, engine):
        specs = [
            BatchQuerySpec(
                query, TopKHeap(query.k), CostCounter(), PruningAudit(),
                progressive=engine.prepare_tile_query(query),
            )
            for query in SHARED
        ]
        engine.shared_scan_search(specs, CLIPPED)
        for index, (query, spec) in enumerate(zip(SHARED, specs)):
            sign = 1.0 if query.maximize else -1.0
            answers = [
                (row, col, sign * signed)
                for signed, (row, col) in spec.heap.ranked()
            ]
            _pinned(
                [(row, col) for row, col, _ in answers], spec.counter,
                spec.audit, PINNED[f"shared{index}"],
            )
            assert answers == _oracle(engine, query)


class TestDescendingOrder:
    @given(
        st.lists(
            st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0, float("inf")]),
            min_size=1, max_size=700,
        )
        | st.lists(
            st.floats(allow_nan=False), min_size=1, max_size=300
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_is_the_stable_descending_argsort(self, keys):
        keys = np.array(keys)
        assert np.array_equal(
            _descending(keys), np.argsort(-keys, kind="stable")
        )

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([4.0]),
            np.full(5000, 1.25),
            np.array([0.0, -0.0, 0.0, -0.0]),
            np.round(np.random.default_rng(0).normal(0, 3, 4096)),
        ],
        ids=["one", "all-equal", "signed-zeros", "rounded-normal"],
    )
    def test_edge_inputs(self, keys):
        assert np.array_equal(
            _descending(keys), np.argsort(-keys, kind="stable")
        )


class TestShardedHeapMeetsTheBlockThreshold:
    @given(
        seed=st.integers(0, 200),
        k=st.sampled_from([1, 3, 12, 70]),
        maximize=st.booleans(),
        inset=st.integers(0, 7),
    )
    @settings(max_examples=25, deadline=None)
    def test_two_shards_answer_like_the_oracle(
        self, seed, k, maximize, inset, make_tie_stack,
        make_random_linear_model,
    ):
        """Each shard reads the shared heap once per block; a threshold
        another shard raised meanwhile is newer than that read, so the
        block prunes less than it could, never more."""
        stack = make_tie_stack(96, 80, 3, seed)
        service = RetrievalService(
            stack, leaf_size=16, n_shards=2, cache_size=0,
            registry=MetricsRegistry(),
        )
        region = (inset, 2 * inset, 96 - inset, 80 - inset)
        query = TopKQuery(
            model=make_random_linear_model(stack, seed=seed), k=k,
            maximize=maximize, region=region,
        )
        result = service.top_k(query)
        assert exact_answers(result) == exhaustive_cascade(
            stack, service.engine.prepare_tile_query(query), query, region
        )
