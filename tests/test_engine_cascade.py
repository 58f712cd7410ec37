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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    BatchQuerySpec,
    RasterRetrievalEngine,
    TopKHeap,
    _descending,
    _Scan,
    _ScanState,
)
from repro.core.query import TopKQuery
from repro.core.results import PruningAudit
from repro.data.raster import RasterLayer, RasterStack
from repro.embed.fusion import FusionSpec
from repro.embed.tiles import TileEmbeddings
from repro.metrics.counters import CostCounter
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem
from tests.oracles import COUNTER_FIELDS, exact_answers, exhaustive_fused
from tests.test_knowledge_ties import _model as _knowledge_model
from tests.test_knowledge_ties import rule
from tests.test_region_tables import _leaf_tiles

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
    """Exact answers of ``query`` (to depth ``k``), scored densely."""
    region = query.clip_region(SHAPE)
    if k is not None:
        query = dataclasses.replace(query, k=k)
    return exhaustive_fused(engine.stack, None, query, region)[0]


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


class TestFlatLeafCells:
    @given(
        rows=st.integers(4, 40),
        cols=st.integers(4, 40),
        leaf=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
        whole=st.booleans(),
    )
    @example(rows=32, cols=32, leaf=8, seed=0, whole=True)  # full leaves
    @example(rows=32, cols=32, leaf=8, seed=1, whole=False)  # clipped
    @example(rows=37, cols=43, leaf=4, seed=2, whole=True)  # ragged
    @settings(max_examples=80, deadline=None)
    def test_template_ids_are_the_row_major_cells(
        self, rows, cols, leaf, seed, whole
    ):
        """Leaf after leaf, row-major within each leaf clipped to the
        region: what a loop over the windows lists, id for id."""
        rng = np.random.default_rng(seed)
        stack = RasterStack({"a": RasterLayer("a", np.zeros((rows, cols)))})
        engine = RasterRetrievalEngine(stack, leaf_size=leaf)
        if whole:
            region = (0, 0, rows, cols)
        else:
            row0, row1 = sorted(rng.choice(rows + 1, 2, replace=False))
            col0, col1 = sorted(rng.choice(cols + 1, 2, replace=False))
            region = (int(row0), int(col0), int(row1), int(col1))
        scan = _Scan(engine, region, np.zeros(1, dtype=np.intp), "sound", 1)
        ids = np.flatnonzero(engine.screen.leaf)
        ids = rng.permutation(ids[scan.inside(ids)])[: rng.integers(1, 40)]
        flat, sizes = scan.leaf_cells(ids)
        windows = [
            (max(r0, region[0]), max(c0, region[1]),
             min(r1, region[2]), min(c1, region[3]))
            for r0, c0, r1, c1 in engine.screen.window[ids].tolist()
        ]
        assert flat.tolist() == [
            row * cols + col
            for r0, c0, r1, c1 in windows
            for row in range(r0, r1)
            for col in range(c0, c1)
        ]
        assert sizes.tolist() == [
            (r1 - r0) * (c1 - c0) for r0, c0, r1, c1 in windows
        ]


class TestOneSidedBounds:
    @given(
        seed=st.integers(0, 2**32 - 1),
        maximize=st.booleans(),
        n_terms=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_is_the_matching_side_bit_for_bit(
        self, seed, maximize, n_terms, make_noise_stack
    ):
        """Random linear models (any term subset and order, weights of
        both signs including ±0.0) over random node sets: the signed
        bound ``_uppers`` returns is the side of
        ``evaluate_interval_batch`` the query reads, byte for byte."""
        rng = np.random.default_rng(seed)
        stack = make_noise_stack(29, 35, 4, seed % 50)
        engine = RasterRetrievalEngine(stack, leaf_size=4)
        names = rng.permutation(stack.names)[:n_terms].tolist()
        weights = rng.choice([-0.0, 0.0, -1.0, 1.0, 3.0], n_terms) * (
            rng.normal(size=n_terms) * 10.0 ** rng.integers(-3, 4, n_terms)
        )
        model = LinearModel(
            dict(zip(names, weights.tolist())), intercept=rng.normal()
        )
        region = (0, 0, 29, 35)
        scan = _Scan(engine, region, np.zeros(1, dtype=np.intp), "sound", 1)

        def state_of(model, fusion=None):
            query = TopKQuery(model=model, k=3, maximize=maximize)
            spec = BatchQuerySpec(
                query, TopKHeap(3), CostCounter(), PruningAudit()
            )
            return _ScanState(spec, fusion=fusion)

        state = state_of(model)
        engine._seed(state, scan)
        assert state.table is not None
        ids = rng.integers(0, engine.screen.depth.size, rng.integers(1, 300))
        low, high = model.evaluate_interval_batch(
            *engine.screen.envelope_block(ids)
        )
        want = high if maximize else -low
        assert engine._uppers(state, ids, scan).tobytes() == want.tobytes()
        # Pseudo-envelopes have no one-sided rows; a fused search reads
        # the same rows as the plain one and blends its caps after.
        heuristic = _Scan(engine, region, scan.roots, "heuristic", 0.7)
        assert heuristic.one_sided(state) is None
        fused = scan.one_sided(state_of(model, fusion=object()))
        assert fused.keys() == scan.one_sided(state).keys()
        for name, row in fused.items():
            assert row.tobytes() == scan.one_sided(state)[name].tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(5, 40),
        cols=st.integers(5, 40),
        leaf=st.integers(2, 9),
        rules=st.none() | st.lists(rule, min_size=1, max_size=3),
        combination=st.sampled_from(["or", "weighted"]),
        t_conorm=st.sampled_from(["max", "sum"]),
        margin=st.none() | st.sampled_from([0.0, 0.4, 0.7, 1.0, 1.5]),
        alpha=st.none() | st.sampled_from([0.0, 0.3, 0.5, 0.9]),
        maximize=st.booleans(),
        roots=st.sampled_from(["root", "cover"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_table_is_its_interval_bound(
        self, seed, rows, cols, leaf, rules, combination, t_conorm, margin,
        alpha, maximize, roots, make_noise_stack,
    ):
        """Every search — linear (``rules is None``) or knowledge, sound
        or heuristic, plain or fused, whole-grid or regional, walked
        from the global root (clipping) or from the region's cover —
        seeds one table whose rows are the side of
        ``evaluate_interval_batch`` its query reads, over the scan's
        (pseudo-)envelopes, blended with brute-force cosine caps when
        fused, byte for byte, for any block of ids: a node's bound does
        not depend on the block it is computed in. ``_uppers`` charges
        each id one node visit per attribute, one partial evaluation
        and, fused, one blend; nodes the region cannot reach read
        ``+inf``."""
        rng = np.random.default_rng(seed)
        stack = make_noise_stack(rows, cols, 3, seed % 50)
        engine = RasterRetrievalEngine(stack, leaf_size=leaf)
        screen = engine.screen
        if rules is None:
            weights = rng.choice([-0.0, 0.0, -1.0, 1.0, 3.0], 3) * (
                rng.normal(size=3) * 10.0 ** rng.integers(-3, 4, 3)
            )
            model = LinearModel(
                dict(zip(stack.names, weights.tolist())),
                intercept=rng.normal(),
            )
        else:
            model = _knowledge_model(rules, combination, t_conorm)
        row0, col0 = int(rng.integers(rows)), int(rng.integers(cols))
        region = (
            row0, col0,
            int(rng.integers(row0, rows)) + 1, int(rng.integers(col0, cols)) + 1,
        )
        if rng.random() < 0.3:
            region = (0, 0, rows, cols)
        root_ids = (
            np.zeros(1, dtype=np.intp) if roots == "root"
            else screen.region_root_ids(region)
        )
        pruning = "sound" if margin is None else "heuristic"
        scan = _Scan(engine, region, root_ids, pruning, margin)
        fusion = None
        if alpha is not None:
            embeddings = TileEmbeddings.build(stack, screen, dim=4, seed=1)
            example = (int(rng.integers(rows)), int(rng.integers(cols)))
            fusion = FusionSpec.build(embeddings, example, alpha)
            cosines = embeddings.cosines(embeddings.tile_vector(example))
        query = TopKQuery(model=model, k=3, maximize=maximize)
        spec = BatchQuerySpec(query, TopKHeap(3), CostCounter(), PruningAudit())
        state = _ScanState(spec, fusion=fusion)
        engine._seed(state, scan)

        reachable = np.arange(screen.depth.size)[scan.nodes]
        outside = np.setdiff1d(np.arange(screen.depth.size), reachable)
        assert (state.table[outside] == np.inf).all()
        ids = rng.choice(reachable, rng.integers(1, 200))
        before = dataclasses.replace(spec.counter)
        uppers = engine._uppers(state, ids, scan)
        low, high = model.evaluate_interval_batch(
            *screen.envelope_block(ids, scan.margin)
        )
        bound = high if maximize else low
        if fusion is not None:
            extreme = np.max if maximize else np.min
            caps = [
                extreme(cosines[np.ix_(*_leaf_tiles(screen, window))])
                for window in screen.window[ids].tolist()
            ]
            bound = fusion.alpha * bound + fusion.beta * np.array(caps)
        want = bound if maximize else -bound
        assert uppers.tobytes() == want.tobytes()
        blends = 0 if fusion is None else len(ids)
        assert spec.counter.nodes_visited - before.nodes_visited == (
            3 * len(ids)
        )
        assert spec.counter.partial_evals - before.partial_evals == (
            len(ids) + blends
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
        assert exact_answers(result) == exhaustive_fused(
            stack, None, query, region
        )[0]
