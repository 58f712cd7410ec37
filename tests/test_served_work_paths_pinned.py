"""The served tile search's work on the paths the whole-grid pin skips.

``test_served_work_pinned.py`` covers whole grids and one unaligned
window, whose edge leaves overhang the region and are clipped. This
sibling pins, in the same format (answers sha256, every integer
``CostCounter`` field, the whole ``PruningAudit``), the shapes whose
leaves are read without clipping or are not all one size:

* leaf-aligned regional windows (the benchmark's Zipf and ingest reads),
  solo ``top_k`` and the six members of one ``top_k_batch``;
* a ragged grid (250², leaf 16), where full leaves and narrower edge
  leaves share a wave, whole-grid and an aligned window at the edge;
* a fused (``similar_to``) query, whose bounds and leaf scores blend
  embedding cosines per node.

The values were recorded before the search step read node structure
from per-node lists and full leaves from one template; every answer is
also checked against the dense brute force.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.data.raster import RasterLayer, RasterStack
from repro.metrics.registry import MetricsRegistry
from repro.service import RetrievalService
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem
from tests.oracles import COUNTER_FIELDS, exact_answers, exhaustive_fused
from tests.test_served_work_pinned import INTEGER, PAPER

#: name -> (grid shape, region or None for the whole grid).
WINDOWS = {
    "aligned": ((256, 256), (32, 48, 160, 240)),
    "corner": ((256, 256), (128, 0, 256, 128)),
    "ragged": ((250, 250), None),
    "ragged-edge": ((250, 250), (156, 93, 250, 250)),
}
FUSED = {"similar_to": (40, 200), "alpha": 0.5}


def _queries(window):
    """name -> query of one window: both directions, k 1/10/100."""
    return {
        f"{window}-{'max' if maximize else 'min'}-k{k}": TopKQuery(
            model=PAPER if maximize else INTEGER, k=k, maximize=maximize,
            region=WINDOWS[window][1],
        )
        for maximize in (True, False)
        for k in (1, 10, 100)
    }


#: name -> (sha256 prefix of the ``(row, col, score)`` answers; integer
#: counter fields in ``COUNTER_FIELDS`` order; the audit).
PINNED = {
    "aligned-fused": (
        "7f5fb1edd1e053ae",
        (7168, 1792, 363, 19003, 0, 200),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 16,
         "tiles_pruned_by_depth": {3: {"interval": 8, "threshold": 9},
                                   4: {"interval": 8, "threshold": 13}},
         "tiles_roots_by_depth": {2: 2, 3: 12, 4: 16},
         "tiles_screened": 20,
         "tiles_visited_by_depth": {3: 8, 4: 12}},
    ),
    "aligned-max-k1": (
        "d446c551d0ed04be",
        (3072, 768, 42, 6480, 0, 168),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 11,
         "tiles_pruned_by_depth": {2: {"threshold": 1},
                                   3: {"interval": 4, "threshold": 10},
                                   4: {"interval": 7, "threshold": 14}},
         "tiles_roots_by_depth": {2: 2, 3: 12, 4: 16},
         "tiles_screened": 12,
         "tiles_visited_by_depth": {3: 4, 4: 8}},
    ),
    "aligned-max-k10": (
        "b916d275cae59272",
        (7168, 1792, 50, 14736, 0, 200),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 16,
         "tiles_pruned_by_depth": {3: {"interval": 8, "threshold": 9},
                                   4: {"interval": 8, "threshold": 13}},
         "tiles_roots_by_depth": {2: 2, 3: 12, 4: 16},
         "tiles_screened": 20,
         "tiles_visited_by_depth": {3: 8, 4: 12}},
    ),
    "aligned-max-k100": (
        "4df3b11e663014b4",
        (14336, 3584, 70, 29232, 0, 280),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 29,
         "tiles_pruned_by_depth": {3: {"interval": 5, "threshold": 7},
                                   4: {"interval": 24, "threshold": 10}},
         "tiles_roots_by_depth": {2: 2, 3: 12, 4: 16},
         "tiles_screened": 40,
         "tiles_visited_by_depth": {3: 8, 4: 32}},
    ),
    "aligned-min-k1": (
        "ef2e64b8a1e9db1a",
        (22528, 5632, 86, 45744, 0, 344),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 31,
         "tiles_pruned_by_depth": {3: {"threshold": 8},
                                   4: {"interval": 31, "threshold": 11}},
         "tiles_roots_by_depth": {2: 2, 3: 12, 4: 16},
         "tiles_screened": 56,
         "tiles_visited_by_depth": {3: 8, 4: 48}},
    ),
    "aligned-min-k10": (
        "53c1f7cd9c0bf79b",
        (28672, 7168, 90, 58064, 0, 360),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 27,
         "tiles_pruned_by_depth": {3: {"threshold": 7},
                                   4: {"interval": 27, "threshold": 13}},
         "tiles_roots_by_depth": {2: 2, 3: 12, 4: 16},
         "tiles_screened": 60,
         "tiles_visited_by_depth": {3: 8, 4: 52}},
    ),
    "aligned-min-k100": (
        "95bc572afcd7a512",
        (38912, 9728, 102, 78640, 0, 408),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 23,
         "tiles_pruned_by_depth": {3: {"threshold": 4},
                                   4: {"interval": 23, "threshold": 19}},
         "tiles_roots_by_depth": {2: 2, 3: 12, 4: 16},
         "tiles_screened": 72,
         "tiles_visited_by_depth": {3: 8, 4: 64}},
    ),
    "corner-max-k1": (
        "d446c551d0ed04be",
        (15360, 3840, 57, 31176, 0, 228),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 26,
         "tiles_pruned_by_depth": {3: {"interval": 7},
                                   4: {"interval": 19, "threshold": 2}},
         "tiles_roots_by_depth": {1: 1},
         "tiles_screened": 56,
         "tiles_visited_by_depth": {2: 4, 3: 16, 4: 36}},
    ),
    "corner-max-k10": (
        "ad965b3e27f28a87",
        (17408, 4352, 69, 35368, 0, 276),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 33,
         "tiles_pruned_by_depth": {3: {"interval": 4},
                                   4: {"interval": 29, "threshold": 2}},
         "tiles_roots_by_depth": {1: 1},
         "tiles_screened": 68,
         "tiles_visited_by_depth": {2: 4, 3: 16, 4: 48}},
    ),
    "corner-max-k100": (
        "1e6ab46c6e468b18",
        (23552, 5888, 77, 47720, 0, 308),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 34,
         "tiles_pruned_by_depth": {3: {"interval": 2},
                                   4: {"interval": 32, "threshold": 1}},
         "tiles_roots_by_depth": {1: 1},
         "tiles_screened": 76,
         "tiles_visited_by_depth": {2: 4, 3: 16, 4: 56}},
    ),
    "corner-min-k1": (
        "94fb635bd3b40c65",
        (8192, 2048, 49, 16776, 0, 196),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 26,
         "tiles_pruned_by_depth": {3: {"interval": 6, "threshold": 3},
                                   4: {"interval": 20}},
         "tiles_roots_by_depth": {1: 1},
         "tiles_screened": 48,
         "tiles_visited_by_depth": {2: 4, 3: 16, 4: 28}},
    ),
    "corner-min-k10": (
        "f63c363876a11e30",
        (14336, 3584, 65, 29192, 0, 260),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 35,
         "tiles_pruned_by_depth": {3: {"interval": 5}, 4: {"interval": 30}},
         "tiles_roots_by_depth": {1: 1},
         "tiles_screened": 64,
         "tiles_visited_by_depth": {2: 4, 3: 16, 4: 44}},
    ),
    "corner-min-k100": (
        "8c116e7ae2e76b86",
        (21504, 5376, 73, 43592, 0, 292),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 34,
         "tiles_pruned_by_depth": {3: {"interval": 3}, 4: {"interval": 31}},
         "tiles_roots_by_depth": {1: 1},
         "tiles_screened": 72,
         "tiles_visited_by_depth": {2: 4, 3: 16, 4: 52}},
    ),
    "ragged-edge-max-k1": (
        "b6c3897b0ff8b3dc",
        (15568, 3892, 73, 31720, 0, 292),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 38,
         "tiles_pruned_by_depth": {3: {"threshold": 1},
                                   4: {"interval": 38, "threshold": 2}},
         "tiles_roots_by_depth": {2: 2, 3: 7},
         "tiles_screened": 64,
         "tiles_visited_by_depth": {3: 8, 4: 56}},
    ),
    "ragged-edge-max-k10": (
        "da4b7a9cda5c198f",
        (21392, 5348, 77, 43400, 0, 308),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 36,
         "tiles_pruned_by_depth": {4: {"interval": 36, "threshold": 2}},
         "tiles_roots_by_depth": {2: 2, 3: 7},
         "tiles_screened": 68,
         "tiles_visited_by_depth": {3: 8, 4: 60}},
    ),
    "ragged-edge-max-k100": (
        "be0ef554dd9b1a9f",
        (43160, 10790, 77, 86936, 0, 308),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 15,
         "tiles_pruned_by_depth": {4: {"interval": 15, "threshold": 1}},
         "tiles_roots_by_depth": {2: 2, 3: 7},
         "tiles_screened": 68,
         "tiles_visited_by_depth": {3: 8, 4: 60}},
    ),
    "ragged-edge-min-k1": (
        "38938cbe6fe7a7c5",
        (6912, 1728, 57, 14280, 0, 228),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 20,
         "tiles_pruned_by_depth": {3: {"threshold": 5},
                                   4: {"interval": 20, "threshold": 13}},
         "tiles_roots_by_depth": {2: 2, 3: 7},
         "tiles_screened": 48,
         "tiles_visited_by_depth": {3: 8, 4: 40}},
    ),
    "ragged-edge-min-k10": (
        "b9a0165d52fa5103",
        (27008, 6752, 73, 54600, 0, 292),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 28,
         "tiles_pruned_by_depth": {3: {"threshold": 1},
                                   4: {"interval": 28, "threshold": 1}},
         "tiles_roots_by_depth": {2: 2, 3: 7},
         "tiles_screened": 64,
         "tiles_visited_by_depth": {3: 8, 4: 56}},
    ),
    "ragged-edge-min-k100": (
        "1c35ff94a7c982f0",
        (40836, 10209, 77, 82288, 0, 308),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 19,
         "tiles_pruned_by_depth": {4: {"interval": 19}},
         "tiles_roots_by_depth": {2: 2, 3: 7},
         "tiles_screened": 68,
         "tiles_visited_by_depth": {3: 8, 4: 60}},
    ),
    "ragged-fused": (
        "3f59d0882e412d63",
        (34592, 8648, 662, 75423, 0, 740),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 99,
         "tiles_pruned_by_depth": {2: {"interval": 4, "threshold": 1},
                                   3: {"interval": 12, "threshold": 2},
                                   4: {"interval": 83, "threshold": 1}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 184,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 44, 4: 120}},
    ),
    "ragged-max-k1": (
        "d446c551d0ed04be",
        (22224, 5556, 157, 45704, 0, 628),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 89,
         "tiles_pruned_by_depth": {2: {"interval": 4, "threshold": 1},
                                   3: {"interval": 19, "threshold": 2},
                                   4: {"interval": 66, "threshold": 3}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 156,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 44, 4: 92}},
    ),
    "ragged-max-k10": (
        "ad965b3e27f28a87",
        (34592, 8648, 185, 70664, 0, 740),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 99,
         "tiles_pruned_by_depth": {2: {"interval": 4, "threshold": 1},
                                   3: {"interval": 12, "threshold": 2},
                                   4: {"interval": 83, "threshold": 1}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 184,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 44, 4: 120}},
    ),
    "ragged-max-k100": (
        "8cfb1992ab2844c7",
        (52204, 13051, 197, 105984, 0, 788),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 92,
         "tiles_pruned_by_depth": {2: {"interval": 4, "threshold": 1},
                                   3: {"interval": 11},
                                   4: {"interval": 77, "threshold": 1}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 196,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 44, 4: 132}},
    ),
    "ragged-min-k1": (
        "e4c17824a79e7a8d",
        (7684, 1921, 93, 16112, 0, 372),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 47,
         "tiles_pruned_by_depth": {2: {"interval": 4, "threshold": 5},
                                   3: {"interval": 13, "threshold": 4},
                                   4: {"interval": 30, "threshold": 6}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 92,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 28, 4: 44}},
    ),
    "ragged-min-k10": (
        "f2dd1cdbd2b97f38",
        (17480, 4370, 117, 35896, 0, 468),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 57,
         "tiles_pruned_by_depth": {2: {"interval": 3, "threshold": 4},
                                   3: {"interval": 17, "threshold": 4},
                                   4: {"interval": 37, "threshold": 5}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 116,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 36, 4: 60}},
    ),
    "ragged-min-k100": (
        "e2c2e3686992d039",
        (34132, 8533, 141, 69392, 0, 564),
        {"cells_entered_level": {},
         "cells_pruned_at_level": {},
         "tiles_pruned": 64,
         "tiles_pruned_by_depth": {2: {"interval": 3, "threshold": 3},
                                   3: {"interval": 19, "threshold": 1},
                                   4: {"interval": 42, "threshold": 3}},
         "tiles_roots_by_depth": {0: 1},
         "tiles_screened": 140,
         "tiles_visited_by_depth": {1: 4, 2: 16, 3: 40, 4: 80}},
    ),
}


@pytest.fixture(scope="module")
def stacks():
    """Grid shape -> the rounded, heavily tied scene of the whole-grid
    pin, cropped for the ragged grid."""
    dem = generate_dem((256, 256), seed=7)
    scene = generate_scene((256, 256), seed=8, terrain=dem)
    scene.add(dem)
    return {
        (rows, cols): RasterStack({
            name: RasterLayer(
                name, np.round(scene[name].values[:rows, :cols])
            )
            for name in scene.names
        })
        for rows, cols in {shape for shape, _ in WINDOWS.values()}
    }


@pytest.fixture(scope="module")
def services(stacks):
    return {
        shape: RetrievalService(
            stack, leaf_size=16, cache_size=0, registry=MetricsRegistry(),
            embedding_dim=8,
        )
        for shape, stack in stacks.items()
    }


def _observed(result):
    answers = exact_answers(result)
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()[:16]
    counter = tuple(getattr(result.counter, name) for name in COUNTER_FIELDS)
    return digest, counter, dataclasses.asdict(result.audit)


def _check(stack, query, result, name, label, embeddings=None):
    assert result.strategy == label
    region = query.clip_region(stack.shape)
    assert exact_answers(result) == exhaustive_fused(
        stack, embeddings, query, region
    )[0]
    assert _observed(result) == PINNED[name]


@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_solo_top_k(stacks, services, window):
    shape = WINDOWS[window][0]
    for name, query in _queries(window).items():
        _check(
            stacks[shape], query, services[shape].top_k(query), name,
            "data-progressive-sharded[1]",
        )


@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_batch_members_do_their_solo_work(stacks, services, window):
    shape = WINDOWS[window][0]
    queries = _queries(window)
    results = services[shape].top_k_batch(list(queries.values()))
    for (name, query), result in zip(queries.items(), results):
        _check(
            stacks[shape], query, result, name, "data-progressive-batch[6]"
        )


@pytest.mark.parametrize("window", ["aligned", "ragged"])
def test_fused_query(stacks, services, window):
    shape, region = WINDOWS[window]
    service = services[shape]
    query = TopKQuery(model=PAPER, k=10, region=region, **FUSED)
    _check(
        stacks[shape], query, service.top_k(query, strategy="fused"),
        f"{window}-fused", "fused-sharded[1]", service.embeddings(),
    )
