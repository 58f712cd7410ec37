"""Seeded inputs of the four workloads.

Everything the program under test sees is made here from ``--seed``:
the scene's cell values, every model, window, example cell, Zipf draw
and append block. The program receives only these inputs.

One thing is a constant of the benchmark and not drawn from the seed:
the scene's large-scale structure (``STRUCTURE_SEED``). Top-K pruning
cost follows where a scene's extremes fall, and six independently
seeded 1024^2 scenes measured 2.0 to 7.8 ms for the same query
population, which would drown a 10 % bound. The seed instead perturbs
every cell (noise, then rounding to whole digital numbers, so exact
score ties occur) and draws everything else.

A workload is a list of *positions*. A position is one operation with
its payload and the latency class the schedule puts it in; a *pass*
sends all positions in order.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.query import TopKQuery
from repro.models.linear import LinearModel, hps_risk_model
from repro.serving import encode_query
from repro.synth.landsat import generate_band, generate_scene

Scene = dict[str, np.ndarray]

NAMES = ("http_fresh", "http_zipf", "http_routed", "ingest_mixed")

STRUCTURE_SEED = 2000
#: Per-cell seed noise, as a share of each band's standard deviation.
#: At 2 % the median counted work of one query population moved 61k to
#: 73k between seeds; at 0.5 % it stays within 58k to 60k while the
#: rounding still moves a tenth to a half of every band's cells.
SCENE_NOISE = 0.005
GRID = 1024
QUICK_GRID = 256
LEAF = 16
K = 10
#: Every request carries ``n_shards: 1`` (the wire format's per-query
#: knob). With the shipped default of two shard threads per query the
#: same query took 5.4 or 10 ms depending on how the two threads traded
#: the GIL on two cores, per process and per pass, and no statistic made
#: that repeat within 10 %. ``service.shard_overhead_ratio`` in the
#: ledger prices the default instead.
N_SHARDS = 1
#: The workers' result cache (``FleetConfig.cache_size`` as shipped).
CACHE_ENTRIES = 128
ZIPF_POSITIONS = 400
ZIPF_DISTINCT = 384
ZIPF_EXPONENT = 1.0
ZIPF_MISS_SHARE = (0.25, 0.27)
#: Side of the Onion-indexed window at the full grid. A 256^2 index
#: builds in 4 to 5 s per instance, a 192^2 one in 2 s, and every
#: instance of http_routed pays it in set-up.
ONION_REGION = 192
BATCH_MEMBERS = 8
INGEST_CYCLES = 48
INGEST_BANDS = ("tm_band4", "tm_band5")


@dataclass
class Position:
    """One operation of a pass."""

    #: "query" (POST /query), "batch" (POST /batch) or "append".
    kind: str
    #: Latency class the schedule assigns (asserted against replies).
    cls: str
    #: JSON payload: a query, a list of queries, or an append spec
    #: ``{"region": [...], "block": i}`` indexing ``Workload.blocks``.
    payload: Any
    #: Queries answered (a batch of 8 counts 8, an append counts 1).
    weight: int = 1
    body: bytes = b""
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind == "query":
            self.path = "/query"
            self.body = json.dumps(self.payload).encode("utf-8")
        elif self.kind == "batch":
            self.path = "/batch"
            self.body = json.dumps({"queries": self.payload}).encode("utf-8")


@dataclass
class Workload:
    name: str
    seed: int
    grid: int
    #: Band name -> float64 cell values, in store order.
    scene: Scene
    positions: list[Position]
    #: Fleet warm hooks (``FleetConfig.warm`` specs).
    warm: list[dict[str, Any]] = field(default_factory=list)
    #: ``ingest_mixed`` append blocks, shape (n, bands, rows, cols).
    blocks: np.ndarray | None = None

    @property
    def queries_per_pass(self) -> int:
        return sum(position.weight for position in self.positions)

    def class_shares(self) -> dict[str, float]:
        total = len(self.positions)
        shares: dict[str, float] = {}
        for position in self.positions:
            shares[position.cls] = shares.get(position.cls, 0.0) + 1 / total
        return shares


def build_scene(seed: int, grid: int) -> Scene:
    """Four aligned bands: three TM-like bands coupled to an elevation
    field, perturbed per cell by the seed and rounded to whole numbers."""
    shape = (grid, grid)
    elevation = generate_band(
        shape,
        seed=STRUCTURE_SEED,
        name="elevation",
        mean=2050.0,
        std=180.0,
        smoothness=3.0,
        clip=(1500.0, 2600.0),
    )
    stack = generate_scene(shape, seed=STRUCTURE_SEED + 1, terrain=elevation)
    stack.add(elevation)
    rng = np.random.default_rng([seed, 0])
    scene = {}
    for name in stack.names:
        values = stack[name].values
        noise = rng.normal(0.0, SCENE_NOISE * float(values.std()), shape)
        scene[name] = np.round(values + noise)
    return scene


def _model(rng: np.random.Generator, name: str) -> LinearModel:
    base = hps_risk_model()
    return LinearModel(
        {
            attribute: weight * float(rng.uniform(0.8, 1.2))
            for attribute, weight in base.coefficients.items()
        },
        intercept=base.intercept,
        name=name,
    )


def _window(rng: np.random.Generator, grid: int, size: int) -> list[int]:
    """A leaf-aligned ``size`` x ``size`` window at a drawn offset."""
    steps = (grid - size) // LEAF + 1
    row0 = int(rng.integers(0, steps)) * LEAF
    col0 = int(rng.integers(0, steps)) * LEAF
    return [row0, col0, row0 + size, col0 + size]


def _query(model: LinearModel, region: list[int] | None, **knobs: Any) -> dict:
    return encode_query(
        TopKQuery(
            model=model,
            k=K,
            region=tuple(region) if region is not None else None,
        ),
        n_shards=N_SHARDS,
        **knobs,
    )


def _http_fresh(seed: int, grid: int, scene: Scene) -> Workload:
    rng = np.random.default_rng([seed, 1])
    positions = [
        Position(
            "query",
            "fresh",
            _query(_model(rng, f"fresh-{index}"), None, use_cache=False),
        )
        for index in range(120)
    ]
    return Workload("http_fresh", seed, grid, scene, positions)


def lru_labels(keys: list[int], capacity: int) -> list[bool]:
    """Hit (True) or miss per access of one pass of ``keys``, once an
    earlier pass of the same keys has filled an LRU of ``capacity``."""
    cache: OrderedDict[int, None] = OrderedDict()
    hits: list[bool] = []
    for _pass in range(2):
        hits = []
        for key in keys:
            hit = key in cache
            hits.append(hit)
            cache[key] = None
            cache.move_to_end(key)
            if len(cache) > capacity:
                cache.popitem(last=False)
    return hits


def _http_zipf(seed: int, grid: int, scene: Scene) -> Workload:
    rng = np.random.default_rng([seed, 2])
    size = grid // 8
    distinct = [
        _query(_model(rng, f"zipf-{index}"), _window(rng, grid, size))
        for index in range(ZIPF_DISTINCT)
    ]
    weights = np.arange(1, ZIPF_DISTINCT + 1, dtype=float) ** -ZIPF_EXPONENT
    weights /= weights.sum()
    # The miss share of a cyclic schedule sits on a cliff near "distinct
    # keys per pass == cache entries", so raw draws give 0 to 30 %. The
    # draw is repeated (same seeded stream) until the share is inside a
    # narrow band: misses carry most of a pass's time, so throughput
    # follows the share, and p90's place among the misses moves with it.
    low, high = ZIPF_MISS_SHARE
    for _attempt in range(5000):
        keys = rng.choice(ZIPF_DISTINCT, size=ZIPF_POSITIONS, p=weights).tolist()
        hits = lru_labels(keys, CACHE_ENTRIES)
        if low <= 1.0 - sum(hits) / len(hits) <= high:
            break
    else:
        raise RuntimeError("no Zipf schedule inside the miss-share band")
    positions = [
        Position("query", "hit" if hit else "miss", distinct[key])
        for key, hit in zip(keys, hits)
    ]
    return Workload("http_zipf", seed, grid, scene, positions)


def _http_routed(seed: int, grid: int, scene: Scene) -> Workload:
    rng = np.random.default_rng([seed, 3])
    onion_region = _window(rng, grid, ONION_REGION * grid // GRID)
    positions: list[Position] = []
    for index in range(48):
        positions.append(
            Position(
                "query",
                "onion",
                _query(
                    _model(rng, f"onion-{index}"),
                    onion_region,
                    strategy="auto",
                    use_cache=False,
                ),
            )
        )
    for index in range(48):
        region = _window(rng, grid, grid // 2)
        query = TopKQuery(
            model=_model(rng, f"fused-{index}"),
            k=K,
            region=tuple(region),
            similar_to=(int(rng.integers(0, grid)), int(rng.integers(0, grid))),
            alpha=0.5,
        )
        positions.append(
            Position(
                "query",
                "fused",
                encode_query(
                    query, n_shards=N_SHARDS, strategy="auto", use_cache=False
                ),
            )
        )
    for index in range(24):
        # Whole-grid members: a regional batch costs 7 to 27 ms by where
        # its window falls, which overlaps the fused class; over the
        # whole grid every batch costs more than every fused query.
        members = [
            _query(_model(rng, f"batch-{index}-{member}"), None, use_cache=False)
            for member in range(BATCH_MEMBERS)
        ]
        positions.append(Position("batch", "batch", members, weight=BATCH_MEMBERS))
    order = rng.permutation(len(positions))
    positions = [positions[index] for index in order]
    attributes = list(hps_risk_model().attributes)
    warm = [{"attributes": attributes, "region": onion_region}]
    return Workload("http_routed", seed, grid, scene, positions, warm=warm)


def _ingest_mixed(seed: int, grid: int, scene: Scene) -> Workload:
    """Cycles of: append a block; read exactly that block (a recompute,
    the append invalidated it); three reads of windows no append ever
    touches (hits that must survive region-scoped invalidation).

    Reads after an append cover exactly the appended block and every
    append writes the same values in every pass, so each position's
    answer is the same in every pass."""
    rng = np.random.default_rng([seed, 4])
    size = grid // 8
    cells = [
        [row * size, col * size, (row + 1) * size, (col + 1) * size]
        for row in range(8)
        for col in range(8)
    ]
    order = rng.permutation(len(cells))
    targets = [cells[index] for index in order[:INGEST_CYCLES]]
    untouched = [cells[index] for index in order[INGEST_CYCLES:]]
    survivors = [
        _query(
            _model(rng, f"survivor-{index}"),
            untouched[int(rng.integers(0, len(untouched)))],
        )
        # With the 48 reads after appends, fewer distinct cacheable
        # queries than the cache holds: no survivor is ever evicted.
        for index in range(32)
    ]
    # New values are patches of the scene from elsewhere, so they carry
    # its spatial correlation; drawn without replacement, so every seed
    # appends a similar mix.
    sources = [cells[index] for index in rng.permutation(len(cells))]
    blocks = np.empty((len(targets), len(INGEST_BANDS), size, size))
    positions: list[Position] = []
    for cycle, (region, source) in enumerate(zip(targets, sources)):
        for band_index, band in enumerate(INGEST_BANDS):
            patch = scene[band][source[0] : source[2], source[1] : source[3]]
            blocks[cycle, band_index] = patch + float(rng.integers(1, 6))
        positions.append(
            Position("append", "append", {"region": region, "block": cycle})
        )
        positions.append(
            Position(
                "query", "recompute", _query(_model(rng, f"read-{cycle}"), region)
            )
        )
        for _read in range(3):
            positions.append(
                Position(
                    "query",
                    "hit",
                    survivors[int(rng.integers(0, len(survivors)))],
                )
            )
    return Workload("ingest_mixed", seed, grid, scene, positions, blocks=blocks)


_BUILDERS = {
    "http_fresh": _http_fresh,
    "http_zipf": _http_zipf,
    "http_routed": _http_routed,
    "ingest_mixed": _ingest_mixed,
}

#: Share of positions each class must hold, as (low, high). Keeps p50
#: and p90 at least five points inside one latency class.
CLASS_SHARES = {
    "http_fresh": {"fresh": (1.0, 1.0)},
    "http_zipf": {"miss": ZIPF_MISS_SHARE},
    "http_routed": {"onion": (0.4, 0.4), "fused": (0.4, 0.4), "batch": (0.2, 0.2)},
    "ingest_mixed": {"append": (0.2, 0.2), "recompute": (0.2, 0.2), "hit": (0.6, 0.6)},
}


def build(
    name: str, seed: int, grid: int = GRID, scene: Scene | None = None
) -> Workload:
    """The workload's inputs; raises if its class shares are off.

    Every workload of one seed runs over the same scene, so a caller
    that already holds it may pass it in."""
    if scene is None:
        scene = build_scene(seed, grid)
    workload = _BUILDERS[name](seed, grid, scene)
    shares = workload.class_shares()
    for cls, (low, high) in CLASS_SHARES[name].items():
        share = shares.get(cls, 0.0)
        if not low - 1e-9 <= share <= high + 1e-9:
            raise RuntimeError(
                f"{name}: class {cls!r} holds {share:.3f} of positions, "
                f"outside [{low}, {high}]"
            )
    return workload
