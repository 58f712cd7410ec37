"""Bench-owned brute-force verifier.

Scores every cell of a query's region densely with the library's own
leaf arithmetic (and, for fused queries, its blend of the per-tile
cosine, as ``tests/oracles.py`` does: the contract under test is
search, pruning, caching, transport and tie-break, so sharing the leaf
arithmetic is what makes "bit-exact" a meaningful demand), then ranks
with a plain sort under the library tie-break: descending score, equal
scores to the smallest ``(row, col)``.

The library has two leaf arithmetics for a linear model, and they
differ in the last ulp for real-valued coefficients: the tile search
with model levels (strategy labels ``both-...``) adds one term at a
time in contribution order, every other structure (scan, Onion, fused,
embed-scan) calls ``evaluate_batch``. The oracle therefore takes the
strategy label of the reply it checks and applies that structure's
arithmetic; a reply is exact only if it is what the structure it names
must produce.

The oracle holds its own copy of the scene and replays appends into
it, so it is also the in-memory twin ``ingest_mixed`` is checked
against.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.core.screening import TileScreen
from repro.data.raster import RasterLayer, RasterStack
from repro.embed.fusion import FusionSpec
from repro.embed.tiles import TileEmbeddings
from repro.models.progressive_linear import analyze_contributions
from repro.serving import decode_query

Answers = list[tuple[int, int, float]]


def rank(scores: np.ndarray, row0: int, col0: int, width: int, k: int) -> Answers:
    """Top ``k`` of a row-major flat score array over a window.

    Only cells scoring at least the k-th largest value can be answers,
    so those are selected first and then sorted in full."""
    flat = np.asarray(scores, dtype=float).reshape(-1)
    k = min(k, flat.size)
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    candidates = np.flatnonzero(flat >= kth)
    rows = row0 + candidates // width
    cols = col0 + candidates % width
    order = np.lexsort((cols, rows, -flat[candidates]))[:k]
    return [
        (int(rows[index]), int(cols[index]), float(flat[candidates[index]]))
        for index in order
    ]


class Oracle:
    def __init__(
        self,
        scene: dict[str, np.ndarray],
        leaf_size: int = 16,
        embedding_dim: int = 16,
        embedding_seed: int = 0,
    ) -> None:
        self.scene = {name: values.copy() for name, values in scene.items()}
        self._leaf_size = leaf_size
        self._embedding = (embedding_dim, embedding_seed)
        self._embeddings: TileEmbeddings | None = None
        self._memo: dict[tuple[str, bool], Answers] = {}
        self._spreads: dict[str, float] = {}

    def append(self, region: list[int], updates: dict[str, np.ndarray]) -> None:
        row0, col0, row1, col1 = region
        for name, block in updates.items():
            self.scene[name][row0:row1, col0:col1] = block
        self._embeddings = None
        self._memo.clear()
        self._spreads.clear()

    def _tile_embeddings(self) -> TileEmbeddings:
        if self._embeddings is None:
            stack = RasterStack()
            for name, values in self.scene.items():
                stack.add(RasterLayer(name, values))
            dim, seed = self._embedding
            self._embeddings = TileEmbeddings.build(
                stack, TileScreen(stack, leaf_size=self._leaf_size), dim=dim, seed=seed
            )
        return self._embeddings

    def _cascade_scores(self, model: Any, columns: dict[str, np.ndarray]) -> np.ndarray:
        """The level cascade's arithmetic: terms added one at a time,
        largest ``|coefficient| * (max - min over the archive)`` first."""
        for name in model.attributes:
            if name not in self._spreads:
                values = self.scene[name]
                self._spreads[name] = float(values.max() - values.min())
        scores = None
        for term in analyze_contributions(model, spreads=self._spreads):
            product = model.coefficients[term.attribute] * columns[term.attribute]
            scores = model.intercept + product if scores is None else scores + product
        return scores

    def answers(self, payload: dict[str, Any], strategy: str) -> Answers:
        """The exact answers to one query payload, as the structure
        named by the reply's ``strategy`` label must give them."""
        cascade = strategy.startswith("both")
        key = (json.dumps(payload, sort_keys=True), cascade)
        if key not in self._memo:
            self._memo[key] = self._answers(payload, cascade)
        return self._memo[key]

    def _answers(self, payload: dict[str, Any], cascade: bool) -> Answers:
        query = decode_query(payload).query
        shape = next(iter(self.scene.values())).shape
        row0, col0, row1, col1 = region = query.clip_region(shape)
        columns = {
            name: self.scene[name][row0:row1, col0:col1]
            for name in query.model.attributes
        }
        if cascade:
            scores = self._cascade_scores(query.model, columns).reshape(-1)
        else:
            scores = query.model.evaluate_batch(columns).reshape(-1)
        if query.fused:
            fusion = FusionSpec.build(
                self._tile_embeddings(), query.similar_to, query.alpha
            )
            scores = fusion.blend(scores, fusion.region_cosines(region).reshape(-1))
        sign = 1.0 if query.maximize else -1.0
        return [
            (row, col, sign * signed)
            for row, col, signed in rank(sign * scores, row0, col0, col1 - col0, query.k)
        ]


def reply_answers(reply: dict[str, Any]) -> Answers:
    """The answers of one encoded result, as exact triples."""
    return [
        (answer["row"], answer["col"], answer["score"])
        for answer in reply["answers"]
    ]


def failure(reply: Any, expected: Answers) -> str | None:
    """Why one encoded result fails, or None when it is exact.

    A partial reply fails even if its prefix is right; cells, order and
    scores (bitwise: JSON floats round-trip) must all agree."""
    if not isinstance(reply, dict) or "answers" not in reply:
        return f"not a result document: {str(reply)[:120]}"
    if reply.get("complete") is not True:
        return "partial result (complete=false)"
    got = reply_answers(reply)
    if got != expected:
        for index, (have, want) in enumerate(zip(got, expected)):
            if have != want:
                return f"answer {index} is {have}, oracle says {want}"
        return f"{len(got)} answers, oracle says {len(expected)}"
    return None
