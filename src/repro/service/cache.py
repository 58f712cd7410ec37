"""Query-result caching for the serving layer.

Two pieces: *fingerprints* — hashable identities for "the same question
asked again" — and a bounded, thread-safe LRU store mapping fingerprints
to :class:`~repro.core.results.RetrievalResult` objects. Invalidation
policy (archive generation watching, explicit clears) lives in
:class:`repro.service.retrieval.RetrievalService`; this module is just
the key calculus and the store.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from typing import Hashable

from repro.core.query import TopKQuery
from repro.core.results import RetrievalResult
from repro.data.archive import regions_intersect
from repro.models.base import Model
from repro.models.linear import LinearModel

# Per-instance identity tokens for models that fingerprint by identity.
# A raw id(model) is unsafe as a cache key: after the model is garbage
# collected a *different* model can be allocated at the same address and
# would falsely hit the old entry, serving answers computed for another
# model. Tokens from a monotonic counter are never reused; the registry
# maps id -> (weakref, token) so a dead or reallocated id gets a fresh
# token. The RLock (not a plain Lock) matters: weakref cleanup callbacks
# can run at arbitrary bytecode boundaries — including while the
# registering thread already holds this lock.
_instance_token_lock = threading.RLock()
_instance_token_counter = itertools.count()
_instance_tokens: dict[int, tuple[weakref.ref, int]] = {}
# Models that cannot be weak-referenced (e.g. __slots__ without
# __weakref__) are pinned alive instead: a bounded leak is the only way
# to guarantee their id — and hence their cache entries — never recycles.
_pinned_models: dict[int, Model] = {}
_instance_tokens_pinned: dict[int, int] = {}


def _instance_token(model: Model) -> int:
    """A monotonic token unique to this live instance, never reused."""
    key = id(model)
    with _instance_token_lock:
        entry = _instance_tokens.get(key)
        if entry is not None and entry[0]() is model:
            return entry[1]
        if key in _pinned_models and _pinned_models[key] is model:
            return _instance_tokens_pinned[key]
        token = next(_instance_token_counter)

        def _drop(_ref: weakref.ref, key: int = key, token: int = token) -> None:
            with _instance_token_lock:
                current = _instance_tokens.get(key)
                if current is not None and current[1] == token:
                    del _instance_tokens[key]

        try:
            _instance_tokens[key] = (weakref.ref(model, _drop), token)
        except TypeError:
            _pinned_models[key] = model
            _instance_tokens_pinned[key] = token
        return token


def model_fingerprint(model: Model) -> Hashable:
    """A hashable identity for a model's scoring behaviour.

    Linear models fingerprint *by value* — sorted coefficients plus
    intercept — so two separately constructed but equal models share
    cache entries. Other families fall back to instance identity via a
    per-instance monotonic token (never a raw ``id``, which the
    allocator recycles after GC): it never falsely shares (models are
    immutable by library convention) but only hits when the same object
    is reused.
    """
    if isinstance(model, LinearModel):
        return (
            "linear",
            tuple(sorted(model.coefficients.items())),
            model.intercept,
        )
    return (
        type(model).__qualname__,
        tuple(model.attributes),
        _instance_token(model),
    )


def query_fingerprint(
    query: TopKQuery,
    region: tuple[int, int, int, int],
    **knobs: Hashable,
) -> Hashable:
    """Cache key for a query plus the strategy knobs that shape answers.

    ``region`` is the query's *clipped* window, so ``region=None`` and
    an explicit whole-grid region hash identically. Shard count is
    deliberately absent: sharding changes the work split, never the
    answer set, so any shard count may serve any other's cached result.
    The fusion pair ``(similar_to, alpha)`` is part of the key because
    it is part of the score: two queries over the same model and region
    but different example cells answer different questions.
    """
    return (
        model_fingerprint(query.model),
        query.k,
        query.maximize,
        region,
        (query.similar_to, query.alpha),
        tuple(sorted(knobs.items())),
    )


class QueryCache:
    """A bounded, thread-safe LRU map of query fingerprints to results.

    ``get`` refreshes recency; ``put`` evicts the least-recently-used
    entry beyond ``maxsize``. Hit/miss tallies are exposed for the
    service's stats and the benchmark's ``cache.*`` metrics.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        # Each entry carries the clipped region its answer was computed
        # over, so region-scoped invalidation can keep answers that a
        # dirty rectangle provably cannot have changed.
        self._entries: OrderedDict[
            Hashable,
            tuple[RetrievalResult, tuple[int, int, int, int] | None],
        ] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> RetrievalResult | None:
        """The cached result for ``key``, or None (tallied either way)."""
        with self._lock:
            try:
                result, _region = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def put(
        self,
        key: Hashable,
        result: RetrievalResult,
        region: tuple[int, int, int, int] | None = None,
    ) -> None:
        """Store ``result``, evicting the oldest entries past capacity.

        ``region`` is the clipped window the result covers; ``None``
        marks the entry as conservatively global (dropped by *every*
        region invalidation).
        """
        with self._lock:
            self._entries[key] = (result, region)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (hit/miss tallies are kept)."""
        with self._lock:
            self._entries.clear()

    def invalidate_region(self, region: tuple[int, int, int, int]) -> int:
        """Drop entries whose window intersects a dirty rectangle.

        Entries stored without a region are dropped too (no basis to
        prove them unaffected). Returns how many entries were dropped —
        an empty ``region`` drops nothing. Entries that survive are
        *still valid*: their windows share no cell with the mutation.
        """
        with self._lock:
            doomed = [
                key
                for key, (_result, entry_region) in self._entries.items()
                if entry_region is None
                or regions_intersect(entry_region, region)
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def __len__(self) -> int:
        # Locked like every other accessor: len(dict) is atomic in
        # CPython today, but the class's thread-safety contract should
        # not lean on an implementation detail.
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"QueryCache(entries={len(self)}, maxsize={self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
