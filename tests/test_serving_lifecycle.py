"""Who owns a fleet's store, and for how long.

A fleet built from an in-memory stack writes it to a private temporary
store at ``start()`` and owns that directory: ``stop()`` removes it, a
dropped fleet's finalizer removes it, a failed ``start()`` leaves
nothing behind. A store the *caller* named is only ever read.

Every process-backed test here spawns its own 1-worker fleet (the
lifecycle is the subject, so nothing is shared).
"""

from __future__ import annotations

import gc
import hashlib
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.data.raster import RasterLayer, RasterStack
from repro.data.store import ingest_synthetic
from repro.data.store.format import read_manifest
from repro.models.linear import LinearModel
from repro.serving import (
    FleetConfig,
    WorkerFleet,
    encode_query,
    fleet_for_stack,
    fleet_for_store,
)
from repro.serving.fleet import FleetError

SHAPE = (48, 48)


def _temp_root() -> Path:
    """Where the fleet puts temporary stores (it looks, we look)."""
    shm = Path("/dev/shm")
    return shm if shm.is_dir() else Path(tempfile.gettempdir())


def _temporary_stores() -> set[Path]:
    return set(_temp_root().glob("repro-*"))


@pytest.fixture(scope="session", autouse=True)
def no_temporary_store_outlives_the_session():
    """Set up when this module first runs, checked when the *session*
    ends: by then every fleet any test module started from a stack has
    been stopped or dropped, so none of their directories may remain."""
    before = _temporary_stores()
    yield
    gc.collect()
    assert _temporary_stores() <= before


def _stack(names=("a", "b")) -> RasterStack:
    generator = np.random.default_rng(7)
    stack = RasterStack()
    for name in names:
        stack.add(RasterLayer(name, generator.normal(size=SHAPE)))
    return stack


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestTemporaryStore:
    def test_written_at_start_removed_by_stop(self):
        fleet = fleet_for_stack(_stack(), n_workers=1, leaf_size=8)
        try:
            root = Path(fleet._store_path)
            assert root.parent == _temp_root()
            manifest = read_manifest(root)
            assert manifest["screen_leaf_size"] == 8
            assert [item["name"] for item in manifest["items"]] == ["a", "b"]
            reply = fleet.submit_query(
                encode_query(
                    TopKQuery(model=LinearModel({"a": 1.0, "b": -1.0}), k=3)
                )
            ).result(timeout=60)
            assert reply.ok, reply.error
        finally:
            fleet.stop()
        assert not root.exists()
        fleet.stop()  # idempotent

    def test_dropped_unstopped_fleet_is_collected_and_cleans_up(self):
        fleet = fleet_for_stack(_stack(), n_workers=1)
        root = Path(fleet._store_path)
        assert root.exists()
        del fleet
        # The background threads wait without holding the fleet, so
        # between their steps it is garbage like any other.
        deadline = time.monotonic() + 20
        while root.exists() and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.05)
        assert not root.exists()

    def test_failed_start_leaves_nothing_behind(self):
        before = _temporary_stores()
        fleet = WorkerFleet(
            _stack(), FleetConfig(n_workers=1, start_timeout_s=0.001)
        )
        with pytest.raises(FleetError, match="did not become ready"):
            fleet.start()
        assert _temporary_stores() == before

    def test_unstorable_layer_fails_at_start_naming_it(self):
        before = _temporary_stores()
        fleet = WorkerFleet(_stack(names=("ok", "bad/name")))
        with pytest.raises(FleetError, match="bad/name"):
            fleet.start()
        assert _temporary_stores() == before

    def test_both_sources_rejected(self, tmp_path):
        with pytest.raises(FleetError, match="exactly one"):
            WorkerFleet(_stack(), store_path=str(tmp_path))


class TestCallersStore:
    def test_serving_a_store_leaves_every_byte_alone(self, tmp_path):
        store = tmp_path / "store"
        ingest_synthetic(store, size=64, n_bands=2, seed=3)
        before = _tree_digest(store)
        fleet = fleet_for_store(str(store), n_workers=1)
        try:
            reply = fleet.submit_query(
                encode_query(
                    TopKQuery(
                        model=LinearModel({"band0": 1.0, "band1": 0.5}), k=3
                    )
                )
            ).result(timeout=60)
            assert reply.ok, reply.error
        finally:
            fleet.stop()
        assert _tree_digest(store) == before
