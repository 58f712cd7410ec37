"""Who owns a fleet's store, and who reads its reply pipes, for how long.

A fleet built from an in-memory stack writes it to a private temporary
store at ``start()`` and owns that directory: ``stop()`` removes it, a
dropped fleet's finalizer removes it, a failed ``start()`` leaves
nothing behind. A store the *caller* named is only ever read.

A fleet's reply pipes have one reader: its collector thread, except
while a ``ServingServer`` is started on it — then that server's event
loop, from the thread's hand-over until ``close()``, through a worker
respawn and a ``fleet.stop()`` alike.

Every process-backed store test here spawns its own 1-worker fleet (the
lifecycle is the subject, so nothing is shared); the reply-reader tests
share one 2-worker fleet, except the one that stops it.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import http.client
import json
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.data.raster import RasterLayer, RasterStack
from repro.data.store import ingest_synthetic
from repro.data.store.format import read_manifest
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from repro.serving import (
    FleetConfig,
    ServingServer,
    WorkerFleet,
    encode_query,
    encode_result,
    fleet_for_stack,
    fleet_for_store,
)
from repro.serving.fleet import FleetError
from repro.serving.protocol import WorkItem

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


#: A warm hook over the whole of :func:`_stack`.
WARM = {"attributes": ["a", "b"], "region": None}


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
        # The warm hook publishes an index beside the store: the whole
        # private root — store and sidecar — must go, not just the store.
        fleet = fleet_for_stack(
            _stack(), n_workers=1, leaf_size=8, warm=[WARM]
        )
        try:
            store = Path(fleet._store_path)
            root = store.parent
            assert root.parent == _temp_root()
            manifest = read_manifest(store)
            assert manifest["screen_leaf_size"] == 8
            assert [item["name"] for item in manifest["items"]] == ["a", "b"]
            assert sorted(p.name for p in root.iterdir()) == [
                "store", "store.index",
            ]
            assert len(list((root / "store.index").glob("onion-*.npz"))) == 1
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
        fleet = fleet_for_stack(_stack(), n_workers=1, warm=[WARM])
        root = Path(fleet._store_path).parent
        assert (root / "store.index").is_dir()
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


# -- who reads the reply pipes ------------------------------------------------


def _collector_threads() -> int:
    return sum(
        thread.name == "repro-fleet-collect" and thread.is_alive()
        for thread in threading.enumerate()
    )


def _wait_until(condition, what: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def _query(seed: int) -> TopKQuery:
    return TopKQuery(
        model=LinearModel({"a": 1.0 + seed, "b": -1.0}, name=f"q{seed}"), k=5
    )


def _post(server, query: TopKQuery, timeout: float = 60.0):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=timeout
    )
    try:
        connection.request(
            "POST",
            "/query",
            body=json.dumps(encode_query(query, use_cache=False)).encode(),
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _sleep(fleet, worker_id: int, seconds: float):
    return fleet.submit(
        WorkItem(kind="sleep", request_id=0, payload=seconds),
        worker_id=worker_id,
    )


def _queries_answered(fleet) -> dict[int, tuple[int, int]]:
    """worker id -> (pid, queries that process has answered)."""
    return {
        entry["worker_id"]: (entry["pid"], entry["service"]["queries"])
        for entry in fleet.stats()
    }


@pytest.fixture(scope="module")
def hooked_fleet():
    fleet = WorkerFleet(_stack(), FleetConfig(n_workers=2, debug_hooks=True))
    fleet.start()
    yield fleet
    fleet.stop()


@pytest.fixture(scope="module")
def in_process() -> RetrievalService:
    return RetrievalService(_stack(), leaf_size=16)


class TestReplyReader:
    def _serve_on_loop(self, fleet) -> tuple[ServingServer, int]:
        """A started server whose loop has taken the pipes over, and
        the collector-thread count from before it started."""
        threads = _collector_threads()
        server = ServingServer(fleet).start()
        _wait_until(
            lambda: _collector_threads() == threads - 1,
            "the collector thread to hand over",
        )
        return server, threads

    def test_loop_reads_while_started_thread_before_and_after(
        self, hooked_fleet, in_process
    ):
        fleet = hooked_fleet
        server, threads = self._serve_on_loop(fleet)
        try:
            # No thread is left to read a reply: the loop must have.
            status, body = _post(server, _query(1))
            assert status == 200
            assert body["answers"] == encode_result(
                in_process.top_k(_query(1))
            )["answers"]
        finally:
            server.close()
        assert _collector_threads() == threads
        reply = fleet.submit_query(encode_query(_query(2))).result(timeout=30)
        assert reply.ok, reply.error
        with ServingServer(fleet) as second:
            assert _post(second, _query(3))[0] == 200

    def test_blocking_fleet_call_on_the_reading_loop_is_refused(
        self, hooked_fleet
    ):
        async def stats_on_the_loop():
            return hooked_fleet.stats()

        with ServingServer(hooked_fleet) as server:
            asked = asyncio.run_coroutine_threadsafe(
                stats_on_the_loop(), server._loop
            )
            with pytest.raises(FleetError, match="run_in_executor"):
                asked.result(timeout=10)
            # From any other thread it is the same call as ever.
            assert len(hooked_fleet.stats()) == 2

    def test_close_with_a_request_in_flight(self, hooked_fleet, caplog):
        fleet = hooked_fleet
        server, threads = self._serve_on_loop(fleet)
        sleeps = [_sleep(fleet, worker_id, 1.5) for worker_id in range(2)]
        outcome: list[object] = []

        def ask() -> None:
            try:
                outcome.append(_post(server, _query(4)))
            except (http.client.HTTPException, OSError) as error:
                outcome.append(error)

        client = threading.Thread(target=ask, daemon=True)
        client.start()
        _wait_until(
            lambda: sum(w["inflight"] for w in fleet.describe()) == 3,
            "the request to be in flight behind the sleeps",
        )
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 5
        client.join(timeout=10)
        assert not client.is_alive()
        # Hung up on, not answered: the worker was still asleep.
        assert isinstance(outcome[0], Exception), outcome
        for future in sleeps:
            assert future.result(timeout=30).ok
        assert _collector_threads() == threads
        reply = fleet.submit_query(encode_query(_query(5))).result(timeout=30)
        assert reply.ok, reply.error
        gc.collect()  # a pending task destroyed would be logged here
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_respawned_workers_pipe_is_read_by_the_loop(
        self, hooked_fleet, in_process
    ):
        # Last on the shared fleet: it respawns worker 0.
        fleet = hooked_fleet
        restarts = fleet.restarts
        old_pid = _queries_answered(fleet)[0][0]
        server, _ = self._serve_on_loop(fleet)
        try:
            crashed = fleet.submit(
                WorkItem(kind="crash", request_id=0), worker_id=0
            ).result(timeout=30)
            assert crashed.error_kind == "crashed"

            def ask(seed: int) -> None:
                status, body = _post(server, _query(seed))
                assert status == 200, body
                assert body["answers"] == encode_result(
                    in_process.top_k(_query(seed))
                )["answers"]

            # Sequential requests go to worker 0 (least loaded, lowest
            # id): answered only if the loop reads the *new* pipe.
            def new_worker_answered() -> bool:
                ask(10)
                pid, queries = _queries_answered(fleet).get(0, (old_pid, 0))
                return pid != old_pid and queries >= 1

            _wait_until(new_worker_answered, "the respawned worker to answer")
            # And worker 1, whose pipe the loop held all along.
            before = _queries_answered(fleet)[1][1]
            pinned = _sleep(fleet, 0, 0.5)
            ask(11)
            assert _queries_answered(fleet)[1][1] == before + 1
            assert pinned.result(timeout=30).ok
        finally:
            server.close()
        assert fleet.restarts == restarts + 1

    def test_fleet_stop_under_a_started_server(self, caplog, capfd):
        fleet = WorkerFleet(_stack(), FleetConfig(n_workers=1, debug_hooks=True))
        fleet.start()
        server, _ = self._serve_on_loop(fleet)
        try:
            _sleep(fleet, 0, 30.0)
            outcome: list[object] = []
            client = threading.Thread(
                target=lambda: outcome.append(_post(server, _query(6))),
                daemon=True,
            )
            client.start()
            _wait_until(
                lambda: fleet.describe()[0]["inflight"] == 2,
                "the request to be in flight behind the sleep",
            )
            fleet.stop(timeout_s=0.2)
            client.join(timeout=30)
            assert not client.is_alive()
            status, body = outcome[0]
            assert (status, body["kind"]) == (503, "crashed")
            assert "fleet stopped" in body["error"]
            status, body = _post(server, _query(7))
            assert (status, body["kind"]) == (503, "crashed")
        finally:
            server.close()
            fleet.stop()
        # No stale fd, no reader registered twice, nothing unretrieved.
        assert not [r for r in caplog.records if r.levelname == "ERROR"]
        assert capfd.readouterr().err == ""
