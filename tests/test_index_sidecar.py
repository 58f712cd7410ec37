"""A built Onion index is opened from ``<store>.index/``, not re-peeled.

The sidecar is content-addressed — its name digests the window's
values — so these tests are mostly about what must *not* be trusted: a
window that changed (in this process or another), a file that is torn,
foreign or tampered with, a directory that cannot be written. Whatever
happens to the file, a query gets the oracle's answer. Data is
integer-valued with integer weights, so every comparison is ``==``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.data.archive import Archive
from repro.data.raster import RasterLayer
from repro.data.store import ArchiveWriter, open_archive
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from repro.index.onion_cache import SIDECAR_VERSION, OnionIndexCache
from repro.serving import fleet_for_store
from repro.serving.protocol import WorkItem, encode_query
from repro.telemetry.events import EventLog, set_global_event_log
from tests.oracles import exact_answers, exhaustive_fused

SRC = str(Path(__file__).resolve().parents[1] / "src")
GRID = 64
NAMES = ("a", "b")
#: The indexed window, strictly inside the grid.
WINDOW = (8, 8, 56, 56)
MODEL = LinearModel({"a": 2.0, "b": -1.0}, intercept=0.5)
QUERY = TopKQuery(model=MODEL, k=10, region=WINDOW)


def _values(seed: int, shape=(GRID, GRID)) -> np.ndarray:
    generator = np.random.default_rng(seed)
    return generator.integers(0, 256, shape).astype(float)


@pytest.fixture()
def store(tmp_path) -> Path:
    archive = Archive("sidecar")
    for seed, name in enumerate(NAMES):
        archive.add(RasterLayer(name, _values(seed)))
    ArchiveWriter.create(tmp_path / "store", archive, screen_leaf_size=8)
    return tmp_path / "store"


@pytest.fixture()
def events():
    """This test's own process-wide event log."""
    log = EventLog()
    previous = set_global_event_log(log)
    yield log
    set_global_event_log(previous)


def _service(store: Path) -> RetrievalService:
    archive = open_archive(store)
    return RetrievalService.from_archive(
        archive,
        list(NAMES),
        leaf_size=archive.screen_leaf_size,
        cache_size=0,
        registry=MetricsRegistry(),
    )


def _named(log: EventLog, name: str) -> list[dict]:
    return [e["attrs"] for e in log.snapshot() if e["event"] == name]


def _counters(service: RetrievalService) -> dict:
    return service.registry.snapshot()["counters"]


def _sidecars(store: Path) -> list[Path]:
    return sorted(Path(f"{store}.index").glob("onion-*.npz"))


def _assert_exact(service: RetrievalService, query: TopKQuery = QUERY) -> None:
    expected, _ = exhaustive_fused(
        service.engine.stack, None, query, query.region
    )
    result = service.top_k(query, strategy="onion")
    assert exact_answers(result) == expected


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestOpenInsteadOfPeel:
    def test_second_service_opens_what_the_first_built(self, store, events):
        before = _tree(store)
        first = _service(store)
        built = first.warm_index(NAMES, WINDOW)
        assert _counters(first)["router.index.builds"] == 1
        assert "router.index.loads" not in _counters(first)
        assert [built.sidecar] == _sidecars(store)
        # Beside the store, never inside it.
        assert _tree(store) == before
        assert built.sidecar.parent == store.parent / "store.index"

        second = _service(store)
        reopened = second.warm_index(NAMES, WINDOW)
        assert _counters(second)["router.index.loads"] == 1
        assert "router.index.builds" not in _counters(second)
        assert [
            (e["source"], e["depth"], e["layers"])
            for e in _named(events, "index.onion_build")
        ] == [("peeled", 10, 11), ("sidecar", 10, 11)]
        assert [
            reopened.index.layer(i).tolist() for i in range(11)
        ] == [built.index.layer(i).tolist() for i in range(11)]
        _assert_exact(second)
        assert not _named(events, "index.sidecar_rejected")

    def test_a_deepened_index_is_republished_deeper(self, store, events):
        first = _service(store)
        first.warm_index(NAMES, WINDOW)
        first.warm_index(TopKQuery(model=MODEL, k=20, region=WINDOW))
        assert len(_sidecars(store)) == 1  # same window, same name
        second = _service(store)
        assert second.warm_index(NAMES, WINDOW).index.depth == 20
        assert _named(events, "index.onion_build")[-1]["source"] == "sidecar"
        # A shallower file is opened and peeled on, not started over.
        third = _service(store)
        deeper = third.warm_index(TopKQuery(model=MODEL, k=24, region=WINDOW))
        assert deeper.index.depth == 24
        assert _counters(third)["router.index.builds"] == 1
        direct = OnionIndexCache(
            third.engine.stack, registry=MetricsRegistry()
        ).get(WINDOW, NAMES, None, k=24)
        assert [
            deeper.index.layer(i).tolist() for i in range(25)
        ] == [direct.index.layer(i).tolist() for i in range(25)]

    def test_an_in_memory_stack_persists_nothing(self, events):
        service = RetrievalService(_memory_stack(), registry=MetricsRegistry())
        assert service.warm_index(NAMES, WINDOW).sidecar is None
        assert service.router.index_cache.sidecar_dir is None


def _memory_stack():
    archive = Archive("memory")
    for seed, name in enumerate(NAMES):
        archive.add(RasterLayer(name, _values(seed)))
    return archive.stack(list(NAMES))


_APPEND = """
import sys
import numpy as np
from repro.data.store import open_archive
row0, col0, row1, col1 = map(int, sys.argv[2:6])
block = np.full((row1 - row0, col1 - col0), 999.0)
open_archive(sys.argv[1]).append_region({"a": block}, (row0, col0, row1, col1))
"""


def _append_from_another_process(store: Path, region) -> None:
    subprocess.run(
        [sys.executable, "-c", _APPEND, str(store), *map(str, region)],
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
        timeout=120,
    )


class TestInvalidationIsTheName:
    def test_append_into_the_window_across_a_restart(self, store, events):
        """The stale-optimum scenario, with a restart in between: the
        new optimum is a cell the old index holds in its bucket, which
        a top-10 served from the old layers would never read."""
        old = _service(store).warm_index(NAMES, WINDOW)
        (stale,) = _sidecars(store)
        local_row, local_col = divmod(
            int(old.index.layer(10)[0]), WINDOW[3] - WINDOW[1]
        )
        row, col = WINDOW[0] + local_row, WINDOW[1] + local_col
        _append_from_another_process(store, (row, col, row + 1, col + 1))

        service = _service(store)
        built = service.warm_index(NAMES, WINDOW)
        assert _counters(service)["router.index.builds"] == 1
        assert built.sidecar != stale and built.sidecar.exists()
        assert _named(events, "index.onion_build")[-1]["source"] == "peeled"
        _assert_exact(service)
        top = service.top_k(QUERY, strategy="onion").answers[0]
        assert (top.row, top.col) == (row, col)

    def test_append_outside_the_window_reuses_the_file(self, store, events):
        _service(store).warm_index(NAMES, WINDOW)
        (published,) = _sidecars(store)
        _append_from_another_process(store, (0, 0, 4, 4))
        service = _service(store)
        assert service.warm_index(NAMES, WINDOW).sidecar == published
        assert _counters(service)["router.index.loads"] == 1
        _assert_exact(service)

    def test_live_append_unlinks_what_it_drops(self, store, events):
        service = _service(store)
        (old,) = [service.warm_index(NAMES, WINDOW).sidecar]
        service._archive.append_region(
            {"b": np.zeros((4, 4))}, (20, 20, 24, 24)
        )
        _assert_exact(service)  # rebuilt on the way
        (new,) = _sidecars(store)
        assert new != old and not old.exists()
        # Outside the window: restamped, file kept.
        service._archive.append_region({"b": np.zeros((2, 2))}, (0, 0, 2, 2))
        _assert_exact(service)
        assert _sidecars(store) == [new]
        assert _counters(service)["router.index.builds"] == 2


def _save(path: Path, **fields) -> None:
    with path.open("wb") as handle:
        np.savez(handle, **fields)


def _rewrite(path: Path, **changes) -> None:
    with np.load(path, allow_pickle=False) as data:
        fields = {name: data[name] for name in data.files}
    _save(path, **{**fields, **changes})


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip_a_layer_byte(path: Path) -> None:
    with np.load(path, allow_pickle=False) as data:
        needle = data["layer_of"].tobytes()[:64]
    raw = bytearray(path.read_bytes())
    at = raw.index(needle)
    raw[at + 10] ^= 0x01
    path.write_bytes(bytes(raw))


def _renumber(path: Path, old: int, new: int, **changes) -> None:
    """Move the first row on layer ``old`` to layer ``new``."""
    with np.load(path, allow_pickle=False) as data:
        layer_of = data["layer_of"].copy()
    layer_of[np.flatnonzero(layer_of == old)[0]] = new
    _rewrite(path, layer_of=layer_of, **changes)


def _gap(path: Path) -> None:
    """Within the claimed range, but layers 10 and 11 hold nothing."""
    with np.load(path, allow_pickle=False) as data:
        layer_of = data["layer_of"].copy()
    layer_of[layer_of == 10] = 12
    _rewrite(path, layer_of=layer_of, max_layers=40)


def _pickled(path: Path) -> None:
    _save(
        path,
        version=SIDECAR_VERSION,
        max_layers=11,
        layer_of=np.array([{"not": "numbers"}], dtype=object),
    )


CORRUPTIONS = {
    "truncated": _truncate,
    "flipped byte": _flip_a_layer_byte,
    "wrong version": lambda path: _rewrite(path, version=SIDECAR_VERSION + 1),
    "out of range": lambda path: _renumber(path, 3, 11),
    "negative layer": lambda path: _renumber(path, 3, -1),
    "wrong dtype": lambda path: _rewrite(
        path, layer_of=np.zeros(48 * 48, dtype=np.int64)
    ),
    "wrong length": lambda path: _rewrite(
        path, layer_of=np.zeros(7, dtype=np.int16)
    ),
    "an empty layer": _gap,
    "missing field": lambda path: _save(path, version=SIDECAR_VERSION),
    "pickle payload": _pickled,
    "not a zip": lambda path: path.write_bytes(b"onion" * 100),
    "empty file": lambda path: path.write_bytes(b""),
}


class TestNeverTrusted:
    @pytest.mark.parametrize("name", CORRUPTIONS)
    def test_a_bad_file_is_ignored_rebuilt_and_reported(
        self, store, events, name
    ):
        good = _service(store).warm_index(NAMES, WINDOW)
        path = good.sidecar
        CORRUPTIONS[name](path)

        service = _service(store)
        rebuilt = service.warm_index(NAMES, WINDOW)
        assert _counters(service)["router.index.builds"] == 1
        assert "router.index.loads" not in _counters(service)
        (rejected,) = _named(events, "index.sidecar_rejected")
        assert rejected["path"] == str(path) and rejected["reason"]
        assert [
            rebuilt.index.layer(i).tolist() for i in range(11)
        ] == [good.index.layer(i).tolist() for i in range(11)]
        _assert_exact(service)
        # ... and replaced by a good one.
        third = _service(store)
        third.warm_index(NAMES, WINDOW)
        assert _counters(third)["router.index.loads"] == 1

    def test_an_unwritable_sidecar_directory_serves_from_memory(
        self, store, events
    ):
        Path(f"{store}.index").write_text("a file where the directory goes")
        service = _service(store)
        service.warm_index(NAMES, WINDOW)
        _assert_exact(service)
        (failed,) = _named(events, "index.sidecar_write_failed")
        assert failed["reason"]
        assert len(service.router.index_cache) == 1

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="root writes through directory modes"
    )
    def test_a_read_only_sidecar_directory_serves_from_memory(
        self, store, events
    ):
        directory = Path(f"{store}.index")
        directory.mkdir(mode=0o555)
        try:
            service = _service(store)
            service.warm_index(NAMES, WINDOW)
            _assert_exact(service)
            assert _named(events, "index.sidecar_write_failed")
            assert not list(directory.iterdir())
        finally:
            directory.chmod(0o755)

    def test_two_publishers_leave_one_valid_file(self, store, events):
        services = [_service(store) for _ in range(4)]
        barrier = threading.Barrier(len(services))
        failures: list[BaseException] = []

        def warm(service: RetrievalService) -> None:
            try:
                barrier.wait(timeout=30)
                service.warm_index(NAMES, WINDOW)
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [
            threading.Thread(target=warm, args=(service,))
            for service in services
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not failures
        directory = Path(f"{store}.index")
        assert [p.name for p in directory.iterdir()] == [
            _sidecars(store)[0].name
        ]
        late = _service(store)
        late.warm_index(NAMES, WINDOW)
        assert _counters(late)["router.index.loads"] == 1
        assert not _named(events, "index.sidecar_rejected")
        _assert_exact(late)


class TestFleetRestart:
    def test_a_killed_worker_comes_back_through_the_sidecar(self, store):
        before = _tree(store)
        log = EventLog()
        fleet = fleet_for_store(
            str(store),
            n_workers=2,
            warm=[{"attributes": list(NAMES), "region": list(WINDOW)}],
        )
        fleet.event_log = log
        try:
            assert _tree(store) == before  # a warm leaves the store alone
            assert len(_sidecars(store)) == 1
            fleet.poll_events()
            victim = fleet.stats()[0]
            os.kill(victim["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 60
            while fleet.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert fleet.restarts == 1
            while time.monotonic() < deadline:
                stats = fleet.stats()
                if len(stats) == 2 and all(
                    entry["onion_indexes"] == 1 for entry in stats
                ):
                    break
                time.sleep(0.05)
            assert {entry["pid"] for entry in stats}.isdisjoint(
                {victim["pid"]}
            )
            fleet.poll_events()
            respawned = [
                e["attrs"]
                for e in log.snapshot()
                if e["event"] == "index.onion_build"
                and e["pid"] not in {victim["pid"]}
                and e["attrs"]["worker_id"] == victim["worker_id"]
            ]
            assert [e["source"] for e in respawned] == ["sidecar"]
            local = _service(store)
            expected, _ = exhaustive_fused(
                local.engine.stack, None, QUERY, WINDOW
            )
            for worker_id in (0, 1):
                reply = fleet.submit(
                    WorkItem(
                        kind="query",
                        request_id=0,
                        payload=encode_query(
                            QUERY, strategy="onion", use_cache=False
                        ),
                    ),
                    worker_id=worker_id,
                ).result(timeout=60)
                assert reply.ok, reply.error
                assert [
                    (a["row"], a["col"], a["score"])
                    for a in reply.value["answers"]
                ] == expected
        finally:
            fleet.stop()
        assert _tree(store) == before
