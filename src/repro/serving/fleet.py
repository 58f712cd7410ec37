"""The worker fleet: N processes over one store.

:class:`WorkerFleet` owns the process architecture underneath the HTTP
front end:

* **one store, N read-only maps** — every worker memory-maps the band
  files of one :mod:`repro.data.store` directory, so fleet RSS grows
  with worker *code*, not archive size. An in-memory stack is written
  once, at :meth:`WorkerFleet.start`, to a temporary store on tmpfs
  that the fleet owns and removes; a store the caller names with
  ``store_path`` is only ever read — what the workers derive from it
  (built Onion indexes) is published *beside* it, in
  ``<store_path>.index/``, where the next start finds it;
* **per-worker pipes, no shared locks** — each worker talks over its
  own pair of one-way :func:`multiprocessing.Pipe` connections (parent
  writes requests, worker writes replies). ``multiprocessing.Queue``
  is deliberately NOT used for replies: every writer of a queue funnels
  through one shared feeder lock, and a worker that dies between
  ``send_bytes`` and the lock release poisons the whole fleet — the
  parent can even receive the final message before the sender releases,
  so "READY arrived, then the worker crashed" leaves every *other*
  worker's replies blocked forever. Single-writer/single-reader pipes
  have no cross-process locks to orphan, and a crash costs only that
  worker's pipes, which the respawn replaces with fresh ones;
* **one reader per reply pipe** — the ``repro-fleet-collect`` thread,
  except while a :class:`~repro.serving.http.ServingServer` is started
  on the fleet: then that server's event loop reads the pipes
  (:meth:`WorkerFleet.read_replies_on`) and the thread stands down, so
  a reply reaches the coroutine waiting for it with no thread wake-up
  and no GIL hand-over in between. Either way
  :meth:`WorkerFleet._collect` is the only code that reads a reply;
* **least-loaded dispatch** — :meth:`submit` places each
  :class:`~repro.serving.protocol.WorkItem` with the worker holding the
  fewest in-flight items and returns a :class:`concurrent.futures
  .Future` that resolves to the worker's :class:`~repro.serving
  .protocol.WorkReply` (always a reply — worker failures surface as
  ``ok=False`` replies, never hung futures);
* **crash recovery** — a monitor thread watches process sentinels; when
  a worker dies the fleet respawns it on fresh pipes and every
  unanswered item of that worker is either resubmitted once
  (``retry_on_crash``, the default) or failed cleanly with
  ``error_kind="crashed"``. Duplicate replies from a retried item the
  dead worker also managed to answer are ignored by id;
* **fleet-wide warm + stats** — :meth:`warm_index` broadcasts an index
  build to every worker (the startup warm hook uses the same spec), and
  :meth:`stats` gathers per-worker registry snapshots for the front
  end's merged ``/metrics`` document.

Workers are spawned (never forked): the parent runs threads, and fork
plus threads is a deadlock lottery. Spawn also makes the worker entry
importable-by-name, which is what keeps it testable in isolation.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import shutil
import tempfile
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Any

from repro.data.archive import Archive
from repro.data.raster import RasterStack
from repro.data.store import ArchiveWriter
from repro.exceptions import ArchiveError
from repro.metrics.registry import (
    MetricsRegistry,
    merge_snapshots,
)
from repro.serving.protocol import WorkItem, WorkReply
from repro.serving.worker import (
    READY_ID,
    StoreArchiveManifest,
    WorkerConfig,
    worker_main,
)
from repro.telemetry.events import EventLog, global_event_log


class FleetError(RuntimeError):
    """Fleet lifecycle failure (startup timeout, submit after stop)."""


def _write_temporary_store(stack: RasterStack, leaf_size: int) -> Path:
    """Write ``stack`` as an ordinary store, ``store`` inside a fresh
    private directory, and return that directory (removed again on
    failure). Everything derived from the store — the workers' index
    sidecar ``store.index`` — lands beside it, so removing the one
    directory removes it all.

    Under ``/dev/shm`` when the platform has one — tmpfs, where POSIX
    shared-memory segments live too, so the archive stays in memory
    under the capacity limit it always had — else the platform temp dir.
    """
    shm = Path("/dev/shm")
    root = Path(
        tempfile.mkdtemp(
            prefix="repro-fleet-", dir=shm if shm.is_dir() else None
        )
    )
    try:
        archive = Archive("fleet")
        for name in stack.names:
            archive.add(stack[name])
        ArchiveWriter.create(
            root / "store", archive, screen_leaf_size=leaf_size
        )
    except ArchiveError as error:
        # An unstorable stack; the message names the offending layer.
        shutil.rmtree(root, ignore_errors=True)
        raise FleetError(
            f"cannot write the stack to the fleet's store: {error}"
        ) from error
    except BaseException:
        shutil.rmtree(root, ignore_errors=True)
        raise
    return root


@dataclass
class FleetConfig:
    """Fleet shape and worker knobs (one object, explicit defaults).

    ``n_workers`` is an explicit argument with a documented default of
    2 — never a silent CPU-count read — matching the service-side rule
    that serving capacity is configuration, not environment sniffing.
    """

    n_workers: int = 2
    n_shards: int = 1
    pool_workers: int | None = None
    cache_size: int = 128
    #: Leaf size the temporary store of a stack-built fleet is written
    #: with (workers always serve at their store's leaf size).
    leaf_size: int = 16
    warm: list[dict[str, Any]] = field(default_factory=list)
    debug_hooks: bool = False
    retry_on_crash: bool = True
    start_timeout_s: float = 120.0
    #: Workers ship each completed span tree on the reply so the front
    #: end can merge frontend + worker spans into one trace.
    ship_spans: bool = False
    #: Whole-tree span budget per shipped reply (see
    #: :func:`repro.telemetry.distributed.ship_trace`).
    max_ship_spans: int = 512

    def worker_config(self) -> WorkerConfig:
        return WorkerConfig(
            n_shards=self.n_shards,
            pool_workers=self.pool_workers,
            cache_size=self.cache_size,
            warm=list(self.warm),
            debug_hooks=self.debug_hooks,
            ship_spans=self.ship_spans,
            max_ship_spans=self.max_ship_spans,
        )


@dataclass
class _Inflight:
    item: WorkItem
    future: "Future[WorkReply]"
    worker_id: int
    retries: int = 0


def _run_background(
    fleet_ref: "weakref.ref[WorkerFleet]", waitables: Any, handle: Any
) -> None:
    """Body of the fleet's two background threads: wait (at most 0.2 s)
    on what ``waitables(fleet)`` names, then ``handle(fleet, ready)``;
    ``None`` from ``waitables`` ends the thread.

    The wait runs *without* a reference to the fleet, so a fleet its
    owner dropped without ``stop()`` is still garbage-collected — its
    finalizer removes the temporary store — and the threads end.
    """
    while True:
        fleet = fleet_ref()
        if fleet is None or fleet._stopping:
            return
        waiting = waitables(fleet)
        del fleet
        if waiting is None:
            return
        if not waiting:
            time.sleep(0.02)
            continue
        try:
            ready = connection_wait(waiting, timeout=0.2)
        except OSError:
            # A pipe was closed out from under the wait (crash
            # recovery swap); rebuild the snapshot and keep going.
            continue
        fleet = fleet_ref()
        if fleet is None:
            return
        handle(fleet, ready)
        del fleet


class WorkerFleet:
    """Spawn, feed, watch, and drain N worker processes."""

    def __init__(
        self,
        stack: RasterStack | None = None,
        config: FleetConfig | None = None,
        registry: MetricsRegistry | None = None,
        store_path: "str | None" = None,
        store_layers: "tuple[str, ...] | None" = None,
        event_log: EventLog | None = None,
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        if self.config.n_workers < 1:
            raise FleetError(
                f"n_workers must be positive, got {self.config.n_workers}"
            )
        if (stack is None) == (store_path is None):
            raise FleetError(
                "exactly one of stack (written to a temporary store at "
                "start) or store_path (a store the caller owns) is required"
            )
        self._stack = stack
        #: The store every worker opens: the caller's (never created,
        #: moved or deleted here), or from start() the temporary one
        #: written from ``stack``.
        self._store_path = store_path
        self._store_layers = store_layers
        #: Removes the temporary store (None for a caller's store) — on
        #: stop(), or when an un-stopped fleet is collected.
        self._remove_store: weakref.finalize | None = None
        #: Fleet-side metrics (restarts, crash retries); the front end
        #: passes its own registry so these merge into ``/metrics``.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Structured lifecycle events (spawn/crash/respawn/orphan
        #: disposition) land here; worker-side events drained by
        #: :meth:`poll_events` are folded in too.
        self.event_log = (
            event_log if event_log is not None else global_event_log()
        )
        #: Per-worker event-log cursors for :meth:`poll_events`; reset
        #: to 0 on respawn (a fresh worker restarts its seq at 1).
        self._event_cursors: list[int] = []
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list[Any] = []
        #: Parent-side pipe ends. _request_conns[i] is written only
        #: under _send_locks[i] (Connection.send is not thread-safe);
        #: _reply_conns[i] is read only by _collect, which only the
        #: current reader calls: the collector thread or _reader_loop.
        self._request_conns: list[Any] = []
        self._reply_conns: list[Any] = []
        self._send_locks: list[threading.Lock] = []
        self._ready: list[threading.Event] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._inflight: dict[int, _Inflight] = {}
        self._load: list[int] = []
        self._restarts = 0
        self._started = False
        self._stopping = False
        #: The thread reading the reply pipes, and the event loop asked
        #: to read them in its place (read_replies_on): the thread hands
        #: them over as its last act and leaves None here, so the loop
        #: reads exactly while _reader_loop is set and _collector is not.
        self._collector: threading.Thread | None = None
        self._reader_loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started and not self._stopping

    @property
    def n_workers(self) -> int:
        return self.config.n_workers

    @property
    def restarts(self) -> int:
        """Workers respawned after a crash over the fleet's lifetime."""
        with self._lock:
            return self._restarts

    def start(self) -> "WorkerFleet":
        """Write a stack to its temporary store, spawn every worker,
        wait until all are ready (store open + warmed). Idempotent."""
        if self._started:
            return self
        if self._stack is not None:
            root = _write_temporary_store(self._stack, self.config.leaf_size)
            self._remove_store = weakref.finalize(
                self, shutil.rmtree, root, ignore_errors=True
            )
            self._store_path = str(root / "store")
        self._procs = [None] * self.n_workers
        self._request_conns = [None] * self.n_workers
        self._reply_conns = [None] * self.n_workers
        self._send_locks = [threading.Lock() for _ in range(self.n_workers)]
        self._ready = [threading.Event() for _ in range(self.n_workers)]
        self._load = [0] * self.n_workers
        self._event_cursors = [0] * self.n_workers
        self._started = True
        self._collector = self._start_collector()
        for worker_id in range(self.n_workers):
            self._spawn(worker_id)
        deadline = time.monotonic() + self.config.start_timeout_s
        for worker_id, event in enumerate(self._ready):
            if not event.wait(max(0.0, deadline - time.monotonic())):
                self.stop()
                raise FleetError(
                    f"worker {worker_id} did not become ready within "
                    f"{self.config.start_timeout_s}s"
                )
        self._background(
            "repro-fleet-monitor",
            WorkerFleet._sentinels,
            WorkerFleet._recover_dead,
        )
        self.registry.gauge("fleet.workers", float(self.n_workers))
        return self

    def _background(
        self, name: str, waitables: Any, handle: Any
    ) -> threading.Thread:
        thread = threading.Thread(
            target=_run_background,
            args=(weakref.ref(self), waitables, handle),
            name=name,
            daemon=True,
        )
        thread.start()
        return thread

    def _start_collector(self) -> threading.Thread:
        return self._background(
            "repro-fleet-collect",
            WorkerFleet._thread_reply_conns,
            WorkerFleet._collect,
        )

    def _spawn(self, worker_id: int) -> None:
        """Start (or restart) one worker on a fresh pair of pipes.

        Fresh pipes on every respawn: a stale request pipe could hold a
        half-delivered stream, and the old reply pipe died with its
        writer. New file descriptors make the new worker's channel
        state trivially clean.
        """
        manifest = StoreArchiveManifest(
            path=str(self._store_path), layers=self._store_layers
        )
        request_read, request_write = self._ctx.Pipe(duplex=False)
        reply_read, reply_write = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                manifest,
                request_read,
                reply_write,
                self.config.worker_config(),
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # The child duplicated its ends at spawn; close ours so a
        # worker death shows up as EOF instead of a silently-open pipe.
        request_read.close()
        reply_write.close()
        with self._lock:
            old_request = self._request_conns[worker_id]
            self._procs[worker_id] = process
            self._request_conns[worker_id] = request_write
            self._reply_conns[worker_id] = reply_read
            if self._reader_loop is not None and self._collector is None:
                # The loop reads: it must pick up the new pipe.
                self._reader_loop.call_soon_threadsafe(
                    self._read_on_loop, self._reader_loop
                )
        if old_request is not None:
            try:
                old_request.close()
            except OSError:
                pass
        self.event_log.emit(
            "worker.spawn", worker_id=worker_id, pid=process.pid
        )

    def stop(self, timeout_s: float = 10.0) -> None:
        """Drain and terminate the fleet; remove a temporary store."""
        if not self._started or self._stopping:
            return
        self._stopping = True
        for worker_id in range(self.n_workers):
            try:
                self._send(worker_id, WorkItem(kind="shutdown", request_id=0))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout_s
        for process in self._procs:
            if process is None:
                continue
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(2.0)
        # The collector exits on the stopping flag at its next wait
        # timeout; no sentinel message is needed with pipes.
        collector = self._collector
        if collector is not None:
            collector.join(5.0)
        with self._lock:
            pending = list(self._inflight.values())
            self._inflight.clear()
            conns = list(self._request_conns)
            # A serving loop still reading keeps the reply pipes: each is
            # at EOF now that its worker is gone, and _collect unregisters
            # a pipe before closing it. Closing them here would leave
            # dead fds in that loop's selector.
            if self._reader_loop is None or self._collector is not None:
                conns += self._reply_conns
            self._request_conns = [None] * self.n_workers
            self._reply_conns = [None] * self.n_workers
        for entry in pending:
            self._resolve_error(entry, "fleet stopped")
        for conn in conns:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:
                pass
        if self._remove_store is not None:
            self._remove_store()

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    # -- dispatch ----------------------------------------------------------

    def _send(self, worker_id: int, item: WorkItem) -> None:
        """Write one item to a worker's request pipe."""
        with self._send_locks[worker_id]:
            conn = self._request_conns[worker_id]
            if conn is None:
                raise BrokenPipeError(
                    f"worker {worker_id} has no request pipe"
                )
            conn.send(item)

    def submit(self, item: WorkItem, worker_id: int | None = None) -> "Future[WorkReply]":
        """Queue one work item and return its reply future.

        ``worker_id`` pins the item to one worker (stats/warm
        broadcasts); the default places it on the least-loaded worker.
        The future always resolves to a :class:`WorkReply` — crashes
        and shutdowns become ``ok=False`` replies, never exceptions or
        hangs.
        """
        if not self.started:
            raise FleetError("fleet is not running")
        future: "Future[WorkReply]" = Future()
        with self._lock:
            if worker_id is None:
                worker_id = min(
                    range(self.n_workers), key=self._load.__getitem__
                )
            item.request_id = next(self._ids)
            self._inflight[item.request_id] = _Inflight(
                item=item, future=future, worker_id=worker_id
            )
            self._load[worker_id] += 1
        try:
            self._send(worker_id, item)
        except (OSError, ValueError):
            # The worker died mid-submit. The in-flight entry is already
            # registered, so the monitor's orphan sweep retries or fails
            # it — the future can never hang.
            pass
        return future

    def submit_query(
        self,
        payload: dict[str, Any],
        deadline_at: float | None = None,
        trace_id: str | None = None,
    ) -> "Future[WorkReply]":
        return self.submit(
            WorkItem(
                kind="query",
                request_id=0,
                payload=payload,
                deadline_at=deadline_at,
                trace_id=trace_id,
            )
        )

    def submit_batch(
        self,
        payloads: list[dict[str, Any]],
        deadlines_at: "list[float | None] | None" = None,
        trace_id: str | None = None,
        coalesced: bool = False,
    ) -> "Future[WorkReply]":
        return self.submit(
            WorkItem(
                kind="batch",
                request_id=0,
                payload=list(payloads),
                deadline_at=(
                    list(deadlines_at) if deadlines_at is not None else None
                ),
                trace_id=trace_id,
                coalesced=coalesced,
            )
        )

    # -- who reads the reply pipes -----------------------------------------

    def read_replies_on(self, loop: asyncio.AbstractEventLoop) -> None:
        """Ask that ``loop`` (a started server's) read the reply pipes.

        Returns at once: the collector thread hands the pipes over as
        its last act, at its next wake-up (within 0.2 s), so each pipe
        has exactly one reader at every instant. The first loop to ask
        keeps them until its :meth:`release_reader`.
        """
        with self._lock:
            if self._reader_loop is None:
                self._reader_loop = loop

    def release_reader(self, loop: asyncio.AbstractEventLoop) -> None:
        """On ``loop``'s own thread, before it closes: stop reading
        replies there; the collector thread pumps again (a fleet
        outlives its servers)."""
        with self._lock:
            if self._reader_loop is not loop:
                return
            self._reader_loop = None
            for conn in self._reply_conns:
                if conn is not None:
                    loop.remove_reader(conn.fileno())
            if self._collector is None and not self._stopping:
                self._collector = self._start_collector()

    def _thread_reply_conns(self) -> "list[Any] | None":
        """What the collector thread waits on next — or None, its cue
        to end, once it has handed the pipes to the loop that asked."""
        with self._lock:
            loop = self._reader_loop
            if loop is None:
                return [conn for conn in self._reply_conns if conn is not None]
            loop.call_soon_threadsafe(self._read_on_loop, loop)
            self._collector = None
            return None

    def _read_on_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """On ``loop``: read every live reply pipe there (for one it
        reads already, ``add_reader`` replaces the registration)."""
        with self._lock:
            if self._reader_loop is not loop:
                return  # released before this callback ran
            for conn in self._reply_conns:
                if conn is not None:
                    loop.add_reader(conn.fileno(), self._collect, [conn], loop)

    def _collect(self, readable: list[Any], loop: Any = None) -> None:
        """Read one reply off each readable pipe, resolving futures by
        id. ``loop`` is the event loop calling, when one is the reader."""
        for conn in readable:
            try:
                reply: WorkReply = conn.recv()
            except (EOFError, OSError):
                # The worker died; the monitor owns recovery. Drop
                # the pipe so its reader stops spinning on it.
                with self._lock:
                    for index, live in enumerate(self._reply_conns):
                        if live is conn:
                            self._reply_conns[index] = None
                if loop is not None:
                    # Before the close frees the fd number for the
                    # respawn's pipes to reuse.
                    loop.remove_reader(conn.fileno())
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            self._dispatch_reply(reply)

    def _dispatch_reply(self, reply: WorkReply) -> None:
        if reply.request_id == READY_ID:
            if 0 <= reply.worker_id < len(self._ready):
                self._ready[reply.worker_id].set()
            return
        with self._lock:
            entry = self._inflight.pop(reply.request_id, None)
            if entry is not None:
                self._load[entry.worker_id] = max(
                    0, self._load[entry.worker_id] - 1
                )
        # Unknown id: a duplicate from a crash-retried item that the
        # dying worker also answered. First reply won; drop it.
        if entry is not None:
            entry.future.set_result(reply)

    def _sentinels(self) -> list[Any]:
        """Every current worker's sentinel — a dead worker's stays
        readable, so one that died between two waits ends the next wait
        at once instead of being missed."""
        return [
            process.sentinel for process in self._procs if process is not None
        ]

    def _recover_dead(self, exited: list[Any]) -> None:
        if exited:
            for worker_id in range(self.n_workers):
                self._recover(worker_id)

    def _recover(self, worker_id: int) -> None:
        """Respawn a dead worker and disposition its unanswered items."""
        process = self._procs[worker_id]
        if process is None or process.is_alive():
            return
        process.join(0.1)
        self.event_log.emit(
            "worker.crash",
            severity="error",
            worker_id=worker_id,
            pid=process.pid,
            exitcode=process.exitcode,
        )
        # Holding the worker's send lock across [orphan scan .. new
        # pipe install] closes a race with submit(): a concurrent send
        # either lands before the scan (its entry gets swept here) or
        # blocks until the fresh pipe exists (and is delivered to the
        # respawned worker) — never swallowed into a dead pipe after
        # the sweep already ran.
        with self._send_locks[worker_id]:
            with self._lock:
                if self._stopping:
                    return
                orphans = [
                    entry
                    for entry in self._inflight.values()
                    if entry.worker_id == worker_id
                ]
                for entry in orphans:
                    del self._inflight[entry.item.request_id]
                self._load[worker_id] = 0
                self._restarts += 1
                self._ready[worker_id].clear()
                # A fresh worker restarts its event seq at 1.
                self._event_cursors[worker_id] = 0
            self.registry.inc("fleet.restarts")
            self._spawn(worker_id)
        self.event_log.emit(
            "worker.respawn", worker_id=worker_id, orphans=len(orphans)
        )
        for entry in orphans:
            retryable = (
                self.config.retry_on_crash
                and entry.retries < 1
                and entry.item.kind in ("query", "batch", "stats", "warm")
            )
            if not retryable:
                self._resolve_error(
                    entry,
                    f"worker {worker_id} crashed "
                    f"(exitcode {process.exitcode})",
                )
                self.event_log.emit(
                    "worker.orphan_failed",
                    severity="error",
                    trace_id=entry.item.trace_id,
                    worker_id=worker_id,
                    kind=entry.item.kind,
                    retries=entry.retries,
                )
                continue
            self.registry.inc("fleet.crash_retries")
            self.event_log.emit(
                "worker.orphan_retry",
                severity="warning",
                trace_id=entry.item.trace_id,
                worker_id=worker_id,
                kind=entry.item.kind,
            )
            with self._lock:
                # Re-enqueue under the same id (the reply collector
                # drops whichever answer arrives second).
                target = min(
                    range(self.n_workers), key=self._load.__getitem__
                )
                entry.retries += 1
                entry.worker_id = target
                self._inflight[entry.item.request_id] = entry
                self._load[target] += 1
            try:
                self._send(target, entry.item)
            except (OSError, ValueError):
                # The retry target died too; its own recovery pass
                # sweeps this entry up (retries is now 1, so it fails
                # cleanly instead of looping).
                pass

    def _resolve_error(self, entry: _Inflight, message: str) -> None:
        if not entry.future.done():
            entry.future.set_result(
                WorkReply(
                    request_id=entry.item.request_id,
                    worker_id=entry.worker_id,
                    ok=False,
                    error=message,
                    error_kind="crashed",
                )
            )

    # -- fleet-wide operations ---------------------------------------------

    def describe(self) -> list[dict[str, Any]]:
        """Liveness/load view for ``/healthz``."""
        with self._lock:
            return [
                {
                    "worker": worker_id,
                    "alive": bool(
                        process is not None and process.is_alive()
                    ),
                    "pid": process.pid if process is not None else None,
                    "inflight": self._load[worker_id],
                }
                for worker_id, process in enumerate(self._procs)
            ]

    def _broadcast(
        self, kind: str, payloads: list[Any], timeout_s: float
    ) -> list[WorkReply]:
        """Send worker ``i`` a ``kind`` item carrying ``payloads[i]``
        and wait for the replies (those that miss the timeout are left
        out). The one fleet-wide call that blocks on replies — on the
        loop that reads them it would wait for itself."""
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None  # no loop runs on this thread
        if running is not None and running is self._reader_loop:
            raise FleetError(
                f"a fleet-wide {kind!r} blocks on worker replies and was "
                "called on the event loop that reads them; use "
                "loop.run_in_executor"
            )
        futures = [
            self.submit(
                WorkItem(kind=kind, request_id=0, payload=payload),
                worker_id=worker_id,
            )
            for worker_id, payload in enumerate(payloads)
        ]
        deadline = time.monotonic() + timeout_s
        replies = []
        for future in futures:
            remaining = max(0.05, deadline - time.monotonic())
            try:
                replies.append(future.result(timeout=remaining))
            except TimeoutError:
                continue
        return replies

    def poll_events(self, timeout_s: float = 2.0) -> int:
        """Drain each worker's event log into the fleet's.

        Uses a per-worker cursor so each event crosses the pipe exactly
        once; cursors reset on respawn (a fresh worker restarts its
        sequence). Returns the number of events folded in. Workers that
        miss the timeout are simply skipped until the next poll.
        """
        if not self.started:
            return 0
        with self._lock:
            cursors = list(self._event_cursors)
        ingested = 0
        for reply in self._broadcast("events", cursors, timeout_s):
            if not reply.ok or not isinstance(reply.value, dict):
                continue
            worker_id = reply.worker_id
            for record in reply.value.get("events", ()):
                record = dict(record)
                record["attrs"] = {
                    **record.get("attrs", {}),
                    "worker_id": worker_id,
                }
                self.event_log.ingest(record)
                ingested += 1
            with self._lock:
                self._event_cursors[worker_id] = max(
                    self._event_cursors[worker_id],
                    int(reply.value.get("cursor", 0)),
                )
        return ingested

    def stats(self, timeout_s: float = 5.0) -> list[dict[str, Any]]:
        """Per-worker stats payloads (workers that miss the timeout —
        e.g. mid-respawn — are simply absent from the list)."""
        return [
            reply.value
            for reply in self._broadcast(
                "stats", [None] * self.n_workers, timeout_s
            )
            if reply.ok
        ]

    def warm_index(
        self,
        attributes: "list[str] | tuple[str, ...]",
        region: tuple[int, int, int, int] | None = None,
        timeout_s: float = 60.0,
    ) -> list[WorkReply]:
        """Build the named Onion index on **every** worker now.

        The fleet-wide counterpart of
        :meth:`RetrievalService.warm_index`, which can only ever warm
        the calling process. Returns one reply per worker that finished
        in time.
        """
        spec = {
            "attributes": list(attributes),
            "region": list(region) if region is not None else None,
        }
        return self._broadcast("warm", [spec] * self.n_workers, timeout_s)

    def merged_metrics(
        self, timeout_s: float = 5.0, extra: "list[dict] | None" = None
    ) -> dict[str, Any]:
        """One merged snapshot: every worker's registry plus the
        fleet's own (and any ``extra`` snapshots, e.g. the front end's).
        """
        snapshots = [
            payload["registry"] for payload in self.stats(timeout_s)
        ]
        snapshots.append(self.registry.snapshot())
        if extra:
            snapshots.extend(extra)
        merged = merge_snapshots(snapshots)
        merged["gauges"]["fleet.workers_alive"] = float(
            sum(1 for entry in self.describe() if entry["alive"])
        )
        merged["gauges"]["fleet.restarts"] = float(self.restarts)
        return merged

    def __repr__(self) -> str:
        state = (
            "stopped" if not self._started
            else "stopping" if self._stopping
            else "running"
        )
        return (
            f"WorkerFleet(workers={self.n_workers}, {state}, "
            f"restarts={self.restarts})"
        )


def fleet_for_stack(
    stack: RasterStack, **config_kwargs: Any
) -> WorkerFleet:
    """Convenience: a started fleet over ``stack`` with config kwargs."""
    return WorkerFleet(stack, FleetConfig(**config_kwargs)).start()


def fleet_for_store(
    store_path: str,
    layers: "tuple[str, ...] | None" = None,
    **config_kwargs: Any,
) -> WorkerFleet:
    """Convenience: a started fleet serving an on-disk store read-only."""
    return WorkerFleet(
        config=FleetConfig(**config_kwargs),
        store_path=store_path,
        store_layers=layers,
    ).start()
