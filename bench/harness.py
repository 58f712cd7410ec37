"""Instances, the closed-loop client, verification and statistics.

An *instance* is one complete set-up of the program under test: a new
store directory, a new server (or ingest) process, warm hooks run. The
harness owns every process and directory it makes: each is reaped or
removed on every exit path, and nothing is written outside
``bench/out/``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.archive import Archive
from repro.data.raster import RasterLayer
from repro.data.store import ArchiveWriter

import oracle as oracle_module
from workloads import INGEST_BANDS, Position, Workload

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SERVER_MAIN = BENCH_DIR / "server_main.py"
READY_TIMEOUT_S = 120.0
PASS_TIMEOUT_S = 120.0


#: CPUs this process may use, read before any pinning.
ALL_CPUS = os.sched_getaffinity(0)


def pin(pids: list[int], cpus: set[int]) -> None:
    """Restrict this process and every thread of ``pids`` to ``cpus``.

    Timed work runs pinned to one CPU. The workloads keep one request
    in flight, so nothing is lost, and every hand-over between client,
    front end and worker becomes a context switch on one core; across
    two cores each costs a wake-up of an idle virtual CPU, and a cached
    round trip measured 1.2 to 2.1 ms from one server instance to the
    next against 0.87 to 0.92 ms pinned. Set-up runs unpinned, so both
    workers still start and warm in parallel. The ingest process is left
    alone: it is the only one running, and pinned beside the kernel's
    write-back its appends spread 8 % where unpinned they spread 2 %."""
    os.sched_setaffinity(0, cpus)
    for pid in pids:
        try:
            threads = os.listdir(f"/proc/{pid}/task")
        except FileNotFoundError:
            continue
        for thread in threads:
            try:
                os.sched_setaffinity(int(thread), cpus)
            except ProcessLookupError:
                pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(REPO_DIR / "src"), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def environment(workload: Workload) -> dict[str, Any]:
    """The stamp every result file carries."""
    head = REPO_DIR / ".git" / "HEAD"
    sha = None
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = REPO_DIR / ".git" / ref[5:]
            sha = target.read_text().strip() if target.exists() else None
        else:
            sha = ref
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "grid": workload.grid,
        "seed": workload.seed,
        "git_sha": sha,
        "loadavg": list(os.getloadavg()),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def create_store(scene: dict[str, np.ndarray], path: Path) -> float:
    """Write the scene as an on-disk store; returns the seconds taken."""
    started = time.perf_counter()
    archive = Archive("bench")
    for name, values in scene.items():
        archive.add(RasterLayer(name, values))
    ArchiveWriter.create(path, archive)
    return time.perf_counter() - started


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def _proc_field(pid: int, name: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(name + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Instance:
    """One set-up: store directory plus the process serving it."""

    _serial = 0

    def __init__(self, workload: Workload, mode: str, **fleet_config: Any) -> None:
        Instance._serial += 1
        self.workload = workload
        self.mode = mode
        self.root = OUT_DIR / "tmp" / f"{os.getpid()}-{Instance._serial}"
        self.store = self.root / "store"
        self._fleet_config = {"warm": workload.warm, **fleet_config}
        self.process: subprocess.Popen | None = None
        self.pids: list[int] = []
        self.port = 0
        self.fleet_start_s = 0.0
        self.store_create_s = 0.0
        self.setup_s = 0.0

    def __enter__(self) -> "Instance":
        try:
            self._start()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def _start(self) -> None:
        # A run killed outright cannot remove its stores; the next does.
        for stale in self.root.parent.glob("*-*"):
            if not os.path.exists(f"/proc/{stale.name.split('-')[0]}"):
                shutil.rmtree(stale, ignore_errors=True)
        started = time.perf_counter()
        self.root.mkdir(parents=True)
        self.store_create_s = create_store(self.workload.scene, self.store)
        if self.mode == "serve":
            arguments = ["serve", str(self.store), json.dumps(self._fleet_config)]
        else:
            plan = self.root / "plan.json"
            blocks = self.root / "blocks.npy"
            plan.write_text(
                json.dumps(
                    {
                        "bands": list(INGEST_BANDS),
                        "positions": [
                            {"kind": position.kind, "payload": position.payload}
                            for position in self.workload.positions
                        ],
                    }
                )
            )
            np.save(blocks, self.workload.blocks)
            arguments = ["ingest", str(self.store), str(plan), str(blocks)]
        os.sched_setaffinity(0, ALL_CPUS)
        self.process = subprocess.Popen(
            [sys.executable, str(SERVER_MAIN), *arguments],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(REPO_DIR),
            text=True,
        )
        ready = self.read_line(READY_TIMEOUT_S)
        self.setup_s = time.perf_counter() - started
        self.pids = ready["pids"]
        self.port = ready.get("port", 0)
        self.fleet_start_s = ready.get("fleet_start_s", 0.0)
        if self.mode == "serve":
            pin(self.pids, {max(ALL_CPUS)})

    def read_line(self, timeout_s: float) -> dict:
        assert self.process is not None and self.process.stdout is not None
        readable, _, _ = select.select([self.process.stdout], [], [], timeout_s)
        line = self.process.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError(
                f"{self.mode} process gave no line within {timeout_s}s "
                f"(exit code {self.process.poll()})"
            )
        return json.loads(line)

    def ingest_pass(self) -> tuple[list[float], list[Any]]:
        assert self.process is not None and self.process.stdin is not None
        self.process.stdin.write("pass\n")
        self.process.stdin.flush()
        reply = self.read_line(PASS_TIMEOUT_S)
        return reply["latencies"], reply["replies"]

    def shells(
        self, operations: list[tuple[str, Any]], passes: int, which: list[str]
    ) -> dict:
        """Have the server process time the shells below HTTP
        (bench/shells.py) over ``operations``."""
        assert self.process is not None and self.process.stdin is not None
        path = self.root / "operations.json"
        path.write_text(json.dumps(operations))
        command = {"operations": str(path), "passes": passes, "shells": which}
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self.read_line(PASS_TIMEOUT_S)

    def rss_peak_mb(self) -> float:
        """Summed ``VmHWM`` of the process tree, in MiB."""
        return sum(_proc_field(pid, "VmHWM") for pid in self.pids) / 1024.0

    def cpu_s(self) -> float:
        return sum(_proc_cpu_s(pid) for pid in self.pids)

    def close(self) -> None:
        process, self.process = self.process, None
        if process is not None:
            try:
                if process.stdin is not None:
                    process.stdin.close()
                process.wait(timeout=20.0)
            except (OSError, subprocess.TimeoutExpired):
                process.kill()
                process.wait()
            finally:
                if process.stdout is not None:
                    process.stdout.close()
            # Workers exit on the closed request pipe once their parent
            # is gone; wait so none outlives the run.
            deadline = time.monotonic() + 10.0
            for pid in self.pids[1:]:
                while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                    time.sleep(0.02)
                if os.path.exists(f"/proc/{pid}"):
                    try:
                        os.kill(pid, 9)
                    except ProcessLookupError:
                        pass
        shutil.rmtree(self.root, ignore_errors=True)


class HttpClient:
    """One keep-alive connection; a caller that waits for each reply."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def send(self, position: Position) -> tuple[float, Any]:
        """Round-trip one position: (seconds, decoded body or error)."""
        started = time.perf_counter()
        try:
            self.connection.request(
                "POST",
                position.path,
                body=position.body,
                headers={"Content-Type": "application/json"},
            )
            response = self.connection.getresponse()
            body = response.read()
            elapsed = time.perf_counter() - started
        except (OSError, http.client.HTTPException) as error:
            self.connection.close()
            return time.perf_counter() - started, f"transport: {error!r}"
        if response.status != 200:
            return elapsed, f"status {response.status}: {body[:120]!r}"
        return elapsed, json.loads(body)

    def get(self, path: str) -> tuple[float, int, bytes]:
        started = time.perf_counter()
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        body = response.read()
        return time.perf_counter() - started, response.status, body

    def http_pass(self, positions: list[Position]) -> tuple[list[float], list[Any]]:
        latencies, replies = [], []
        for position in positions:
            elapsed, reply = self.send(position)
            latencies.append(elapsed)
            replies.append(reply)
        return latencies, replies

    def close(self) -> None:
        self.connection.close()


# -- verification -----------------------------------------------------------


def result_documents(position: Position, reply: Any) -> list[Any]:
    """The result documents of one reply, one per query answered."""
    if position.kind == "batch":
        if isinstance(reply, dict) and isinstance(reply.get("results"), list):
            return reply["results"]
        return [reply] * position.weight
    return [reply]


def strategies(position: Position, reply: Any) -> list[str]:
    """The strategy label of every query the reply answered (a partial
    answer's label ends in ``-partial``, a cached one's in ``-cached``)."""
    if position.kind == "append":
        return []
    return [
        str(result.get("strategy")) if isinstance(result, dict) else "error"
        for result in result_documents(position, reply)
    ]


_CACHE_CLASSES = ("hit", "miss", "recompute", "fresh")


def check_pass(
    workload: Workload,
    replies: list[Any],
    oracle: oracle_module.Oracle,
    warm: bool,
) -> list[str]:
    """Failures of one pass, one message per failed operation.

    Appends are replayed into the oracle as the pass goes, so it is the
    in-memory twin of the store at every read. Once the caches are warm
    (``warm``), a reply must also be a hit exactly where the schedule
    says so."""
    failures = []
    for index, (position, reply) in enumerate(zip(workload.positions, replies)):
        if position.kind == "append":
            block = workload.blocks[position.payload["block"]]
            oracle.append(
                position.payload["region"],
                {band: block[i] for i, band in enumerate(INGEST_BANDS)},
            )
            continue
        payloads = position.payload if position.kind == "batch" else [position.payload]
        results = result_documents(position, reply)
        if len(results) != len(payloads):
            failures.append(f"position {index}: {len(results)} results")
            continue
        for payload, result in zip(payloads, results):
            strategy = str(result.get("strategy")) if isinstance(result, dict) else ""
            problem = oracle_module.failure(result, oracle.answers(payload, strategy))
            cached = strategy.endswith("-cached")
            if warm and problem is None and position.cls in _CACHE_CLASSES:
                if cached != (position.cls == "hit"):
                    problem = f"scheduled as {position.cls} but answered {strategy!r}"
            if problem is not None:
                failures.append(f"position {index} ({position.cls}): {problem}")
                break
    return failures


# -- statistics -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def position_floors(passes: list[list[float]]) -> list[float]:
    """Per-position minimum over the pooled timed passes."""
    return np.min(np.asarray(passes, dtype=float), axis=0).tolist()


def end_to_end(
    workload: Workload,
    passes: list[list[float]],
    setups: list[float],
    rss_mb: list[float],
    amplification: float,
) -> dict[str, tuple[float, str]]:
    floors = position_floors(passes)
    query_floors = [
        floor
        for floor, position in zip(floors, workload.positions)
        if position.kind != "append"
    ]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_qps": (workload.queries_per_pass / sum(floors), "1/s"),
        "query_p50_ms": (percentile(query_floors, 50) * 1e3, "ms"),
        "query_p90_ms": (percentile(query_floors, 90) * 1e3, "ms"),
        "rss_peak_mb": (max(rss_mb), "MiB"),
        "store_amplification": (amplification, "ratio"),
    }


def timed_passes(run_pass: Any, budget_s: float, min_passes: int) -> list[Any]:
    """Repeat ``run_pass`` until ``budget_s`` is used, at least
    ``min_passes`` times, with the collector off."""
    results = []
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        while (
            len(results) < min_passes
            or time.perf_counter() - started < budget_s
        ):
            results.append(run_pass())
    finally:
        gc.enable()
    return results
