"""The program under test, as the benchmark starts it.

``serve``: the shipped serving stack over a store — ``fleet_for_store``
with two workers and ``ServingServer``, every knob at its default, on
an ephemeral port. For traced runs it also times the shells below HTTP
(bench/shells.py) on request, one JSON command per stdin line.
``ingest``: the same store and service layers in one process with the
worker's configuration, driven pass by pass.

Both print one JSON ready line on stdout once set-up is complete and
exit when stdin closes. Fleet workers are spawned, so they re-import
this module: everything runs under the ``__main__`` guard.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time


def _emit(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def serve(store: str, config: dict) -> None:
    from repro.serving import ServingServer, fleet_for_store

    import shells

    started = time.perf_counter()
    fleet = fleet_for_store(store, n_workers=2, **config)
    fleet_start_s = time.perf_counter() - started
    try:
        server = ServingServer(fleet).start()
        try:
            _emit(
                {
                    "port": server.port,
                    "pids": [os.getpid()]
                    + [entry["pid"] for entry in fleet.describe()],
                    "fleet_start_s": fleet_start_s,
                }
            )
            for line in sys.stdin:
                command = json.loads(line)
                with open(command["operations"], encoding="utf-8") as handle:
                    operations = [tuple(entry) for entry in json.load(handle)]
                _emit(
                    shells.run(
                        fleet,
                        store,
                        operations,
                        command["passes"],
                        config.get("warm", []),
                        command["shells"],
                    )
                )
        finally:
            server.close()
    finally:
        fleet.stop()


def ingest(store: str, plan_path: str, blocks_path: str) -> None:
    import numpy as np

    from repro.serving import decode_query, encode_result

    import shells

    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    blocks = np.load(blocks_path)
    archive, service = shells.worker_service(store)
    operations = []
    for position in plan["positions"]:
        payload = position["payload"]
        if position["kind"] == "append":
            updates = {
                band: blocks[payload["block"], index]
                for index, band in enumerate(plan["bands"])
            }
            operations.append(("append", updates, tuple(payload["region"])))
        else:
            operations.append(("query", decode_query(payload), None))
    _emit({"pids": [os.getpid()]})
    for _line in sys.stdin:
        latencies = []
        replies = []
        gc.collect()
        gc.disable()
        try:
            for kind, argument, region in operations:
                if kind == "append":
                    started = time.perf_counter()
                    archive.append_region(argument, region)
                    latencies.append(time.perf_counter() - started)
                    replies.append(None)
                else:
                    started = time.perf_counter()
                    result = service.top_k(
                        argument.query,
                        n_shards=argument.n_shards,
                        use_cache=argument.use_cache,
                        strategy=argument.strategy,
                    )
                    latencies.append(time.perf_counter() - started)
                    replies.append(encode_result(result))
        finally:
            gc.enable()
        _emit({"latencies": latencies, "replies": replies})


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        serve(sys.argv[2], json.loads(sys.argv[3]))
    else:
        ingest(sys.argv[2], sys.argv[3], sys.argv[4])
