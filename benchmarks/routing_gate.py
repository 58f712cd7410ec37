"""The gate every routing benchmark shares: ``auto`` must not lose.

``strategy="auto"`` earns its keep only if, once the router has measured
its alternatives, an auto query costs what the best forced strategy
costs. :func:`auto_gate` times auto against every forced strategy on one
query — interleaved, best-of-``repeats`` floors, after enough auto
queries that the router's warm-up probes are over — and reports whether
auto's floor is within ``LIMIT`` of the best forced floor. Each turn of
a strategy is one untimed call and then a burst of ``BURST`` timed ones:
a 0.2 ms Onion query measured 0.27 ms straight after a 16 ms quadtree
search had flushed the caches, which is the neighbour's cost, not the
strategy's, and single sub-millisecond calls scatter by more than the
limit (auto via onion read 1.23x forced onion on five single calls;
three hundred alternating calls put the two floors 4 % apart).
Queries run on one shard: with the default shard threads the same
fused query examined 9k or 16k cells and took 4.8 or 7 ms by how the
threads traded the GIL (bench/README.md prices that separately). Floors
of the same code path then differ by a few percent even on a shared
runner, so the gate is enforced in quick mode too.
"""

from __future__ import annotations

import time
from typing import Any

#: Auto may cost at most this many times the best forced strategy.
LIMIT = 1.15
#: Timed calls per turn of a strategy, after one untimed call.
BURST = 3
#: Auto queries run before timing: two samples of each of at most three
#: alternatives, with slack.
WARM_QUERIES = 8


def auto_gate(
    service: Any, query: Any, strategies: tuple[str, ...], repeats: int
) -> dict[str, Any]:
    """Floors in seconds for ``auto`` and each forced strategy.

    Returns ``{"floors": {name: s}, "auto_s": s, "auto_chose": name,
    "auto_vs_best": ratio, "ok": bool}``; ``auto_chose`` is the strategy
    that answered the fastest auto query.
    """

    def run(strategy: str) -> Any:
        return service.top_k(
            query, strategy=strategy, use_cache=False, n_shards=1
        )

    def timed(strategy: str) -> tuple[float, Any]:
        run(strategy)
        best = float("inf")
        for _ in range(BURST):
            started = time.perf_counter()
            result = run(strategy)
            best = min(best, time.perf_counter() - started)
        return best, result

    for _ in range(WARM_QUERIES):
        run("auto")
    # The turn order rotates: whoever runs straight after a heavy
    # strategy reads about 10 % slow, burst or not.
    turns = (*strategies, "auto")
    floors = {name: float("inf") for name in turns}
    auto_chose = ""
    for repeat in range(repeats):
        shift = repeat % len(turns)
        for name in turns[shift:] + turns[:shift]:
            seconds, result = timed(name)
            if seconds < floors[name]:
                floors[name] = seconds
                if name == "auto":
                    auto_chose = result.trace.metadata["routing"]["chosen"]
    auto_s = floors.pop("auto")
    ratio = auto_s / min(floors.values())
    return {
        "floors": floors,
        "auto_s": auto_s,
        "auto_chose": auto_chose,
        "auto_vs_best": ratio,
        "ok": ratio <= LIMIT,
    }


def report(gate: dict[str, Any], size: int) -> str | None:
    """Print the gate's numbers; returns the failure message, if any."""
    floors = ", ".join(
        f"{name} {seconds * 1e3:.2f} ms"
        for name, seconds in gate["floors"].items()
    )
    print(f"  auto:     {gate['auto_s'] * 1e3:8.2f} ms via "
          f"'{gate['auto_chose']}' = {gate['auto_vs_best']:.2f}x the best "
          f"forced ({floors})")
    if gate["ok"]:
        return None
    return (
        f"GATE FAILED: auto ran {gate['auto_vs_best']:.2f}x the best forced "
        f"strategy (> {LIMIT}x) on {size}x{size}"
    )
