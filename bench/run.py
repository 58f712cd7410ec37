"""The repo's one benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the six end-to-end metrics, ``--trace 1`` the
per-layer ledger (bench/ledger.py). Every metric is printed by name
with its unit; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See
bench/README.md for the protocol and the glossary.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

#: Fresh instances per run; timed passes are pooled across them.
INSTANCES = 3
QUICK_INSTANCES = 1
MIN_PASSES = 2


def contract() -> dict:
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload, seconds: float, instances: int) -> dict:
    """One untraced run: end-to-end metrics plus the raw samples."""
    import harness
    from oracle import Oracle

    http = workload.name != "ingest_mixed"
    oracle = Oracle(workload.scene)
    passes: list[list[float]] = []
    labels: list[list[list[str]]] = []
    failures: list[str] = []
    attempted = 0
    setups, rss = [], []
    amplification = 0.0
    raw_bytes = sum(values.nbytes for values in workload.scene.values())
    for _instance in range(instances):
        if not http:
            # A fresh store starts from the scene again.
            oracle = Oracle(workload.scene)
        with harness.Instance(workload, "serve" if http else "ingest") as instance:
            client = harness.HttpClient(instance.port) if http else None
            try:
                run_pass = (
                    (lambda: client.http_pass(workload.positions))
                    if http
                    else instance.ingest_pass
                )
                # Untimed pass: fills caches, finishes lazy set-up.
                done = [run_pass()]
                done += harness.timed_passes(
                    run_pass, seconds / instances, MIN_PASSES
                )
            finally:
                if client is not None:
                    client.close()
            setups.append(instance.setup_s)
            rss.append(instance.rss_peak_mb())
            amplification = harness.tree_bytes(instance.store) / raw_bytes
        for index, (latencies, replies) in enumerate(done):
            attempted += len(replies)
            failures += harness.check_pass(workload, replies, oracle, warm=index > 0)
            if index:
                passes.append(latencies)
                labels.append(
                    [
                        harness.strategies(position, reply)
                        for position, reply in zip(workload.positions, replies)
                    ]
                )
    flips = sum(
        any(pass_labels[index] != labels[0][index] for pass_labels in labels)
        for index in range(len(workload.positions))
    )
    # Routed queries may legitimately change strategy as the router
    # learns; everywhere else a position must be answered the same way
    # in every pass, or the floors mix two populations.
    deterministic = workload.name == "http_routed" or flips == 0
    if not deterministic:
        failures.append(f"{flips} positions changed label between passes")
    return {
        "metrics": harness.end_to_end(workload, passes, setups, rss, amplification),
        "attempted": attempted,
        "failures": failures,
        "passes": passes,
        "flip_share": flips / len(workload.positions),
        "setups": setups,
    }


def report(result: dict, names: list[str]) -> dict:
    """Print every metric by name and build the final JSON object."""
    metrics = {}
    for name in names:
        value, unit = result["metrics"][name]
        if not math.isfinite(value):
            result["failures"].append(f"metric {name} is not finite")
        print(f"{name:40s} {value:14.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for message in result["failures"][:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    failed = len(result["failures"])
    print(f"operations: {result['attempted']} attempted, {failed} failed")
    return {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def record(workload, trace: int, final: dict, result: dict) -> None:
    import harness

    directory = harness.OUT_DIR / "results"
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = directory / (
        f"{workload.name}-seed{workload.seed}-trace{trace}-{stamp}.json"
    )
    document = {
        "workload": workload.name,
        "trace": trace,
        "environment": harness.environment(workload),
        **final,
        "flip_share": result.get("flip_share"),
        "setups": result.get("setups"),
        "passes": result.get("passes"),
        "spans": result.get("spans"),
        "shells": result.get("shells"),
    }
    path.write_text(json.dumps(document))


def run_one(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    import workloads

    spec = contract()
    workload = workloads.build(
        name, seed, workloads.QUICK_GRID if quick else workloads.GRID
    )
    instances = QUICK_INSTANCES if quick else INSTANCES
    if trace:
        import ledger

        result = ledger.measure(workload, quick)
        names = [metric["name"] for metric in spec["per_layer"]]
    else:
        result = measure(workload, seconds, instances)
        names = [metric["name"] for metric in spec["end_to_end"]]
    final = report(result, names)
    if not quick:
        record(workload, trace, final, result)
    return final


def run_aa(seed: int, seconds: float) -> int:
    """Every workload twice; each end-to-end metric of the second run
    must be within its own bound of the first."""
    import workloads

    spec = contract()
    disagreements = 0
    for name in workloads.NAMES:
        first = run_one(name, seed, seconds, 0, False)
        second = run_one(name, seed, seconds, 0, False)
        for metric in spec["end_to_end"]:
            a = first["metrics"][metric["name"]]["value"]
            b = second["metrics"][metric["name"]]["value"]
            ratio = b / a
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            verdict = "ok" if abs(worse) <= metric["bound"] else "DISAGREE"
            disagreements += verdict != "ok"
            print(
                f"A/A {name:13s} {metric['name']:20s} "
                f"{a:12.4f} {b:12.4f} ratio {ratio:.4f} "
                f"bound {metric['bound']:.2f} {verdict}"
            )
        if not (first["correct"] and second["correct"]):
            disagreements += 1
    return disagreements


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="256^2 grid, one instance; a smoke run, never recorded",
    )
    parser.add_argument(
        "--aa", action="store_true",
        help="run every workload twice and compare against the bounds",
    )
    args = parser.parse_args()
    if not (BENCH_DIR.parent / "src" / "repro").is_dir():
        print("bench/run.py needs the repository's src/repro", file=sys.stderr)
        return 2
    import workloads

    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(contract()["run_seconds"])
    # Turn a polite kill into an exception so instances are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.aa:
        return 1 if run_aa(args.seed, seconds) else 0
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    final = run_one(args.workload, args.seed, seconds, args.trace, args.quick)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
