"""Smoke test of the benchmark (outside tier-1):

    python -m pytest bench/test_smoke.py

Quick runs (256^2 grid, one instance) must print every metric that
BENCHMARK.json names exactly once, with its unit and a finite value,
and fail no operation. The oracle must catch a reply that is wrong in
the last ulp of one score or in the order of two tied answers.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
sys.path.insert(0, str(REPO_DIR / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracle as oracle_module  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((REPO_DIR / "BENCHMARK.json").read_text())


def quick_run(workload: str, trace: int) -> tuple[dict, dict[str, list[str]]]:
    """Run one quick benchmark; returns the final JSON object and the
    printed ``name value unit`` lines keyed by name."""
    process = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--trace", str(trace),
            "--quick",
        ],
        cwd=REPO_DIR,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    lines = process.stdout.strip().splitlines()
    printed: dict[str, list[str]] = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3:
            printed.setdefault(fields[0], []).append(fields[2])
    return json.loads(lines[-1]), printed


def check(final: dict, printed: dict[str, list[str]], declared: list[dict]) -> None:
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1
    assert set(final["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        name = metric["name"]
        assert printed.get(name) == [metric["unit"]], name
        entry = final["metrics"][name]
        assert entry["unit"] == metric["unit"], name
        assert math.isfinite(entry["value"]), name


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_quick_end_to_end(workload: str) -> None:
    final, printed = quick_run(workload, trace=0)
    check(final, printed, CONTRACT["end_to_end"])
    for name, entry in final["metrics"].items():
        assert entry["value"] > 0, name


def test_quick_ledger() -> None:
    final, printed = quick_run("http_routed", trace=1)
    check(final, printed, CONTRACT["per_layer"])


def test_contract_lists_the_workloads() -> None:
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.NAMES)
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_class_shares_hold(seed: int) -> None:
    scene = workloads.build_scene(seed, workloads.QUICK_GRID)
    for name in workloads.NAMES:
        workloads.build(name, seed, workloads.QUICK_GRID, scene)  # raises if off


def tied_reply() -> tuple[oracle_module.Oracle, dict, dict]:
    """A small integer scene whose top ten hold exact score ties, one
    query over it, and the service's own (correct) encoded reply."""
    from repro.core.query import TopKQuery
    from repro.data.raster import RasterLayer, RasterStack
    from repro.models.linear import LinearModel
    from repro.service.retrieval import RetrievalService
    from repro.serving import encode_query, encode_result

    rng = np.random.default_rng(5)
    scene = {
        name: rng.integers(0, 3, (48, 48)).astype(float) for name in ("a", "b")
    }
    stack = RasterStack()
    for name, values in scene.items():
        stack.add(RasterLayer(name, values))
    query = TopKQuery(model=LinearModel({"a": 2.0, "b": 1.0}), k=10)
    result = RetrievalService(stack).top_k(query, n_shards=1, use_cache=False)
    return oracle_module.Oracle(scene), encode_query(query), encode_result(result)


def test_oracle_accepts_the_exact_reply() -> None:
    oracle, payload, reply = tied_reply()
    expected = oracle.answers(payload, reply["strategy"])
    assert oracle_module.failure(reply, expected) is None
    scores = [answer["score"] for answer in reply["answers"]]
    assert len(set(scores)) < len(scores), "the scene must produce ties"


def test_oracle_catches_a_last_ulp_score() -> None:
    oracle, payload, reply = tied_reply()
    expected = oracle.answers(payload, reply["strategy"])
    reply["answers"][-1]["score"] = float(
        np.nextafter(reply["answers"][-1]["score"], np.inf)
    )
    assert "answer 9" in oracle_module.failure(reply, expected)


def test_oracle_catches_swapped_ties() -> None:
    oracle, payload, reply = tied_reply()
    expected = oracle.answers(payload, reply["strategy"])
    answers = reply["answers"]
    first = next(
        index
        for index in range(len(answers) - 1)
        if answers[index]["score"] == answers[index + 1]["score"]
    )
    answers[first], answers[first + 1] = answers[first + 1], answers[first]
    assert f"answer {first}" in oracle_module.failure(reply, expected)


def test_oracle_rejects_partial_replies() -> None:
    oracle, payload, reply = tied_reply()
    expected = oracle.answers(payload, reply["strategy"])
    reply["complete"] = False
    assert "partial" in oracle_module.failure(reply, expected)
