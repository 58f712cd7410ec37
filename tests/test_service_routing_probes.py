"""The router learns from honest samples and cannot starve a strategy.

Regression and behavioural tests for the time-based cost model's
feedback loop (DESIGN.md routing section):

* a one-off lazy build or a single wild sample must not decide what
  ``strategy="auto"`` runs from then on (the poisoning the per-tuple
  EWMA model suffered: one cold fused sample, never revisited);
* probing is counted, never timed or drawn, so one request sequence is
  routed the same way on every fresh service;
* a probe never runs for a forced strategy or for a query that may be
  cut short, and never builds an index.

Ground truth is made unambiguous by slowing one row of the executor
table with a short sleep (never more than 50 ms), or by pinning
predictions where only the probe schedule is under test.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.core.query import TopKQuery
from repro.embed.tiles import TileEmbeddings
from repro.metrics.registry import MetricsRegistry
from repro.service import RetrievalService
from repro.service import retrieval, routing
from repro.service.tracing import CancellationToken

GRID = 64
OTHER = {"fused": "embed-scan", "embed-scan": "fused"}
#: Added to the executor that must lose. On this white-noise grid the
#: tile search cannot prune and takes about 5 ms against the scan's
#: 0.4 ms, so the handicap has to dwarf that either way.
SLOW_S = 0.02


def _service(stack) -> RetrievalService:
    return RetrievalService(
        stack, leaf_size=8, cache_size=0, registry=MetricsRegistry()
    )


def _slow_down(monkeypatch, strategy: str, seconds: float):
    """Add ``seconds`` to every run of ``strategy``'s executor."""
    row = retrieval.EXECUTORS[strategy]

    def slowed(service, request):
        time.sleep(seconds)
        return row.run(service, request)

    monkeypatch.setitem(
        retrieval.EXECUTORS, strategy, dataclasses.replace(row, run=slowed)
    )


def _fused_query(model, index: int = 0) -> TopKQuery:
    return TopKQuery(
        model=model,
        k=5,
        similar_to=((7 * index) % GRID, (11 * index) % GRID),
        alpha=0.5,
    )


def _routing(service, query, **knobs) -> dict:
    result = service.top_k(query, strategy="auto", n_shards=1, **knobs)
    return result.trace.metadata["routing"]


@pytest.fixture()
def stack(make_noise_stack):
    return make_noise_stack(GRID, GRID, 2, 5)


@pytest.fixture()
def model(stack, make_random_linear_model):
    return make_random_linear_model(stack, seed=6)


class TestPoisoning:
    @pytest.mark.parametrize("faster", ["fused", "embed-scan"])
    def test_slow_embedding_build_is_not_charged_to_a_strategy(
        self, monkeypatch, stack, model, faster
    ):
        real_build = TileEmbeddings.build

        def slow_build(*args, **kwargs):
            time.sleep(0.05)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(TileEmbeddings, "build", slow_build)
        service = _service(stack)
        _slow_down(monkeypatch, OTHER[faster], SLOW_S)
        cost_model = service.router.cost_model
        fed = []
        real_observe = cost_model.observe

        def observe(strategy, size, seconds):
            fed.append((strategy, size, seconds))
            real_observe(strategy, size, seconds)

        monkeypatch.setattr(cost_model, "observe", observe)
        assert {cost_model.score(name, GRID * GRID)[1] for name in OTHER} == {0}

        first = service.top_k(
            _fused_query(model), strategy="auto", n_shards=1
        )
        # What the router was fed: one sample, of the strategy that ran,
        # timed apart from the build. The build span and the sample lie
        # in one wall interval without overlapping, so together they fit
        # in it; a sample that swallowed the build would hold it twice.
        [(chosen, size, seconds)] = fed
        assert chosen == first.trace.metadata["routing"]["chosen"]
        assert seconds == first.trace.metadata["routing"]["actual_seconds"]
        assert cost_model.score(chosen, size)[1] == 1
        build = first.trace.stage_seconds()["embed_build"]
        assert seconds + build <= first.trace.wall_seconds

        decisions = [
            _routing(service, _fused_query(model, index))
            for index in range(1, 40)
        ]
        settled = decisions[7:]
        assert {d["chosen"] for d in settled} == {faster}
        assert all(d["probe"] is None for d in settled)
        # Both strategies were measured on the way there.
        assert all(
            candidate["samples"] >= 2
            for candidate in settled[0]["candidates"]
            if candidate["eligible"]
        )

    def test_one_wild_sample_on_a_warm_strategy_changes_nothing(
        self, monkeypatch, stack, model
    ):
        service = _service(stack)
        _slow_down(monkeypatch, "embed-scan", SLOW_S)
        warm = [
            _routing(service, _fused_query(model, index))
            for index in range(8)
        ]
        assert warm[-1]["chosen"] == "fused"
        service.router.cost_model.observe(
            "fused", GRID * GRID, 100 * warm[-1]["actual_seconds"]
        )
        after = [
            _routing(service, _fused_query(model, index))
            for index in range(8, 24)
        ]
        assert {d["chosen"] for d in after} == {"fused"}

    def test_truncated_execution_teaches_nothing(self, stack, model):
        service = _service(stack)
        cancelled = CancellationToken()
        cancelled.cancel()
        result = service.top_k(
            _fused_query(model), strategy="fused", cancel=cancelled
        )
        assert not result.complete
        assert result.trace.metadata["routing"]["actual_seconds"] is not None
        assert service.router.cost_model.score("fused", GRID * GRID)[1] == 0


class TestProbeSchedule:
    @pytest.fixture()
    def pinned(self, monkeypatch, stack):
        """A service whose fused pair is pinned 2x apart, so only the
        count-based schedule decides when the runner-up runs."""
        monkeypatch.setattr(routing, "_PROBE_EVERY", 5)
        service = _service(stack)
        service.router.cost_model.pin("fused", 1e-8)
        service.router.cost_model.pin("embed-scan", 2e-8)
        return service

    def test_warm_up_then_fixed_cadence(self, pinned, model):
        decisions = [
            _routing(pinned, _fused_query(model, index)) for index in range(20)
        ]
        probes = [d["probe"] for d in decisions]
        # fused, embed-scan, fused, embed-scan: two samples each, the
        # least-observed first; then every fifth auto decision.
        assert probes[:4] == [None, "warm-up", None, "warm-up"]
        assert [i for i, p in enumerate(probes) if p == "runner-up"] == [
            4, 9, 14, 19
        ]
        for decision in decisions:
            assert decision["preferred"] == "fused"
            expected = "embed-scan" if decision["probe"] else "fused"
            assert decision["chosen"] == expected

    def test_probe_is_reported(self, pinned, model):
        for index in range(4):
            _routing(pinned, _fused_query(model, index))
        report = pinned.top_k(
            _fused_query(model, 4), strategy="auto", explain=True
        )
        assert "runner-up probe; preferred=fused" in report.render()
        histograms = pinned.registry.snapshot()["histograms"]
        # Three probes so far (two warm-up, one runner-up), each priced
        # against the preferred strategy's prediction.
        assert histograms["router.regret_seconds"]["count"] == 3

    @pytest.mark.parametrize(
        "knobs",
        [{"deadline_s": 30.0}, {"cancel": CancellationToken()}],
        ids=["deadline", "cancel"],
    )
    def test_no_probe_for_a_query_that_may_be_cut_short(
        self, pinned, model, knobs
    ):
        decisions = [
            _routing(pinned, _fused_query(model, index), **knobs)
            for index in range(12)
        ]
        assert {d["chosen"] for d in decisions} == {"fused"}
        assert all(d["probe"] is None for d in decisions)

    def test_no_probe_for_a_forced_strategy(self, pinned, model):
        for index in range(12):
            result = pinned.top_k(_fused_query(model, index), strategy="fused")
            routing_ = result.trace.metadata["routing"]
            assert routing_["forced"] and routing_["probe"] is None
            assert routing_["chosen"] == "fused"

    def test_probes_never_build_an_index(self, monkeypatch, stack, model):
        monkeypatch.setattr(routing, "_PROBE_EVERY", 3)
        service = _service(stack)

        def no_build(*args, **kwargs):
            raise AssertionError("a routed query built an Onion index")

        monkeypatch.setattr(service.router.index_cache, "_build", no_build)
        decisions = [
            _routing(service, TopKQuery(model=model, k=3 + index % 3))
            for index in range(15)
        ]
        assert any(d["probe"] for d in decisions)
        assert "onion" not in {d["chosen"] for d in decisions}
        onion = next(
            c for c in decisions[-1]["candidates"] if c["name"] == "onion"
        )
        assert onion["eligible"] and onion["samples"] == 0

    def test_preferred_switch_is_an_event(self, stack, model):
        from repro.telemetry.events import global_event_log

        service = _service(stack)
        cost_model = service.router.cost_model
        cost_model.pin("fused", 1e-8)
        cost_model.pin("embed-scan", 2e-8)
        _routing(service, _fused_query(model))
        cost_model.pin("fused", 4e-8)
        before = global_event_log().snapshot()
        last_seq = before[-1]["seq"] if before else 0
        decision = _routing(service, _fused_query(model, 1))
        assert decision["preferred"] == "embed-scan"
        switches = [
            event
            for event in global_event_log().snapshot()
            if event["seq"] > last_seq
            and event["event"] == "router.strategy_switch"
        ]
        assert len(switches) == 1
        assert switches[0]["attrs"]["previous"] == "fused"
        assert switches[0]["attrs"]["preferred"] == "embed-scan"
        assert service.registry.counter_value("router.strategy_switches") == 1


class TestDeterminism:
    def test_same_sequence_same_labels_on_fresh_services(
        self, monkeypatch, stack, model
    ):
        """Real timings, made unambiguous: the tile search (quadtree and
        fused alike) is slowed, so both families settle on their scan."""
        for tile_search in ("quadtree", "fused"):
            _slow_down(monkeypatch, tile_search, 0.003)

        def labels() -> list[tuple[str, str | None]]:
            service = _service(stack)
            out = []
            for index in range(36):
                query = (
                    _fused_query(model, index)
                    if index % 3
                    else TopKQuery(model=model, k=4)
                )
                decision = _routing(service, query)
                out.append((decision["chosen"], decision["probe"]))
            return out

        first, second = labels(), labels()
        assert first == second
        assert {chosen for chosen, _ in first[18:]} == {"scan", "embed-scan"}


class TestEstimateError:
    def test_zero_prediction_and_forced_decisions_are_recorded(
        self, stack, model
    ):
        service = _service(stack)
        service.router.cost_model.pin("scan", 0.0)
        service.top_k(TopKQuery(model=model, k=3), strategy="scan")
        service.top_k(TopKQuery(model=model, k=3), strategy="quadtree")
        histograms = service.registry.snapshot()["histograms"]
        assert histograms["router.estimate_error.scan"]["count"] == 1
        assert histograms["router.estimate_error.scan"]["max"] == 1.0
        # strategy="quadtree" is the unrouted legacy path: no decision.
        assert "router.estimate_error.quadtree" not in histograms
        service.top_k(_fused_query(model), strategy="embed-scan")
        histograms = service.registry.snapshot()["histograms"]
        assert histograms["router.estimate_error.embed-scan"]["count"] == 1
