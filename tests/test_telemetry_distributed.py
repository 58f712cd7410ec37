"""Cross-process trace shipping: budgets, re-parenting, tail sampling.

Pure-dict tests (no processes): the wire format is plain ``as_dict``
output, so everything here drives the real serving code paths with
hand-built or real in-process traces.
"""

from __future__ import annotations

import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.tracing import BatchTrace, QueryTrace
from repro.telemetry.distributed import (
    DEFAULT_MAX_SHIP_SPANS,
    FleetTraceCollector,
    TailSampler,
    count_spans,
    reparent_shipped,
    ship_trace,
)
from repro.telemetry.export import TraceBuffer, chrome_trace_events

from tests.oracles import slow_thresholds_by_sorting


def _finished_trace(n_spans: int = 3, n_shards: int = 2) -> QueryTrace:
    trace = QueryTrace()
    for i in range(n_spans):
        trace.record_span(f"stage{i}", 0.001)
    for shard in range(n_shards):
        trace.add_shard(shard=shard, tuples=10)
    trace.finish()
    return trace


class TestShipTrace:
    def test_whole_tree_survives_under_budget(self):
        trace = _finished_trace()
        shipped = ship_trace(trace)
        assert shipped["trace_id"] == trace.trace_id
        assert shipped["pid"] == trace.pid
        assert len(shipped["spans"]) == 3
        assert len(shipped["shards"]) == 2
        assert "spans_dropped" not in shipped
        assert count_spans(shipped) == count_spans(trace.as_dict())

    def test_truncation_counts_drops(self):
        trace = _finished_trace(n_spans=6, n_shards=4)
        shipped = ship_trace(trace, max_spans=5)
        assert count_spans(shipped) == 5
        assert shipped["spans_dropped"] == 5
        # Root stage spans are the most valuable and are kept first.
        assert len(shipped["spans"]) == 5
        assert shipped["shards"] == []

    def test_oversized_batch_tree_is_bounded(self):
        """No reply payload exceeds the span budget no matter how many
        batch children pile up — the skeleton survives, spans are cut."""
        batch = BatchTrace(batch_size=40)
        for _ in range(40):
            child = batch.child()
            for i in range(10):
                child.record_span(f"s{i}", 0.0001)
            child.finish()
        batch.finish()
        full = count_spans(batch.as_dict())
        assert full == 400
        shipped = ship_trace(batch, max_spans=64)
        assert count_spans(shipped) <= 64
        assert shipped["spans_dropped"] == full - count_spans(shipped)
        # Every child's root record survives truncation (outcome flags
        # stay visible even when its spans were cut).
        assert len(shipped["children"]) == 40
        assert all("complete" in child for child in shipped["children"])

    def test_zero_budget_keeps_skeleton_only(self):
        trace = _finished_trace()
        shipped = ship_trace(trace, max_spans=0)
        assert shipped["spans"] == []
        assert shipped["shards"] == []
        assert shipped["spans_dropped"] == 5

    def test_default_budget_sane(self):
        assert DEFAULT_MAX_SHIP_SPANS >= 128

    def test_accepts_dict_input(self):
        data = _finished_trace().as_dict()
        assert ship_trace(data)["trace_id"] == data["trace_id"]


class TestReparent:
    def test_ids_shift_and_root_reattaches(self):
        shipped = ship_trace(_finished_trace())
        grafted = reparent_shipped(shipped, parent_span_id=7, offset=1000)
        assert grafted["span_id"] == shipped["span_id"] + 1000
        assert grafted["parent_span_id"] == 7
        for before, after in zip(shipped["spans"], grafted["spans"]):
            assert after["span_id"] == before["span_id"] + 1000
            assert after["parent_id"] == before["parent_id"] + 1000
        # Input not mutated.
        assert shipped["parent_span_id"] != 7

    def test_parent_links_stay_closed(self):
        """Every non-root parent link in a grafted batch tree resolves
        to a span id inside the merged tree — the invariant the Chrome
        export lint checks."""
        batch = BatchTrace(batch_size=3)
        for _ in range(3):
            child = batch.child()
            child.record_span("search", 0.001)
            child.add_shard(shard=0)
            child.finish()
        batch.finish()
        grafted = reparent_shipped(
            ship_trace(batch), parent_span_id=1, offset=1_000_000
        )

        ids = set()

        def collect(node):
            ids.add(node["span_id"])
            for span in node.get("spans", ()):
                ids.add(span["span_id"])
            for shard in node.get("shards", ()):
                ids.add(shard["span_id"])
            for sub in node.get("children", ()):
                collect(sub)

        collect(grafted)
        ids.add(1)  # the front-end anchor span

        def check(node):
            assert node["parent_span_id"] in ids
            for span in node.get("spans", ()):
                assert span["parent_id"] in ids
            for shard in node.get("shards", ()):
                assert shard["parent_id"] in ids
            for sub in node.get("children", ()):
                check(sub)

        check(grafted)


class TestTailSampler:
    def test_error_traces_always_kept(self):
        sampler = TailSampler(sample_rate=0.0, slow_fraction=0.0, seed=1)
        assert sampler.keep({"complete": False, "wall_seconds": 0.001})
        assert sampler.keep(
            {"complete": True, "cancel_reason": "deadline",
             "wall_seconds": 0.0}
        )
        assert sampler.keep(
            {"complete": True, "metadata": {"error": "boom"},
             "wall_seconds": 0.0}
        )
        assert sampler.keep(
            {"complete": True, "metadata": {"shed": "queue"},
             "wall_seconds": 0.0}
        )
        assert sampler.keep(
            {"complete": True, "metadata": {"status": 429},
             "wall_seconds": 0.0}
        )

    def test_fast_ok_traces_sampled_out_at_zero_rate(self):
        sampler = TailSampler(sample_rate=0.0, slow_fraction=0.0, seed=1)
        trace = {"complete": True, "metadata": {"status": 200},
                 "wall_seconds": 0.001}
        assert not sampler.keep(trace)
        assert sampler.stats()["sampled_out"] == 1

    def test_slowest_fraction_kept(self):
        sampler = TailSampler(sample_rate=0.0, slow_fraction=0.1, seed=1)
        ok = {"complete": True, "metadata": {"status": 200}}
        # Seed the duration window with fast traffic.
        for _ in range(100):
            sampler.keep({**ok, "wall_seconds": 0.001})
        assert sampler.keep({**ok, "wall_seconds": 5.0})

    @settings(max_examples=200, deadline=None)
    @given(
        walls=st.lists(
            # A few repeated values (ties, re-insertion of a value the
            # window just dropped) mixed with arbitrary ones.
            st.sampled_from([0.0, 0.001, 0.002, 0.5])
            | st.floats(min_value=0.0, max_value=10.0),
            max_size=120,
        ),
        slow_fraction=st.sampled_from([0.0, 0.1, 0.5, 1.0])
        | st.floats(min_value=0.0, max_value=1.0),
        window=st.integers(min_value=1, max_value=12),
    )
    def test_ordered_window_decides_like_sorting_each_time(
        self, walls, slow_fraction, window
    ):
        # sample_rate 0 and an ok trace: kept only by the slow rule.
        sampler = TailSampler(
            sample_rate=0.0, slow_fraction=slow_fraction, window=window, seed=1
        )
        ok = {"complete": True, "metadata": {"status": 200}}
        expected = slow_thresholds_by_sorting(walls, slow_fraction, window)
        for wall, threshold in zip(walls, expected):
            assert sampler._slow_threshold() == threshold
            assert sampler.keep({**ok, "wall_seconds": wall}) == (
                threshold is not None and wall >= threshold
            )

    def test_default_keeps_everything(self):
        sampler = TailSampler()
        for i in range(20):
            assert sampler.keep(
                {"complete": True, "wall_seconds": i * 0.001}
            )
        assert sampler.stats()["sampled_out"] == 0


class TestFleetTraceCollector:
    def _frontend_trace(self) -> dict:
        trace = QueryTrace()
        trace.record_span("admit", 0.0001)
        trace.record_span("queue_wait", 0.0002)
        trace.finish()
        return trace.as_dict()

    def test_merge_produces_connected_multi_pid_tree(self):
        frontend = self._frontend_trace()
        worker = _finished_trace().as_dict()
        worker["pid"] = 99999  # pretend it came from another process
        collector = FleetTraceCollector()
        merged = collector.merge(frontend, [ship_trace(worker)])
        child = merged["children"][0]
        assert child["parent_span_id"] == merged["span_id"]
        assert child["span_id"] == worker["span_id"] + 1_000_000
        events = chrome_trace_events([merged])
        pids = {event["pid"] for event in events}
        assert len(pids) == 2

    def test_record_request_buffers_kept_traces(self):
        collector = FleetTraceCollector(capacity=4)
        assert collector.record_request(self._frontend_trace(), None)
        assert len(collector.recent()) == 1
        stats = collector.stats()
        assert stats["kept"] == 1
        assert stats["buffered"] == 1

    def test_sampled_out_traces_not_buffered(self):
        collector = FleetTraceCollector(
            sampler=TailSampler(sample_rate=0.0, slow_fraction=0.0, seed=1)
        )
        kept = collector.record_request(self._frontend_trace(), None)
        assert not kept
        assert collector.recent() == []


class TestTraceBufferHammer:
    def test_concurrent_producers_and_readers(self):
        """PR-10 satellite: hammer one TraceBuffer from many producer
        threads while a reader snapshots — no lost updates beyond the
        drop-oldest policy, no exceptions, bounded memory."""
        buffer = TraceBuffer(capacity=128)
        n_threads, per_thread = 8, 300
        stop = threading.Event()
        snapshots: list[int] = []

        def produce(k: int) -> None:
            for i in range(per_thread):
                buffer.record(
                    {"trace_id": f"{k}-{i}", "wall_seconds": 0.0}
                )

        def read() -> None:
            while not stop.is_set():
                snapshot = buffer.snapshot()
                assert len(snapshot) <= 128
                snapshots.append(len(snapshot))
                time.sleep(0.0005)

        reader = threading.Thread(target=read)
        producers = [
            threading.Thread(target=produce, args=(k,))
            for k in range(n_threads)
        ]
        reader.start()
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join()
        stop.set()
        reader.join()
        assert len(buffer) == 128
        assert buffer.dropped == n_threads * per_thread - 128
        assert snapshots  # the reader actually observed the buffer
        # Ring holds the newest traces (drop-oldest).
        newest = buffer.snapshot()[-1]["trace_id"]
        assert int(newest.split("-")[1]) >= per_thread - 128
