"""The wave step at the width it ships with.

``test_engine_one_step.py`` pins the search to its predecessor at wave
width 1. These tests cover what width 1 cannot: a step that pops many
nodes must still return the brute-force answers on adversarial grids,
must keep searching the nodes it popped when the rest of the frontier
retires under it, must keep the audit exhaustive and the early-stop
contracts (cancel, budget) intact at any width, must not let the width
leak into the answers — and must actually batch: a call-count tripwire
fails tier-1 if the traversal quietly goes back to per-node calls.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import (
    exact_answers,
    exhaustive_cascade,
    exhaustive_fused,
)
from repro.core import engine as engine_module
from repro.core.engine import BatchQuerySpec, RasterRetrievalEngine
from repro.core.query import TopKQuery
from repro.core.results import PruningAudit
from repro.core.screening import TileScreen
from repro.data.raster import RasterLayer, RasterStack
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem
from tests.test_engine_one_step import CountdownToken, _outcome, _solo, _spec
from tests.test_index_vector import _poke

WIDTHS = (1, 2, 7, 64)
ALL_WIDTHS = WIDTHS + (engine_module.WAVE_WIDTH,)


def _oracle(engine, query, region, progressive):
    if progressive is None:
        return exhaustive_fused(engine.stack, None, query, region)[0]
    return exhaustive_cascade(engine.stack, progressive, query, region)


def _spec_answers(spec: BatchQuerySpec):
    sign = 1.0 if spec.query.maximize else -1.0
    return [
        (cell[0], cell[1], sign * signed)
        for signed, cell in spec.heap.ranked()
    ]


class _Tally:
    """What one search popped, seen from outside the step: the leaves it
    scored and the internal nodes whose children it bounded."""

    def __init__(self, monkeypatch, engine) -> None:
        self.leaves = 0
        self.steps = 0
        self.step_work: list[int] = []
        #: Internal nodes whose children were bounded, i.e. expanded.
        self.parents: set[int] = set()
        child = engine.screen.child
        parent_of = {
            int(kid): node
            for node in range(len(child))
            for kid in child[node]
            if kid >= 0
        }
        cls = RasterRetrievalEngine
        real_uppers, real_cells, real_step = (
            cls._uppers, cls._evaluate_cells, cls._step
        )

        def uppers(self_, state, ids, scan):
            if ids is not scan.roots:  # the seeding call expands nothing
                self.parents.update(parent_of[int(i)] for i in ids)
            return real_uppers(self_, state, ids, scan)

        def cells(self_, state, rows, cols, scan, leaves=None, sizes=None):
            self.leaves += 0 if leaves is None else len(leaves)
            return real_cells(self_, state, rows, cols, scan, leaves, sizes)

        def step(self_, state, scan):
            before = state.spec.counter.total_work
            alive = real_step(self_, state, scan)
            self.steps += 1
            self.step_work.append(state.spec.counter.total_work - before)
            return alive

        monkeypatch.setattr(cls, "_uppers", uppers)
        monkeypatch.setattr(cls, "_evaluate_cells", cells)
        monkeypatch.setattr(cls, "_step", step)


def _reason_total(audit: PruningAudit, *, exclude=()) -> int:
    return sum(
        n_tiles
        for by_reason in audit.tiles_pruned_by_depth.values()
        for reason, n_tiles in by_reason.items()
        if reason not in exclude
    )


def _assert_audit_exhaustive(audit: PruningAudit, tally: _Tally) -> None:
    assert sum(audit.tiles_visited_by_depth.values()) == audit.tiles_screened
    assert (
        sum(
            by_reason.get("interval", 0)
            for by_reason in audit.tiles_pruned_by_depth.values()
        )
        == audit.tiles_pruned
    )
    # Every frontier entry ever made is accounted for exactly once.
    # (Region-dropped children are tallied but were never screened.)
    assert sum(audit.tiles_roots_by_depth.values()) + audit.tiles_screened == (
        _reason_total(audit, exclude=("region",))
        + len(tally.parents)
        + tally.leaves
    )


class TestShippedWidthAgainstTheOracle:
    @given(
        seed=st.integers(0, 300),
        k=st.sampled_from([1, 2, 5, 9, 40, 400, 2000]),
        maximize=st.booleans(),
        use_model_levels=st.booleans(),
        inset=st.integers(0, 5),
        ties=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_solo_members_and_oracle_agree(
        self, seed, k, maximize, use_model_levels, inset, ties,
        make_tie_stack, make_noise_stack, make_random_linear_model,
    ):
        """Off-grid regions (multi-node root covers), heavy ties, k up
        to more than the region holds: the solo search returns the
        brute-force ranking under its own arithmetic, and every member
        of a shared scan equals its solo search in heap, counters and
        audit."""
        make = make_tie_stack if ties else make_noise_stack
        stack = make(37, 43, 3, seed)
        engine = RasterRetrievalEngine(stack, leaf_size=4)
        region = (inset, 2 * inset, 37 - inset, 43 - inset)
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + member),
                k=k + member, maximize=maximize ^ (member == 1),
                region=region,
            )
            for member in range(3)
        ]
        specs = [_spec(engine, query, use_model_levels) for query in queries]
        engine.shared_scan_search(specs, region)
        for query, spec in zip(queries, specs):
            solo = _solo(engine, query, region, use_model_levels)
            assert _outcome(spec) == _outcome(solo)
            assert _spec_answers(solo) == _oracle(
                engine, query, region, solo.progressive
            )

    @given(
        seed=st.integers(0, 300),
        k=st.sampled_from([1, 6, 30, 500]),
        maximize=st.booleans(),
        inset=st.integers(0, 5),
        n_shards=st.integers(1, 3),
        fused=st.booleans(),
        use_model_levels=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_service_shards_and_fusion(
        self, seed, k, maximize, inset, n_shards, fused, use_model_levels,
        make_tie_stack, make_random_linear_model,
    ):
        stack = make_tie_stack(40, 48, 3, seed)
        service = RetrievalService(
            stack, leaf_size=8, cache_size=0, registry=MetricsRegistry(),
            embedding_dim=8,
        )
        region = (inset, inset, 40 - 2 * inset, 48 - inset)
        knobs = {"similar_to": (9, 14), "alpha": 0.4} if fused else {}
        query = TopKQuery(
            model=make_random_linear_model(stack, seed=seed + 1), k=k,
            maximize=maximize, region=region, **knobs,
        )
        if fused:
            result = service.top_k(query, strategy="fused", n_shards=n_shards)
            want, _ = exhaustive_fused(
                stack, service.embeddings(), query, region
            )
        else:
            result = service.top_k(
                query, n_shards=n_shards, use_model_levels=use_model_levels
            )
            want = _oracle(
                service.engine, query, region,
                service.engine.prepare_tile_query(query, use_model_levels),
            )
        assert exact_answers(result) == want


class TestRetirementInsideAWave:
    def test_nodes_popped_before_the_retiring_head_are_still_searched(self):
        """After the first leaf fills the heap (k = one leaf's cells,
        threshold 1) the frontier holds one quadrant bounded at 9 and
        five nodes bounded at 0.5. The next wave pops the quadrant, then
        meets a head below the threshold and retires the rest — and must
        still expand the quadrant it is holding, where three of the four
        answers are. (The first draft of the wave step dropped it.)"""
        values = np.full((8, 8), 0.5)
        values[0:2, 0:2] = [[10.0, 1.0], [1.0, 1.0]]
        values[6:8, 4:6] = [[9.0, 8.0], [7.0, 6.0]]
        stack = RasterStack({"a": RasterLayer("a", values)})
        engine = RasterRetrievalEngine(stack, leaf_size=2)
        query = TopKQuery(model=LinearModel({"a": 1.0}), k=4)
        spec = _solo(engine, query, (0, 0, 8, 8), use_model_levels=False)
        assert [score for _, _, score in _spec_answers(spec)] == [
            10.0, 9.0, 8.0, 7.0
        ]
        by_depth = spec.audit.tiles_pruned_by_depth
        # Retired inside the wave: two quadrants and the first
        # quadrant's three other leaves. After it: the popped quadrant's
        # three dull leaves are interval-pruned, its bright one scored.
        assert by_depth[1] == {"threshold": 2}
        assert by_depth[2] == {"threshold": 3, "interval": 3}
        assert spec.counter.model_evals == 8


class TestAuditAndStopsAtAnyWidth:
    @pytest.mark.parametrize("width", ALL_WIDTHS)
    @pytest.mark.parametrize("region", [(0, 0, 70, 90), (5, 9, 61, 77)])
    @pytest.mark.parametrize("use_model_levels", [True, False])
    def test_audit_accounts_for_every_frontier_entry(
        self, monkeypatch, width, region, use_model_levels,
        make_noise_stack, make_random_linear_model,
    ):
        monkeypatch.setattr(engine_module, "WAVE_WIDTH", width)
        stack = make_noise_stack(70, 90, 3, seed=5)
        engine = RasterRetrievalEngine(stack, leaf_size=8)
        query = TopKQuery(
            model=make_random_linear_model(stack, seed=6), k=7, region=region
        )
        tally = _Tally(monkeypatch, engine)
        spec = _solo(engine, query, region, use_model_levels)
        _assert_audit_exhaustive(spec.audit, tally)
        # progressive_top_k walks the same region from the global root,
        # dropping out-of-region children as it goes.
        tally = _Tally(monkeypatch, engine)
        result = engine.progressive_top_k(
            query, use_model_levels=use_model_levels
        )
        _assert_audit_exhaustive(result.audit, tally)
        assert exact_answers(result) == _spec_answers(spec)

    @pytest.mark.parametrize("width", ALL_WIDTHS)
    @pytest.mark.parametrize("polls", [3, 8, 12, 20])
    def test_cancel_is_polled_once_per_wave(
        self, monkeypatch, width, polls,
        make_noise_stack, make_random_linear_model,
    ):
        monkeypatch.setattr(engine_module, "WAVE_WIDTH", width)
        stack = make_noise_stack(70, 90, 3, seed=8)
        engine = RasterRetrievalEngine(stack, leaf_size=8)
        region = (0, 0, 70, 90)
        query = TopKQuery(model=make_random_linear_model(stack, seed=9), k=5)
        tally = _Tally(monkeypatch, engine)
        token = CountdownToken(polls)
        spec = _solo(engine, query, region, True, cancel=token)
        if spec.complete:
            assert tally.steps < polls
            return
        # The token fired on its n-th poll, one poll per step, and the
        # step that saw it did nothing else.
        assert tally.steps == polls
        assert tally.step_work[-1] == 0
        _assert_audit_exhaustive(spec.audit, tally)
        assert "countdown" in {
            reason
            for by_reason in spec.audit.tiles_pruned_by_depth.values()
            for reason in by_reason
        }
        # Prefix-sound: every returned score is that cell's exact score.
        exact = dict(
            ((row, col), score)
            for row, col, score in exhaustive_cascade(
                stack, spec.progressive,
                dataclasses.replace(query, k=70 * 90), region,
            )
        )
        for row, col, score in _spec_answers(spec):
            assert exact[row, col] == score

    @pytest.mark.parametrize("width", ALL_WIDTHS)
    @pytest.mark.parametrize("budget", [400, 1500, 6000])
    def test_budget_overshoots_by_at_most_one_wave(
        self, monkeypatch, width, budget,
        make_noise_stack, make_random_linear_model,
    ):
        monkeypatch.setattr(engine_module, "WAVE_WIDTH", width)
        stack = make_noise_stack(70, 90, 3, seed=8)
        engine = RasterRetrievalEngine(stack, leaf_size=8)
        query = TopKQuery(model=make_random_linear_model(stack, seed=9), k=5)
        tally = _Tally(monkeypatch, engine)
        result = engine.progressive_top_k(query, work_budget=budget)
        _assert_audit_exhaustive(result.audit, tally)
        assert result.strategy == "both-anytime"
        if result.regret_bound == 0.0:
            return
        # Stopped early: the last working step began under budget.
        work = result.counter.total_work
        assert work >= budget
        assert work - max(tally.step_work) < budget
        if len(result.answers) < query.k:  # no threshold yet: unbounded
            assert result.regret_bound == float("inf")
            return
        # The bound covers every location the search did not return.
        progressive = engine.prepare_tile_query(query)
        ranked = exhaustive_cascade(
            stack, progressive, dataclasses.replace(query, k=70 * 90),
            (0, 0, 70, 90),
        )
        returned = {(a.row, a.col) for a in result.answers}
        best_missed = max(
            score for row, col, score in ranked if (row, col) not in returned
        )
        assert best_missed - result.answers[-1].score <= result.regret_bound


class TestWidthNeverChangesAnswers:
    @pytest.mark.parametrize("use_model_levels", [True, False])
    @pytest.mark.parametrize("ties", [True, False])
    def test_same_ranked_list_at_every_width(
        self, monkeypatch, use_model_levels, ties,
        make_tie_stack, make_noise_stack, make_random_linear_model,
    ):
        stack = (make_tie_stack if ties else make_noise_stack)(70, 90, 3, 4)
        engine = RasterRetrievalEngine(stack, leaf_size=8)
        region = (3, 10, 66, 85)
        query = TopKQuery(
            model=make_random_linear_model(stack, seed=2), k=12, region=region
        )
        ranked = {}
        for width in ALL_WIDTHS:
            monkeypatch.setattr(engine_module, "WAVE_WIDTH", width)
            spec = _solo(engine, query, region, use_model_levels)
            ranked[width] = spec.heap.ranked()
        assert len({repr(answers) for answers in ranked.values()}) == 1
        assert _spec_answers(spec) == _oracle(
            engine, query, region, spec.progressive
        )


class TestRefreshWritesThroughTheFlatTables:
    def test_envelopes_match_a_rebuild_and_structure_is_untouched(
        self, make_noise_stack
    ):
        stack = make_noise_stack(70, 90, 3, seed=3)
        screen = TileScreen(stack, leaf_size=8)
        structure = (screen.child, screen.window, screen.leaf, screen.depth)
        envelopes = (screen.lows, screen.highs)
        region = (13, 40, 37, 71)
        rng = np.random.default_rng(4)
        for name in stack.names:
            _poke(stack[name], region, 5.0 * rng.standard_normal((24, 31)))
        screen.refresh_region(region)
        rebuilt = TileScreen(stack, leaf_size=8)
        assert np.array_equal(screen.lows, rebuilt.lows)
        assert np.array_equal(screen.highs, rebuilt.highs)
        for before, after in zip(
            structure + envelopes,
            (screen.child, screen.window, screen.leaf, screen.depth,
             screen.lows, screen.highs),
        ):
            assert after is before
        for mine, fresh in zip(structure, (
            rebuilt.child, rebuilt.window, rebuilt.leaf, rebuilt.depth
        )):
            assert np.array_equal(mine, fresh)

    def test_search_after_an_append_prunes_against_the_new_envelopes(
        self, make_noise_stack
    ):
        """The PR 8 stale-envelope scenario through the wave: an append
        puts the new optimum where the old envelopes said nothing good
        could be. A screen still holding them would prune it away."""
        stack = make_noise_stack(128, 128, 2, seed=11)
        engine = RasterRetrievalEngine(stack, leaf_size=8)
        model = LinearModel({"layer0": 1.0, "layer1": 0.5})
        query = TopKQuery(model=model, k=3)
        before = engine.progressive_top_k(query)
        region = (64, 64, 80, 80)
        _poke(stack["layer0"], region, np.full((16, 16), -50.0))
        _poke(stack["layer0"], (70, 70, 71, 73), np.full((1, 3), 1e6))
        engine.screen.refresh_region(region)
        after = engine.progressive_top_k(query)
        assert exact_answers(after) != exact_answers(before)
        assert [(a.row, a.col) for a in after.answers] == [
            (70, 70), (70, 71), (70, 72)
        ] or {a.row for a in after.answers} == {70}
        progressive = engine.prepare_tile_query(query)
        assert exact_answers(after) == exhaustive_cascade(
            stack, progressive, query, (0, 0, 128, 128)
        )


class TestTheWaveBatches:
    def test_bound_and_gather_calls_per_query(self, monkeypatch):
        """A deterministic price tag, no wall clock. Strict best-first
        order (wave width 1) answers this query with 47
        ``evaluate_interval_batch`` calls — one per expansion — and 143
        cell gathers (``RasterLayer.take`` of flat cell ids, the one
        read the leaf routine makes); the wave needs 17 and 105 for the
        same answers and 0.05 % fewer cells (what is left of the gathers
        is the cascade's block loop, which reads per 256-cell block
        whatever the width). The ceilings leave room for a retuned
        width, not for a traversal that bounds node by node or reads
        leaf by leaf — nor for one that reads around ``take``: the
        cells it gathers must be every value the query is charged."""
        shape = (256, 256)
        dem = generate_dem(shape, seed=7)
        stack = generate_scene(shape, seed=8, terrain=dem)
        stack.add(dem)
        engine = RasterRetrievalEngine(stack, leaf_size=16)
        model = LinearModel(
            {"tm_band4": 0.443, "tm_band5": 0.222, "tm_band7": -0.153,
             "elevation": -0.183}
        )
        calls = {"bounds": 0, "gathers": 0, "cells": 0}
        real_bounds = LinearModel.evaluate_interval_batch
        real_take = RasterLayer.take

        def bounds(self, lows, highs):
            calls["bounds"] += 1
            return real_bounds(self, lows, highs)

        def take(self, flat, counter=None):
            calls["gathers"] += 1
            calls["cells"] += len(flat)
            return real_take(self, flat, counter)

        monkeypatch.setattr(LinearModel, "evaluate_interval_batch", bounds)
        monkeypatch.setattr(RasterLayer, "take", take)
        query = TopKQuery(model=model, k=10)
        result = engine.progressive_top_k(query)
        assert exact_answers(result) == exhaustive_cascade(
            stack, engine.prepare_tile_query(query), query, (0, 0) + shape
        )
        assert 0 < calls["bounds"] <= 24
        assert 0 < calls["gathers"] <= 120
        assert calls["cells"] == result.counter.data_points
