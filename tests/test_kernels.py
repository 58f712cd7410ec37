"""Tests for the vectorized kernel layer (PR 2).

Every kernel here has a scalar reference implementation in the same
codebase; these tests prove the vectorized paths reproduce the scalar
answers — including boundary-score ties, counter totals, and the
sharded service — rather than merely approximating them.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import RasterRetrievalEngine, TopKHeap
from repro.core.query import TopKQuery
from repro.core.series_engine import fsm_sweep
from repro.data.series import TimeSeries
from repro.metrics.counters import CostCounter
from repro.models.fsm_runner import (
    RAIN_THRESHOLD_MM,
    WEATHER_ALPHABET,
    compile_fsm,
    encode_weather,
    fire_ants_model,
    fire_ants_symbol_machine,
    naive_window_match,
    run_compiled_batch,
    run_fsm,
    symbolize_weather,
)
from repro.models.fuzzy import (
    gaussian_membership,
    sigmoid_membership,
    trapezoid_membership,
    triangle_membership,
)
from repro.models.linear import LinearModel
from repro.service import RetrievalService, SharedTopKHeap


# --- TopKHeap.offer_block ------------------------------------------------


def _ranked_reference(k, entries):
    """Feed entries through per-cell offer — the scalar reference."""
    heap = TopKHeap(k)
    for score, row, col in entries:
        heap.offer(score, (row, col))
    return heap.ranked()


class TestOfferBlock:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_cell_offer(self, data):
        """offer_block must leave the heap exactly where per-cell offers
        would — including score ties resolved by smallest (row, col)."""
        k = data.draw(st.integers(1, 8))
        n = data.draw(st.integers(0, 60))
        # Coarse scores force heavy tie structure.
        scores = [data.draw(st.sampled_from([-1.0, 0.0, 1.0, 2.0])) for _ in range(n)]
        cells = [
            (data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6)))
            for _ in range(n)
        ]
        entries = [
            (score, row, col) for score, (row, col) in zip(scores, cells)
        ]

        block_heap = TopKHeap(k)
        # Random chunking: partial fills, threshold prefilter, and the
        # partition prefilter all get exercised across examples.
        start = 0
        while start < n:
            size = data.draw(st.integers(1, n - start))
            chunk = entries[start: start + size]
            block_heap.offer_block(
                np.array([e[0] for e in chunk]),
                np.array([e[1] for e in chunk]),
                np.array([e[2] for e in chunk]),
            )
            start += size

        assert block_heap.ranked() == _ranked_reference(k, entries)

    def test_empty_block_is_noop(self):
        heap = TopKHeap(3)
        heap.offer(1.0, (0, 0))
        heap.offer_block(np.array([]), np.array([]), np.array([]))
        assert heap.ranked() == [(1.0, (0, 0))]

    def test_zero_length_blocks_all_paths(self):
        """Zero-length offers must be no-ops on every internal path: the
        early guard (empty input — the shared scan emits these for
        fully-pruned sibling blocks) and the post-prefilter guard (a
        full heap rejecting every candidate; np.partition would raise on
        the emptied remainder)."""
        heap = TopKHeap(2)
        heap.offer_block(
            np.array([], dtype=float),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
        )
        assert heap.ranked() == []
        heap.offer(5.0, (0, 0))
        heap.offer(4.0, (1, 1))
        # Full heap: the threshold prefilter drops every entry.
        heap.offer_block(
            np.array([1.0, 2.0, 3.0]),
            np.array([2, 3, 4]),
            np.array([2, 3, 4]),
        )
        assert heap.ranked() == [(5.0, (0, 0)), (4.0, (1, 1))]

    def test_k_below_one_rejected_at_construction(self):
        """Regression: TopKHeap(0) used to build an always-"full" heap
        whose threshold indexed into an empty list (IndexError deep in
        the offer path). The contract is now explicit at construction."""
        for bad_k in (0, -1, -7):
            with pytest.raises(ValueError):
                TopKHeap(bad_k)
            with pytest.raises(ValueError):
                SharedTopKHeap(bad_k)
        assert TopKHeap(1).ranked() == []

    def test_boundary_ties_survive_prefilter(self):
        """Entries tied with the threshold/partition cutoff must still be
        offered: a smaller cell at the same score wins the tie-break."""
        heap = TopKHeap(2)
        heap.offer(5.0, (9, 9))
        heap.offer(5.0, (8, 8))
        heap.offer_block(
            np.array([5.0, 5.0, 4.0]),
            np.array([0, 1, 2]),
            np.array([0, 1, 2]),
        )
        assert heap.ranked() == [(5.0, (0, 0)), (5.0, (1, 1))]

    def test_shared_heap_block_offers_from_threads(self):
        """Concurrent offer_block calls must keep the exact top-k of the
        union (single lock hold per block, no deadlock)."""
        heap = SharedTopKHeap(10)
        rng = np.random.default_rng(3)
        blocks = [
            (
                rng.integers(0, 50, 200).astype(float),
                rng.integers(0, 40, 200),
                rng.integers(0, 40, 200),
            )
            for _ in range(8)
        ]
        threads = [
            threading.Thread(target=heap.offer_block, args=block)
            for block in blocks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        all_entries = [
            (float(s), int(r), int(c))
            for scores, rows, cols in blocks
            for s, r, c in zip(scores, rows, cols)
        ]
        assert heap.ranked() == _ranked_reference(10, all_entries)


class TestOfferCells:
    @given(
        seed=st.integers(0, 2**32 - 1),
        reals=st.integers(2, 5),
        k=st.integers(1, 60),
        size=st.integers(0, 120),
        prefill=st.integers(0, 80),
        ceiling=st.booleans(),
        origin=st.tuples(st.integers(0, 9), st.integers(0, 9)),
        shared=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_offer_block_of_the_decoded_cells(
        self, seed, reals, k, size, prefill, ceiling, origin, shared,
        make_tie_stack,
    ):
        """Tie-heavy real-valued blocks into empty, partly full and full
        heaps (``ceiling`` prefills scores no block entry reaches, so the
        threshold empties the block), k below and at or above the block
        size, plain and lock-wrapped: the heap state equals offering the
        decoded cells."""
        rows, width = 12, 11
        stack = make_tie_stack(rows, width, 2, seed, reals=reals)
        rng = np.random.default_rng(seed)
        grid = stack["layer0"].values.reshape(-1) - 0.3 * (
            stack["layer1"].values.reshape(-1)
        )
        flat = rng.choice(grid.size, min(size, grid.size), replace=False)
        fill = rng.permutation(grid.size)[:prefill]
        fill_scores = np.full(fill.size, 99.0) if ceiling else grid[fill]
        kind = SharedTopKHeap if shared else TopKHeap
        heaps = kind(k), kind(k)
        for heap in heaps:
            heap.offer_block(fill_scores, *np.divmod(fill, width))
        cells, block = heaps
        cells.offer_cells(grid[flat], flat, width, origin)
        decoded = np.divmod(flat, width)
        block.offer_block(
            grid[flat], decoded[0] + origin[0], decoded[1] + origin[1]
        )
        assert cells._heap == block._heap


# --- batched interval bounds --------------------------------------------


class TestIntervalBatch:
    def test_a_model_without_a_batch_bound_cannot_bound(self):
        """A model that bounds nothing in batch bounds no single box
        either: the base class only raises, and the tile search refuses
        the model."""
        from repro.models.base import Model

        class Opaque(Model):
            attributes = ("x",)
            complexity = 1

            def evaluate(self, attributes):
                return float(attributes["x"])

        model = Opaque()
        assert not model.supports_intervals
        with pytest.raises(NotImplementedError):
            model.evaluate_interval({"x": (0.0, 1.0)})

    def test_gaussian_scalar_and_batch_square_identically(self):
        """Regression: the scalar gaussian squared via python ``** 2``
        (C pow) while the batch path squared via numpy ``** 2``
        (multiply); the two differ by 1 ulp for some inputs, e.g. the
        one below, breaking scalar/batch bitwise equality."""
        membership = gaussian_membership(2.0, 4.0)
        values = np.array([7.252635198114874, -33.0, 0.1, 41.5])
        degrees = membership.batch(values)
        for value, degree in zip(values, degrees):
            assert membership(float(value)) == degree

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_membership_batch_and_interval_batch_match_scalar(self, data):
        membership = data.draw(
            st.sampled_from(
                [
                    triangle_membership(-2.0, 1.0, 6.0),
                    trapezoid_membership(0.0, 2.0, 4.0, 9.0),
                    gaussian_membership(0.0, 2.5),
                    sigmoid_membership(3.0, steepness=-1.2),
                ]
            )
        )
        values = np.array(
            [data.draw(st.floats(-12, 12)) for _ in range(8)]
        )
        batched = membership.batch(values)
        for value, degree in zip(values, batched):
            assert degree == membership(float(value))
        lows = np.minimum(values[:4], values[4:])
        highs = np.maximum(values[:4], values[4:])
        minima, maxima = membership.interval_batch(lows, highs)
        for i in range(4):
            low, high = membership.interval(float(lows[i]), float(highs[i]))
            assert minima[i] == low
            assert maxima[i] == high


# --- engine end-to-end: vectorized search vs per-cell reference ----------


class TestSearchMatchesPerCellReference:
    @given(
        rows=st.integers(4, 20),
        cols=st.integers(4, 20),
        n_layers=st.integers(1, 3),
        seed=st.integers(0, 500),
        k=st.integers(1, 20),
        maximize=st.booleans(),
        n_shards=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_strategies_and_service(
        self, rows, cols, n_layers, seed, k, maximize, n_shards,
        make_tie_stack,
    ):
        """Every strategy — and the sharded service — must equal a
        per-cell offer loop over exact scores, ties included."""
        stack = make_tie_stack(rows, cols, n_layers, seed)
        rng = np.random.default_rng(seed + 1)
        model = LinearModel(
            {
                name: float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
                for name in stack.names
            },
            intercept=0.5,
        )
        query = TopKQuery(model=model, k=k, maximize=maximize)

        sign = 1.0 if maximize else -1.0
        columns = {name: stack[name].values for name in stack.names}
        scores = sign * model.evaluate_batch(columns)
        reference_heap = TopKHeap(k)
        for row in range(rows):
            for col in range(cols):
                reference_heap.offer(float(scores[row, col]), (row, col))
        expected = [
            (cell[0], cell[1], round(sign * signed, 9))
            for signed, cell in reference_heap.ranked()
        ]

        def answers(result):
            return [
                (a.row, a.col, round(a.score, 9)) for a in result.answers
            ]

        engine = RasterRetrievalEngine(stack, leaf_size=4)
        assert answers(engine.exhaustive_top_k(query)) == expected
        for use_tiles in (True, False):
            for use_levels in (True, False):
                result = engine.progressive_top_k(
                    query, use_tiles=use_tiles, use_model_levels=use_levels
                )
                assert answers(result) == expected, result.strategy

        service = RetrievalService(stack, leaf_size=4, n_shards=n_shards)
        assert answers(service.top_k(query)) == expected


# --- FSM batch kernel ----------------------------------------------------


def _weather_series(name, rain, temperature):
    n = len(rain)
    return TimeSeries(
        name,
        np.arange(n, dtype=float),
        {
            "rain_mm": np.array(rain, dtype=float),
            "temperature_c": np.array(temperature, dtype=float),
        },
    )


def _random_weather(data, n_days):
    rain = [
        5.0 if data.draw(st.booleans()) else 0.0 for _ in range(n_days)
    ]
    temperature = [
        data.draw(st.sampled_from([18.0, 26.0])) for _ in range(n_days)
    ]
    return rain, temperature


class TestFSMBatch:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_scalar_runs_and_counters(self, data):
        """The table kernel must reproduce scalar runs — trajectories,
        acceptance bookkeeping, and counter totals — for random weather."""
        machine = fire_ants_symbol_machine()
        n_series = data.draw(st.integers(1, 5))
        n_days = data.draw(st.integers(0, 25))
        all_symbols = []
        scalar_counter = CostCounter()
        scalar_runs = []
        for _ in range(n_series):
            rain, temperature = _random_weather(data, n_days)
            events = [
                {"rain_mm": r, "temperature_c": t}
                for r, t in zip(rain, temperature)
            ]
            symbols = symbolize_weather(events)
            all_symbols.append(symbols)
            scalar_runs.append(run_fsm(machine, symbols, scalar_counter))

        code_of = {symbol: i for i, symbol in enumerate(WEATHER_ALPHABET)}
        codes = np.array(
            [[code_of[s] for s in symbols] for symbols in all_symbols],
            dtype=np.intp,
        ).reshape(n_series, n_days)
        batch_counter = CostCounter()
        batch_runs = run_compiled_batch(
            compile_fsm(machine, WEATHER_ALPHABET), codes, batch_counter
        )

        assert [r.trajectory for r in batch_runs] == [
            r.trajectory for r in scalar_runs
        ]
        assert [r.acceptance_times for r in batch_runs] == [
            r.acceptance_times for r in scalar_runs
        ]
        assert [r.accepting_days for r in batch_runs] == [
            r.accepting_days for r in scalar_runs
        ]
        assert batch_counter.model_evals == scalar_counter.model_evals
        assert batch_counter.flops == scalar_counter.flops

    def test_encode_weather_matches_symbolize(self):
        rain = np.array([5.0, 0.0, 0.0, 0.05])
        temperature = np.array([30.0, 30.0, 20.0, 25.0])
        events = [
            {"rain_mm": r, "temperature_c": t}
            for r, t in zip(rain, temperature)
        ]
        codes = encode_weather(rain, temperature)
        assert [WEATHER_ALPHABET[c] for c in codes] == symbolize_weather(events)

    def test_compile_rejects_partial_machines(self):
        """A missing="error" machine that is not total over the alphabet
        must fail at compile time, not mid-sweep."""
        from repro.exceptions import FSMError

        machine = fire_ants_symbol_machine()
        with pytest.raises(FSMError):
            compile_fsm(machine, ("rain", "dry_hot", "volcano"))

    def test_compiled_batch_rejects_bad_shapes(self):
        compiled = compile_fsm(fire_ants_symbol_machine(), WEATHER_ALPHABET)
        with pytest.raises(ValueError):
            run_compiled_batch(compiled, np.zeros(4, dtype=np.intp))

    def test_fsm_sweep_handles_mixed_lengths(self):
        machine = fire_ants_symbol_machine()
        collection = {
            "short": _weather_series(
                "short", [5.0, 0.0, 0.0], [20.0, 20.0, 20.0]
            ),
            "long": _weather_series(
                "long",
                [5.0, 0.0, 0.0, 0.0, 0.0],
                [20.0, 20.0, 20.0, 20.0, 28.0],
            ),
            "short2": _weather_series(
                "short2", [0.0, 0.0, 0.0], [28.0, 28.0, 28.0]
            ),
        }

        def encoder(series, counter=None):
            rain = series.read_range("rain_mm", 0, len(series), counter)
            temperature = series.read_range(
                "temperature_c", 0, len(series), counter
            )
            return encode_weather(rain, temperature)

        counter = CostCounter()
        runs = fsm_sweep(
            collection, machine, encoder, WEATHER_ALPHABET, counter
        )
        assert list(runs) == list(collection)
        assert runs["long"].acceptance_times == (4,)
        assert not runs["short"].accepted
        # 2 attributes per day per series.
        assert counter.data_points == 2 * (3 + 5 + 3)


# --- the single-pass naive baseline vs the quadratic original ------------


def _quadratic_rescan_reference(
    series, dry_days_required=3, flight_temperature_c=25.0
):
    """The seed's O(n²) backward-rescan baseline, kept verbatim as the
    behavioural reference for the single-pass rewrite."""
    onsets = []
    previously_flying = False
    for day in range(len(series)):
        today_rain = series.read("rain_mm", day)
        today_temp = series.read("temperature_c", day)
        flying = False
        if (
            today_rain <= RAIN_THRESHOLD_MM
            and today_temp >= flight_temperature_c
        ):
            dry_run = 0
            for back_day in range(day - 1, -1, -1):
                rain = series.read("rain_mm", back_day)
                if rain > RAIN_THRESHOLD_MM:
                    break
                dry_run += 1
            flying = dry_run >= dry_days_required
        if flying and not previously_flying:
            onsets.append(day)
        previously_flying = flying
    return onsets


class TestNaiveSinglePass:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_quadratic_original(self, data):
        n_days = data.draw(st.integers(1, 50))
        rain, temperature = _random_weather(data, n_days)
        required = data.draw(st.integers(1, 5))
        series = _weather_series("w", rain, temperature)
        assert naive_window_match(
            series, dry_days_required=required
        ) == _quadratic_rescan_reference(series, dry_days_required=required)

    def test_linear_data_reads(self):
        """The rewrite reads each sample exactly once — 2 data points per
        day — where the original re-read history every hot dry day."""
        n = 80
        series = _weather_series("w", [0.0] * n, [30.0] * n)
        counter = CostCounter()
        naive_window_match(series, counter=counter)
        assert counter.data_points == 2 * n

    def test_onsets_match_fsm_on_canonical_sequence(self):
        rain = [5.0, 0.0, 0.0, 0.0, 0.0]
        temperature = [20.0, 20.0, 20.0, 20.0, 28.0]
        series = _weather_series("w", rain, temperature)
        events = [
            {"rain_mm": r, "temperature_c": t}
            for r, t in zip(rain, temperature)
        ]
        machine = fire_ants_model()
        run = run_fsm(machine, events)
        assert naive_window_match(series) == list(run.acceptance_times)


class TestOfferBlockViews:
    """``offer_block`` must accept any array the engine hands it —
    float32 embedding scores, strided slices, 2-D column views — and
    land on exactly the heap state per-cell ``offer`` calls produce."""

    @staticmethod
    def _reference(scores, rows, cols, k):
        heap = TopKHeap(k)
        for score, row, col in zip(
            np.asarray(scores, dtype=np.float64).reshape(-1).tolist(),
            np.asarray(rows).reshape(-1).tolist(),
            np.asarray(cols).reshape(-1).tolist(),
        ):
            heap.offer(score, (int(row), int(col)))
        return heap.ranked()

    @given(
        n=st.integers(1, 60),
        k=st.integers(1, 12),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_float32_block_matches_scalar_offers(self, n, k, seed):
        rng = np.random.default_rng(seed)
        # Quantized so float32 blocks carry genuine score ties.
        scores = rng.integers(-3, 4, size=n).astype(np.float32) / 2
        rows = rng.integers(0, 8, size=n)
        cols = rng.integers(0, 8, size=n)
        heap = TopKHeap(k)
        heap.offer_block(scores, rows, cols)
        assert heap.ranked() == self._reference(scores, rows, cols, k)

    @given(
        n=st.integers(2, 60),
        k=st.integers(1, 12),
        seed=st.integers(0, 200),
        step=st.integers(2, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_strided_view_matches_contiguous(self, n, k, seed, step):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal(n * step)
        strided = dense[::step]
        assert not strided.flags["C_CONTIGUOUS"]
        rows = np.arange(n)
        cols = np.arange(n)[::-1].copy()
        heap = TopKHeap(k)
        heap.offer_block(strided, rows, cols)
        contiguous = TopKHeap(k)
        contiguous.offer_block(strided.copy(), rows, cols)
        assert heap.ranked() == contiguous.ranked()
        assert heap.ranked() == self._reference(strided, rows, cols, k)

    def test_2d_column_view_float32(self):
        """The shape engine code actually produces: a column sliced out
        of a float32 matrix — non-contiguous AND narrow."""
        matrix = np.arange(24, dtype=np.float32).reshape(6, 4)
        column = matrix[:, 1]
        assert not column.flags["OWNDATA"]
        heap = TopKHeap(3)
        heap.offer_block(column, np.arange(6), np.zeros(6, dtype=int))
        assert heap.ranked() == self._reference(
            column, np.arange(6), np.zeros(6, dtype=int), 3
        )

    def test_empty_block_is_a_noop(self):
        heap = TopKHeap(2)
        heap.offer(1.0, (0, 0))
        heap.offer_block(np.empty(0, dtype=np.float32), [], [])
        heap.offer(2.0, (1, 1))
        heap.offer_block(np.empty((0, 3)), np.empty(0), np.empty(0))
        assert heap.ranked() == [(2.0, (1, 1)), (1.0, (0, 0))]
