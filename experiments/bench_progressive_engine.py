"""Experiment E5 — the Section 4.2 efficiency model.

Paper claim: progressive execution reduces O(n*N) to O(n*N / (pm*pd)),
with "a substantial speedup compared to using either progressive models
or progressive data representation" alone.

The four-way ablation over the HPS scene measures pm (model levels only),
pd (tile envelopes only) and the combined reduction, plus the paper's
multiplicative prediction. Also ablates the engine's pruning rule (sound
envelopes vs none) and the tile granularity called out in DESIGN.md.
"""

from __future__ import annotations

import pytest

from repro.core.engine import RasterRetrievalEngine
from repro.core.query import TopKQuery
from repro.metrics.counters import CostCounter
from repro.metrics.efficiency import EfficiencyModel
from repro.models.linear import hps_risk_model
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem

SHAPE = (512, 512)


def _answers(result):
    """Exact ``(row, col, score)`` answers, best first: every strategy's
    must equal the scan's, because one arithmetic scores and bounds."""
    return [(a.row, a.col, a.score) for a in result.answers]


def _timed(run, query):
    """``(result, wall_seconds)`` of one engine call."""
    clock = CostCounter()
    with clock.timed():
        result = run(query)
    return result, clock.wall_seconds


@pytest.fixture(scope="module")
def engine():
    dem = generate_dem(SHAPE, seed=21)
    stack = generate_scene(SHAPE, seed=22, terrain=dem)
    stack.add(dem)
    return RasterRetrievalEngine(stack, leaf_size=16)


@pytest.fixture(scope="module")
def model():
    return hps_risk_model()


class TestEfficiencyModel:
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_four_way_ablation(self, benchmark, engine, model, report, k):
        report.header("O(nN) -> O(nN/(pm*pd)); combined beats either alone")
        query = TopKQuery(model=model, k=k)
        exhaustive, scan_s = _timed(engine.exhaustive_top_k, query)
        model_only = engine.progressive_top_k(query, use_tiles=False)
        data_only = engine.progressive_top_k(query, use_model_levels=False)
        both, both_s = _timed(engine.progressive_top_k, query)

        for result in (model_only, data_only, both):
            assert _answers(result) == _answers(exhaustive)

        efficiency = EfficiencyModel.from_ablation(
            exhaustive.counter, model_only.counter, data_only.counter,
            both.counter,
        )
        report.row(
            k=k,
            pm=efficiency.pm,
            pd=efficiency.pd,
            combined=efficiency.combined,
            predicted_pm_x_pd=efficiency.predicted_combined,
            synergy=efficiency.synergy,
            wall_ratio=scan_s / both_s,
        )
        assert efficiency.pm > 1.0
        assert efficiency.pd > 1.0
        assert efficiency.combined > max(efficiency.pm, efficiency.pd)

        benchmark.pedantic(
            engine.progressive_top_k, args=(query,), rounds=3, iterations=1
        )

    def test_anytime_regret_curve(self, benchmark, engine, model, report):
        """Section 3.1's incremental predictions: work-budgeted retrieval
        with a sound regret bound that shrinks to zero as budget grows."""
        report.header("anytime retrieval: regret bound vs work budget (k=20)")
        query = TopKQuery(model=model, k=20)
        exact = engine.exhaustive_top_k(query)
        truth = set(exact.locations)
        previous_regret = float("inf")
        for budget in (2000, 10000, 50000, 10**9):
            result = engine.progressive_top_k(query, work_budget=budget)
            recall = len(set(result.locations) & truth) / len(truth)
            report.row(
                budget=budget,
                work_done=result.counter.total_work,
                regret_bound=result.regret_bound,
                recall=recall,
            )
            assert result.regret_bound <= previous_regret + 1e-9
            previous_regret = result.regret_bound
        assert previous_regret == 0.0
        benchmark(engine.progressive_top_k, query)

    def test_pruning_rule_ablation(self, benchmark, engine, model, report):
        """DESIGN.md ablation: sound envelopes vs mean+/-margin heuristics.

        Finding: heuristic screening does save work at tight margins, but
        recall collapses in a *cliff*, not a slope — the top-K clusters
        spatially, so one under-bounded tile can hold the entire answer
        set. Sound envelopes cost almost nothing extra. This is the
        empirical argument for the engine's sound-by-default design.
        """
        report.header("sound envelopes vs heuristic mean+/-margin screening")
        query = TopKQuery(model=model, k=20)
        exhaustive = engine.exhaustive_top_k(query)
        truth = set(exhaustive.locations)
        sound = engine.progressive_top_k(query)
        report.row(
            mode="sound", work=sound.counter.total_work,
            recall=len(set(sound.locations) & truth) / len(truth),
        )
        assert _answers(sound) == _answers(exhaustive)

        recalls = []
        for margin in (1.0, 0.8, 0.6, 0.4, 0.2):
            result = engine.progressive_top_k(
                query, pruning="heuristic", heuristic_margin=margin
            )
            recall = len(set(result.locations) & truth) / len(truth)
            recalls.append(recall)
            report.row(
                mode=f"heuristic(m={margin})",
                work=result.counter.total_work,
                recall=recall,
            )
        assert min(recalls) < 1.0, (
            "tight margins must demonstrate the recall loss"
        )
        benchmark(lambda: None)

    def test_tile_granularity_ablation(self, benchmark, engine, model, report):
        """DESIGN.md ablation: leaf size trades bound work vs pruning."""
        report.header("tile-granularity ablation (leaf size sweep, k=10)")
        query = TopKQuery(model=model, k=10)
        baseline = engine.exhaustive_top_k(query)
        for leaf_size in (8, 16, 32, 64):
            sized = RasterRetrievalEngine(engine.stack, leaf_size=leaf_size)
            result = sized.progressive_top_k(query)
            assert _answers(result) == _answers(baseline)
            report.row(
                leaf_size=leaf_size,
                work=result.counter.total_work,
                speedup=baseline.counter.total_work / result.counter.total_work,
                tiles_pruned=result.audit.tiles_pruned,
            )
        benchmark(lambda: None)

    def test_knowledge_model_through_the_tile_screen(
        self, benchmark, engine, report
    ):
        """The third model family in the engine: an interval-capable
        fuzzy knowledge model prunes tiles exactly (S2.3 meets S3.1)."""
        from repro.models.fuzzy import (
            gaussian_membership,
            sigmoid_membership,
        )
        from repro.models.knowledge import (
            FuzzyRule,
            KnowledgeModel,
            RulePredicate,
        )

        report.header("knowledge-model query through tile pruning (k=10)")
        knowledge = KnowledgeModel(
            [
                FuzzyRule(
                    "wet_vegetation",
                    (
                        RulePredicate(
                            "tm_band4", sigmoid_membership(95.0, 0.12)
                        ),
                        RulePredicate(
                            "tm_band5", sigmoid_membership(85.0, 0.10)
                        ),
                    ),
                ),
                FuzzyRule(
                    "highland",
                    (
                        RulePredicate(
                            "elevation", gaussian_membership(2300.0, 150.0)
                        ),
                    ),
                    weight=2.0,
                ),
            ],
            name="hps_fuzzy",
        )
        query = TopKQuery(model=knowledge, k=10)
        baseline = engine.exhaustive_top_k(query)
        pruned = engine.progressive_top_k(query, use_model_levels=False)
        assert _answers(pruned) == _answers(baseline)
        report.row(
            exhaustive_work=baseline.counter.total_work,
            pruned_work=pruned.counter.total_work,
            speedup=baseline.counter.total_work / pruned.counter.total_work,
            tiles_pruned=pruned.audit.tiles_pruned,
        )
        assert pruned.counter.total_work < baseline.counter.total_work
        benchmark.pedantic(
            engine.progressive_top_k,
            args=(query,),
            kwargs={"use_model_levels": False},
            rounds=2,
            iterations=1,
        )

    def test_scaling_with_archive_size(self, benchmark, model, report):
        """The title claim — retrieval *from large archives*: the
        progressive engine's work grows sublinearly in N while the scan
        grows linearly, so the speedup widens with archive size."""
        report.header("speedup vs archive size (k=10)")
        speedups = []
        for size in (128, 256, 512):
            dem = generate_dem((size, size), seed=25)
            stack = generate_scene((size, size), seed=26, terrain=dem)
            stack.add(dem)
            engine_n = RasterRetrievalEngine(stack, leaf_size=16)
            query = TopKQuery(model=model, k=10)
            exhaustive, scan_s = _timed(engine_n.exhaustive_top_k, query)
            both, both_s = _timed(engine_n.progressive_top_k, query)
            assert _answers(both) == _answers(exhaustive)
            ratio = (
                exhaustive.counter.total_work / both.counter.total_work
            )
            speedups.append(ratio)
            report.row(
                n_cells=size * size,
                scan_work=exhaustive.counter.total_work,
                progressive_work=both.counter.total_work,
                speedup=ratio,
                wall_ratio=scan_s / both_s,
            )
        assert speedups == sorted(speedups), (
            "speedup must widen with archive size"
        )
        benchmark(lambda: None)

    def test_smoothness_controls_pd(self, benchmark, model, report):
        """The data-progressivity factor tracks spatial autocorrelation."""
        report.header("pd vs imagery smoothness (k=10)")
        for smoothness in (1.5, 2.5, 3.5):
            dem = generate_dem((256, 256), seed=23)
            stack = generate_scene(
                (256, 256), seed=24, terrain=dem, smoothness=smoothness
            )
            stack.add(dem)
            engine_s = RasterRetrievalEngine(stack, leaf_size=16)
            query = TopKQuery(model=model, k=10)
            exhaustive = engine_s.exhaustive_top_k(query)
            data_only = engine_s.progressive_top_k(
                query, use_model_levels=False
            )
            report.row(
                smoothness=smoothness,
                pd=exhaustive.counter.total_work
                / data_only.counter.total_work,
            )
        benchmark(lambda: None)
