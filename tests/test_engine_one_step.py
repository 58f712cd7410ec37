"""One branch-and-bound step for every caller.

``shard_search``, ``progressive_top_k(use_tiles=True)`` and every member
of a ``shared_scan_search`` run the same step, so a lone query is the
shared scan's group of one. These tests hold the three seams that claim
has: a member retired *mid-scan* stops on the pop its solo run stops on;
a group of one equals the solo search for heuristic pruning and a
sub-region root cover; and the two things only the solo loop used to
know — the anytime budget and embedding fusion — keep the numbers the
solo loop produced (pinned from the commit before the loops merged).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BatchQuerySpec, RasterRetrievalEngine, TopKHeap
from repro.core.query import TopKQuery
from repro.core.results import PruningAudit
from repro.metrics.counters import CostCounter
from repro.metrics.registry import MetricsRegistry
from repro.service import CancellationToken, RetrievalService

COUNTER_FIELDS = (
    "data_points",
    "model_evals",
    "partial_evals",
    "flops",
    "tuples_examined",
    "nodes_visited",
)


class CountdownToken(CancellationToken):
    """Fires on its ``polls``-th ``cancelled`` poll — a deterministic
    stand-in for a deadline that expires mid-scan."""

    def __init__(self, polls: int) -> None:
        super().__init__()
        self.polls_left = polls

    @property
    def cancelled(self) -> bool:
        if not self._event.is_set():
            self.polls_left -= 1
            if self.polls_left <= 0:
                self.cancel("countdown")
        return self._event.is_set()


def _spec(engine, query, use_model_levels, cancel=None) -> BatchQuerySpec:
    return BatchQuerySpec(
        query=query,
        heap=TopKHeap(query.k),
        counter=CostCounter(),
        audit=PruningAudit(),
        progressive=engine.prepare_tile_query(
            query, use_model_levels=use_model_levels
        ),
        cancel=cancel,
    )


def _solo(engine, query, region, use_model_levels, cancel=None, **knobs):
    """A spec filled by the public solo entry point."""
    spec = _spec(engine, query, use_model_levels, cancel)
    spec.complete = engine.shard_search(
        query, region, spec.heap, spec.counter, spec.audit,
        progressive=spec.progressive, cancel=cancel, **knobs,
    )
    return spec


def _outcome(spec: BatchQuerySpec) -> dict:
    """Everything a search leaves behind except wall time."""
    return {
        "complete": spec.complete,
        "heap": spec.heap.ranked(),
        "counter": {
            name: getattr(spec.counter, name) for name in COUNTER_FIELDS
        },
        "audit": dataclasses.asdict(spec.audit),
    }


class TestMidScanRetirement:
    @given(
        seed=st.integers(0, 200),
        polls=st.integers(1, 40),
        k=st.integers(1, 9),
        maximize=st.booleans(),
        use_model_levels=st.booleans(),
        inset=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_member_stops_on_the_pop_its_solo_run_stops_on(
        self, seed, polls, k, maximize, use_model_levels, inset,
        make_tie_stack, make_random_linear_model,
    ):
        """Three different queries share one scan, each with a token
        that fires on its n-th poll. Every member must retire exactly
        where its solo search retires: same heap, same counted work,
        same audit — abandoned-frontier reasons included."""
        stack = make_tie_stack(37, 43, 2, seed)
        engine = RasterRetrievalEngine(stack, leaf_size=8)
        # Insets 1-5 put every region edge off the 8-cell leaf grid.
        region = (inset, inset, 37 - inset, 43 - 2 * inset)
        queries = [
            TopKQuery(
                model=make_random_linear_model(stack, seed=seed + member),
                k=k + member,
                maximize=maximize if member != 1 else not maximize,
                region=region,
            )
            for member in range(3)
        ]
        specs = [
            _spec(
                engine, query, use_model_levels,
                CountdownToken(polls + 2 * member),
            )
            for member, query in enumerate(queries)
        ]
        engine.shared_scan_search(specs, region)
        for member, (query, spec) in enumerate(zip(queries, specs)):
            solo = _solo(
                engine, query, region, use_model_levels,
                CountdownToken(polls + 2 * member),
            )
            assert _outcome(spec) == _outcome(solo), f"member {member}"
            if not spec.complete:
                reasons = {
                    reason
                    for by_reason in spec.audit.tiles_pruned_by_depth.values()
                    for reason in by_reason
                }
                assert "countdown" in reasons


class TestGroupOfOneIsTheSoloSearch:
    @pytest.mark.parametrize("pruning", ["sound", "heuristic"])
    @pytest.mark.parametrize("region", [(0, 0, 40, 48), (5, 9, 31, 44)])
    @pytest.mark.parametrize("use_model_levels", [True, False])
    def test_answers_counters_and_audit(
        self, pruning, region, use_model_levels,
        make_noise_stack, make_random_linear_model,
    ):
        """``shared_scan_search([spec])`` against ``shard_search``: for
        unsound (order-dependent) heuristic bounds and for a sub-region
        whose frontier starts from a multi-node root cover."""
        stack = make_noise_stack(40, 48, 3, seed=21)
        engine = RasterRetrievalEngine(stack, leaf_size=8)
        query = TopKQuery(
            model=make_random_linear_model(stack, seed=22), k=6,
            region=region,
        )
        knobs = {"pruning": pruning, "heuristic_margin": 0.5}
        solo = _solo(engine, query, region, use_model_levels, **knobs)
        lone = _spec(engine, query, use_model_levels)
        engine.shared_scan_search([lone], region, **knobs)
        assert _outcome(lone) == _outcome(solo)
        if region != (0, 0, 40, 48):
            assert len(engine.screen.region_root_ids(region)) > 1


def _summary(result) -> tuple:
    """(cells, strategy, complete, regret, counter, (screened, pruned),
    frontier tiles abandoned to (budget, countdown, threshold))."""
    audit = result.audit
    abandoned = tuple(
        sum(
            by_reason.get(reason, 0)
            for by_reason in audit.tiles_pruned_by_depth.values()
        )
        for reason in ("budget", "countdown", "threshold")
    )
    return (
        [(a.row, a.col) for a in result.answers],
        result.strategy,
        result.complete,
        result.regret_bound,
        tuple(getattr(result.counter, name) for name in COUNTER_FIELDS),
        (audit.tiles_screened, audit.tiles_pruned),
        abandoned,
    )


# Produced by the separate solo loop of the parent commit (ef27f6a) for
# the scenarios of TestBudgetAndFusionKeepTheirNumbers, two seeds each.
PINNED = {
    11: {
        "budget": (
            [(13, 34), (6, 15), (12, 30), (9, 13), (6, 13)],
            "both-anytime", True, 4.9035191163290435,
            (212, 0, 265, 742, 0, 159), (52, 0), (37, 0, 0),
        ),
        "budget-unspent": (
            [(26, 13), (13, 34), (15, 38), (6, 15), (37, 43)],
            "both-anytime", True, 0.0,
            (2958, 0, 3043, 6426, 0, 255), (84, 4), (0, 0, 3),
        ),
        "budget-cancelled": (
            [(26, 13), (13, 34), (15, 38), (6, 15), (37, 43)],
            "both-anytime-partial", False, 2.0940595298719273,
            (1057, 0, 1142, 2624, 0, 255), (84, 4), (0, 42, 0),
        ),
        "fused": (
            [(26, 13), (13, 34), (15, 38), (6, 15), (37, 43)],
            "fused-sharded[1]", True, None,
            (5040, 1680, 290, 12037, 0, 255), (84, 4), (0, 0, 4),
        ),
        "fused-cancelled": (
            [(26, 13), (13, 34), (15, 38), (6, 15), (37, 43)],
            "fused-sharded[1]-partial", False, None,
            (1620, 540, 252, 5083, 0, 255), (84, 4), (0, 42, 0),
        ),
    },
    12: {
        "budget": (
            [(32, 29), (33, 29), (33, 26), (22, 37), (0, 30)],
            "both-anytime", True, 9.444215734262688,
            (260, 0, 321, 886, 0, 183), (60, 0), (43, 0, 0),
        ),
        "budget-unspent": (
            [(31, 19), (11, 19), (25, 17), (24, 3), (34, 47)],
            "both-anytime", True, 0.0,
            (3703, 0, 3788, 7916, 0, 255), (84, 0), (0, 0, 9),
        ),
        "budget-cancelled": (
            [(11, 19), (25, 17), (24, 3), (11, 18), (32, 29)],
            "both-anytime-partial", False, 3.843222228466608,
            (1338, 0, 1423, 3186, 0, 255), (84, 0), (0, 46, 0),
        ),
        "fused": (
            [(31, 19), (11, 19), (25, 17), (24, 3), (34, 47)],
            "fused-sharded[1]", True, None,
            (4950, 1650, 289, 11854, 0, 255), (84, 0), (0, 0, 9),
        ),
        "fused-cancelled": (
            [(11, 19), (25, 17), (24, 3), (11, 18), (32, 29)],
            "fused-sharded[1]-partial", False, None,
            (1620, 540, 252, 5083, 0, 255), (84, 0), (0, 46, 0),
        ),
    },
}


class TestBudgetAndFusionKeepTheirNumbers:
    """The anytime budget and the fused bounds now run the shared step;
    their outputs must be what the solo-only loop produced. The pinned
    numbers are work counts of strict best-first order, which the step
    reproduces at wave width 1 (the ``wave_width_one`` fixture); the
    values themselves are untouched."""

    @staticmethod
    def _scenarios(seed, make_noise_stack, make_random_linear_model):
        stack = make_noise_stack(40, 48, 3, seed)
        model = make_random_linear_model(stack, seed=seed + 1)
        engine = RasterRetrievalEngine(stack, leaf_size=8)
        service = RetrievalService(
            stack, leaf_size=8, n_shards=1, cache_size=0,
            registry=MetricsRegistry(), embedding_dim=8,
        )
        query = TopKQuery(model=model, k=5)
        fused = TopKQuery(model=model, k=5, similar_to=(9, 14), alpha=0.4)
        return {
            "budget": engine.progressive_top_k(query, work_budget=900),
            "budget-unspent": engine.progressive_top_k(
                query, work_budget=10**9
            ),
            "budget-cancelled": engine.progressive_top_k(
                query, work_budget=10**9, cancel=CountdownToken(40)
            ),
            "fused": service.top_k(fused, strategy="fused"),
            "fused-cancelled": service.top_k(
                fused, strategy="fused", cancel=CountdownToken(40)
            ),
        }

    @pytest.mark.usefixtures("wave_width_one")
    @pytest.mark.parametrize("seed", [11, 12])
    def test_pinned_from_the_parent_commit(
        self, seed, make_noise_stack, make_random_linear_model
    ):
        results = self._scenarios(
            seed, make_noise_stack, make_random_linear_model
        )
        for name, result in results.items():
            got, want = _summary(result), PINNED[seed][name]
            assert got[3] == pytest.approx(want[3]), f"{name}: regret"
            assert got[:3] + got[4:] == want[:3] + want[4:], name
