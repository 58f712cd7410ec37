"""Riverbed strata retrieval from well logs (paper Figure 4).

"A geologist may be looking for a strata region consisting of shale, on
top of sandstone, on top of siltstone. Additional specifications such as
the Gamma Ray response has to be higher than a certain number can also
be included."

The query is a fuzzy Cartesian composite over a well's *layer runs*
(maximal same-lithology depth intervals): three components (shale,
sandstone, siltstone) whose unary scores combine lithology match with a
soft gamma-ray predicate, linked by "immediately below" compatibility.
SPROC evaluates it; the naive evaluator is the correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.series import DepthSeries
from repro.metrics.counters import CostCounter
from repro.models.fuzzy import sigmoid_membership
from repro.sproc.dp import sproc_top_k
from repro.sproc.fast import fast_top_k
from repro.sproc.query import Assignment, CompositeQuery
from repro.synth.welllog import (
    LITHOLOGY_CODES,
    WellLogParams,
    generate_well_field,
    layer_runs,
)

GAMMA_RAY_THRESHOLD = 45.0
RIVERBED_SEQUENCE = ("shale", "sandstone", "siltstone")


@dataclass
class GeologyScenario:
    """A field of synthetic wells."""

    wells: list[DepthSeries]

    @property
    def n_wells(self) -> int:
        """Number of wells in the field."""
        return len(self.wells)


def build_scenario(
    n_wells: int = 40,
    total_depth_m: float = 200.0,
    seed: int = 11,
    params: WellLogParams | None = None,
) -> GeologyScenario:
    """Generate a synthetic well field."""
    return GeologyScenario(
        wells=generate_well_field(
            n_wells, total_depth_m, seed=seed, params=params
        )
    )


def riverbed_query(
    well: DepthSeries,
    gamma_threshold: float = GAMMA_RAY_THRESHOLD,
    sequence: tuple[str, ...] = RIVERBED_SEQUENCE,
    counter: CostCounter | None = None,
) -> tuple[CompositeQuery, list[tuple[int, int, int]]]:
    """Build the Figure 4 composite query over one well's layer runs.

    Unary score of run ``r`` for component ``c``: 1 if the run's
    lithology matches ``c``'s target (0 otherwise); the soft "mean gamma
    ray above threshold" membership additionally gates the *shale*
    component (the radioactive cap rock the Figure 4 constraint
    identifies — clean sandstone/siltstone read well below 45 API, so
    applying the constraint to every component would zero every
    physically sensible match). Compatibility between consecutive
    components: 1 when the next run starts exactly where the previous
    ends (immediately below), 0 otherwise. Returns the query plus the
    run table so answers can be mapped back to depths.
    """
    runs = layer_runs(well)
    n_runs = len(runs)
    gamma = well.values("gamma_ray")
    if counter is not None:
        counter.add_data_points(int(well.values("lithology").size) * 2)

    gamma_membership = sigmoid_membership(
        gamma_threshold, steepness=0.25, name="gamma_above"
    )
    target_codes = [LITHOLOGY_CODES[name] for name in sequence]
    shale_code = LITHOLOGY_CODES["shale"]

    unary = np.zeros((len(sequence), n_runs))
    for run_index, (code, start, stop) in enumerate(runs):
        mean_gamma = float(gamma[start:stop].mean())
        gamma_degree = gamma_membership(mean_gamma)
        for component_index, target in enumerate(target_codes):
            if code == target:
                degree = gamma_degree if target == shale_code else 1.0
                unary[component_index, run_index] = degree

    successors = [
        [[] for _ in range(n_runs)] for _ in range(len(sequence) - 1)
    ]
    for run_index in range(n_runs - 1):
        for stage in range(len(sequence) - 1):
            successors[stage][run_index].append(run_index + 1)

    def adjacency(stage: int, prev_run: int, next_run: int) -> float:
        # "On top of" reading downward: the next component's run must
        # start exactly where the previous run stops.
        return 1.0 if next_run == prev_run + 1 else 0.0

    query = CompositeQuery(
        component_names=list(sequence),
        unary_scores=unary,
        compatibility=adjacency,
        successors=successors,
    )
    return query, runs


@dataclass(frozen=True)
class RiverbedMatch:
    """One riverbed candidate in one well."""

    well_name: str
    score: float
    assignment: Assignment
    depth_top_m: float
    depth_bottom_m: float


def find_riverbeds(
    scenario: GeologyScenario,
    k_per_well: int = 1,
    k_total: int = 10,
    gamma_threshold: float = GAMMA_RAY_THRESHOLD,
    algorithm: str = "fast",
    counter: CostCounter | None = None,
) -> list[RiverbedMatch]:
    """Top riverbed matches across a well field.

    ``algorithm`` selects the SPROC variant (``"fast"`` or ``"dp"``).
    Matches with zero score (no plausible sequence) are dropped.
    """
    if algorithm not in ("fast", "dp"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    evaluate = fast_top_k if algorithm == "fast" else sproc_top_k

    matches: list[RiverbedMatch] = []
    for well in scenario.wells:
        query, runs = riverbed_query(
            well, gamma_threshold=gamma_threshold, counter=counter
        )
        if query.n_objects < query.n_components:
            continue
        for assignment, score in evaluate(query, k_per_well, counter):
            if score <= 0.0:
                continue
            top_run = runs[assignment[0]]
            bottom_run = runs[assignment[-1]]
            matches.append(
                RiverbedMatch(
                    well_name=well.name,
                    score=float(score),
                    assignment=assignment,
                    depth_top_m=well.depth_at(top_run[1]),
                    depth_bottom_m=well.depth_at(bottom_run[2] - 1),
                )
            )
    matches.sort(key=lambda match: (-match.score, match.well_name))
    return matches[:k_total]
