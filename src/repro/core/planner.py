"""Progressive query planning (paper Section 3.1).

"Progressive model generation will select those operations that are most
relevant to the final results to be executed first" — in contrast to
classical query planning, which "rearranges the execution order so that
operations resulting in maximal filtering will be executed earlier."

:func:`plan_query` builds an :class:`ExecutionPlan`: the term order for
the progressive model cascade, the tile granularity, and which pruning
mechanisms to enable. Both orderings the paper contrasts are available:

* ``"contribution"`` — the paper's proposal: largest ``|ai| * spread(Xi)``
  first, so early partial sums carry most of the score and tail bounds
  tighten fastest;
* ``"selectivity"`` — classical filter-first: order terms by how sharply
  each attribute alone separates candidates (measured as the attribute's
  score-contribution concentration), a stand-in for the optimizer
  behaviour the paper argues against for model queries.

The planner ablation benchmark measures the difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import TopKQuery
from repro.core.screening import TileScreen
from repro.exceptions import PlanError
from repro.models.linear import LinearModel
from repro.models.progressive_linear import (
    ProgressiveLinearModel,
    TermContribution,
)


@dataclass(frozen=True)
class ExecutionPlan:
    """A concrete progressive execution recipe.

    Attributes
    ----------
    term_order:
        Attribute evaluation order for the model cascade.
    ordering:
        Which heuristic produced the order.
    use_tiles, use_model_levels:
        Pruning mechanisms to enable.
    leaf_size:
        Tile-screen leaf window.
    expected_level_uncertainty:
        Tail-bound width after each level under this order — the
        planner's own estimate of how fast pruning power grows.
    """

    term_order: tuple[str, ...]
    ordering: str
    use_tiles: bool
    use_model_levels: bool
    leaf_size: int
    expected_level_uncertainty: tuple[float, ...]


def _contribution_order(
    model: LinearModel, spreads: dict[str, float]
) -> list[str]:
    terms = sorted(
        model.attributes,
        key=lambda name: (-abs(model.coefficients[name]) * spreads[name], name),
    )
    return terms


def _selectivity_order(
    model: LinearModel,
    screen: TileScreen,
) -> list[str]:
    """Filter-first order: attributes whose per-tile envelopes are most
    *dispersed* relative to their global range first (they discriminate
    tiles best, the classical planner's instinct)."""
    ranges = screen.attribute_ranges()
    leaf_lows, leaf_highs = screen.leaf_envelopes()
    dispersions = {}
    for name in model.attributes:
        low, high = ranges[name]
        span = high - low
        if span == 0:
            dispersions[name] = 0.0
            continue
        row = screen.attributes.index(name)
        widths = leaf_highs[row] - leaf_lows[row]
        # Narrow leaf envelopes relative to the global span = selective.
        dispersions[name] = 1.0 - float(widths.mean()) / span
    return sorted(
        model.attributes, key=lambda name: (-dispersions[name], name)
    )


def plan_query(
    query: TopKQuery,
    screen: TileScreen,
    ordering: str = "contribution",
    use_tiles: bool = True,
    use_model_levels: bool = True,
) -> ExecutionPlan:
    """Build an execution plan for a linear top-K query.

    Raises :class:`PlanError` for models without linear structure when
    ``use_model_levels`` is requested (the engine can still run them with
    tiles only if they support intervals).
    """
    model = query.model
    if use_model_levels and not isinstance(model, LinearModel):
        raise PlanError(
            f"progressive levels need a linear model, got {type(model).__name__}"
        )
    if ordering not in ("contribution", "selectivity"):
        raise PlanError(f"unknown ordering {ordering!r}")

    if isinstance(model, LinearModel):
        ranges = screen.attribute_ranges()
        missing = [a for a in model.attributes if a not in ranges]
        if missing:
            raise PlanError(f"screen lacks model attributes {missing}")
        spreads = {
            name: ranges[name][1] - ranges[name][0]
            for name in model.attributes
        }
        if ordering == "contribution":
            order = _contribution_order(model, spreads)
        else:
            order = _selectivity_order(model, screen)

        contributions = [
            TermContribution(
                attribute=name,
                coefficient=model.coefficients[name],
                spread=spreads[name],
            )
            for name in order
        ]
        progressive = ProgressiveLinearModel(
            model, contributions,
            {name: ranges[name] for name in model.attributes},
        )
        uncertainty = tuple(
            progressive.uncertainty(level)
            for level in range(1, progressive.n_levels + 1)
        )
    else:
        order = model.attributes
        uncertainty = ()

    return ExecutionPlan(
        term_order=tuple(order),
        ordering=ordering,
        use_tiles=use_tiles,
        use_model_levels=use_model_levels,
        leaf_size=screen.leaf_size,
        expected_level_uncertainty=uncertainty,
    )
