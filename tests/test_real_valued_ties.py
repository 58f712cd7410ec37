"""Every strategy is exact on real-valued ties.

Each layer of these stacks takes a few two-decimal values, so many cells
share a tuple and tie exactly, while every sum rounds. A bound computed
in another order than the score it covers can then sit one ulp under
it, and a tile holding a cell that ties the K-th score (and should win
on cell order) is pruned. One arithmetic rules that out: every score is
``LinearModel.evaluate_batch``, and every bound the search prunes with
is that expression at a corner of the box it bounds, so rounding, being
monotone, keeps the bound at or above every score under it.

The differential below holds every reply to the dense oracle with
``==`` — cells, order and scores: the service's ``quadtree``, ``scan``,
``onion`` (up to five terms), ``fused`` and ``embed-scan`` strategies,
a ``top_k_batch``, and the engine's ``both``, ``model-progressive`` and
``data-progressive`` searches (the first two run the level cascade, so
they check its bounds too).
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.query import TopKQuery
from repro.metrics.registry import MetricsRegistry
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from tests.oracles import exact_answers, exhaustive_fused

coefficient = st.floats(-5, 5).map(lambda weight: round(weight, 2))


@given(
    seed=st.integers(0, 2**16),
    rows=st.integers(8, 24),
    cols=st.integers(8, 24),
    reals=st.integers(3, 4),
    weights=st.lists(coefficient, min_size=1, max_size=8),
    intercept=coefficient,
    maximize=st.booleans(),
    k=st.integers(1, 40),
    leaf=st.integers(2, 16),
    insets=st.none() | st.tuples(*[st.integers(0, 3)] * 4),
)
@example(
    # ``quadtree`` answered (0,3), (2,2), (3,1): cell (0,5) ties the
    # K-th score and wins on cell order, but its leaf's bound, summed
    # in another order than its score, came out one ulp low.
    seed=61, rows=8, cols=8, reals=3, weights=[2.3, -0.2],
    intercept=-5.5, maximize=True, k=3, leaf=4, insets=None,
)
@settings(max_examples=100, deadline=None)
def test_every_reply_is_the_dense_oracle(
    seed, rows, cols, reals, weights, intercept, maximize, k, leaf, insets,
    make_tie_stack,
):
    stack = make_tie_stack(rows, cols, len(weights), seed, reals=reals)
    model = LinearModel(
        dict(zip(stack.names, weights)), intercept=intercept
    )
    if insets is None:
        region = (0, 0, rows, cols)
    else:
        top, left, bottom, right = insets
        region = (top, left, rows - bottom, cols - right)
    query = TopKQuery(model=model, k=k, maximize=maximize, region=region)
    want = exhaustive_fused(stack, None, query, region)[0]

    service = RetrievalService(
        stack, leaf_size=leaf, cache_size=0, registry=MetricsRegistry(),
        embedding_dim=8,
    )
    service.router.min_onion_cells = 1
    # Peeling the hulls of a grid's cells takes seconds past five terms.
    onion = ("onion",) if len(weights) <= 5 else ()
    for strategy in ("quadtree", "scan") + onion:
        result = service.top_k(query, strategy=strategy)
        assert exact_answers(result) == want, strategy
    for knobs in (
        {}, {"use_tiles": False}, {"use_model_levels": False},
    ):
        result = service.engine.progressive_top_k(query, **knobs)
        assert exact_answers(result) == want, result.strategy

    other = dataclasses.replace(query, maximize=not maximize, k=k + 3)
    for member, result in zip(
        (query, other), service.top_k_batch([query, other], use_cache=False)
    ):
        assert exact_answers(result) == exhaustive_fused(
            stack, None, member, region
        )[0]

    fused = dataclasses.replace(
        query, similar_to=(region[0], region[1]), alpha=0.6
    )
    want, _ = exhaustive_fused(stack, service.embeddings(), fused, region)
    for strategy in ("fused", "embed-scan"):
        result = service.top_k(fused, strategy=strategy)
        assert exact_answers(result) == want, strategy
