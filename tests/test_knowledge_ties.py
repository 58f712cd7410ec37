"""Knowledge models are exact on real-valued ties.

The stacks here are ``tests/test_real_valued_ties.py``'s: each layer
takes a few two-decimal values, so many cells tie exactly while every
membership ramp, product and average rounds. A knowledge bound is the
score's own expression at a point of the box it bounds: each predicate
at the end or breakpoint of its interval that lowers (raises) its
degree, folded by the same t-norm, t-conorm or weighted average. Every
step rounds monotonically, so a node's bound never sits below the score
of a cell it holds, and a cell that ties the K-th score (and should win
on cell order) is never pruned. The probabilistic sum used to be the
exception: ``t + a - t*a`` can round down as ``a`` rises, and the
pinned example below is a grid where that pruned the K-th cell.

Every reply is held to the dense oracle with ``==`` — cells, order and
scores: the service's ``quadtree`` and ``scan`` strategies, both members
of a ``top_k_batch``, and the engine's ``data-progressive`` search.
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.query import TopKQuery
from repro.metrics.registry import MetricsRegistry
from repro.models.fuzzy import (
    FuzzyAnd,
    FuzzyOr,
    gaussian_membership,
    sigmoid_membership,
    trapezoid_membership,
    triangle_membership,
)
from repro.models.knowledge import FuzzyRule, KnowledgeModel, RulePredicate
from repro.service import RetrievalService
from tests.oracles import exact_answers, exhaustive_fused

N_LAYERS = 3


def two_decimal(low, high):
    return st.floats(low, high).map(lambda value: round(value, 2))


#: (layer, shape, four parameters the shape reads what it needs from).
predicate = st.tuples(
    st.integers(0, N_LAYERS - 1),
    st.sampled_from(["triangle", "trapezoid", "gaussian", "sigmoid"]),
    st.lists(two_decimal(-8, 8), min_size=4, max_size=4),
)
#: (predicates, weight, t-norm).
rule = st.tuples(
    st.lists(predicate, min_size=1, max_size=2),
    two_decimal(0.25, 3),
    st.sampled_from(["min", "product"]),
)


def _membership(shape, params):
    if shape == "triangle":
        return triangle_membership(*sorted(params[:3]))
    if shape == "trapezoid":
        return trapezoid_membership(*sorted(params))
    if shape == "gaussian":
        return gaussian_membership(params[0], abs(params[1]) + 0.25)
    return sigmoid_membership(params[0], params[1] or 0.5)


def _model(rules, combination, t_conorm):
    return KnowledgeModel(
        [
            FuzzyRule(
                name=f"r{index}",
                predicates=tuple(
                    RulePredicate(f"layer{layer}", _membership(shape, params))
                    for layer, shape, params in predicates
                ),
                weight=weight,
                conjunction=FuzzyAnd(t_norm),
            )
            for index, (predicates, weight, t_norm) in enumerate(rules)
        ],
        combination=combination,
        disjunction=FuzzyOr(t_conorm),
    )


@given(
    seed=st.integers(0, 2**16),
    rows=st.integers(6, 16),
    cols=st.integers(6, 16),
    reals=st.integers(3, 4),
    rules=st.lists(rule, min_size=1, max_size=4),
    combination=st.sampled_from(["or", "weighted"]),
    t_conorm=st.sampled_from(["max", "sum"]),
    maximize=st.booleans(),
    k=st.integers(1, 8),
    leaf=st.integers(2, 6),
    insets=st.none() | st.tuples(*[st.integers(0, 2)] * 4),
)
@example(
    # Folded as ``t + a - t*a``, the probabilistic sum scored cells
    # (1,10) and (1,12) 1.0 while the bounds of their 3 x 3 leaves came
    # out one ulp under 1.0: ``quadtree`` and ``data-progressive``
    # answered (3,2) and (4,10) in their place.
    seed=22354, rows=9, cols=15, reals=4,
    rules=[
        ([(2, "triangle", [2.44, -5.79, 5.99, 3.35])], 1.0, "min"),
        ([(1, "triangle", [-5.06, -2.07, 3.67, 2.12])], 1.0, "min"),
        ([(1, "triangle", [3.63, 5.7, 0.89, -3.21])], 1.0, "min"),
    ],
    combination="or", t_conorm="sum", maximize=True, k=5, leaf=3,
    insets=None,
)
@settings(max_examples=200, deadline=None)
def test_every_knowledge_reply_is_the_dense_oracle(
    seed, rows, cols, reals, rules, combination, t_conorm, maximize, k,
    leaf, insets, make_tie_stack,
):
    stack = make_tie_stack(rows, cols, N_LAYERS, seed, reals=reals)
    model = _model(rules, combination, t_conorm)
    if insets is None:
        region = (0, 0, rows, cols)
    else:
        top, left, bottom, right = insets
        region = (top, left, rows - bottom, cols - right)
    query = TopKQuery(model=model, k=k, maximize=maximize, region=region)
    want = exhaustive_fused(stack, None, query, region)[0]

    service = RetrievalService(
        stack, leaf_size=leaf, cache_size=0, registry=MetricsRegistry()
    )
    for strategy in ("quadtree", "scan"):
        result = service.top_k(query, strategy=strategy)
        assert exact_answers(result) == want, strategy
    result = service.engine.progressive_top_k(query, use_model_levels=False)
    assert exact_answers(result) == want, result.strategy

    other = dataclasses.replace(query, maximize=not maximize, k=k + 3)
    for member, result in zip(
        (query, other), service.top_k_batch([query, other], use_cache=False)
    ):
        assert exact_answers(result) == exhaustive_fused(
            stack, None, member, region
        )[0]
