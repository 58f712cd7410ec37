"""The served tile search scores its leaves densely.

The level cascade reads fewer values but costs the served models wall
time (DESIGN §6, "Where the cascade pays"), so the service never runs
it and has no knob to ask for it; a reply's label names what ran:

* a hypothesis differential over random linear models of 1-32 terms,
  solo and batched: every reply is bit-identical to the dense brute
  force, is labelled ``data-progressive``, and entered no cascade level;
* a cache hit keeps the label of the search that computed it;
* a knowledge model, which has no cascade, runs on the same defaults,
  solo and batched.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import TopKQuery
from repro.metrics.registry import MetricsRegistry
from repro.models.fuzzy import triangle_membership
from repro.models.knowledge import FuzzyRule, KnowledgeModel, RulePredicate
from repro.models.linear import LinearModel
from repro.service import RetrievalService
from tests.oracles import exact_answers, exhaustive_fused

N_LAYERS = 32


@pytest.fixture(scope="module")
def noise_service(make_noise_stack):
    stack = make_noise_stack(32, 32, N_LAYERS, seed=17)
    return RetrievalService(
        stack, leaf_size=4, cache_size=16, registry=MetricsRegistry()
    )


_models = st.tuples(
    st.integers(1, N_LAYERS),
    # Flat to steep contribution profiles: the shapes where the cascade
    # loses and the long, light-tailed ones where it can win.
    st.sampled_from([1.0, 0.7, 0.5, 0.35]),
    st.lists(
        st.sampled_from([-1.0, 1.0]), min_size=N_LAYERS, max_size=N_LAYERS
    ),
    st.sampled_from([0.0, 0.5]),
)


def _model(stack, drawn) -> LinearModel:
    terms, decay, signs, intercept = drawn
    return LinearModel(
        {
            name: signs[index] * decay**index
            for index, name in enumerate(stack.names[:terms])
        },
        intercept=intercept,
    )


def _check_reply(service, query, result, suffix):
    """Dense leaves: the brute force's arithmetic, bit for bit."""
    stack = service.engine.stack
    assert result.strategy.startswith("data-progressive" + suffix)
    assert not result.audit.cells_entered_level
    expected, _ = exhaustive_fused(
        stack, None, query, query.clip_region(stack.shape)
    )
    assert exact_answers(result) == expected


class TestDenseLeavesDifferential:
    @given(
        drawn=_models,
        k=st.integers(1, 12),
        maximize=st.booleans(),
        region=st.sampled_from([None, (4, 8, 28, 32)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_solo_replies_match_the_dense_oracle(
        self, noise_service, drawn, k, maximize, region
    ):
        stack = noise_service.engine.stack
        query = TopKQuery(
            model=_model(stack, drawn), k=k, maximize=maximize, region=region
        )
        result = noise_service.top_k(query, use_cache=False)
        _check_reply(noise_service, query, result, "-sharded[")

    @given(
        members=st.lists(_models, min_size=2, max_size=4),
        k=st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_members_match_the_dense_oracle(
        self, noise_service, members, k
    ):
        stack = noise_service.engine.stack
        queries = [TopKQuery(model=_model(stack, drawn), k=k) for drawn in members]
        results = noise_service.top_k_batch(queries, use_cache=False)
        for query, result in zip(queries, results):
            _check_reply(
                noise_service, query, result, f"-batch[{len(queries)}]"
            )


class TestLabelAndKnob:
    def test_a_cached_hit_keeps_the_label_of_its_search(self, noise_service):
        stack = noise_service.engine.stack
        query = TopKQuery(
            model=LinearModel(
                {name: 0.5**index for index, name in enumerate(stack.names)}
            ),
            k=7,
        )
        cold = noise_service.top_k(query)
        hit = noise_service.top_k(query)
        assert cold.strategy == "data-progressive-sharded[1]"
        assert hit.strategy == cold.strategy + "-cached"

    def test_a_knowledge_model_runs_on_defaults(self, noise_service):
        """No cascade to refuse: solo and as a batch member, on the
        defaults, a knowledge model gets the dense brute force."""
        stack = noise_service.engine.stack
        rules = [
            FuzzyRule(
                name=f"r{index}",
                predicates=(
                    RulePredicate(
                        attribute=f"layer{index}",
                        membership=triangle_membership(-1.0, 0.0, 1.0),
                    ),
                ),
                weight=1.0 + index,
            )
            for index in range(2)
        ]
        queries = [
            TopKQuery(model=KnowledgeModel(rules[:1]), k=3),
            TopKQuery(model=KnowledgeModel(rules, combination="or"), k=5),
        ]
        solo = noise_service.top_k(queries[0], use_cache=False)
        _check_reply(noise_service, queries[0], solo, "-sharded[1]")
        for query, member in zip(
            queries, noise_service.top_k_batch(queries, use_cache=False)
        ):
            _check_reply(noise_service, query, member, "-batch[2]")
