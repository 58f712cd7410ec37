"""Knowledge scores, bounds and degrees, pinned bit for bit.

Each digest below is a sha256 over a seeded corpus of random knowledge
models (every membership shape, ``min``/``product`` rules, ``or`` over
``max`` and the positive-weight average) scored on 2,000 cells whose
values often land on a membership's breakpoints. It covers what the
engine ranks and prunes with: ``evaluate_batch`` over every cell, the
scalar ``evaluate`` and ``evaluate_interval`` on a sample, both sides
of ``evaluate_interval_batch`` over 2,000 boxes, and every predicate's
membership degrees and degree bounds. The values were recorded while
each fuzzy operation still had a scalar and an array form and
``evaluate_batch`` looped over the scalar one, so one array expression
per operation must reproduce both to the last bit.

The probabilistic sum is left out on purpose: its fold changed to one
that rounds monotonically (``tests/test_knowledge_ties.py``).

The triangle and trapezoid corpus is pure IEEE arithmetic and holds on
any platform. The gaussian and sigmoid shapes go through ``exp``, whose
last bit depends on the platform's math kernels, so that corpus is
compared only where ``exp`` reproduces the recording platform's on a
probe.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.models.fuzzy import (
    FuzzyAnd,
    FuzzyOr,
    gaussian_membership,
    sigmoid_membership,
    trapezoid_membership,
    triangle_membership,
)
from repro.models.knowledge import FuzzyRule, KnowledgeModel, RulePredicate

N_MODELS = 120
N_CELLS = 2000
N_SAMPLE = 25
ATTRIBUTES = ("a", "b", "c")
#: Two-decimal values shared by breakpoints and cells, so cells tie
#: with each other and sit exactly on peaks, feet and shoulders.
GRID = np.round(np.linspace(-7.5, 7.5, 13), 2)

#: corpus -> quantity -> sha256 prefix, recorded before the refactor.
PINNED = {
    "rational": {
        "scores": "6d83bb71059339b0",
        "scalar": "c36f5385b1bc41af",
        "lows": "ffd02ce24de2169a",
        "highs": "8f762795ea873d3d",
        "degrees": "8bb154ffddc0cd8a",
    },
    "all": {
        "scores": "6b6d860b195888ff",
        "scalar": "276ca9da31f554cd",
        "lows": "43f04e5999fb4330",
        "highs": "7c46e1ffc9783c90",
        "degrees": "2f46c5e091f5946b",
    },
}
EXP_PROBE = "6b262d067971005a"


def _membership(rng, shape):
    if shape == "triangle":
        return triangle_membership(*np.sort(rng.choice(GRID, 3)))
    if shape == "trapezoid":
        return trapezoid_membership(*np.sort(rng.choice(GRID, 4)))
    if shape == "gaussian":
        return gaussian_membership(
            float(rng.choice(GRID)), round(float(rng.uniform(0.3, 6.0)), 2)
        )
    steepness = round(float(rng.uniform(0.1, 3.0)), 2)
    return sigmoid_membership(
        float(rng.choice(GRID)), steepness * float(rng.choice([-1, 1]))
    )


def _model(rng, shapes):
    rules = [
        FuzzyRule(
            name=f"r{index}",
            predicates=tuple(
                RulePredicate(
                    str(rng.choice(ATTRIBUTES)),
                    _membership(rng, str(rng.choice(shapes))),
                )
                for _ in range(int(rng.integers(1, 4)))
            ),
            weight=round(float(rng.uniform(0.25, 3.0)), 2),
            conjunction=FuzzyAnd(str(rng.choice(["min", "product"]))),
        )
        for index in range(int(rng.integers(1, 5)))
    ]
    return KnowledgeModel(
        rules,
        combination=str(rng.choice(["or", "weighted"])),
        disjunction=FuzzyOr("max"),
    )


def _cells(rng):
    """Columns of ``N_CELLS`` values: a third continuous, a third on
    ``GRID``, a third two-decimal."""
    third = N_CELLS // 3
    return {
        name: rng.permutation(
            np.concatenate([
                rng.normal(0.0, 4.0, third),
                rng.choice(GRID, third),
                np.round(rng.normal(0.0, 4.0, N_CELLS - 2 * third), 2),
            ])
        )
        for name in ATTRIBUTES
    }


def _digests(shapes, seed):
    rng = np.random.default_rng(seed)
    columns, other = _cells(rng), _cells(rng)
    lows = {name: np.minimum(columns[name], other[name]) for name in ATTRIBUTES}
    highs = {name: np.maximum(columns[name], other[name]) for name in ATTRIBUTES}
    sample = rng.choice(N_CELLS, N_SAMPLE, replace=False)
    hashes = {
        name: hashlib.sha256()
        for name in ("scores", "scalar", "lows", "highs", "degrees")
    }
    for _ in range(N_MODELS):
        model = _model(rng, shapes)
        hashes["scores"].update(model.evaluate_batch(columns).tobytes())
        low, high = model.evaluate_interval_batch(lows, highs)
        hashes["lows"].update(low.tobytes())
        hashes["highs"].update(high.tobytes())
        scalar = []
        for i in sample.tolist():
            scalar.append(
                model.evaluate({n: float(columns[n][i]) for n in ATTRIBUTES})
            )
            scalar.extend(model.evaluate_interval(
                {n: (float(lows[n][i]), float(highs[n][i])) for n in ATTRIBUTES}
            ))
        hashes["scalar"].update(np.array(scalar).tobytes())
        for rule in model.rules:
            for predicate in rule.predicates:
                name, membership = predicate.attribute, predicate.membership
                degrees = [
                    membership.batch(columns[name]),
                    *membership.interval_batch(lows[name], highs[name]),
                    np.array([membership(columns[name][i]) for i in sample]),
                ]
                for array in degrees:
                    hashes["degrees"].update(array.tobytes())
    return {name: digest.hexdigest()[:16] for name, digest in hashes.items()}


def _exp_probe() -> str:
    """This platform's ``exp`` over the range the shapes feed it, as
    arrays and as 0-d values."""
    values = np.random.default_rng(0).uniform(-60.0, 5.0, 20_000)
    digest = hashlib.sha256(np.exp(values).tobytes())
    digest.update(np.array([np.exp(v) for v in values[:500]]).tobytes())
    return digest.hexdigest()[:16]


def test_rational_shapes_are_bitwise_pinned():
    assert _digests(("triangle", "trapezoid"), 1) == PINNED["rational"]


def test_every_shape_is_bitwise_pinned():
    if _exp_probe() != EXP_PROBE:
        pytest.skip("exp rounds differently here than where this was pinned")
    assert _digests(
        ("triangle", "trapezoid", "gaussian", "sigmoid"), 2
    ) == PINNED["all"]
