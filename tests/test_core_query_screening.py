"""Tests for query descriptions and tile screens."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import TopKQuery
from repro.core.screening import TileScreen
from repro.data.raster import RasterLayer, RasterStack
from repro.exceptions import PlanError, QueryError
from repro.metrics.counters import CostCounter
from repro.models.linear import LinearModel
from tests.oracles import build_recursive


def _stack() -> RasterStack:
    rng = np.random.default_rng(5)
    stack = RasterStack()
    stack.add(RasterLayer("a", rng.random((20, 30))))
    stack.add(RasterLayer("b", rng.random((20, 30))))
    return stack


class TestTopKQuery:
    def test_k_validation(self):
        with pytest.raises(QueryError):
            TopKQuery(model=LinearModel({"a": 1.0}), k=0)

    def test_region_validation(self):
        with pytest.raises(QueryError):
            TopKQuery(model=LinearModel({"a": 1.0}), k=1, region=(5, 5, 5, 9))

    def test_clip_region_defaults_to_grid(self):
        query = TopKQuery(model=LinearModel({"a": 1.0}), k=1)
        assert query.clip_region((10, 20)) == (0, 0, 10, 20)

    def test_clip_region_clamps(self):
        query = TopKQuery(
            model=LinearModel({"a": 1.0}), k=1, region=(-5, -5, 100, 100)
        )
        assert query.clip_region((10, 20)) == (0, 0, 10, 20)

    def test_disjoint_region_rejected(self):
        query = TopKQuery(
            model=LinearModel({"a": 1.0}), k=1, region=(50, 50, 60, 60)
        )
        with pytest.raises(QueryError):
            query.clip_region((10, 20))


class TestTileScreen:
    def test_root_covers_grid(self):
        screen = TileScreen(_stack(), leaf_size=8)
        assert screen.root().window == (0, 0, 20, 30)

    def test_children_stay_aligned(self):
        screen = TileScreen(_stack(), leaf_size=4)
        frontier = [screen.root()]
        while frontier:
            node = frontier.pop()
            for child in screen.children(node):
                assert child.window[0] >= node.window[0]
                frontier.append(child)

    def test_envelopes_are_per_attribute_and_sound(self):
        stack = _stack()
        screen = TileScreen(stack, leaf_size=4)
        for child in screen.children(screen.root()):
            row0, col0, row1, col1 = child.window
            envelopes = screen.envelopes(child)
            for name in ("a", "b"):
                window = stack[name].values[row0:row1, col0:col1]
                low, high = envelopes[name]
                assert low <= window.min() + 1e-12
                assert high >= window.max() - 1e-12

    @pytest.mark.parametrize("leaf_size", [3, 4, 8])
    def test_every_node_matches_the_reference_build(self, leaf_size):
        """The screen's flat node tables hold, per attribute, the tree
        the top-down reference build produces: same windows, same child
        order, exact extrema, leaves where it has leaves."""
        stack = _stack()
        screen = TileScreen(stack, leaf_size=leaf_size)
        references = {
            name: build_recursive(stack[name].values, leaf_size)
            for name in stack.names
        }
        walk = [(screen.root(), references)]
        while walk:
            node, expected = walk.pop()
            envelopes = screen.envelopes(node)
            for name, reference in expected.items():
                assert node.window == reference.window()
                assert node.is_leaf == (not reference.children)
                assert envelopes[name] == (reference.minimum, reference.maximum)
            children = screen.children(node)
            assert len(children) == len(expected["a"].children)
            walk.extend(
                (child, {name: expected[name].children[index] for name in expected})
                for index, child in enumerate(children)
            )

    def test_envelope_counter_charges_nodes_only(self):
        screen = TileScreen(_stack(), leaf_size=8)
        counter = CostCounter()
        screen.envelopes(screen.root(), counter)
        assert counter.nodes_visited == 2
        assert counter.data_points == 0

    def test_attribute_ranges(self):
        stack = _stack()
        screen = TileScreen(stack, leaf_size=8)
        ranges = screen.attribute_ranges()
        assert ranges["a"][0] == pytest.approx(stack["a"].values.min())
        assert ranges["a"][1] == pytest.approx(stack["a"].values.max())

    def test_attribute_subset(self):
        screen = TileScreen(_stack(), attributes=["b"], leaf_size=8)
        assert screen.attributes == ["b"]
        assert set(screen.envelopes(screen.root())) == {"b"}

    def test_missing_attribute_rejected(self):
        with pytest.raises(PlanError):
            TileScreen(_stack(), attributes=["z"])

    def test_leaf_has_no_children(self):
        screen = TileScreen(_stack(), leaf_size=64)
        assert screen.root().is_leaf
        assert screen.children(screen.root()) == []
