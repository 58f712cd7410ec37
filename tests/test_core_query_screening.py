"""Tests for query descriptions and tile screens."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import RasterRetrievalEngine, _Scan
from repro.core.query import TopKQuery
from repro.core.screening import TileScreen
from repro.data.raster import RasterLayer, RasterStack
from repro.exceptions import QueryError
from repro.models.linear import LinearModel
from tests.oracles import build_recursive


def _stack() -> RasterStack:
    rng = np.random.default_rng(5)
    stack = RasterStack()
    stack.add(RasterLayer("a", rng.random((20, 30))))
    stack.add(RasterLayer("b", rng.random((20, 30))))
    return stack


def _children(screen: TileScreen, node: int) -> list[int]:
    return [child for child in screen.child[node].tolist() if child >= 0]


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
        assert screen.window[0].tolist() == [0, 0, 20, 30]

    def test_children_stay_aligned(self):
        screen = TileScreen(_stack(), leaf_size=4)
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for child in _children(screen, node):
                assert screen.window[child, 0] >= screen.window[node, 0]
                frontier.append(child)

    def test_envelopes_are_per_attribute_and_sound(self):
        stack = _stack()
        screen = TileScreen(stack, leaf_size=4)
        for child in _children(screen, 0):
            row0, col0, row1, col1 = screen.window[child].tolist()
            lows, highs = screen.envelope_block(np.array([child]))
            for name in ("a", "b"):
                window = stack[name].values[row0:row1, col0:col1]
                assert lows[name][0] <= window.min() + 1e-12
                assert highs[name][0] >= window.max() - 1e-12

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
        walk = [(0, references)]
        while walk:
            node, expected = walk.pop()
            lows, highs = screen.envelope_block(np.array([node]))
            for name, reference in expected.items():
                assert tuple(screen.window[node].tolist()) == reference.window()
                assert screen.leaf[node] == (not reference.children)
                assert (lows[name][0], highs[name][0]) == (
                    reference.minimum, reference.maximum
                )
            children = _children(screen, node)
            assert len(children) == len(expected["a"].children)
            walk.extend(
                (child, {name: expected[name].children[index] for name in expected})
                for index, child in enumerate(children)
            )

    def test_attribute_ranges(self):
        stack = _stack()
        screen = TileScreen(stack, leaf_size=8)
        ranges = screen.attribute_ranges()
        assert ranges["a"][0] == pytest.approx(stack["a"].values.min())
        assert ranges["a"][1] == pytest.approx(stack["a"].values.max())

    def test_attribute_subset(self):
        """A screen covers exactly its stack: a one-layer stack gives
        one-attribute envelopes."""
        screen = TileScreen(_stack().subset(["b"]), leaf_size=8)
        assert screen.attributes == ["b"]
        assert set(screen.attribute_ranges()) == {"b"}
        assert screen.envelope_table.shape[0] == 2

    def test_leaf_has_no_children(self):
        screen = TileScreen(_stack(), leaf_size=64)
        assert screen.leaf[0]
        assert _children(screen, 0) == []


class TestPerNodeLists:
    @given(
        rows=st.integers(1, 90),
        cols=st.integers(1, 90),
        leaf=st.integers(1, 17),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=64, cols=64, leaf=16, seed=0)  # every leaf full
    @example(rows=250, cols=250, leaf=16, seed=1)  # full and 15-wide
    @example(rows=1, cols=1, leaf=1, seed=2)  # the root is the leaf
    @settings(max_examples=80, deadline=None)
    def test_lists_restate_the_tables(self, rows, cols, leaf, seed):
        """The lists a search step branches on say what the flat tables
        say, node for node, and a full leaf's template cells are the
        window cells ``_Scan.cells`` lists, id for id, for any set of
        leaves."""
        stack = RasterStack({"a": RasterLayer("a", np.zeros((rows, cols)))})
        engine = RasterRetrievalEngine(stack, leaf_size=leaf)
        screen = engine.screen
        assert screen.children == [
            tuple(kid for kid in kids if kid >= 0)
            for kids in screen.child.tolist()
        ]
        assert [not kids for kids in screen.children] == screen.leaf.tolist()
        assert screen.depths == screen.depth.tolist()
        window = screen.window
        assert np.array_equal(
            screen.origin, window[:, 0] * cols + window[:, 1]
        )
        assert screen.full_leaf == [
            bool(is_leaf) and r1 - r0 == leaf and c1 - c0 == leaf
            for is_leaf, (r0, c0, r1, c1) in zip(
                screen.leaf.tolist(), window.tolist()
            )
        ]
        scan = _Scan(
            engine, (0, 0, rows, cols), np.zeros(1, dtype=np.intp),
            "sound", 1.0,
        )
        rng = np.random.default_rng(seed)
        leaves = np.flatnonzero(screen.leaf)
        full = np.flatnonzero(screen.full_leaf)
        for ids in (
            rng.permutation(full)[: rng.integers(0, 20)],
            rng.permutation(leaves)[: rng.integers(1, 20)],
        ):
            if not ids.size:
                continue
            template = (
                screen.origin[ids][:, None] + screen.leaf_template
            ).reshape(-1)
            flat, sizes = scan.leaf_cells(ids.tolist())
            expected, expected_sizes = scan.cells(window[ids])
            assert flat.tolist() == expected.tolist()
            assert sizes.tolist() == expected_sizes.tolist()
            if all(screen.full_leaf[node] for node in ids.tolist()):
                assert template.tolist() == expected.tolist()
