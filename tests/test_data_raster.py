"""Tests for raster layers and stacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.raster import RasterLayer, RasterStack
from repro.exceptions import ArchiveError, LayerMismatchError
from repro.metrics.counters import CostCounter


class TestRasterLayer:
    def test_values_are_read_only(self):
        layer = RasterLayer("x", np.zeros((3, 3)))
        with pytest.raises(ValueError):
            layer.values[0, 0] = 1.0

    def test_source_mutation_does_not_leak(self):
        source = np.zeros((2, 2))
        layer = RasterLayer("x", source)
        source[0, 0] = 99.0
        assert layer.values[0, 0] == 0.0

    def test_rejects_non_2d(self):
        with pytest.raises(ArchiveError):
            RasterLayer("x", np.zeros(5))

    def test_rejects_empty(self):
        with pytest.raises(ArchiveError):
            RasterLayer("x", np.zeros((0, 3)))

    def test_read_tallies_one_point(self):
        layer = RasterLayer("x", np.arange(6.0).reshape(2, 3))
        counter = CostCounter()
        assert layer.read(1, 2, counter) == 5.0
        assert counter.data_points == 1

    def test_read_window_clips_and_tallies(self):
        layer = RasterLayer("x", np.arange(12.0).reshape(3, 4))
        counter = CostCounter()
        window = layer.read_window(-5, 2, 99, 99, counter)
        assert window.shape == (3, 2)
        assert counter.data_points == 6

    def test_empty_window_raises(self):
        layer = RasterLayer("x", np.zeros((3, 3)))
        with pytest.raises(ArchiveError):
            layer.read_window(2, 2, 2, 3)

    def test_read_all(self):
        layer = RasterLayer("x", np.ones((4, 5)))
        counter = CostCounter()
        assert layer.read_all(counter).shape == (4, 5)
        assert counter.data_points == 20

    def test_read_without_counter(self):
        layer = RasterLayer("x", np.ones((2, 2)))
        assert layer.read(0, 0) == 1.0
        assert layer.read_window(0, 0, 2, 2).shape == (2, 2)


class TestRasterStack:
    def test_shared_shape_enforced_on_add(self):
        stack = RasterStack()
        stack.add(RasterLayer("a", np.zeros((3, 3))))
        with pytest.raises(LayerMismatchError):
            stack.add(RasterLayer("b", np.zeros((4, 4))))

    def test_shared_shape_enforced_at_construction(self):
        with pytest.raises(LayerMismatchError):
            RasterStack(
                {
                    "a": RasterLayer("a", np.zeros((2, 2))),
                    "b": RasterLayer("b", np.zeros((3, 3))),
                }
            )

    def test_duplicate_name_rejected(self):
        stack = RasterStack()
        stack.add(RasterLayer("a", np.zeros((2, 2))))
        with pytest.raises(ArchiveError):
            stack.add(RasterLayer("a", np.ones((2, 2))))

    def test_empty_stack_has_no_shape(self):
        with pytest.raises(ArchiveError):
            RasterStack().shape  # noqa: B018

    def test_getitem_unknown_raises(self):
        with pytest.raises(ArchiveError):
            RasterStack()["missing"]

    def test_contains_and_len(self):
        stack = RasterStack()
        stack.add(RasterLayer("a", np.zeros((2, 2))))
        assert "a" in stack
        assert "b" not in stack
        assert len(stack) == 1

    def test_subset_preserves_layers(self):
        stack = RasterStack()
        stack.add(RasterLayer("a", np.zeros((2, 2))))
        stack.add(RasterLayer("b", np.ones((2, 2))))
        subset = stack.subset(["b"])
        assert subset.names == ["b"]
        assert subset["b"].values[0, 0] == 1.0

    def test_read_point_collects_all_layers(self):
        stack = RasterStack()
        stack.add(RasterLayer("a", np.full((2, 2), 3.0)))
        stack.add(RasterLayer("b", np.full((2, 2), 7.0)))
        counter = CostCounter()
        point = stack.read_point(1, 1, counter)
        assert point == {"a": 3.0, "b": 7.0}
        assert counter.data_points == 2

    def test_read_all_tallies_every_layer(self):
        stack = RasterStack()
        stack.add(RasterLayer("a", np.zeros((2, 3))))
        stack.add(RasterLayer("b", np.zeros((2, 3))))
        counter = CostCounter()
        columns = stack.read_all(counter)
        assert set(columns) == {"a", "b"}
        assert counter.data_points == 12


class TestNonFiniteRejection:
    def test_nan_layer_rejected(self):
        values = np.ones((3, 3))
        values[1, 1] = np.nan
        with pytest.raises(ArchiveError):
            RasterLayer("bad", values)

    def test_inf_layer_rejected(self):
        values = np.ones((3, 3))
        values[0, 2] = np.inf
        with pytest.raises(ArchiveError):
            RasterLayer("bad", values)

class TestReadBounds:
    def test_negative_index_raises_instead_of_wrapping(self):
        layer = RasterLayer("x", np.arange(6.0).reshape(2, 3))
        counter = CostCounter()
        with pytest.raises(ArchiveError, match="outside grid"):
            layer.read(-1, 0, counter)
        with pytest.raises(ArchiveError, match="outside grid"):
            layer.read(0, -1, counter)
        # A rejected read must not tally cost.
        assert counter.data_points == 0

    def test_past_end_index_raises(self):
        layer = RasterLayer("x", np.zeros((2, 3)))
        with pytest.raises(ArchiveError, match="outside grid"):
            layer.read(2, 0)
        with pytest.raises(ArchiveError, match="outside grid"):
            layer.read(0, 3)

    def test_empty_window_error_reports_preclip_bounds(self):
        layer = RasterLayer("x", np.zeros((3, 3)))
        with pytest.raises(ArchiveError, match=r"\[10:20, 10:20\]"):
            layer.read_window(10, 10, 20, 20)

    def test_take_reads_and_tallies(self):
        layer = RasterLayer("x", np.arange(12.0).reshape(3, 4))
        counter = CostCounter()
        # Flat ids are row * width + col: cells (0, 1) and (2, 3).
        values = layer.take(np.array([0 * 4 + 1, 2 * 4 + 3]), counter)
        assert values.tolist() == [1.0, 11.0]
        assert counter.data_points == 2
        values[0] = -1.0  # returned array is a private writable copy
        assert layer.values[0, 1] == 1.0

    def test_take_indexes_row_major_whatever_the_input_layout(self):
        values = np.arange(12.0).reshape(3, 4)
        layer = RasterLayer("x", np.asfortranarray(values))
        flat = np.arange(12)
        assert layer.take(flat).tolist() == values.reshape(-1).tolist()
        assert layer.values.flags.c_contiguous
