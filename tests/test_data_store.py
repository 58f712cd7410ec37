"""Tests for the on-disk memory-mapped archive store."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import RasterRetrievalEngine
from repro.core.query import TopKQuery
from repro.data.archive import Archive
from repro.data.catalog import CatalogEntry, Modality
from repro.data.raster import RasterLayer
from repro.data.series import DepthSeries, TimeSeries
from repro.data.store import (
    ArchiveWriter,
    DiskArchive,
    MemmapRasterLayer,
    ingest_synthetic,
    open_archive,
    read_manifest,
    synthetic_stack,
)
from repro.data.table import Table
from repro.exceptions import ArchiveError
from repro.models.linear import LinearModel


@pytest.fixture()
def archive() -> Archive:
    built = Archive("stored")
    rng = np.random.default_rng(13)
    built.add(
        RasterLayer("dem", rng.standard_normal((130, 97))),
        CatalogEntry(
            "dem", Modality.ELEVATION,
            description="synthetic terrain",
            tags={"region": "four_corners"},
            units="m",
        ),
    )
    built.add(RasterLayer("scene", rng.standard_normal((130, 97))))
    built.add(
        TimeSeries(
            "station",
            np.arange(30.0),
            {"rain_mm": rng.random(30), "temperature_c": rng.random(30)},
        )
    )
    built.add(
        DepthSeries(
            "well", np.arange(0.0, 10.0, 0.5), {"gamma_ray": rng.random(20)}
        )
    )
    built.add(Table("tuples", {"x": rng.random(7), "y": rng.random(7)}))
    return built


def answers_and_counters(result):
    return (
        [(a.row, a.col, a.score) for a in result.answers],
        result.counter.data_points,
        result.counter.partial_evals,
        result.counter.nodes_visited,
    )


class TestRoundTrip:
    def test_everything_survives(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")

        assert isinstance(loaded, DiskArchive)
        assert loaded.name == "stored"
        assert loaded.names() == archive.names()
        for name in ("dem", "scene"):
            assert np.array_equal(
                loaded.raster(name).values, archive.raster(name).values
            )
        assert np.array_equal(
            loaded.series("station").axis, archive.series("station").axis
        )
        assert np.array_equal(
            loaded.series("station").values("rain_mm"),
            archive.series("station").values("rain_mm"),
        )
        assert np.array_equal(
            loaded.depth_series("well").values("gamma_ray"),
            archive.depth_series("well").values("gamma_ray"),
        )
        assert np.array_equal(
            loaded.table("tuples").column("x"),
            archive.table("tuples").column("x"),
        )

    def test_catalog_survives(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")

        entry = loaded.entry("dem")
        assert entry.modality is Modality.ELEVATION
        assert entry.tags == {"region": "four_corners"}
        assert entry.units == "m"
        assert loaded.find(region="four_corners") == ["dem"]

    def test_rasters_are_memmapped(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")

        layer = loaded.raster("dem")
        assert isinstance(layer, MemmapRasterLayer)
        # A plain ndarray view whose base is the read-only mapping: the
        # np.memmap subclass itself is slower on every slice.
        assert type(layer.values) is np.ndarray
        assert isinstance(layer.values.base, np.memmap)
        assert not layer.values.flags.writeable

    def test_generation_starts_at_manifest_value(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")

        assert loaded.generation == 0
        assert loaded.mutations_since(0) == []

    def test_query_answers_bit_identical(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")
        model = LinearModel({"dem": 1.0, "scene": -0.5})
        query = TopKQuery(model=model, k=5)

        memory = RasterRetrievalEngine(
            archive.stack(["dem", "scene"]), leaf_size=16
        )
        mapped = RasterRetrievalEngine(
            loaded.stack(["dem", "scene"]), leaf_size=16
        )

        assert answers_and_counters(
            memory.progressive_top_k(query)
        ) == answers_and_counters(mapped.progressive_top_k(query))

    def test_refuses_nonempty_directory(self, archive, tmp_path):
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "junk.txt").write_text("x")
        with pytest.raises(ArchiveError, match="non-empty"):
            ArchiveWriter.create(tmp_path / "store", archive)


class TestRoundTripProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_values_and_answers_round_trip(
        self, rows, cols, seed, tmp_path_factory
    ):
        rng = np.random.default_rng(seed)
        source = Archive("prop")
        source.add(RasterLayer("a", rng.standard_normal((rows, cols))))
        source.add(RasterLayer("b", rng.standard_normal((rows, cols))))
        root = tmp_path_factory.mktemp("prop_store") / "store"
        ArchiveWriter.create(root, source)
        loaded = open_archive(root)

        for name in ("a", "b"):
            assert np.array_equal(
                loaded.raster(name).values, source.raster(name).values
            )

        query = TopKQuery(
            model=LinearModel({"a": 1.0, "b": -1.0}),
            k=min(3, rows * cols),
        )
        memory = RasterRetrievalEngine(source.stack(["a", "b"]), leaf_size=4)
        mapped = RasterRetrievalEngine(loaded.stack(["a", "b"]), leaf_size=4)
        assert answers_and_counters(
            memory.progressive_top_k(query)
        ) == answers_and_counters(mapped.progressive_top_k(query))


class TestCorruption:
    def test_missing_manifest_fails_loudly(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ArchiveError, match="missing manifest.json"):
            open_archive(tmp_path / "empty")

    def test_zero_byte_manifest_fails_loudly(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        (tmp_path / "store" / "manifest.json").write_text("")
        with pytest.raises(ArchiveError, match="corrupt store manifest"):
            open_archive(tmp_path / "store")

    def test_truncated_manifest_fails_loudly(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        target = tmp_path / "store" / "manifest.json"
        text = target.read_text()
        target.write_text(text[: len(text) // 2])
        with pytest.raises(ArchiveError, match="corrupt store manifest"):
            open_archive(tmp_path / "store")

    def test_missing_keys_fail_loudly(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        target = tmp_path / "store" / "manifest.json"
        manifest = json.loads(target.read_text())
        del manifest["generation"]
        target.write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="missing keys"):
            open_archive(tmp_path / "store")

    def test_wrong_version_fails_loudly(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        target = tmp_path / "store" / "manifest.json"
        manifest = json.loads(target.read_text())
        manifest["format_version"] = 999
        target.write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="unsupported store format"):
            open_archive(tmp_path / "store")

    def test_missing_band_file_fails_loudly(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        (tmp_path / "store" / "bands" / "0" / "values.npy").unlink()
        with pytest.raises(ArchiveError, match="cannot map band"):
            open_archive(tmp_path / "store")

    def test_shape_mismatch_fails_loudly(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        target = tmp_path / "store" / "manifest.json"
        manifest = json.loads(target.read_text())
        manifest["items"][0]["rows"] = 9999
        target.write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="manifest says"):
            open_archive(tmp_path / "store")


class TestAppendRegion:
    def test_aggregates_bit_identical_to_rebuild(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")
        rng = np.random.default_rng(5)
        # Deliberately leaf-misaligned region.
        loaded.append_region(
            {"dem": rng.standard_normal((23, 31))}, (7, 3, 30, 34)
        )

        reopened = open_archive(tmp_path / "store")
        from repro.pyramid.quadtree import QuadTree

        incremental = QuadTree(loaded.raster("dem"), leaf_size=16)
        rebuilt = QuadTree(
            RasterLayer("dem", np.array(reopened.raster("dem").values)),
            leaf_size=16,
        )
        for depth in range(incremental.n_depths):
            assert np.array_equal(
                incremental.level_mins(depth), rebuilt.level_mins(depth)
            )
            assert np.array_equal(
                incremental.level_maxs(depth), rebuilt.level_maxs(depth)
            )
            assert np.array_equal(
                incremental.level_means(depth), rebuilt.level_means(depth)
            )

    def test_values_and_answers_after_append(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")
        rng = np.random.default_rng(5)
        block = rng.standard_normal((20, 30))
        loaded.append_region({"dem": block}, (10, 10, 30, 40))

        # In-process mapping sees the write immediately.
        assert np.array_equal(loaded.raster("dem").values[10:30, 10:40], block)

        expected_dem = np.array(archive.raster("dem").values)
        expected_dem[10:30, 10:40] = block
        twin = Archive("twin")
        twin.add(RasterLayer("dem", expected_dem))
        twin.add(RasterLayer("scene", archive.raster("scene").values))

        query = TopKQuery(
            model=LinearModel({"dem": 1.0, "scene": -0.5}), k=5
        )
        memory = RasterRetrievalEngine(
            twin.stack(["dem", "scene"]), leaf_size=16
        )
        reopened = open_archive(tmp_path / "store")
        mapped = RasterRetrievalEngine(
            reopened.stack(["dem", "scene"]), leaf_size=16
        )
        assert answers_and_counters(
            memory.progressive_top_k(query)
        ) == answers_and_counters(mapped.progressive_top_k(query))

    def test_records_region_scoped_mutation(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")
        loaded.append_region(
            {"dem": np.ones((4, 4))}, (0, 0, 4, 4)
        )
        assert loaded.generation == 1
        assert loaded.mutations_since(0) == [(1, (0, 0, 4, 4))]
        # Persisted generation matches the live one.
        assert read_manifest(tmp_path / "store")["generation"] == 1

    def test_rejects_bad_appends(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")
        with pytest.raises(ArchiveError, match="empty append region"):
            loaded.append_region({"dem": np.ones((0, 0))}, (5, 5, 5, 5))
        with pytest.raises(ArchiveError, match="outside band"):
            loaded.append_region({"dem": np.ones((4, 4))}, (128, 0, 132, 4))
        with pytest.raises(ArchiveError, match="has shape"):
            loaded.append_region({"dem": np.ones((3, 4))}, (0, 0, 4, 4))
        with pytest.raises(ArchiveError, match="non-finite"):
            loaded.append_region(
                {"dem": np.full((4, 4), np.nan)}, (0, 0, 4, 4)
            )
        with pytest.raises(ArchiveError, match="no band"):
            loaded.append_region({"nope": np.ones((4, 4))}, (0, 0, 4, 4))
        with pytest.raises(ArchiveError, match="expected raster"):
            loaded.append_region({"station": np.ones((4, 4))}, (0, 0, 4, 4))
        # Nothing above should have moved the generation.
        assert loaded.generation == 0


class TestAppendDays:
    def test_extends_series_on_disk_and_live(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")
        loaded.append_days(
            "station",
            np.array([30.0, 31.0]),
            {"rain_mm": np.array([1.0, 2.0]),
             "temperature_c": np.array([3.0, 4.0])},
        )

        assert loaded.series("station").axis.size == 32
        assert loaded.series("station").values("rain_mm")[-2:].tolist() == [
            1.0, 2.0,
        ]
        reopened = open_archive(tmp_path / "store")
        assert reopened.series("station").axis.size == 32

    def test_append_records_empty_region(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")
        loaded.append_days(
            "station",
            np.array([30.0]),
            {"rain_mm": np.array([1.0]), "temperature_c": np.array([2.0])},
        )
        assert loaded.mutations_since(0) == [(1, (0, 0, 0, 0))]

    def test_rejects_bad_extensions(self, archive, tmp_path):
        ArchiveWriter.create(tmp_path / "store", archive)
        loaded = open_archive(tmp_path / "store")
        with pytest.raises(ArchiveError, match="must start after"):
            loaded.append_days(
                "station",
                np.array([10.0]),
                {"rain_mm": np.array([1.0]),
                 "temperature_c": np.array([2.0])},
            )
        with pytest.raises(ArchiveError, match="must cover attributes"):
            loaded.append_days(
                "station", np.array([40.0]), {"rain_mm": np.array([1.0])}
            )
        with pytest.raises(ArchiveError, match="expected a series"):
            loaded.append_days(
                "dem", np.array([40.0]), {"rain_mm": np.array([1.0])}
            )


class TestSyntheticIngest:
    def test_disk_matches_in_memory_twin(self, tmp_path):
        ingest_synthetic(tmp_path / "syn", size=70, n_bands=3, seed=9)
        disk = open_archive(tmp_path / "syn")
        memory = synthetic_stack(70, n_bands=3, seed=9)
        assert set(disk.names()) == set(memory.names)
        for name in memory.names:
            assert np.array_equal(
                disk.raster(name).values, memory[name].values
            )

    def test_ingest_is_incremental_appends(self, tmp_path):
        writer = ingest_synthetic(tmp_path / "syn", size=32, n_bands=1)
        # One strip (32 < STRIP_ROWS) -> exactly one append generation.
        assert writer.generation == 1

    def test_served_answers_match_twin(self, tmp_path):
        ingest_synthetic(tmp_path / "syn", size=128, n_bands=2, seed=4)
        disk = open_archive(tmp_path / "syn")
        memory = synthetic_stack(128, n_bands=2, seed=4)
        query = TopKQuery(
            model=LinearModel({"band0": 1.0, "band1": -1.0}), k=5
        )
        mapped = RasterRetrievalEngine(
            disk.stack(["band0", "band1"]),
            leaf_size=disk.screen_leaf_size,
        )
        plain = RasterRetrievalEngine(memory.subset(["band0", "band1"]))
        assert answers_and_counters(
            mapped.progressive_top_k(query)
        ) == answers_and_counters(plain.progressive_top_k(query))


    def test_cli_ingest_serves_regional_probes_like_the_twin(self, tmp_path):
        """``python -m repro ingest`` in a child process writes a store
        the parent serves through memory maps: region-scoped probes and
        one whole-grid query return the in-memory twin's answers *and*
        cost counters."""
        size, bands, seed = 128, 2, 17
        subprocess.run(
            [
                sys.executable, "-m", "repro", "ingest",
                "--out", str(tmp_path / "cli"),
                "--size", str(size), "--bands", str(bands), "--seed", str(seed),
            ],
            check=True,
            timeout=120,
        )
        disk = open_archive(tmp_path / "cli")
        names = [f"band{b}" for b in range(bands)]
        mapped = RasterRetrievalEngine(
            disk.stack(names), leaf_size=disk.screen_leaf_size
        )
        plain = RasterRetrievalEngine(
            synthetic_stack(size, n_bands=bands, seed=seed).subset(names)
        )
        rng = np.random.default_rng(5)
        window = size // 4
        corners = [
            (0, 0), (0, size - window), (size - window, 0), (size // 2, size // 2)
        ]
        regions = [
            (row0, col0, row0 + window, col0 + window) for row0, col0 in corners
        ]
        for region in (*regions, None):
            model = LinearModel({name: float(rng.normal()) for name in names})
            query = TopKQuery(model=model, k=10, region=region)
            assert answers_and_counters(
                mapped.progressive_top_k(query)
            ) == answers_and_counters(plain.progressive_top_k(query))


class TestMemmapLayer:
    def test_precomputed_aggregates_used_at_matching_leaf_size(
        self, archive, tmp_path
    ):
        ArchiveWriter.create(tmp_path / "store", archive, screen_leaf_size=16)
        loaded = open_archive(tmp_path / "store")
        layer = loaded.raster("dem")
        assert layer.quadtree_aggregates(16) is not None
        assert layer.quadtree_aggregates(8) is None

    def test_instrumented_reads_still_work(self, archive, tmp_path):
        from repro.metrics.counters import CostCounter

        ArchiveWriter.create(tmp_path / "store", archive)
        layer = open_archive(tmp_path / "store").raster("dem")
        counter = CostCounter()
        value = layer.read(3, 4, counter)
        assert value == archive.raster("dem").values[3, 4]
        window = layer.read_window(0, 0, 4, 4, counter)
        assert window.shape == (4, 4)
        cols = layer.shape[1]
        taken = layer.take(np.array([0 * cols + 2, 1 * cols + 3]), counter)
        assert taken.tolist() == [
            archive.raster("dem").values[0, 2],
            archive.raster("dem").values[1, 3],
        ]
        assert counter.data_points == 1 + 16 + 2

    def test_create_empty_is_all_zero(self, tmp_path):
        ArchiveWriter.create_empty(
            tmp_path / "empty", "zeros", (40, 40), ["a", "b"]
        )
        loaded = open_archive(tmp_path / "empty")
        assert loaded.names() == ["a", "b"]
        assert float(np.abs(loaded.raster("a").values).max()) == 0.0
        # Zero aggregates are consistent: engine answers work immediately.
        query = TopKQuery(model=LinearModel({"a": 1.0}), k=1)
        engine = RasterRetrievalEngine(loaded.stack(["a"]))
        result = engine.progressive_top_k(query)
        assert result.answers[0].score == 0.0
