"""The archive: a named, cataloged collection of multi-modal items.

An :class:`Archive` holds raster layers, time/depth series and tables under
unique names, each with a :class:`~repro.data.catalog.CatalogEntry`. It is
the "large archive" of the paper's title; retrieval engines take an archive
plus a model and return top-K answers.
"""

from __future__ import annotations

from typing import Iterator

from repro.data.catalog import CatalogEntry, Modality
from repro.data.raster import RasterLayer, RasterStack
from repro.data.series import DepthSeries, TimeSeries
from repro.data.table import Table
from repro.exceptions import ArchiveError

ArchiveItem = RasterLayer | TimeSeries | DepthSeries | Table

_DEFAULT_MODALITY: dict[type, Modality] = {
    RasterLayer: Modality.IMAGERY,
    TimeSeries: Modality.WEATHER,
    DepthSeries: Modality.WELL_LOG,
    Table: Modality.TABULAR,
}

#: Mutations kept in the archive's bounded log. Large enough that any
#: realistic ingest burst between two queries fits; a consumer that
#: fell further behind gets ``None`` from :meth:`Archive.mutations_since`
#: and must invalidate everything (always sound, never silent).
_MUTATION_LOG_SIZE = 256


def regions_intersect(
    a: tuple[int, int, int, int], b: tuple[int, int, int, int]
) -> bool:
    """Whether two half-open ``(row0, col0, row1, col1)`` windows share
    any cell. Empty windows intersect nothing."""
    if a[0] >= a[2] or a[1] >= a[3] or b[0] >= b[2] or b[1] >= b[3]:
        return False
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


class Archive:
    """A named collection of multi-modal data items with a metadata catalog.

    Items are added with :meth:`add` and retrieved by name through typed
    accessors (:meth:`raster`, :meth:`series`, :meth:`depth_series`,
    :meth:`table`) that fail loudly on type mismatches — a query asking
    for imagery must not silently receive a weather series.
    """

    def __init__(self, name: str = "archive") -> None:
        self.name = name
        self._items: dict[str, ArchiveItem] = {}
        self._catalog: dict[str, CatalogEntry] = {}
        self._generation = 0
        # Bounded (generation, region) log behind mutations_since():
        # region is a (row0, col0, row1, col1) rectangle for spatially
        # scoped mutations (disk-store region ingest) or None for "could
        # have changed anything" (add, series appends on the base class).
        self._mutations: list[
            tuple[int, tuple[int, int, int, int] | None]
        ] = []

    @property
    def generation(self) -> int:
        """Monotone mutation counter, bumped by every :meth:`add`.

        Caching layers (:class:`repro.service.RetrievalService`) record
        the generation their entries were computed under and invalidate
        when it moves — cheap change detection without hashing contents.
        :meth:`mutations_since` refines "it moved" into *where* it moved
        for consumers that can invalidate region-scoped.
        """
        return self._generation

    def _record_mutation(
        self, region: tuple[int, int, int, int] | None
    ) -> None:
        """Bump the generation and log what the mutation touched."""
        self._generation += 1
        self._mutations.append((self._generation, region))
        if len(self._mutations) > _MUTATION_LOG_SIZE:
            del self._mutations[: -_MUTATION_LOG_SIZE]

    def mutations_since(
        self, generation: int
    ) -> list[tuple[int, tuple[int, int, int, int] | None]] | None:
        """Every mutation after ``generation``, oldest first.

        Each entry is ``(new_generation, region)`` where ``region`` is
        the dirty ``(row0, col0, row1, col1)`` rectangle of a spatially
        scoped mutation or ``None`` for an unscoped one (item adds).
        Returns ``None`` when the bounded log no longer covers the span —
        the caller must then fall back to full invalidation. Every
        mutation bumps the generation by exactly one, so coverage is a
        simple count check.
        """
        if generation == self._generation:
            return []
        if generation > self._generation:
            return None
        entries = [
            entry for entry in self._mutations if entry[0] > generation
        ]
        if len(entries) != self._generation - generation:
            return None
        return entries

    def add(self, item: ArchiveItem, entry: CatalogEntry | None = None) -> None:
        """Add an item under its own name with an optional catalog entry.

        When ``entry`` is omitted a default entry is synthesized from the
        item's type. Names containing ``/`` are rejected: persistence
        flattens ``<kind>/<name>/<part>`` key paths, where a slash in the
        name can collide with another item's keys and silently overwrite
        its arrays on save.
        """
        if item.name in self._items:
            raise ArchiveError(f"duplicate archive item {item.name!r}")
        if "/" in item.name:
            raise ArchiveError(
                f"archive item name {item.name!r} must not contain '/': "
                "slashes collide with the <kind>/<name>/<part> key paths "
                "the persistence layer flattens names into"
            )
        if entry is None:
            modality = _DEFAULT_MODALITY.get(type(item), Modality.DERIVED)
            entry = CatalogEntry(name=item.name, modality=modality)
        elif entry.name != item.name:
            raise ArchiveError(
                f"catalog entry name {entry.name!r} != item name {item.name!r}"
            )
        self._items[item.name] = item
        self._catalog[item.name] = entry
        self._record_mutation(None)

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def names(self) -> list[str]:
        """All item names in insertion order."""
        return list(self._items)

    def entry(self, name: str) -> CatalogEntry:
        """Catalog entry for an item."""
        self._require(name)
        return self._catalog[name]

    def item(self, name: str) -> ArchiveItem:
        """Fetch an item by name, whatever its kind.

        The public untyped accessor — persistence and other whole-archive
        consumers use this instead of reaching into private state; code
        that expects a specific kind should prefer the typed accessors.
        """
        return self._require(name)

    def _require(self, name: str) -> ArchiveItem:
        try:
            return self._items[name]
        except KeyError:
            raise ArchiveError(
                f"archive {self.name!r} has no item {name!r}"
            ) from None

    def _typed(self, name: str, expected: type) -> ArchiveItem:
        item = self._require(name)
        if not isinstance(item, expected):
            raise ArchiveError(
                f"archive item {name!r} is {type(item).__name__}, "
                f"expected {expected.__name__}"
            )
        return item

    def raster(self, name: str) -> RasterLayer:
        """Fetch a raster layer by name."""
        return self._typed(name, RasterLayer)  # type: ignore[return-value]

    def series(self, name: str) -> TimeSeries:
        """Fetch a time series by name."""
        return self._typed(name, TimeSeries)  # type: ignore[return-value]

    def depth_series(self, name: str) -> DepthSeries:
        """Fetch a depth series (well log) by name."""
        return self._typed(name, DepthSeries)  # type: ignore[return-value]

    def table(self, name: str) -> Table:
        """Fetch a table by name."""
        return self._typed(name, Table)  # type: ignore[return-value]

    def stack(self, names: list[str]) -> RasterStack:
        """Build an aligned raster stack from the named layers."""
        stack = RasterStack()
        for name in names:
            stack.add(self.raster(name))
        return stack

    def find(self, **criteria: str) -> list[str]:
        """Names of items whose catalog entries match all criteria.

        This is the *metadata* abstraction level of the progressive data
        representation: filtering that touches no data values at all.
        """
        return [
            name
            for name, entry in self._catalog.items()
            if entry.matches(**criteria)
        ]

    def items_of_modality(self, modality: Modality) -> Iterator[ArchiveItem]:
        """Iterate items tagged with the given modality."""
        for name, entry in self._catalog.items():
            if entry.modality is modality:
                yield self._items[name]

    def __repr__(self) -> str:
        return f"Archive({self.name!r}, items={len(self)})"
