"""Built Onion indexes over raster windows, cached and persisted.

The router's Onion strategy answers a linear top-K over one region of
a raster stack from an :class:`~repro.index.onion.OnionIndex` on that
window's cell values. Peeling the hull layers is the expensive part, so
this module keeps what was built:

* :class:`OnionIndexCache` — per-(region, attributes) indexes, stamped
  with the archive generation they were built against and dropped or
  restamped when an ingest touches (or misses) their window;
* sidecar files — each index is also published beside a disk store as
  ``onion-<digest>.npz``, so a later process with the same window
  values opens it in milliseconds instead of peeling;
* :class:`BuiltOnion` — an index plus the flattened window it covers,
  in the region-local row-major order the engine's tie-break needs.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.data.archive import regions_intersect
from repro.data.raster import RasterStack
from repro.data.table import Table
from repro.exceptions import QueryError
from repro.index.onion import OnionIndex
from repro.metrics.registry import MetricsRegistry, global_registry
from repro.telemetry.events import global_event_log


@dataclass
class BuiltOnion:
    """One built Onion index plus the flattened region it covers.

    ``columns`` holds each attribute's region window flattened row-major,
    so local row ``i`` maps to the global cell
    ``(row0 + i // width, col0 + i % width)`` — region-local row-major
    order *is* global ``(row, col)`` lexicographic order restricted to
    the region, which is what keeps index-side tie-breaks aligned with
    the engine's.
    """

    index: OnionIndex
    columns: dict[str, np.ndarray]
    region: tuple[int, int, int, int]
    generation: int | None
    build_seconds: float
    n_cells: int
    #: The file this index is published as (``None``: nothing persists).
    sidecar: Path | None = None

    def candidate_rows(self, k: int) -> np.ndarray:
        """Local rows guaranteed to contain the top-``k`` of any linear
        objective: the layers :meth:`OnionIndex.layers_needed` names."""
        index = self.index
        return np.concatenate(
            [index.layer(i) for i in range(index.layers_needed(k))]
        )

    def candidate_count(self, k: int) -> int:
        sizes = self.index.layer_sizes()
        return int(sum(sizes[: self.index.layers_needed(k)]))


#: Hull layers every cached index is peeled to at least: top-10 is the
#: paper's deepest reported operating point (1,400x), and a top-k query
#: reads k layers. Peeling is where a cold start goes — on the
#: benchmark's 192 x 192 x 4 window (36,864 tuples, fat layers: 293,
#: 494, 676 ... tuples) one Qhull run per layer costs about 30 ms:
#:
#:     hull layers       1      5      10     19     31
#:     build seconds     0.05   0.16   0.32   0.63   0.93
#:     top-10 reads      all    all    8,618  8,618  8,618
#:
#: and layers 11+ are read by nobody who did not ask for them. A caller
#: that names a deeper k (``warm_index(TopKQuery)``, a forced
#: ``strategy="onion"`` on an unbuilt key) gets ``k`` layers instead.
PAPER_DEPTH = 10

#: Bumped when the sidecar's arrays or the digest's ingredients change;
#: part of the digest, so an old file is simply never asked for again.
SIDECAR_VERSION = 1


def _sidecar_name(
    attributes: tuple[str, ...],
    shape: tuple[int, int],
    columns: dict[str, np.ndarray],
) -> str:
    """File name of the index over exactly these window values: the
    name *is* the invalidation — a window that changed asks for a
    different file, so a stale one is never opened."""
    digest = hashlib.blake2b(
        repr((SIDECAR_VERSION, attributes, shape)).encode(), digest_size=16
    )
    for name in attributes:
        digest.update(columns[name].dtype.str.encode())
        digest.update(columns[name])
    return f"onion-{digest.hexdigest()}.npz"


def _open_sidecar(
    path: Path, table: Table, attributes: tuple[str, ...]
) -> OnionIndex | None:
    """The index published at ``path``, or ``None`` when there is none
    or it does not check out (reported as ``index.sidecar_rejected``)."""
    try:
        # Opened here: np.load leaves a path it cannot parse open.
        with open(path, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as data:
            version = int(data["version"])
            max_layers = int(data["max_layers"])
            layer_of = data["layer_of"]
    except FileNotFoundError:
        return None
    except Exception as error:  # noqa: BLE001 - any unreadable file is a miss
        fault = f"{type(error).__name__}: {error}"
    else:
        fault = _sidecar_fault(version, max_layers, layer_of, len(table))
        if fault is None:
            return OnionIndex(
                table,
                attributes=list(attributes),
                max_layers=max_layers,
                layer_of=layer_of.astype(np.intp),
            )
    global_event_log().emit(
        "index.sidecar_rejected", "warning", path=str(path), reason=fault
    )
    return None


def _sidecar_fault(
    version: int, max_layers: int, layer_of: np.ndarray, n_rows: int
) -> str | None:
    """Why these sidecar contents cannot be an index over ``n_rows``
    tuples (``None``: they can)."""
    if version != SIDECAR_VERSION:
        return f"version {version}, expected {SIDECAR_VERSION}"
    if layer_of.dtype != np.int16 or layer_of.shape != (n_rows,):
        return f"layer_of is {layer_of.dtype}{layer_of.shape}"
    if layer_of.min() < 0 or layer_of.max() >= max_layers:
        return f"layer numbers outside 0..{max_layers - 1}"
    if not np.bincount(layer_of).all():
        return "an empty layer"
    return None


def _publish_sidecar(path: Path, index: OnionIndex) -> None:
    """Write ``index`` to ``path`` so that a reader sees all of it or
    none (own temp file, then rename). A write that fails is reported
    (``index.sidecar_write_failed``) and otherwise ignored: the index
    is already in memory."""
    if index.n_layers > np.iinfo(np.int16).max:
        return
    temp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(temp, "wb") as handle:
                np.savez(
                    handle,
                    version=SIDECAR_VERSION,
                    max_layers=index.max_layers,
                    layer_of=index.layer_of().astype(np.int16),
                )
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)  # gone already once renamed
    except OSError as error:
        global_event_log().emit(
            "index.sidecar_write_failed",
            "warning",
            path=str(path),
            reason=f"{type(error).__name__}: {error}",
        )


class OnionIndexCache:
    """Build/refresh hook for per-(region, attributes) Onion indexes.

    Entries are keyed on the clipped region plus the attribute tuple and
    stamped with the archive generation they were built against;
    :meth:`get` transparently rebuilds when the generation moves, so a
    mutated archive can never serve answers from a stale index. Build
    cost (wall seconds, layer count) is recorded in the registry under
    ``router.index.*`` — queries never pay it into their own counters,
    matching the paper's convention that index construction is amortized.

    **Depth.** An index is peeled to ``max(PAPER_DEPTH, k)`` hull layers
    (its :attr:`~repro.index.onion.OnionIndex.depth`) plus the interior
    bucket, never past ``max_layers`` in all, where ``k`` is what the
    caller of :meth:`get` asked for. A deeper ``k``
    later *deepens* the cached index (peels its bucket on); a query
    whose ``k`` exceeds the depth it finds is still exact, through the
    bucket, and the router prices that as the scan it is.

    **Persistence.** With a ``sidecar_dir`` every index built is also
    published there as ``onion-<digest>.npz`` — each row's layer number
    (int16), the index's ``max_layers`` and a format version — where the digest is
    BLAKE2 over version, attribute names, window shape and the window's
    bytes. A later build of the same window values, in this process or
    any other, opens that file instead of peeling. The name is the only
    invalidation: a changed window digests to another name, and a file
    that fails its checks is ignored and replaced.
    """

    def __init__(
        self,
        stack: RasterStack,
        max_layers: int | None = 32,
        max_entries: int = 8,
        registry: MetricsRegistry | None = None,
        sidecar_dir: Path | None = None,
    ) -> None:
        if max_entries < 1:
            raise QueryError(
                f"max_entries must be positive, got {max_entries}"
            )
        self.stack = stack
        self.max_layers = max_layers
        self.max_entries = max_entries
        self.registry = registry if registry is not None else global_registry()
        self.sidecar_dir = sidecar_dir
        self._entries: dict[tuple, BuiltOnion] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def invalidate(self) -> None:
        """Drop every built index (explicit refresh hook)."""
        with self._lock:
            self._entries.clear()

    def invalidate_region(
        self,
        region: tuple[int, int, int, int],
        generation: int | None,
    ) -> int:
        """Drop indexes intersecting a dirty rectangle; restamp the rest.

        The region-scoped counterpart of :meth:`invalidate`: an index
        over a window the mutation never touched is built from exactly
        the same cell values before and after, so instead of dropping it
        we restamp it to the post-mutation ``generation`` — otherwise
        :meth:`peek`'s equality check would force a pointless rebuild.
        A dropped index's sidecar file is unlinked: nothing will ask for
        that name again unless the old values come back. Returns the
        number of entries dropped.
        """
        with self._lock:
            doomed = [
                key
                for key, built in self._entries.items()
                if regions_intersect(built.region, region)
            ]
            dropped = [self._entries.pop(key) for key in doomed]
            for built in self._entries.values():
                built.generation = generation
        for built in dropped:
            if built.sidecar is not None:
                with contextlib.suppress(OSError):
                    built.sidecar.unlink()
        return len(dropped)

    def peek(
        self,
        region: tuple[int, int, int, int],
        attributes: tuple[str, ...],
        generation: int | None,
    ) -> BuiltOnion | None:
        """The cached index for this key if fresh, without building."""
        key = (tuple(region), tuple(attributes))
        with self._lock:
            built = self._entries.get(key)
        if built is not None and built.generation == generation:
            return built
        return None

    def _max_layers_for(self, k: int) -> int:
        """The ``max_layers`` an index asked for top-``k`` is peeled to:
        its hull layers plus the bucket, within the cache's bound."""
        wanted = max(PAPER_DEPTH, k) + 1
        if self.max_layers is None:
            return wanted
        return min(wanted, self.max_layers)

    def get(
        self,
        region: tuple[int, int, int, int],
        attributes: tuple[str, ...],
        generation: int | None,
        k: int = 0,
    ) -> BuiltOnion:
        """The index for this key, deep enough for top-``k``: opened,
        built or deepened on a miss. The query path leaves ``k`` at 0,
        which any cached index satisfies — peeling inside a request
        would cost it tens of milliseconds per layer."""
        region, attributes = tuple(region), tuple(attributes)
        max_layers = self._max_layers_for(k)
        built = self.peek(region, attributes, generation)
        if built is not None and built.index.max_layers >= max_layers:
            return built
        built = (
            self._build(region, attributes, generation, max_layers)
            if built is None
            else self._deepen(built, max_layers)
        )
        with self._lock:
            self._entries[region, attributes] = built
            while len(self._entries) > self.max_entries:
                # Oldest-inserted entry goes first; index builds are rare
                # enough that plain FIFO beats carrying LRU bookkeeping.
                self._entries.pop(next(iter(self._entries)))
        return built

    def _build(
        self,
        region: tuple[int, int, int, int],
        attributes: tuple[str, ...],
        generation: int | None,
        max_layers: int,
    ) -> BuiltOnion:
        row0, col0, row1, col1 = region
        start = time.perf_counter()
        columns = {
            name: np.ascontiguousarray(
                self.stack[name].read_window(row0, col0, row1, col1)
            ).reshape(-1)
            for name in attributes
        }
        table = Table(f"region{region}", columns)
        sidecar = index = None
        if self.sidecar_dir is not None:
            sidecar = self.sidecar_dir / _sidecar_name(
                attributes, (row1 - row0, col1 - col0), columns
            )
            index = _open_sidecar(sidecar, table, attributes)
        source = "sidecar"
        if index is None or index.max_layers < max_layers:
            source = "peeled"
            if index is None:
                index = OnionIndex(
                    table, attributes=list(attributes), max_layers=max_layers
                )
            else:
                index.deepen(max_layers)
            if sidecar is not None:
                _publish_sidecar(sidecar, index)
        built = BuiltOnion(
            index=index,
            columns=columns,
            region=region,
            generation=generation,
            build_seconds=time.perf_counter() - start,
            n_cells=(row1 - row0) * (col1 - col0),
            sidecar=sidecar,
        )
        self._record(built, source, built.build_seconds)
        return built

    def _deepen(self, built: BuiltOnion, max_layers: int) -> BuiltOnion:
        start = time.perf_counter()
        # On a copy: a query on another thread may be reading the cached
        # index, and deepen() replaces its layer list.
        index = copy.copy(built.index)
        index.deepen(max_layers)
        if built.sidecar is not None:
            _publish_sidecar(built.sidecar, index)
        seconds = time.perf_counter() - start
        built = replace(
            built, index=index, build_seconds=built.build_seconds + seconds
        )
        self._record(built, "peeled", seconds)
        return built

    def _record(self, built: BuiltOnion, source: str, seconds: float) -> None:
        index = built.index
        self.registry.inc(
            "router.index.loads" if source == "sidecar"
            else "router.index.builds"
        )
        self.registry.observe("router.index.build_seconds", seconds)
        self.registry.gauge("router.index.layers", float(index.n_layers))
        global_event_log().emit(
            "index.onion_build",
            attributes=index.attributes,
            region=list(built.region),
            layers=index.n_layers,
            depth=index.depth,
            source=source,
            build_seconds=seconds,
        )
