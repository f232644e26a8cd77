"""The lazy on-disk flowcube store.

A :class:`CubeStore` persists a materialised flowcube *cell by cell*::

    cube/
      cube.json               δ/ε, the path lattice, build provenance
      paths.bin               the aggregated paths the cell records name
      cells.bin               packed heap: length-prefixed cell records
      cells.idx               columnar key/offset index (binfmt codec)
      cells.delta.NNN.bin     heap segment N: the cells an append rewrote
      cells.delta.idx         the full index while delta segments pend

The heap holds one compact ``FCHEAP03`` record per cell — the cell's
``(path id, weight)`` vector, its record ids and its exceptions
(:func:`~repro.store.binfmt.encode_cell_payload`), not its flowgraph —
one joined buffer per cuboid; the path ids resolve through the cube's
path table (``paths.bin``), which is loaded the first time a reader
asks a cell for its flowgraph and not before; the index lives in the packed
``cells.idx`` arena, so opening a million-cell cube costs one mmap
instead of a million stats — zero heap bytes are read on open, and the
per-cuboid catalog masks stay lazy byte spans over the index map until
a query ANDs them.  This is the only layout the store reads or writes:
a ``cube.json`` naming another ``"format"`` (or none) and a heap
leading with the retired generation's magic are refused with a
:class:`~repro.errors.StoreError`, never decoded.  A read hands out a
:class:`StoredCell`: the index fields (key, levels, ``n_paths``,
``redundant``) straight from the index entry plus a copy of the cell's
record bytes; ``record_ids`` decode from those bytes and ``flowgraph``
is expanded from the stored vector the first time each is touched —
slicing and listing decode nothing.  The store fronts every read with a bounded
:class:`~repro.store.cache.LRUCache` whose hit/miss/eviction counters
make serving behaviour observable.

The store exposes the same lookup surface as
:class:`~repro.core.flowcube.FlowCube` (``cuboid`` / ``cell`` /
``flowgraph_for`` / ``cuboids``), so
:class:`~repro.query.api.FlowCubeQuery` works over either without caring
which one it was given.

Benchmark note: ``benchmarks/flowbench`` traces :meth:`CubeStore.cell`
as ``cube_store.cell_read_ms``.  Slices read a cuboid's matching cells
through :meth:`CubeStore.cuboid_cells` instead, so in the miss stage
that span reads 0 and the read is self time of
``query.slice_cells_ms``: compare the *sum* of the two (plus
``app.slice_payload_ms``) across commits.
"""

from __future__ import annotations

import json
import mmap
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path as FsPath

from repro.core.flowcube import Cell, CellKey
from repro.core.lattice import ItemLevel, PathLattice, PathLevel
from repro.core.path_database import PathSchema
from repro.core.serialization import (
    exceptions_to_dicts,
    flowgraph_to_dict,
    path_level_from_dict,
    path_level_to_dict,
)
from repro import publish
from repro.errors import CubeError, StoreError
from repro.perf.measure_rollup import PathTable
from repro.store import binfmt
from repro.store.binfmt import HEAP_LENGTH_STRUCT, HEAP_MAGIC, LAYOUT_NAME
from repro.store.cache import LRUCache

__all__ = ["CubeStore", "StoredCell", "StoredCuboid"]

META_FILENAME = "cube.json"
#: The aggregated paths the heap's cell vectors name (``FCPATH01``).
PATHS_FILENAME = "paths.bin"
HEAP_FILENAME = "cells.bin"
INDEX_FILENAME = "cells.idx"
#: Full cell index over base heap + delta segments; authoritative (and
#: present) exactly when the meta file lists ``delta_segments``.
DELTA_INDEX_FILENAME = "cells.delta.idx"


def delta_segment_filename(segment_id: int) -> str:
    """File name of append-only delta segment *segment_id* (≥ 1)."""
    return f"cells.delta.{segment_id:03d}.bin"


def _new_append_stats() -> dict:
    """Fresh append/compaction counters for ``build_stats["append"]``."""
    return {
        "batches": 0,
        "records_appended": 0,
        "cells_updated": 0,
        "cells_created": 0,
        "cells_promoted": 0,
        "cells_demoted": 0,
        "still_below_delta": 0,
        "delta_segments": 0,
        "compactions": 0,
        "last_compaction": None,
    }

#: Index coordinates: (item level, path-level id, cell key).
Coords = tuple[ItemLevel, int, CellKey]

#: An index entry: ``(heap offset, record length, n_paths, redundant)``,
#: the offset's high bits naming the delta segment
#: (:func:`~repro.store.binfmt.pack_segment_offset`).
Entry = tuple[int, int, int, bool]

#: The cell's path count, as the index entry records it.
entry_n_paths = itemgetter(2)
#: The cell's redundancy mark, as the index entry records it.
entry_redundant = itemgetter(3)


def _new_io_counters() -> dict[str, int]:
    """Fresh read-path telemetry (see :meth:`CubeStore.io_counters`)."""
    return {"heap_bytes_read": 0, "mask_bits_decoded": 0, "cells_decoded": 0}


class _Segment:
    """One heap file: ``cells.bin`` (segment 0) or ``cells.delta.NNN.bin``.

    *Staged* (being written): the magic and every appended record go to
    the file's :func:`~repro.publish.staging_path`, reads are
    ``os.pread`` on that handle, and :meth:`publish` renames it into
    place.  *Published* (read-only): the file is mapped on the first
    read, which is also where its magic is checked — never at open.
    """

    def __init__(
        self, path: FsPath, segment_id: int, stage: bool = False
    ) -> None:
        self.path = path
        self.segment_id = segment_id
        self._handle = None
        self._map: mmap.mmap | None = None
        #: Append position while staged; 0 once published.
        self._end = 0
        if stage:
            self._handle = open(publish.staging_path(path), "w+b")
            self._handle.write(HEAP_MAGIC)
            self._end = len(HEAP_MAGIC)

    def append(self, records) -> list[Entry]:
        """Frame ``(payload bytes, n_paths, redundant)`` records and append
        them as one joined buffer.

        The entries carry the segment id in the offset's high bits
        (:func:`~repro.store.binfmt.pack_segment_offset`).
        """
        position = self._end
        tag = binfmt.pack_segment_offset(self.segment_id, 0)
        frame = HEAP_LENGTH_STRUCT.pack
        chunks: list[bytes] = []
        entries: list[Entry] = []
        for data, n_paths, redundant in records:
            length = len(data)
            position += HEAP_LENGTH_STRUCT.size
            chunks.append(frame(length))
            chunks.append(data)
            entries.append(
                (tag | position, length, int(n_paths), bool(redundant))
            )
            position += length
        binfmt.pack_segment_offset(self.segment_id, position)  # span check
        self._handle.write(b"".join(chunks))
        self._end = position
        return entries

    def read(self, offset: int, length: int) -> bytes:
        if self._end:
            # Mid-write reads hit the staging file; pread leaves the
            # append position alone.
            self._handle.flush()
            return os.pread(self._handle.fileno(), length, offset)
        view = self._map
        if view is None:
            view = self.view()
        return view[offset : offset + length]

    def view(self) -> mmap.mmap:
        """The published file's read-only map, refusing a foreign or
        retired magic before anything is decoded."""
        if self._map is None:
            what = "delta segment" if self.segment_id else "cell heap"
            mapped = binfmt.map_file(self.path, what)
            try:
                binfmt.check_heap_magic(mapped[:8], self.path)
            except StoreError:
                mapped.close()
                raise
            self._map = mapped
        return self._map

    def publish(self) -> None:
        """Rename the staged file into place; read-only from here on."""
        self._handle.close()
        self._handle, self._end = None, 0
        publish.publish_file(self.path, publish.staging_path(self.path))

    def close(self) -> None:
        """Release the map and handle; a staged file is abandoned."""
        if self._map is not None:
            self._map.close()
            self._map = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._end:
            self._end = 0
            publish.staging_path(self.path).unlink(missing_ok=True)


class _HeapCells:
    """Packed cell heap: ``cells.bin`` + delta segments + the mmap'd index.

    The segment id packed into every index entry is the only thing that
    tells heap files apart, so the backend is ``{segment id: segment}``
    plus at most one segment being written; a load, a rebuild and a
    compaction each start from a fresh object.  Writes append
    length-prefixed payloads — a whole batch of cells as one joined
    buffer — to that staged segment: segment 0 during a build or a
    compaction (:meth:`begin`), a fresh delta otherwise
    (:meth:`begin_delta`, which a write to a published cube implies).
    :meth:`finalise` publishes segment → index, and the caller the meta
    file last — the commit point; DESIGN §5 tabulates what a reader
    sees between the renames.

    A cold open touches the index file only, which is itself mmap'd
    with the catalog masks left as
    :class:`~repro.store.binfmt.LazyMaskMap` spans.  ``io_counters``
    tallies heap bytes read, mask bitmaps decoded and cells decoded;
    the first two stay zero across an open.
    """

    def __init__(self, directory: FsPath, n_dims: int) -> None:
        self.directory = directory
        self.n_dims = n_dims
        #: segment id -> heap file (0 = ``cells.bin``); published ones
        #: are registered, and mapped, on first read.
        self._segments: dict[int, _Segment] = {}
        #: The staged segment writes go to, if any (also in _segments).
        self._writing: _Segment | None = None
        self._index_mmap: mmap.mmap | None = None
        self._mask_arena: binfmt.MaskArena | None = None
        #: Published delta segment ids, in append order (meta-sourced).
        self.delta_segments: list[int] = []
        #: (item level, path-level id) -> per-dimension catalog masks:
        #: lazy mmap-backed views handed out by :meth:`load`.
        self.cell_masks: dict = {}
        #: Read-path telemetry (shared with the mask arena and with
        #: every :class:`StoredCell` read through this backend).
        self.io_counters = _new_io_counters()

    @property
    def index_path(self) -> FsPath:
        return self.directory / INDEX_FILENAME

    @property
    def overlay_path(self) -> FsPath:
        return self.directory / DELTA_INDEX_FILENAME

    def _segment_path(self, segment_id: int) -> FsPath:
        if segment_id == 0:
            return self.directory / HEAP_FILENAME
        return self.directory / delta_segment_filename(segment_id)

    def _segment(self, segment_id: int) -> _Segment:
        segment = self._segments.get(segment_id)
        if segment is None:
            segment = self._segments[segment_id] = _Segment(
                self._segment_path(segment_id), segment_id
            )
        return segment

    def _stage(self, segment_id: int) -> None:
        """Open segment *segment_id* for writing (the one place a heap
        file is)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self._writing = self._segments[segment_id] = _Segment(
            self._segment_path(segment_id), segment_id, stage=True
        )

    def begin(self) -> None:
        """Start a fresh base heap in the staging file.

        Both callers — a rebuild and a compaction — supersede whatever
        an earlier writer left half-done, so a crashed writer's staging
        files (never ``query_stats.json.*``: serving processes write
        those concurrently) are swept here.
        """
        for pattern in (
            "cells.*.tmp", f"{PATHS_FILENAME}.*.tmp", f"{META_FILENAME}.*.tmp"
        ):
            for stale in self.directory.glob(pattern):
                stale.unlink(missing_ok=True)
        self._stage(0)

    def begin_delta(self) -> int:
        """Start an append-only delta segment over the published heap.

        Subsequent writes land in a staged ``cells.delta.NNN.bin`` file
        instead of rewriting ``cells.bin``; a delta already being
        written is joined, not restarted.  Returns the segment's id.
        """
        if self._writing is not None:
            if self._writing.segment_id == 0:
                raise StoreError(
                    "cannot stage a delta segment while a full heap "
                    "rebuild is in progress"
                )
            return self._writing.segment_id
        base = self._segment(0)
        if not base.path.exists():
            raise StoreError(
                f"cell heap {base.path} is missing; "
                "build the cube before appending"
            )
        base.view()  # refuse to append to a heap this release cannot read
        self._stage(self._next_segment_id())
        return self._writing.segment_id

    def _next_segment_id(self) -> int:
        """One past the highest referenced *or on-disk* segment id.

        Scanning the directory (not just the meta-referenced list) skips
        over orphan segments left by a crash between the segment rename
        and the meta publish.
        """
        highest = max(self.delta_segments, default=0)
        for path in self.directory.glob("cells.delta.*.bin"):
            stem = path.name.split(".")[2]
            if stem.isdigit():
                highest = max(highest, int(stem))
        return highest + 1

    def put_records(self, records) -> list[Entry]:
        """Byte-exact append of encoded ``(record, n_paths, redundant)``
        triples in one write — to a fresh delta segment when nothing is
        staged, so mutating a published cube costs O(dirty cells)."""
        if not records:
            return []  # nothing to write: do not stage a segment
        if self._writing is None:
            self.begin_delta()
        return self._writing.append(records)

    def record(self, entry: Entry) -> bytes:
        """A copy of the entry's cell record — the bytes
        :func:`~repro.store.binfmt.decode_cell_vector` takes — verbatim."""
        length = entry[1]
        segment_id, offset = binfmt.split_segment_offset(entry[0])
        segment = self._segments.get(segment_id) or self._segment(segment_id)
        data = segment.read(offset, length)
        if len(data) != length:
            raise StoreError(
                f"cell heap {segment.path} is truncated at byte {offset}"
            )
        self.io_counters["heap_bytes_read"] += length
        return data

    def _index_blob(self, index) -> bytes:
        def cuboid_rows():
            for (item_level, level_id), entries in index.items():
                yield (
                    item_level.levels,
                    level_id,
                    (
                        (key, e[0], e[1], e[2], e[3])
                        for key, e in entries.items()
                    ),
                )

        return binfmt.pack_cell_index(cuboid_rows(), self.n_dims)

    def finalise(self, index) -> dict:
        """Publish the staged writes, return meta fields.

        Order: the written segment (if any), then the full index, then
        — by the caller — the meta file, which is the commit point; the
        records an index addresses are on disk before the index is.  The
        index goes to the ``cells.delta.idx`` overlay when any entry
        addresses a delta segment (the meta then lists
        ``delta_segments``: every one published since the last
        compaction), else to ``cells.idx`` — the fresh heap of a
        rebuild or compaction superseded every delta, and the caller
        sweeps them *after* the meta commit, because the previous meta
        still references them.
        """
        blob = self._index_blob(index)
        segment, self._writing = self._writing, None
        if segment is not None:
            segment.publish()
            if segment.segment_id:
                self.delta_segments = [
                    *self.delta_segments, segment.segment_id
                ]
        out = {"n_cells": sum(len(entries) for entries in index.values())}
        if any(
            entry[0] >> binfmt.SEGMENT_SHIFT
            for entries in index.values()
            for entry in entries.values()
        ):
            publish.publish_file(self.overlay_path, blob)
            out["delta_segments"] = list(self.delta_segments)
        else:
            publish.publish_file(self.index_path, blob)
            self.delta_segments = []
        return out

    def load(self, payload: dict):
        """Rebuild the whole index from ``cells.idx`` — zero heap IO.

        The index file is mmap'd and stays mapped: keys and entries are
        decoded eagerly (cheap columnar ``zip`` passes), while the
        catalog masks remain byte spans over the map
        (:class:`~repro.store.binfmt.LazyMaskMap`), each bitmap decoded
        the first time a query ANDs it.

        When the meta payload lists ``delta_segments``, the
        ``cells.delta.idx`` overlay *is* the index — same codec, same
        laziness — and segment-tagged entries resolve through per-delta
        mmaps on first touch, so a cold open of a delta-bearing store
        still reads zero heap bytes.
        """
        self.delta_segments = [
            int(segment_id)
            for segment_id in payload.get("delta_segments", [])
        ]
        index_path = (
            self.overlay_path if self.delta_segments else self.index_path
        )
        self._index_mmap = binfmt.map_file(index_path, "cell index")
        self._mask_arena = binfmt.MaskArena(
            self._index_mmap, self.io_counters
        )
        index: dict[tuple[ItemLevel, int], dict[CellKey, Entry]] = {}
        self.cell_masks = {}
        for levels, level_id, keys, entries, masks in binfmt.unpack_cell_index(
            self._index_mmap, self._mask_arena
        ):
            coords = (ItemLevel(levels), level_id)
            index[coords] = dict(zip(keys, entries))
            self.cell_masks[coords] = masks
        return index

    def close(self, materialise: bool = True) -> None:
        """Release every map and handle; abandon a staged segment.

        With *materialise* (the reload path), masks still referenced by
        live catalogs are decoded out of the index map before it is
        closed, so an in-flight query keeps answering; a final
        (user-initiated) close passes False and later mask reads raise.
        """
        segments, self._segments = self._segments, {}
        self._writing = None
        for segment in segments.values():
            segment.close()
        self._drop_index(materialise)

    def _drop_index(self, materialise: bool = True) -> None:
        arena, self._mask_arena = self._mask_arena, None
        if arena is not None:
            arena.close(materialise)
        if self._index_mmap is not None:
            self._index_mmap.close()
            self._index_mmap = None

    def discard_delta_files(self) -> None:
        """Unlink every delta segment, overlay, and staging temp."""
        for segment_id in [sid for sid in self._segments if sid]:
            self._segments.pop(segment_id).close()
        for stale in self.directory.glob("cells.delta.*"):
            stale.unlink(missing_ok=True)
        self.delta_segments = []

    def discard_files(self) -> None:
        self.close(materialise=False)
        self._segment_path(0).unlink(missing_ok=True)
        self.index_path.unlink(missing_ok=True)
        (self.directory / PATHS_FILENAME).unlink(missing_ok=True)
        self.discard_delta_files()


def new_lineage() -> int:
    """The number a fresh cube's files are tied together by."""
    return int.from_bytes(os.urandom(7), "little")


class StoredPaths:
    """A cube's path table the way its meta file commits it.

    ``cube.json`` names the table by the *lineage* its ``create()`` drew
    (appends and compactions keep it, a rebuild draws a new one) and by
    the per-level path *counts* its cell records may reference.  The file
    is read, and both are checked, the first time a cell expands its
    flowgraph — never at open — and a table of another build, or one
    shorter than committed, is a :class:`~repro.errors.StoreError`
    rather than a wrong graph.  A *longer* table is the same cube: ids
    are first-seen and an append only ever extends the file.
    """

    def __init__(
        self, path: FsPath, lineage: int | None, counts, levels=None
    ) -> None:
        self.path = path
        self.lineage = lineage
        self.counts = counts
        self._levels = levels

    def levels(self) -> list[list]:
        """``[level_id][pid]`` → aggregated path, loading on first use."""
        levels = self._levels
        if levels is None:
            if self.lineage is None:
                raise StoreError(
                    f"cube meta beside {self.path} names no path table; "
                    "rebuild the cube"
                )
            with binfmt.map_file(self.path, "path table") as mapped:
                lineage, levels = binfmt.unpack_paths(mapped)
            if lineage != self.lineage:
                raise StoreError(
                    f"path table {self.path} belongs to another build of "
                    f"the cube (lineage {lineage}, cube meta says "
                    f"{self.lineage}): a rebuild is in progress or was "
                    "interrupted — rebuild the cube"
                )
            if len(levels) != len(self.counts) or any(
                len(paths) < count
                for paths, count in zip(levels, self.counts)
            ):
                raise StoreError(
                    f"path table {self.path} holds "
                    f"{[len(paths) for paths in levels]} paths per level, "
                    f"fewer than the {list(self.counts)} the cube meta "
                    "commits; rebuild the cube"
                )
            self._levels = levels
        return levels


class StoredCell(Cell):
    """A cell as a store hands it out: index fields now, measure on first touch.

    ``key`` / ``item_level`` / ``path_level`` / ``n_paths`` /
    ``redundant`` are plain attributes filled from the index entry, so
    selecting and listing cells (slice, dice, ``/cuboids``) decodes
    nothing.  The measure comes in two touches.  ``record_ids`` (and
    ``weights``, the stored ``{pid: weight}`` vector) decode from the
    record alone (:func:`~repro.store.binfmt.decode_cell_vector`: no path
    table, no graph).  ``flowgraph`` is *expanded* from the vector by
    :func:`~repro.store.binfmt.decode_cell_parts` over the cell's level
    of the cube's path table, once, the first time it is read — which
    is also the first time the table's file is.

    The cell is a self-contained snapshot: it owns the record *bytes*
    the store copied out under its lock at read time, never an offset
    into a heap, and a reference to the path table those bytes name, so
    it decodes the same measure after the store has reloaded, appended,
    compacted or closed.  A damaged record surfaces as
    :class:`~repro.errors.StoreError` at that first touch, and at every
    later one (nothing is cached on failure).

    Two threads that race on the first touch both decode; they compute
    equal measures and the last assignment stays, and ``cells_decoded``
    (telemetry, not guarded by the store lock) may then read one short.
    """

    def __init__(
        self,
        key: CellKey,
        item_level: ItemLevel,
        path_level: PathLevel,
        n_paths: int,
        redundant: bool,
        record: bytes,
        counters: dict[str, int],
        paths: StoredPaths,
        level_id: int,
    ) -> None:
        self.key = key
        self.item_level = item_level
        self.path_level = path_level
        self.redundant = redundant
        self._n_paths = n_paths
        self._record = record
        self._counters = counters
        self._paths = paths
        self._level_id = level_id
        self._vector: tuple | None = None
        self._graph = None

    @property
    def n_paths(self) -> int:
        """Number of paths aggregated in the cell (from the index)."""
        return self._n_paths

    def _touch(self) -> tuple:
        vector = self._vector
        if vector is None:
            record_ids, _, pairs = binfmt.decode_cell_vector(self._record)
            vector = self._vector = (record_ids, pairs)
        return vector

    @property
    def record_ids(self) -> tuple[int, ...]:
        return self._touch()[0]

    @property
    def weights(self) -> dict[int, int] | None:
        """The stored ``{pid: weight}`` vector (a fresh dict), or
        ``None`` for a cell that was stored without its multiset."""
        pairs = self._touch()[1]
        return None if pairs is None else dict(pairs)

    @property
    def level_paths(self) -> list:
        """The path list the vector's ids index."""
        return self._paths.levels()[self._level_id]

    @property
    def flowgraph(self):
        graph = self._graph
        if graph is None:
            graph = self._graph = binfmt.decode_cell_parts(
                self._record, self.level_paths
            )[1]
            self._counters["cells_decoded"] += 1
        return graph

    def __eq__(self, other: object) -> bool:
        """Field-wise equality with any :class:`Cell`, index fields first
        (cells at different coordinates never decode); flowgraphs, which
        compare by identity, are compared in serialised form."""
        if not isinstance(other, Cell):
            return NotImplemented
        return (
            self.key == other.key
            and self.item_level == other.item_level
            and self.path_level == other.path_level
            and self.redundant == other.redundant
            and self.paths == other.paths
            and self.record_ids == other.record_ids
            and (
                self.flowgraph is other.flowgraph
                or flowgraph_to_dict(self.flowgraph)
                == flowgraph_to_dict(other.flowgraph)
            )
        )


class StoredCuboid:
    """A lazy view of one persisted cuboid.

    Iteration and lookups read cells through the store's cache; nothing
    is loaded up front.  Mirrors the read surface of
    :class:`~repro.core.flowcube.Cuboid`.
    """

    def __init__(
        self,
        store: "CubeStore",
        item_level: ItemLevel,
        path_level: PathLevel,
        keys: tuple[CellKey, ...],
        value_masks: list[dict[str, int]] | None = None,
    ) -> None:
        self._store = store
        self.item_level = item_level
        self.path_level = path_level
        self._keys = keys
        self._key_set = frozenset(keys)
        #: Per-dimension ``{value: cell-ordinal bitmap}`` decoded from
        #: the cell index (``None`` once an in-memory merge superseded
        #: it); lets key catalogs skip their per-cell index pass.
        self.value_masks = value_masks

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: CellKey) -> bool:
        return key in self._key_set

    def __iter__(self) -> Iterator[Cell]:
        for key in self._keys:
            yield self._store.cell(self.item_level, key, self.path_level)

    @property
    def keys(self) -> tuple[CellKey, ...]:
        return self._keys

    def cell(self, key: CellKey) -> Cell:
        if key not in self._key_set:
            raise CubeError(
                f"cell {key!r} is not materialised in cuboid "
                f"{self.item_level.levels!r}"
            )
        return self._store.cell(self.item_level, key, self.path_level)

    def cells_for(self, keys: Iterable[CellKey]) -> list[Cell]:
        """The cells at *keys*, in order, as one batched store read."""
        return self._store.cuboid_cells(self.item_level, self.path_level, keys)


class CubeStore:
    """Cell-granular persistent flowcube with a bounded read cache.

    Args:
        directory: The ``cube/`` directory (created lazily on first write).
        schema: The owning store's path schema; path levels in the meta
            file are rebound against ``schema.location`` on load.
        cache_size: LRU capacity, in cells.
    """

    def __init__(
        self,
        directory: FsPath | str,
        schema: PathSchema,
        cache_size: int = 128,
    ) -> None:
        self.directory = FsPath(directory)
        self.schema = schema
        self.min_support: float | None = None
        self.min_deviation: float | None = None
        self.path_lattice: PathLattice | None = None
        #: The item levels the build materialised (``None`` for cubes
        #: persisted before this was recorded = the full item lattice).
        #: Appends need it to know which cuboids a promotion may enter.
        self.item_levels: list[ItemLevel] | None = None
        #: :meth:`BuildStats.as_dict` snapshot of the build that produced
        #: the persisted cube, when the builder passed one to :meth:`flush`.
        self.build_stats: dict | None = None
        #: The committed path table (file, lineage, per-level counts);
        #: ``None`` until a cube is created or loaded.
        self._paths: StoredPaths | None = None
        #: The same table as the id space writers intern into; built
        #: over ``_paths``' lists the first time a writer asks.
        self._table: PathTable | None = None
        self._cells = self._new_heap()
        self._cache: LRUCache = LRUCache(cache_size)
        #: (item level, path-level id) -> {cell key -> index entry}.
        self._index: dict[tuple[ItemLevel, int], dict[CellKey, Entry]] = {}
        #: Bumped on every index mutation; memoised views (the ``cuboids``
        #: tuple here, key catalogs and cached answers in the query layer)
        #: key off it to invalidate.
        self._version = 0
        self._cuboids_cache: tuple[int, tuple[StoredCuboid, ...]] | None = None
        #: Serialises reads/mutations so concurrent server workers can
        #: share one handle — the LRU's OrderedDict is not thread-safe.
        self._lock = threading.RLock()
        #: Invalidation listeners, called with the new version on every
        #: index mutation (the serving layer's per-tenant caches hook in).
        self._subscribers: list[Callable[[int], None]] = []
        #: (st_mtime_ns, st_size) of the meta file last read or written;
        #: :meth:`maybe_reload` compares against disk to notice rebuilds
        #: flushed by *other* processes (e.g. the CLI under a server).
        self._meta_signature: tuple[int, int] | None = None
        signature, text = self._read_meta()
        if text is not None:
            self._load_meta(signature, text)

    def _new_heap(self) -> _HeapCells:
        """A fresh backend object (its own maps, handles and counters)."""
        return _HeapCells(self.directory, self.schema.n_dimensions)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        """Whether a build has ever written (and flushed) into this store."""
        return self.path_lattice is not None

    def _bump_version(self) -> None:
        """Advance the mutation counter and push it to every subscriber."""
        self._version += 1
        for callback in tuple(self._subscribers):
            callback(self._version)

    def subscribe(self, callback: Callable[[int], None]) -> None:
        """Register *callback* to run (with the new version) on mutation.

        The serving layer's per-tenant caches key their entries off
        :attr:`version` already; the push lets them also *drop* stale
        entries eagerly instead of leaking them until LRU pressure.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[int], None]) -> None:
        """Remove a previously registered invalidation listener."""
        self._subscribers.remove(callback)

    def create(
        self,
        path_lattice: PathLattice,
        min_support: float,
        min_deviation: float,
        item_levels=None,
    ) -> "CubeStore":
        """Start a fresh cube, discarding any previously indexed cells.

        Args:
            item_levels: The item levels this build materialises;
                persisted so later appends know the cube's extent.
        """
        with self._lock:
            self.path_lattice = path_lattice
            self.min_support = min_support
            self.min_deviation = min_deviation
            self.item_levels = (
                None if item_levels is None else list(item_levels)
            )
            self.build_stats = None
            self._index.clear()
            self._cache.clear()
            # A rebuild drops the previous build's files.
            self._cells.close()
            self._cells = self._new_heap()
            self._cells.discard_files()
            self._cells.begin()
            self._paths = StoredPaths(
                self.directory / PATHS_FILENAME,
                new_lineage(),
                None,
                levels=[[] for _ in path_lattice],
            )
            self._table = None
            self._bump_version()
        return self

    @property
    def path_table(self) -> PathTable:
        """The id space the cube's cell vectors are written in.

        Loaded from ``paths.bin`` (and checked against the meta file) the
        first time a writer — an append, a ``put_cell`` — asks.  A build
        that scanned into its own table assigns it right after
        :meth:`create`, so its cells are persisted without translation.
        """
        with self._lock:
            table = self._table
            if table is None:
                self._require_built()
                table = self._table = PathTable.over(self._paths.levels())
            return table

    @path_table.setter
    def path_table(self, table: PathTable) -> None:
        with self._lock:
            if len(table.paths) != len(self._require_built()):
                raise StoreError(
                    f"path table has {len(table.paths)} levels, the cube's "
                    f"path lattice {len(self.path_lattice)}"
                )
            self._table = table
            # The table and the snapshot cells hold share the level lists.
            committed = self._paths
            self._paths = StoredPaths(
                committed.path, committed.lineage, committed.counts,
                levels=table.paths,
            )

    def _require_built(self) -> PathLattice:
        if self.path_lattice is None:
            raise StoreError(
                f"no cube has been built at {self.directory} "
                "(run `flowcube-store build` first)"
            )
        return self.path_lattice

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put_cell(self, cell: Cell) -> None:
        """Persist one cell: its multiset as a vector over the cube's path
        table, or — when it brings none — the flowgraph it has."""
        self.put_cuboid((cell,))

    def _encode(self, cells) -> list[tuple[bytes, int, bool]]:
        """``(coords, cell)`` pairs as heap ``(record, n_paths,
        redundant)`` triples.

        A record is the cell's vector in this cube's path-id space
        (:meth:`_vector`), its record ids and its exceptions; a cell
        that brings no multiset is stored as the flowgraph it has.
        """
        table = self.path_table
        encode = binfmt.encode_cell_payload
        records = []
        for (item_level, level_id, key), cell in cells:
            vector = self._vector(cell, table, level_id)
            if vector is None:
                payload = binfmt.graph_payload(
                    key, item_level.levels, level_id, cell.record_ids,
                    cell.redundant, cell.flowgraph,
                )
            else:
                payload = binfmt.cell_payload(
                    key, item_level.levels, level_id, cell.record_ids,
                    cell.redundant, cell.n_paths, vector,
                    exceptions_to_dicts(cell.exceptions),
                )
            records.append((encode(payload), cell.n_paths, cell.redundant))
        return records

    @staticmethod
    def _vector(cell: Cell, table: PathTable, level_id: int):
        """*cell*'s ``(pid, weight)`` pairs in *table*'s id space.

        A cell already counted in it (an engine cell of the build or
        append that owns the table, a cell this handle read) hands its
        vector over as it is; any other multiset — ``cell.paths``, or a
        vector over another table — is interned path by path.  ``None``
        for a cell without a multiset, or with a path the table cannot
        carry (a stage that is not a pair of ``str``).
        """
        own = table.paths[level_id]
        weights = getattr(cell, "weights", None)
        if weights is None:
            pairs = cell.paths
        else:
            theirs = cell.level_paths
            if theirs is own:
                return list(weights.items())
            pairs = [(theirs[pid], weight) for pid, weight in weights.items()]
        if not pairs:
            return None
        ids = table.ids[level_id]
        vector: dict[int, int] = {}
        for path, weight in pairs:
            pid = ids.get(path)
            if pid is None:
                if not path or any(
                    type(location) is not str or type(duration) is not str
                    for location, duration in path
                ):
                    return None
                pid = table.intern(level_id, path)
            # A weight is stored as it came (a bool or float one sends
            # the record to the verbatim fallback); a repeated path adds.
            vector[pid] = vector[pid] + weight if pid in vector else weight
        return list(vector.items())

    def put_cuboid(self, cuboid) -> None:
        """Persist every cell of an in-memory cuboid (any iterable of cells).

        One lock hold, one path-level resolution, one backend write and
        one version bump for the whole batch.
        """
        with self._lock:
            lattice = self._require_built()
            batch: list[tuple[Coords, Cell]] = []
            path_level = level_id = None
            for cell in cuboid:
                if cell.path_level is not path_level:
                    path_level = cell.path_level
                    level_id = lattice.index_of(path_level)
                batch.append(((cell.item_level, level_id, cell.key), cell))
            if not batch:
                return
            entries = self._cells.put_records(self._encode(batch))
            for ((item_level, level_id, key), _), entry in zip(batch, entries):
                self._index.setdefault((item_level, level_id), {})[key] = entry
            self._bump_version()

    # ------------------------------------------------------------------
    # incremental maintenance (delta segments)
    # ------------------------------------------------------------------
    @property
    def delta_segments(self) -> list[int]:
        """Published delta segment ids pending compaction."""
        return list(self._cells.delta_segments)

    def begin_delta(self) -> None:
        """Stage subsequent cell writes as an append-only delta segment:
        they land in ``cells.delta.NNN.bin`` instead of a rewritten
        ``cells.bin``."""
        with self._lock:
            self._require_built()
            self._cells.begin_delta()

    def merge_cells(self, cells, layout) -> None:
        """Write *cells* and swap the index to the merged *layout*.

        Args:
            cells: ``{(item_level, path-level id, key): Cell}`` — the
                dirty (updated / promoted / created) cells to persist.
            layout: Iterable of ``(item_level, path-level id, keys)``
                giving every surviving cuboid's final key order, in
                canonical cuboid order.  Keys absent from *cells* keep
                their existing index entries verbatim (zero heap IO);
                existing keys missing from *layout* are demoted.

        The swap is in-memory until :meth:`flush` publishes it.
        """
        with self._lock:
            self._require_built()
            written: dict[Coords, Entry] = dict(
                zip(cells, self._cells.put_records(self._encode(cells.items())))
            )
            new_index: dict[tuple[ItemLevel, int], dict[CellKey, Entry]] = {}
            for item_level, level_id, keys in layout:
                if not keys:
                    continue
                old_entries = self._index.get((item_level, level_id), {})
                entries: dict[CellKey, Entry] = {}
                for key in keys:
                    entry = written.get((item_level, level_id, key))
                    entries[key] = (
                        old_entries[key] if entry is None else entry
                    )
                new_index[(item_level, level_id)] = entries
            self._index = new_index
            # The catalog masks decoded from the superseded index no
            # longer describe the merged layout; drop them so catalogs
            # derive from keys until the next load maps the overlay.
            self._cells.cell_masks = {}
            self._cache.clear()
            self._bump_version()

    def compact(self, progress=None) -> int:
        """Fold pending delta segments back into a clean base heap.

        Every index entry's payload is copied byte-exact (no codec
        round-trip) into a freshly staged heap in index order, then
        published heap → ``cells.idx`` → meta, the same ordering as a
        build; the superseded segments and overlay are unlinked only
        after the meta commit.

        A compaction killed while staging leaves the delta-bearing cube
        untouched, and one killed after the meta commit leaves the
        compacted cube plus unreferenced segment files.  In between it
        is **not** crash-safe: the new heap replaces ``cells.bin`` in
        place while the committed meta still resolves through the
        overlay, whose base-heap offsets now point into the wrong file,
        so until the meta rename lands a reader gets a typed
        :class:`~repro.errors.StoreError` (corrupt cell payload) and a
        rebuild is the repair (``tests/test_publish_points.py`` pins
        the window; DESIGN §5 has the table).

        Returns the number of cells copied (0 when nothing is pending).
        """
        with self._lock:
            self._require_built()
            old = self._cells
            pending = list(old.delta_segments)
            if not pending:
                return 0
            new = self._new_heap()
            new.begin()
            total = self.n_cells()
            done = 0
            new_index: dict[tuple[ItemLevel, int], dict[CellKey, Entry]] = {}
            for coords, entries in self._index.items():
                new_index[coords] = dict(
                    zip(
                        entries,
                        new.put_records(
                            [
                                (
                                    old.record(entry),
                                    entry_n_paths(entry),
                                    entry_redundant(entry),
                                )
                                for entry in entries.values()
                            ]
                        ),
                    )
                )
                if progress is not None:
                    for step in range(done + 1, done + len(entries) + 1):
                        progress(step, total)
                done += len(entries)
            self._index = new_index
            self._cells = new
            self._cache.clear()
            if self.build_stats is not None:
                counters = self.build_stats.setdefault(
                    "append", _new_append_stats()
                )
                counters["compactions"] = (
                    int(counters.get("compactions", 0)) + 1
                )
                counters["delta_segments"] = 0
                counters["last_compaction"] = {
                    "at": datetime.now(timezone.utc).isoformat(
                        timespec="seconds"
                    ),
                    "folded_segments": len(pending),
                    "cells": done,
                }
            self.flush()
            # The heap and index paths were republished in place; only
            # release the superseded maps (the flush swept the segments).
            old.close(materialise=False)
            return done

    def flush(self, build_stats=None) -> None:
        """Publish the build: cell data first, then the meta file, atomically.

        Args:
            build_stats: Optional :class:`~repro.store.builder.BuildStats`
                of the build being flushed; its :meth:`~BuildStats.as_dict`
                snapshot (records, cells, per-phase seconds — including the
                ``exceptions`` bucket) is persisted alongside the index so
                ``flowcube-store stats`` can report it later.
        """
        with self._lock:
            lattice = self._require_built()
            if build_stats is not None:
                self.build_stats = build_stats.as_dict()
            payload = {
                "format": LAYOUT_NAME,
                "min_support": self.min_support,
                "min_deviation": self.min_deviation,
                "path_lattice": [
                    path_level_to_dict(level) for level in lattice
                ],
            }
            if self.item_levels is not None:
                payload["item_levels"] = [
                    list(level.levels) for level in self.item_levels
                ]
            payload["paths"] = self._publish_paths()
            payload.update(self._cells.finalise(self._index))
            if self.build_stats is not None:
                payload["build_stats"] = self.build_stats
            # The signature must describe *this* write, so it comes
            # from the stat publish_file took before the rename.
            stat = publish.publish_file(
                self.directory / META_FILENAME,
                json.dumps(payload, indent=1).encode("utf-8"),
            )
            self._meta_signature = (stat.st_mtime_ns, stat.st_size)
            if "delta_segments" not in payload:
                # The committed meta references no delta segments: any
                # on disk are now unreachable and safe to sweep.
                self._cells.discard_delta_files()
            self._bump_version()

    def _publish_paths(self) -> dict:
        """Publish ``paths.bin`` if this handle interned a path the file
        does not hold — before the records that name it — and return
        what the meta file commits: the lineage and per-level counts."""
        paths = self._paths
        if self._table is not None or paths.counts is None:
            levels = self.path_table.paths
            counts = [len(level) for level in levels]
            if counts != paths.counts:
                publish.publish_file(
                    paths.path, binfmt.pack_paths(paths.lineage, levels)
                )
                paths.counts = counts
        return {"lineage": paths.lineage, "counts": paths.counts}

    def _read_meta(self) -> tuple[tuple[int, int] | None, str | None]:
        """One atomic read of the meta file: ``(signature, text)``.

        Opening once and taking ``fstat`` + the content from the same
        file descriptor pins both to a single inode — a concurrent
        ``os.replace`` by another process can swap the directory entry
        between the two syscalls without desynchronising them (the old
        per-field ``stat``-then-``read_text`` pair could pair one
        build's signature with another's content).
        """
        try:
            fd = os.open(self.directory / META_FILENAME, os.O_RDONLY)
        except OSError:
            return None, None
        try:
            stat = os.fstat(fd)
            chunks = []
            while True:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            os.close(fd)
        signature = (stat.st_mtime_ns, stat.st_size)
        return signature, b"".join(chunks).decode("utf-8")

    def _load_meta(
        self,
        signature: tuple[int, int] | None = None,
        text: str | None = None,
    ) -> None:
        with self._lock:
            if text is None:
                signature, text = self._read_meta()
                if text is None:
                    raise StoreError(
                        f"no cube meta at {self.directory / META_FILENAME}"
                    )
            self._meta_signature = signature
            payload = json.loads(text)
            binfmt.check_layout_name(
                payload.get("format"),
                f"cube meta {self.directory / META_FILENAME}",
            )
            self.min_support = payload["min_support"]
            self.min_deviation = payload["min_deviation"]
            self.path_lattice = PathLattice(
                path_level_from_dict(level, self.schema.location)
                for level in payload["path_lattice"]
            )
            self.build_stats = payload.get("build_stats")
            raw_levels = payload.get("item_levels")
            self.item_levels = (
                None
                if raw_levels is None
                else [ItemLevel(levels) for levels in raw_levels]
            )
            committed = payload.get("paths") or {}
            self._paths = StoredPaths(
                self.directory / PATHS_FILENAME,
                committed.get("lineage"),
                committed.get("counts"),
            )
            self._table = None
            self._cells.close()
            self._cells = self._new_heap()
            self._cache.clear()
            self._index = self._cells.load(payload)
            self._bump_version()

    def maybe_reload(self) -> bool:
        """Re-read the meta file when another process rewrote it.

        A long-lived server holds its handle open while CLI invocations
        may rebuild the cube underneath it; comparing the meta file's
        ``(mtime_ns, size)`` signature against the one last seen detects
        that cheaply.  The signature and the content are taken from one
        file descriptor (:meth:`_read_meta`), so the comparison and the
        subsequent parse always describe the same on-disk build.
        Reloading bumps :attr:`version`, so every subscribed cache
        invalidates.  Returns whether a reload happened.
        """
        with self._lock:
            signature, text = self._read_meta()
            if text is None or signature == self._meta_signature:
                return False
            self._load_meta(signature, text)
            return True

    def close(self) -> None:
        """Release every backend file handle and map (idempotent).

        Unlike a reload (which decodes still-referenced lazy masks out
        of the index map before dropping it), a final close drops the
        maps outright — subsequent mask or heap reads raise
        :class:`~repro.errors.StoreError`.  The handle itself stays
        usable: the next :meth:`maybe_reload` / :meth:`_load_meta`
        reopens the files.
        """
        with self._lock:
            self._cells.close(materialise=False)
            self._cache.clear()

    def __enter__(self) -> "CubeStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def io_counters(self) -> dict[str, int]:
        """Snapshot of the backend's read-path telemetry.

        ``heap_bytes_read`` counts payload bytes pulled out of
        ``cells.bin``; ``mask_bits_decoded`` counts catalog bitmaps
        decoded from the ``cells.idx`` map.  Both stay zero across a
        cold open.
        ``cells_decoded`` counts cells whose measure was decoded (first
        touch of a :class:`StoredCell`): a cell can be *read* — its
        bytes copied, ``heap_bytes_read`` moved — and never decoded.
        """
        return dict(self._cells.io_counters)

    # ------------------------------------------------------------------
    # reads (cache-fronted; the measure decodes on first touch)
    # ------------------------------------------------------------------
    def cell(
        self, item_level: ItemLevel, key: CellKey, path_level: PathLevel
    ) -> Cell:
        """The cell at the coordinates, read through the cache."""
        return self.cuboid_cells(item_level, path_level, (key,))[0]

    def cuboid_cells(
        self,
        item_level: ItemLevel,
        path_level: PathLevel,
        keys: Iterable[CellKey],
    ) -> list[Cell]:
        """The cells of one cuboid at *keys*, in order, through the cache.

        One lock hold and one cuboid resolution for the whole batch.
        Each cell not in the cache is a :class:`StoredCell` over the
        record bytes copied out here, under the lock — whatever happens
        to the heap afterwards, the cell decodes this read's measure.
        """
        with self._lock:
            lattice = self._require_built()
            level_id = lattice.index_of(path_level)
            entries = self._index.get((item_level, level_id))
            if entries is None:
                raise CubeError(
                    f"cuboid ⟨{item_level.levels!r}, ...⟩ is not materialised"
                )
            cache = self._cache
            record = self._cells.record
            counters = self._cells.io_counters
            paths = self._paths
            cells: list[Cell] = []
            for key in keys:
                coords: Coords = (item_level, level_id, key)
                cell = cache.get(coords)
                if cell is None:
                    entry = entries.get(key)
                    if entry is None:
                        raise CubeError(
                            f"cell {key!r} is not materialised in cuboid "
                            f"{item_level.levels!r}"
                        )
                    cell = StoredCell(
                        key,
                        item_level,
                        path_level,
                        entry_n_paths(entry),
                        entry_redundant(entry),
                        record(entry),
                        counters,
                        paths,
                        level_id,
                    )
                    cache.put(coords, cell)
                cells.append(cell)
            return cells

    def has_cuboid(self, item_level: ItemLevel, path_level: PathLevel) -> bool:
        lattice = self._require_built()
        return (item_level, lattice.index_of(path_level)) in self._index

    def cuboid(
        self, item_level: ItemLevel, path_level: PathLevel
    ) -> StoredCuboid:
        lattice = self._require_built()
        coords = (item_level, lattice.index_of(path_level))
        entries = self._index.get(coords)
        if entries is None:
            raise CubeError(
                f"cuboid ⟨{item_level.levels!r}, ...⟩ is not materialised"
            )
        return StoredCuboid(
            self,
            item_level,
            path_level,
            tuple(entries),
            value_masks=self._cells.cell_masks.get(coords),
        )

    @property
    def version(self) -> int:
        """Index mutation counter (invalidation token for memoised views)."""
        return self._version

    @property
    def build_version(self) -> str | None:
        """The persisted build's short content digest, when recorded.

        Sourced from the :class:`~repro.store.builder.BuildStats` snapshot
        flushed with the cube; ``None`` for cubes built before build
        metadata existed.
        """
        if self.build_stats is None:
            return None
        return self.build_stats.get("version")

    def cell_sizes(
        self, item_level: ItemLevel, path_level: PathLevel
    ) -> dict[CellKey, int]:
        """Per-cell ``n_paths`` of one cuboid, from the index (no file IO)."""
        lattice = self._require_built()
        entries = self._index.get((item_level, lattice.index_of(path_level)))
        if entries is None:
            raise CubeError(
                f"cuboid ⟨{item_level.levels!r}, ...⟩ is not materialised"
            )
        return {key: entry_n_paths(entry) for key, entry in entries.items()}

    @property
    def cuboids(self) -> tuple[StoredCuboid, ...]:
        with self._lock:
            lattice = self._require_built()
            cached = self._cuboids_cache
            if cached is not None and cached[0] == self._version:
                return cached[1]
            cuboids = tuple(
                StoredCuboid(
                    self,
                    item_level,
                    lattice[level_id],
                    tuple(entries),
                    value_masks=self._cells.cell_masks.get(
                        (item_level, level_id)
                    ),
                )
                for (item_level, level_id), entries in self._index.items()
            )
            self._cuboids_cache = (self._version, cuboids)
            return cuboids

    def cells(self) -> Iterator[Cell]:
        """Every persisted cell, read through the cache."""
        for cuboid in self.cuboids:
            yield from cuboid

    def n_cells(self) -> int:
        """Number of persisted cells (from the index, no file IO)."""
        return sum(len(entries) for entries in self._index.values())

    # ------------------------------------------------------------------
    # redundancy-aware access (mirrors FlowCube)
    # ------------------------------------------------------------------
    def parent_cells(self, cell: Cell) -> list[Cell]:
        """The cell's materialised item-lattice parents (Definition 4.4)."""
        hierarchies = self.schema.dimensions
        lattice = self._require_built()
        level_id = lattice.index_of(cell.path_level)
        parents: list[Cell] = []
        for dim, level in enumerate(cell.item_level):
            if level == 0:
                continue
            raised = list(cell.item_level.levels)
            raised[dim] = level - 1
            parent_level = ItemLevel(raised)
            parent_key = tuple(
                hierarchies[i].ancestor_at_level(value, parent_level[i])
                for i, value in enumerate(cell.key)
            )
            entries = self._index.get((parent_level, level_id))
            if entries is not None and parent_key in entries:
                parents.append(
                    self.cell(parent_level, parent_key, cell.path_level)
                )
        return parents

    def flowgraph_for(
        self, item_level: ItemLevel, key: CellKey, path_level: PathLevel
    ):
        """The cell's flowgraph, inferring from ancestors when redundant."""
        cell = self.cell(item_level, key, path_level)
        while cell.redundant:
            parents = [p for p in self.parent_cells(cell) if not p.redundant]
            if not parents:
                parents = self.parent_cells(cell)
            if not parents:
                break
            cell = max(parents, key=lambda c: c.n_paths)
        return cell.flowgraph

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, float | int]:
        """The read cache's hit/miss/eviction counters."""
        return self._cache.stats()

    def describe(self) -> dict[str, object]:
        """Summary statistics for reporting."""
        out: dict[str, object] = {
            "built": self.is_built,
            "format": LAYOUT_NAME,
            "cuboids": len(self._index),
            "cells": self.n_cells(),
            "min_support": self.min_support,
            "min_deviation": self.min_deviation,
            "cache": self.cache_stats(),
        }
        if self.is_built:
            out["delta_segments"] = len(self.delta_segments)
            out["io"] = self.io_counters()
            # The path table the records name, from the meta file and a
            # stat — describing a cube does not load it.
            try:
                table_bytes = self._paths.path.stat().st_size
            except OSError:
                table_bytes = 0
            out["paths"] = {
                "per_level": self._paths.counts,
                "bytes": table_bytes,
            }
        if self.build_stats is not None:
            out["version"] = self.build_version
            out["build_stats"] = self.build_stats
        return out
