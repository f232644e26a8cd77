"""The lazy on-disk flowcube store.

A :class:`CubeStore` persists a materialised flowcube *item cell by item
cell* — an (item level, key) and its cells at every path level::

    cube/
      cube.json               δ/ε, the path lattice, build provenance,
                              "generation" g and the "files" it commits
      paths[.G].bin           the aggregated paths the cell records name
      cells[.G].bin           slot 0: a whole heap of length-prefixed
                              item-cell records (a build's or a compaction's)
      cells.delta.G.bin       slot n ≥ 1: the item cells an append rewrote
      cells[.delta].G.idx     columnar key/offset index (binfmt codec)

**One rule** (DESIGN §5 "Crash consistency"): ``cube.json`` is the only
name in ``cube/`` a writer ever replaces.  Every other file is published
once, under a name :func:`cube_filename` stamps with the generation *G*
of the flush that wrote it, and ``cube.json`` lists the live ones
(``"files"``).  Every flush — build, rebuild, append, compaction — is
one sequence under the store's :class:`~repro.publish.WriterLock`: draw
*G*, publish path table if it grew → segment if staged → index →
``cube.json`` (the commit), then :meth:`_HeapCells.sweep` unlinks what
the commit does not list.  A writer killed anywhere leaves the old cube
or the new one; a reader that loses the race with a sweep reloads.

A cell's members, key and iceberg test depend on its item level and key
alone (Definitions 4.1 and 4.5), and its paths at every path level are a
function of its records' raw paths, so the heap holds one ``FCHEAP07``
record per item cell — its record ids and its one ``(joint id, weight)``
vector once, under a CRC-32
(:func:`~repro.store.binfmt.encode_cell_payload`) — and the index one
entry: key, ``n_paths``, the record's extent, one ``redundant`` mark per
path level, and one set of catalog masks per item cuboid.  No flowgraph
and no coordinate is in a record; its joint ids resolve through the
cube's path table (``paths.bin``: every level's paths and the columns
that map a joint id to each), loaded at the first multiset a reader
asks for.  The index is one packed, mmap'd arena: an open reads zero
heap bytes, and the masks stay lazy byte spans until a query ANDs them.
This is the only layout the store reads or writes: a ``cube.json``
naming another ``"format"`` (or none), an index, a heap or a path table
with a retired generation's magic is a :class:`~repro.errors.StoreError`,
never decoded.  Writes take whole item cells
(:meth:`CubeStore.put_cuboid`, :meth:`CubeStore.merge_cells`).  A read
at path level *L* hands out a :class:`~repro.core.flowcube.Cell` — the
one cell class — with the index fields (key, levels, ``n_paths``, level
*L*'s ``redundant`` mark) plus a copy of the record and a
:class:`_RecordLoader`: ``record_ids`` and ``vector`` decode together at
the first touch of either, ``weights`` maps the vector to level *L*
through the path table, and ``flowgraph`` expands from that — slicing
decodes nothing.  No record holds an exception: ``cube.json`` records
whether the cube was built with them, and a cell of such a cube mines its
own at the first read of its graph.  A bounded :class:`~repro.store.cache.LRUCache` fronts
every read.

The store exposes the same lookup surface as
:class:`~repro.core.flowcube.FlowCube` (``schema`` / ``cuboid`` /
``cell`` / ``cuboids``), so :class:`~repro.query.api.FlowCubeQuery` and
:mod:`repro.core.redundancy`'s inference work over either without caring
which one they were given.

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
from itertools import compress
from operator import itemgetter
from pathlib import Path as FsPath

from repro.core.flowcube import Cell, CellKey
from repro.core.lattice import ItemLevel, PathLattice, PathLevel
from repro.core.path_database import PathSchema
from repro.core.serialization import path_level_from_dict, path_level_to_dict
from repro import publish
from repro.errors import CubeError, MissingFileError, StoreError
from repro.perf.measure_rollup import PathTable
from repro.store import binfmt
from repro.store.binfmt import HEAP_LENGTH_STRUCT, HEAP_MAGIC, LAYOUT_NAME
from repro.store.cache import LRUCache

__all__ = ["CubeStore", "StoredCuboid"]

META_FILENAME = "cube.json"
#: Generation 0's heap — and the alias :meth:`_HeapCells.sweep` leaves.
HEAP_FILENAME = "cells.bin"
#: What a writer's files start with (never ``query_stats.json``: the
#: serving processes publish that one, concurrently and unlocked).
WRITER_PREFIXES = ("cells.", "paths.")


def cube_filename(stem: str, suffix: str, generation: int) -> str:
    """The one name *generation* may publish a cube file under.

    *stem* is ``paths`` (the path table), ``cells`` (a whole heap, or
    the index while slot 0 is the only segment) or ``cells.delta`` (an
    append's segment, or the index while one is live).  Generation 0 is
    unstamped: ``paths.bin`` / ``cells.bin`` / ``cells.idx``.
    """
    if generation == 0:
        return stem + suffix
    return f"{stem}.{generation:06d}{suffix}"


def name_generation(name: str) -> int:
    """The generation a published cube file's *name* carries."""
    return next((int(part) for part in name.split(".") if part.isdigit()), 0)


def read_meta(directory: FsPath) -> tuple[tuple[int, int] | None, str | None]:
    """One atomic read of *directory*'s meta file: ``(signature, text)``.

    ``fstat`` and the content come from one file descriptor, so both
    describe a single inode — a concurrent ``os.replace`` can swap the
    directory entry between the two without pairing one build's
    signature with another's content.
    """
    try:
        fd = os.open(directory / META_FILENAME, os.O_RDONLY)
    except OSError:
        return None, None
    try:
        stat = os.fstat(fd)
        chunks = []
        while chunk := os.read(fd, 1 << 20):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return (stat.st_mtime_ns, stat.st_size), b"".join(chunks).decode("utf-8")


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

#: An item cell's coordinates — and its one index entry's — at every path level.
Coords = tuple[ItemLevel, CellKey]

#: An index entry: ``(heap offset, record length, n_paths, redundant)``,
#: the offset's high bits naming the delta segment
#: (:func:`~repro.store.binfmt.pack_segment_offset`) and *redundant*
#: holding one mark per path level.
Entry = tuple[int, int, int, tuple[bool, ...]]

#: The item cell's path count, as the index entry records it.
entry_n_paths = itemgetter(2)
#: The item cell's redundancy marks, one per path level.
entry_redundant = itemgetter(3)

#: A committed cube as a reload compares it: its index, its live
#: slot -> heap file listing and its path table's lineage.
Served = tuple[dict, dict[int, str], int | None]


def changed_coords(before: Served, after: Served) -> frozenset[Coords] | None:
    """The item cells whose cells *after* does not serve as *before* did.

    Added, removed and rewritten item cells, by extent identity: an item
    cell is unchanged when its entry sits in a slot both listings map to
    the same file — files are immutable, and a writer either carries an
    entry verbatim or writes the item cell into the slot its flush adds.
    ``None`` (everything) for another lineage (a rebuild) or another
    slot-0 heap (a compaction), or when the item cuboids kept do not keep
    their order.  An item cuboid whose surviving keys change order counts
    whole: a slice lists its cells in that order.  One pass of set
    operations per item cuboid; no record is read.
    """
    old_index, old_slots, old_lineage = before
    index, slots, lineage = after
    last = max(old_slots, default=-1)
    if (
        lineage != old_lineage
        or any(slots.get(slot) != name for slot, name in old_slots.items())
        or any(slot < last for slot in slots.keys() - old_slots.keys())
    ):
        return None
    kept = [level for level in index if level in old_index]
    if kept != [level for level in old_index if level in index]:
        return None
    # Every slot *before* did not list comes after its last one, so an
    # entry at or past this packed offset is in a file it did not list.
    fresh = (binfmt.pack_segment_offset(last + 1, 0),)
    changed: set[Coords] = set()
    for item_level, entries in index.items():
        old = old_index.get(item_level, {})
        dirty = set(compress(entries, map(fresh.__le__, entries.values())))
        if len(entries) != len(old) or not dirty <= old.keys():
            # Keys came (fresh already: a flush since wrote them) or went.
            dirty |= old.keys() - entries.keys()
            survivors = list(filter(old.__contains__, entries))
            if survivors != list(filter(entries.__contains__, old)):
                dirty = entries.keys() | old.keys()
        changed.update((item_level, key) for key in dirty)
    for item_level in old_index.keys() - index.keys():
        changed.update((item_level, key) for key in old_index[item_level])
    return frozenset(changed)


def _new_io_counters() -> dict[str, int]:
    """Fresh read-path telemetry (see :meth:`CubeStore.io_counters`)."""
    return {"heap_bytes_read": 0, "mask_bits_decoded": 0, "cells_decoded": 0}


class _Segment:
    """One heap file: a whole heap (slot 0) or an append's delta.

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
        """Frame ``(record, n_paths, redundant)`` item-cell records and
        append them as one joined buffer.

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
            entries.append((tag | position, length, n_paths, redundant))
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
                if self.path.is_symlink():
                    # Listed files are regular files.  This is the alias
                    # a sweep left where a generation-0 heap was: to the
                    # superseded meta that lists the name, a swept file.
                    raise MissingFileError(f"{what} {self.path} is missing")
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
    """The cube's files: heap segments, the mmap'd index, their names.

    The *slot* packed into every index entry is the only thing that
    tells heap files apart, and ``cube.json`` maps each live slot to a
    file, so the backend is that listing plus at most one segment being
    written; a load, a rebuild and a compaction each start from a fresh
    object.  Writes append length-prefixed payloads — a whole batch of
    cells as one joined buffer — to the staged segment: slot 0 for a
    build or a compaction, the next free slot for an append
    (:meth:`begin_delta`, which a write to a published cube implies).
    Every name comes from :meth:`fresh_name`, so nothing published is
    ever replaced; :meth:`finalise` publishes segment → index, the
    caller the meta file — the commit point — and :meth:`sweep` follows.

    A cold open touches the index file only, which is itself mmap'd
    with the catalog masks left as
    :class:`~repro.store.binfmt.LazyMaskMap` spans.  ``io_counters``
    tallies heap bytes read, mask bitmaps decoded and cells decoded;
    the first two stay zero across an open.
    """

    def __init__(
        self, directory: FsPath, n_dims: int, writer: publish.WriterLock
    ) -> None:
        self.directory = directory
        self.n_dims = n_dims
        self.writer = writer
        #: The generation the meta file last read or written commits
        #: (-1: none), and the one drawn for the pending flush, if any.
        self.generation = -1
        self._drawn: int | None = None
        #: What that meta lists (its ``"files"``): the index, the path
        #: table, and live slot -> heap file.
        self.files: dict = {"index": None, "paths": None, "segments": {}}
        #: slot -> heap file object; published ones are registered, and
        #: mapped, on first read.
        self._segments: dict[int, _Segment] = {}
        #: The staged segment writes go to, if any (also in _segments).
        self._writing: _Segment | None = None
        self._index_mmap: mmap.mmap | None = None
        self._mask_arena: binfmt.MaskArena | None = None
        #: item level -> per-dimension catalog masks for every path level:
        #: lazy mmap-backed views handed out by :meth:`load`.
        self.cell_masks: dict = {}
        #: Read-path telemetry (shared with the mask arena and with
        #: every :class:`_RecordLoader` of a read through this backend).
        self.io_counters = _new_io_counters()

    @property
    def delta_segments(self) -> list[int]:
        """Live delta slots (≥ 1), in append order."""
        return sorted(slot for slot in self.files["segments"] if slot)

    def fresh_name(self, stem: str, suffix: str) -> str:
        """A name never used in this directory.  The first call of a
        flush takes the writer lock and draws the generation: one past
        the highest committed *or on disk*, so a killed writer's
        uncommitted files keep their names until a sweep removes them."""
        self.writer.acquire()
        if self._drawn is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._drawn = 1 + max(
                [self.generation]
                + [
                    name_generation(name)
                    for name in os.listdir(self.directory)
                    if name.startswith(WRITER_PREFIXES)
                    and not name.endswith(".tmp")
                ]
            )
        return cube_filename(stem, suffix, self._drawn)

    def _segment(self, segment_id: int) -> _Segment:
        segment = self._segments.get(segment_id)
        if segment is None:
            name = self.files["segments"].get(segment_id)
            if name is None:
                raise StoreError(
                    f"the cube meta in {self.directory} lists no heap "
                    f"segment {segment_id}; rebuild the cube"
                )
            segment = self._segments[segment_id] = _Segment(
                self.directory / name, segment_id
            )
        return segment

    def stage(self, segment_id: int) -> None:
        """Open slot *segment_id* for writing (the one place a heap file is)."""
        name = self.fresh_name("cells.delta" if segment_id else "cells", ".bin")
        self._writing = self._segments[segment_id] = _Segment(
            self.directory / name, segment_id, stage=True
        )

    def begin_delta(self) -> int:
        """Start an append-only delta segment — a staged
        ``cells.delta.G.bin`` beside the heap it amends; one already being
        written is joined, not restarted.  Returns the segment's slot."""
        if self._writing is not None:
            if self._writing.segment_id == 0:
                raise StoreError(
                    "cannot stage a delta segment while a full heap "
                    "rebuild is in progress"
                )
            return self._writing.segment_id
        # Refuse to append to a heap this release cannot read.
        self._segment(0).view()
        self.stage(max(self.files["segments"]) + 1)
        return self._writing.segment_id

    def put_records(self, records) -> list[Entry]:
        """Byte-exact append of encoded ``(record, n_paths, redundant)``
        triples in one write — to a fresh delta segment when nothing is
        staged, so mutating a published cube costs O(dirty item cells)."""
        if not records:
            return []  # nothing to write: do not stage a segment
        if self._writing is None:
            self.begin_delta()
        return self._writing.append(records)

    def record(self, entry: Entry) -> bytes:
        """A copy of the entry's item-cell record — the bytes
        :func:`~repro.store.binfmt.decode_cell_parts` takes — verbatim."""
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

    def finalise(self, index, paths_name: str, n_levels: int) -> dict:
        """Publish the staged segment (if any) and the full index, each
        under a fresh name; return the meta fields that commit them.

        The records an index addresses are on disk before the index is.
        A whole heap (slot 0) supersedes every live segment; an append's
        joins them.  Nothing the previous meta lists is touched:
        :meth:`sweep` unlinks it *after* the caller's commit.
        """
        blob = binfmt.pack_cell_index(
            (
                (
                    item_level.levels,
                    ((key, *entry) for key, entry in entries.items()),
                )
                for item_level, entries in index.items()
            ),
            self.n_dims,
            n_levels,
        )
        segment, self._writing = self._writing, None
        segments = self.files["segments"]
        if segment is not None:
            segment.publish()
            live = segments if segment.segment_id else {}
            segments = {**live, segment.segment_id: segment.path.name}
        stem = "cells.delta" if any(segments) else "cells"
        self.files = {
            "index": self.fresh_name(stem, ".idx"),
            "paths": paths_name,
            "segments": segments,
        }
        publish.publish_file(self.directory / self.files["index"], blob)
        return {
            "n_cells": n_levels * sum(map(len, index.values())),
            "generation": self._drawn,
            "files": self.files,
        }

    def sweep(self) -> None:
        """After the commit: unlink every writer's file — ``cells.*``,
        ``paths.*``, a dead writer's ``*.tmp`` — the meta does not list.
        The lock is still held, so whatever else is here belongs to a
        superseded generation or to a writer that died."""
        self.generation, self._drawn = self._drawn, None
        files = self.files
        listed = {files["index"], files["paths"], *files["segments"].values()}
        for name in os.listdir(self.directory):
            if name not in listed and (
                name.startswith(WRITER_PREFIXES)
                or (name.startswith(META_FILENAME) and name.endswith(".tmp"))
            ):
                (self.directory / name).unlink(missing_ok=True)
        alias = self.directory / HEAP_FILENAME
        if not self.delta_segments and not os.path.lexists(alias):
            # The frozen benchmarks/flowbench/layers.py stats cube/cells.bin
            # for a compacted heap's size; nothing in src/ opens the alias.
            alias.symlink_to(files["segments"][0])

    def load(self, payload: dict, n_levels: int):
        """Rebuild the whole index from the listed index file — zero
        heap IO.

        The index file is mmap'd and stays mapped: keys and entries are
        decoded eagerly (cheap columnar ``zip`` passes), while the
        catalog masks remain byte spans over the map, each bitmap
        decoded the first time a query ANDs it.  Slot-tagged entries
        resolve through the listed segments' maps on first touch.
        """
        files = payload.get("files")
        if files is None:
            raise StoreError(
                f"cube meta {self.directory / META_FILENAME} lists no "
                "files: its cube was written in place (the last release "
                f"that did is PR 26); remove {self.directory} and "
                "rebuild the cube"
            )
        self.generation = int(payload["generation"])
        slots = {int(slot): name for slot, name in files["segments"].items()}
        self.files = {**files, "segments": slots}
        self._index_mmap = binfmt.map_file(
            self.directory / files["index"], "cell index"
        )
        self._mask_arena = binfmt.MaskArena(
            self._index_mmap, self.io_counters
        )
        index: dict[ItemLevel, dict[CellKey, Entry]] = {}
        self.cell_masks = {}
        for levels, keys, entries, masks in binfmt.unpack_cell_index(
            self._index_mmap, self._mask_arena, n_levels
        ):
            item_level = ItemLevel(levels)
            index[item_level] = dict(zip(keys, entries))
            self.cell_masks[item_level] = masks
        return index

    def close(self, materialise: bool = True) -> None:
        """Release every map and handle; abandon a staged segment.

        With *materialise* (the reload path), masks still referenced by
        live catalogs are decoded out of the index map before it is
        closed, so an in-flight query keeps answering; a final
        (user-initiated) close passes False and later mask reads raise.
        """
        segments, self._segments = self._segments, {}
        self._writing = self._drawn = None
        for segment in segments.values():
            segment.close()
        arena, self._mask_arena = self._mask_arena, None
        if arena is not None:
            arena.close(materialise)
        if self._index_mmap is not None:
            self._index_mmap.close()
            self._index_mmap = None


def new_lineage() -> int:
    """The number a fresh cube's files are tied together by."""
    return int.from_bytes(os.urandom(7), "little")


class StoredPaths:
    """A cube's path table the way its meta file commits it.

    ``cube.json`` names the table by the *lineage* its ``create()`` drew
    (appends and compactions keep it, a rebuild draws a new one), by the
    per-level path *counts* and by the number of joint ids (*n_joint*)
    its cell records may reference.  The file is read, and all three are
    checked, the first time a cell maps its vector — never at open — and
    a table of another build, or one shorter than committed, is a
    :class:`~repro.errors.StoreError` rather than a wrong graph.  A
    *longer* table is the same cube: ids are first-seen and an append
    only ever extends the table — into a new file, so once this one is
    swept the one the committed meta lists *now*, if of the same lineage,
    stands in for it.
    """

    def __init__(
        self, path: FsPath, lineage: int | None, counts, n_joint,
        table: PathTable | None = None,
    ) -> None:
        self.path = path
        self.lineage = lineage
        self.counts = counts
        self.n_joint = n_joint
        self._table = table

    @property
    def loaded(self) -> bool:
        """Whether :meth:`table` has been read (or handed in)."""
        return self._table is not None

    def table(self) -> PathTable:
        """The :class:`PathTable` over the file's lists, loading on first
        use; its reverse maps wait for a writer."""
        table = self._table
        if table is None:
            if self.lineage is None:
                raise StoreError(
                    f"cube meta beside {self.path} names no path table; "
                    "rebuild the cube"
                )
            with self._map() as mapped:
                try:
                    lineage, levels, joint = binfmt.unpack_paths(mapped)
                except StoreError as exc:
                    raise StoreError(f"{exc} ({self.path})") from None
            if lineage != self.lineage:
                raise StoreError(
                    f"path table {self.path} belongs to another build of "
                    f"the cube (lineage {lineage}, cube meta says "
                    f"{self.lineage}): a rebuild is in progress or was "
                    "interrupted — rebuild the cube"
                )
            n_joint = len(joint[0]) if joint else 0
            if (
                len(levels) != len(self.counts)
                or any(
                    len(paths) < count
                    for paths, count in zip(levels, self.counts)
                )
                or n_joint < (self.n_joint or 0)
            ):
                raise StoreError(
                    f"path table {self.path} holds "
                    f"{[len(paths) for paths in levels]} paths per level "
                    f"and {n_joint} joint ids, fewer than the "
                    f"{list(self.counts)} and {self.n_joint} the cube meta "
                    "commits; rebuild the cube"
                )
            table = self._table = PathTable.over(levels, joint)
        return table

    def _map(self) -> mmap.mmap:
        """The table's file, or its successor's when a writer swept it."""
        while True:
            try:
                return binfmt.map_file(self.path, "path table")
            except MissingFileError:
                _, text = read_meta(self.path.parent)
                if text is None:
                    raise
                payload = json.loads(text)
                name = payload.get("files", {}).get("paths", self.path.name)
                lineage = payload["paths"]["lineage"]
                if name == self.path.name or lineage != self.lineage:
                    raise
                self.path = self.path.with_name(name)


class _RecordLoader:
    """How the cells of one cuboid read decode the item-cell record each
    (a :class:`~repro.core.flowcube.Cell`) copied out under the store lock.

    :meth:`vector` decodes the ids and the item cell's joint vector (no
    path table, no graph), :meth:`table` is the path table the vector's
    ids index, and ``counters`` is the backend's telemetry, where a cell
    that expands its graph counts ``cells_decoded``.  It holds the path
    table the records name, so a cell decodes the same measure after the
    store has reloaded, appended, compacted or closed.  Two threads
    racing on a first touch both decode equal measures
    (``cells_decoded``, unguarded telemetry, may then read one short).
    """

    __slots__ = ("paths", "counters")

    def __init__(self, paths: StoredPaths, counters: dict[str, int]) -> None:
        self.paths = paths
        self.counters = counters

    def vector(self, record: bytes) -> tuple[tuple[int, ...], dict[int, int]]:
        return binfmt.decode_cell_parts(record)

    def table(self) -> PathTable:
        return self.paths.table()


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
        #: Whether the cells mine (ε, δ) exceptions at first read
        #: (``cube.json``'s ``"exceptions"``).
        self.compute_exceptions = False
        self.path_lattice: PathLattice | None = None
        #: The item levels the build materialised (``None`` for cubes
        #: persisted before this was recorded = the full item lattice).
        #: Appends need it to know which cuboids a promotion may enter.
        self.item_levels: list[ItemLevel] | None = None
        #: :meth:`BuildStats.as_dict` snapshot of the build that produced
        #: the persisted cube, when the builder passed one to :meth:`flush`.
        self.build_stats: dict | None = None
        #: The committed path table (file, lineage, counts) and, once
        #: loaded, the id space readers map through and writers intern
        #: into; ``None`` until a cube is created or loaded.
        self._paths: StoredPaths | None = None
        #: Held from the first staged byte to the sweep after the commit;
        #: the lockfile sits at the store root, beside ``catalog.json``.
        self._writer = publish.WriterLock(self.directory.parent)
        self._cells = self._new_heap()
        self._cache: LRUCache = LRUCache(cache_size)
        #: item level -> {cell key -> index entry}, one per item cell.
        self._index: dict[ItemLevel, dict[CellKey, Entry]] = {}
        #: Bumped on every index mutation; memoised views (the ``cuboids``
        #: tuple here, key catalogs and cached answers in the query layer)
        #: key off it to invalidate.
        self._version = 0
        self._cuboids_cache: tuple[int, tuple[StoredCuboid, ...]] | None = None
        #: Serialises reads/mutations so concurrent server workers can
        #: share one handle — the LRU's OrderedDict is not thread-safe.
        self._lock = threading.RLock()
        #: Invalidation listeners, called with the new version and the
        #: changed coordinates on every index mutation (the serving
        #: layer's per-tenant caches hook in).
        self._subscribers: list[Callable[[int, frozenset | None], None]] = []
        #: (st_mtime_ns, st_size) of the meta file last read or written;
        #: :meth:`maybe_reload` compares against disk to notice rebuilds
        #: flushed by *other* processes (e.g. the CLI under a server).
        self._meta_signature: tuple[int, int] | None = None
        #: The committed cube this handle serves, as the last load or
        #: flush left it; ``None`` from an in-process write to its flush.
        self._served: Served | None = None
        signature, text = read_meta(self.directory)
        if text is not None:
            self._load_meta(signature, text)

    def _new_heap(self) -> _HeapCells:
        """A fresh backend object (its own maps, handles and counters)."""
        return _HeapCells(self.directory, self.schema.n_dimensions, self._writer)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        """Whether a build has ever written (and flushed) into this store."""
        return self.path_lattice is not None

    def _bump_version(self, changed: frozenset[Coords] | None = None) -> None:
        """Advance the mutation counter and push it, with the coordinates
        that changed (``None``: any may have), to every subscriber."""
        self._version += 1
        for callback in tuple(self._subscribers):
            callback(self._version, changed)

    def subscribe(
        self, callback: Callable[[int, frozenset[Coords] | None], None]
    ) -> None:
        """Register ``callback(version, changed)`` to run on mutation.

        The serving layer's per-tenant caches key their entries off
        :attr:`version` already; the push lets them drop stale entries
        eagerly instead of leaking them until LRU pressure — and, after a
        reload, carry the rest over.  *changed* is the set of ``(item
        level, key)`` item cells (their cells at every path level) a reload
        found added, removed or rewritten (:func:`changed_coords`), or
        ``None`` when any cell may differ: an in-process write, a rebuild,
        a compaction.  Callbacks run under the store lock, before any read
        of the new version can start.
        """
        self._subscribers.append(callback)

    def unsubscribe(
        self, callback: Callable[[int, frozenset[Coords] | None], None]
    ) -> None:
        """Remove a previously registered invalidation listener."""
        self._subscribers.remove(callback)

    def create(
        self,
        path_lattice: PathLattice,
        min_support: float,
        min_deviation: float,
        item_levels=None,
        compute_exceptions: bool = False,
    ) -> "CubeStore":
        """Start a fresh cube in this handle; the one on disk stands,
        untouched, until :meth:`flush` commits this one over it.

        Args:
            item_levels: The item levels this build materialises;
                persisted so later appends know the cube's extent.
            compute_exceptions: Whether the cube has (ε, δ) exceptions,
                which its cells mine when first read; persisted beside
                δ and ε.
        """
        with self._lock:
            cells = self._new_heap()
            cells.stage(0)  # takes the writer lock, or refuses, first
            self._cells.close()
            self._cells = cells
            self.path_lattice = path_lattice
            self.min_support = min_support
            self.min_deviation = min_deviation
            self.compute_exceptions = compute_exceptions
            self.item_levels = (
                None if item_levels is None else list(item_levels)
            )
            self.build_stats = None
            self._index.clear()
            self._served = None
            self._cache.clear()
            self._paths = StoredPaths(
                self.directory / self._cells.fresh_name("paths", ".bin"),
                new_lineage(),
                None,
                None,
                table=PathTable(len(path_lattice)),
            )
            self._bump_version()
        return self

    @property
    def path_table(self) -> PathTable:
        """The id space the cube's cell vectors are written in — the same
        table the cells this handle reads map their vectors through.

        Loaded from ``paths.bin`` (and checked against the meta file) the
        first time a cell or a writer — an append, a ``put_cuboid`` —
        asks.  A build that scanned into its own table assigns it right
        after :meth:`create`, so its cells are persisted without
        translation.
        """
        with self._lock:
            self._require_built()
            return self._paths.table()

    @path_table.setter
    def path_table(self, table: PathTable) -> None:
        with self._lock:
            if len(table.paths) != len(self._require_built()):
                raise StoreError(
                    f"path table has {len(table.paths)} levels, the cube's "
                    f"path lattice {len(self.path_lattice)}"
                )
            committed = self._paths
            self._paths = StoredPaths(
                committed.path, committed.lineage, committed.counts,
                committed.n_joint, table=table,
            )

    @property
    def mining(self) -> tuple[float, float] | None:
        """The ``(δ, ε)`` a cell of this cube mines its exceptions with at
        first read, or ``None`` when the cube has none (as on a
        :class:`~repro.core.flowcube.FlowCube`)."""
        if not self.compute_exceptions:
            return None
        return self.min_support, self.min_deviation

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
    def _encode(self, cells) -> dict[Coords, tuple[bytes, int, tuple]]:
        """Whole item cells as heap ``(record, n_paths, redundant marks)``
        triples by ``(item level, key)``, in first-seen order — the one
        write door.  The store keeps an item cell as one record, so
        *cells* must hold, per key, one :class:`Cell` at each path level
        of the lattice, agreeing on ``record_ids`` and ``n_paths`` and
        sharing one joint vector; the record is those ids and that vector
        once, in this cube's path-id space (:meth:`_vector`).  Another shape, an object that is not a
        :class:`Cell`, a key part that is not a ``str``, a key or item
        level of another width than the schema's, an ``n_paths`` that is
        not a non-negative ``int`` or a ``redundant`` that is not a
        ``bool`` is a :class:`~repro.errors.StoreError`, before a byte is
        written."""
        lattice = self._require_built()
        items: dict[Coords, list] = {}
        path_level = level_id = None
        for cell in cells:
            if type(cell) is not Cell:
                raise StoreError(
                    f"{type(cell).__name__} {getattr(cell, 'key', cell)!r} is "
                    "not a Cell: a store keeps the joint vector a Cell carries"
                )
            if cell.path_level is not path_level:
                path_level = cell.path_level
                level_id = lattice.index_of(path_level)
            levels = items.get((cell.item_level, cell.key))
            if levels is None:
                levels = items[cell.item_level, cell.key] = [None] * len(lattice)
            if levels[level_id] is not None:
                raise StoreError(
                    f"cell {cell.key!r} is given twice at path level {level_id}"
                )
            levels[level_id] = cell
        table = self.path_table
        n_dims = self.schema.n_dimensions
        records = {}
        for (item_level, key), levels in items.items():
            where = f"item cell {key!r} at item level {item_level.levels}"
            if None in levels:
                raise StoreError(
                    f"{where} lacks its cell at path level {levels.index(None)}"
                )
            first = levels[0]
            if any(
                cell.n_paths != first.n_paths or cell.record_ids != first.record_ids
                for cell in levels
            ):
                raise StoreError(f"{where}: its path levels disagree on its record ids")
            vector = first.vector
            if any(
                cell.vector is not vector
                and (
                    cell.table is not first.table
                    or list(cell.vector.items()) != list(vector.items())
                )
                for cell in levels
            ):
                raise StoreError(f"{where}: its path levels do not share one vector")
            if len(key) != n_dims or len(item_level.levels) != n_dims:
                raise StoreError(
                    f"{where}: a key or item level that does not span {n_dims} "
                    "dimensions"
                )
            redundant = tuple(cell.redundant for cell in levels)
            if set(map(type, key)) - {str} or set(map(type, redundant)) - {bool}:
                raise StoreError(f"{where}: a field of the wrong type")
            if type(first.n_paths) is not int or first.n_paths < 0:
                raise StoreError(f"{where}: a counter that is not a non-negative int")
            record = binfmt.encode_cell_payload(
                first.record_ids, self._vector(first, table)
            )
            records[item_level, key] = (record, first.n_paths, redundant)
        return records

    @staticmethod
    def _vector(cell: Cell, table: PathTable) -> list[tuple[int, int]]:
        """*cell*'s ``(joint id, weight)`` pairs in *table*'s id space.

        A cell over *table* (one of the build or append that owns it, one
        this handle read) hands its vector over as it is; one over
        another handle's table is re-interned joint id by joint id, each
        through its paths at every level.  A vector that weighs another
        count than the cell's record ids, a table of another depth, or a
        path with a stage that is not a pair of ``str`` is a
        :class:`~repro.errors.StoreError`.
        """
        vector = cell.vector
        where = f"cell {cell.key!r} at item level {cell.item_level.levels}"
        total = sum(vector.values())
        if total != len(cell.record_ids):
            raise StoreError(
                f"{where} weighs {total} paths but has {len(cell.record_ids)} "
                "record ids: a stored cell carries the path multiset of its "
                "records"
            )
        source = cell.table
        if source is table:
            return list(vector.items())
        if len(source.paths) != len(table.paths):
            raise StoreError(
                f"{where}: a vector over {len(source.paths)} path levels, the "
                f"cube's lattice has {len(table.paths)}"
            )
        moved: dict[int, int] = {}
        levels = list(zip(source.paths, source.joint))
        for jid, weight in vector.items():
            try:
                paths = [level[column[jid]] for level, column in levels]
            except IndexError:
                raise StoreError(f"{where}: a joint id past its path table") from None
            for path in paths:
                if not path or any(
                    type(location) is not str or type(duration) is not str
                    for location, duration in path
                ):
                    raise StoreError(
                        f"{where}: path {path!r} has a stage that is not a pair of str"
                    )
            # A weight is stored as it came (a bool or float one is
            # refused by the encoder).
            moved[table.intern_joint(paths)] = weight
        return list(moved.items())

    def put_cuboid(self, cells) -> None:
        """Persist whole item cells — *cells* holds each key's cell at every
        path level (:meth:`_encode`): an item level's cuboids, chained.
        One lock hold, one backend write and one version bump for the
        batch; each item cell is one record and one index entry."""
        with self._lock:
            records = self._encode(cells)
            if not records:
                return
            entries = self._cells.put_records(list(records.values()))
            self._served = None  # the index below is no longer committed
            for (item_level, key), entry in zip(records, entries):
                self._index.setdefault(item_level, {})[key] = entry
            self._bump_version()

    # ------------------------------------------------------------------
    # incremental maintenance (delta segments)
    # ------------------------------------------------------------------
    @property
    def delta_segments(self) -> list[int]:
        """Published delta segment ids pending compaction."""
        return self._cells.delta_segments

    def begin_delta(self) -> None:
        """Stage subsequent cell writes as an append-only delta segment:
        they land in a ``cells.delta.G.bin`` beside the heap they amend."""
        with self._lock:
            self._require_built()
            self._cells.begin_delta()

    def merge_cells(self, cells, layout) -> None:
        """Write *cells* and swap the index to the merged *layout*.

        Args:
            cells: The dirty (updated / promoted / created) item cells to
                persist, each with its cell at every path level
                (:meth:`_encode`).
            layout: Iterable of ``(item_level, keys)`` giving every
                surviving item cuboid's final key order, in canonical
                order.  Keys absent from *cells* keep their existing
                index entries verbatim (zero heap IO); existing keys
                missing from *layout* are demoted.

        The swap is in-memory until :meth:`flush` publishes it.
        """
        with self._lock:
            records = self._encode(cells)
            written: dict[Coords, Entry] = dict(
                zip(records, self._cells.put_records(list(records.values())))
            )
            new_index: dict[ItemLevel, dict[CellKey, Entry]] = {}
            for item_level, keys in layout:
                if not keys:
                    continue
                old_entries = self._index.get(item_level, {})
                new_index[item_level] = {
                    key: written.get((item_level, key)) or old_entries[key]
                    for key in keys
                }
            self._index = new_index
            self._served = None
            # The catalog masks decoded from the superseded index no
            # longer describe the merged layout; drop them so catalogs
            # derive from keys until the next load maps the new index.
            self._cells.cell_masks = {}
            self._cache.clear()
            self._bump_version()

    def item_records(self, item_level: ItemLevel, keys) -> list[bytes]:
        """The records of the item cells at *keys* (one read each, past the
        cell cache) — what a writer decodes and adds a batch to."""
        with self._lock:
            entries = self._index.get(item_level, {})
            record = self._cells.record
            return [record(entries[key]) for key in keys]

    def compact(self) -> int:
        """Fold pending delta segments back into a clean base heap.

        Every index entry's record is copied byte-exact (no codec
        round-trip) into a freshly staged slot-0 heap in index order,
        then flushed like any other write: heap → index → meta, each
        under a fresh name, the superseded files swept only after the
        meta commit.  A compaction killed before that commit leaves the
        delta-bearing cube untouched, one killed after it the compacted
        cube (``tests/test_publish_points.py`` kills it at every point).

        Returns the number of cells copied (0 when nothing is pending).
        """
        with self._lock:
            self._require_built()
            old = self._cells
            pending = list(old.delta_segments)
            if not pending:
                return 0
            new = self._new_heap()
            new.stage(0)
            done = self.n_cells()
            new_index: dict[ItemLevel, dict[CellKey, Entry]] = {}
            for item_level, entries in self._index.items():
                records = [
                    (old.record(e), entry_n_paths(e), entry_redundant(e))
                    for e in entries.values()
                ]
                new_index[item_level] = dict(
                    zip(entries, new.put_records(records))
                )
            self._index = new_index
            self._served = None
            self._cells = new
            self._cache.clear()
            if self.build_stats is not None:
                stats = _new_append_stats()
                counters = self.build_stats.setdefault("append", stats)
                counters["compactions"] = int(counters.get("compactions", 0)) + 1
                counters["delta_segments"] = 0
                counters["last_compaction"] = {
                    "at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                    "folded_segments": len(pending),
                    "cells": done,
                }
            self.flush()
            old.close(materialise=False)  # maps of files the flush swept
            return done

    def flush(self, build_stats=None) -> None:
        """Commit this handle's cube — the one publish sequence: path
        table (if it grew) → staged segment (if any) → index, each under
        a fresh name, then the meta file that lists them (the commit),
        then the sweep.  The writer lock is released here.

        Args:
            build_stats: Optional :class:`~repro.store.builder.BuildStats`
                of the build being flushed; its :meth:`~BuildStats.as_dict`
                snapshot (records, cells, per-phase seconds) is persisted
                alongside the index so
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
                "exceptions": self.compute_exceptions,
                "path_lattice": [
                    path_level_to_dict(level) for level in lattice
                ],
            }
            if self.item_levels is not None:
                payload["item_levels"] = [
                    list(level.levels) for level in self.item_levels
                ]
            try:
                payload["paths"] = self._publish_paths()
                payload.update(
                    self._cells.finalise(
                        self._index, self._paths.path.name, len(lattice)
                    )
                )
                if self.build_stats is not None:
                    payload["build_stats"] = self.build_stats
                # The signature must describe *this* write, so it comes
                # from the stat publish_file took before the rename.
                stat = publish.publish_file(
                    self.directory / META_FILENAME,
                    json.dumps(payload, indent=1).encode("utf-8"),
                )
                self._meta_signature = (stat.st_mtime_ns, stat.st_size)
                self._served = (
                    self._index, self._cells.files["segments"],
                    self._paths.lineage,
                )
                self._cells.sweep()
            finally:
                self._writer.release()
            self._bump_version()

    def _publish_paths(self) -> dict:
        """Publish the path table — whole, under a fresh name — if this
        handle interned a path the committed file does not hold, before
        the records that name it, and return what the meta file commits:
        the lineage and per-level counts."""
        paths = self._paths
        if paths.loaded:
            table = paths.table()
            counts = [len(level) for level in table.paths]
            if (counts, table.n_joint) != (paths.counts, paths.n_joint):
                paths.path = self.directory / self._cells.fresh_name(
                    "paths", ".bin"
                )
                publish.publish_file(
                    paths.path,
                    binfmt.pack_paths(paths.lineage, table.paths, table.joint),
                )
                paths.counts, paths.n_joint = counts, table.n_joint
        return {
            "lineage": paths.lineage,
            "counts": paths.counts,
            "joint": paths.n_joint,
        }

    def _load_meta(self, signature: tuple[int, int], text: str) -> None:
        """Load the cube the meta file — *text*, read at *signature* —
        commits.  A writer may commit and sweep between that read and
        the map of the index it lists: the meta is then re-read, once.

        What the handle serves is taken once, before either attempt, so
        the changed set compares the cube loaded with the one this handle
        served — never with the listing of an attempt that failed."""
        with self._lock:
            before = self._served
            try:
                self._load(signature, text, before)
            except MissingFileError:
                latest, text = read_meta(self.directory)
                if latest in (None, signature):
                    raise
                self._load(latest, text, before)

    def _load(
        self, signature: tuple[int, int], text: str, before: Served | None
    ) -> None:
        """Parse and map everything first, then swap it in: a load that
        raises leaves the handle, its caches and its version as they were.
        The cell cache keeps every cell :func:`changed_coords` does not
        name, and the version bump hands subscribers that set."""
        payload = json.loads(text)
        binfmt.check_layout_name(
            payload.get("format"),
            f"cube meta {self.directory / META_FILENAME}",
        )
        thresholds = payload["min_support"], payload["min_deviation"]
        compute_exceptions = payload.get("exceptions", False)
        if type(compute_exceptions) is not bool:
            raise StoreError(
                f"cube meta {self.directory / META_FILENAME}: "
                f"\"exceptions\" is {compute_exceptions!r}, not a bool"
            )
        lattice = PathLattice(
            path_level_from_dict(level, self.schema.location)
            for level in payload["path_lattice"]
        )
        raw = payload.get("item_levels")
        committed = payload.get("paths") or {}
        cells = self._new_heap()
        try:
            index = cells.load(payload, len(lattice))
            paths = StoredPaths(
                self.directory / cells.files["paths"],
                committed.get("lineage"),
                committed.get("counts"),
                committed.get("joint"),
            )
            served = (index, cells.files["segments"], paths.lineage)
            changed = None if before is None else changed_coords(before, served)
        except BaseException:
            cells.close(materialise=False)
            raise
        self._meta_signature = signature
        self.min_support, self.min_deviation = thresholds
        self.compute_exceptions = compute_exceptions
        self.path_lattice = lattice
        self.build_stats = payload.get("build_stats")
        self.item_levels = raw and [ItemLevel(levels) for levels in raw]
        self._cells.close()
        self._cells = cells
        self._index = index
        self._served = served
        self._paths = paths
        if changed is None:
            self._cache.clear()
        else:
            self._cache.discard(lambda coords: coords[:2] in changed)
        self._bump_version(changed)

    def maybe_reload(self) -> bool:
        """Re-read the meta file when another process rewrote it.

        A long-lived server holds its handle open while CLI invocations
        may rebuild the cube underneath it; comparing the meta file's
        ``(mtime_ns, size)`` signature against the one last seen detects
        that cheaply.  The signature and the content are taken from one
        file descriptor (:func:`read_meta`), so the comparison and the
        subsequent parse always describe the same on-disk build.
        Reloading bumps :attr:`version` and invalidates what the new
        cube changed and nothing else: the cell cache drops the
        coordinates :func:`changed_coords` names and subscribers receive
        that set — everything after a rebuild or a compaction, whose
        cells all live in files the old cube did not list.  A reload that
        raises changes nothing, and the next call tries again.  Returns
        whether a reload happened.
        """
        with self._lock:
            signature, text = read_meta(self.directory)
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
        reopens the files.  A write that was staged and not flushed is
        abandoned, and the writer lock released.
        """
        with self._lock:
            self._cells.close(materialise=False)
            self._cache.clear()
            self._writer.release()

    def __enter__(self) -> "CubeStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def io_counters(self) -> dict[str, int]:
        """Snapshot of the backend's read-path telemetry.

        ``heap_bytes_read`` counts payload bytes pulled out of the heap
        segments; ``mask_bits_decoded`` counts catalog bitmaps decoded
        from the index map.  Both stay zero across a cold open.
        ``cells_decoded`` counts cells whose flowgraph was expanded (first
        read of a stored cell's graph): a cell can be *read* — its
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
        Each cell not in the cache is a :class:`Cell` over the record
        bytes copied out here, under the lock, and one
        :class:`_RecordLoader` — whatever happens to the heap afterwards,
        the cell decodes this read's measure.
        Segments are mapped on first touch, so a handle at a superseded
        meta can reach for one a writer has swept since: it then reloads
        and answers, once, from the cube committed now.
        """
        keys = list(keys)
        with self._lock:
            try:
                return self._read_cells(item_level, path_level, keys)
            except MissingFileError:
                if not self.maybe_reload():
                    raise
                return self._read_cells(item_level, path_level, keys)

    def _read_cells(
        self, item_level: ItemLevel, path_level: PathLevel, keys: list
    ) -> list[Cell]:
        level_id, entries = self._cuboid_entries(item_level, path_level)
        cache = self._cache
        record = self._cells.record
        loader = _RecordLoader(self._paths, self._cells.io_counters)
        mining = self.mining
        cells: list[Cell] = []
        for key in keys:
            coords = (item_level, key, level_id)
            cell = cache.get(coords)
            if cell is None:
                entry = entries.get(key)
                if entry is None:
                    raise CubeError(
                        f"cell {key!r} is not materialised in cuboid "
                        f"{item_level.levels!r}"
                    )
                cell = Cell(
                    key, item_level, path_level,
                    level_id=level_id,
                    redundant=entry_redundant(entry)[level_id],
                    n_paths=entry_n_paths(entry),
                    record=record(entry),
                    loader=loader,
                    mining=mining,
                )
                cache.put(coords, cell)
            cells.append(cell)
        return cells

    def _cuboid_entries(
        self, item_level: ItemLevel, path_level: PathLevel
    ) -> tuple[int, dict[CellKey, Entry]]:
        """``(path-level id, {key: index entry})`` of a materialised cuboid."""
        level_id = self._require_built().index_of(path_level)
        entries = self._index.get(item_level)
        if entries is None:
            raise CubeError(
                f"cuboid ⟨{item_level.levels!r}, ...⟩ is not materialised"
            )
        return level_id, entries

    def has_cuboid(self, item_level: ItemLevel, path_level: PathLevel) -> bool:
        self._require_built().index_of(path_level)
        return item_level in self._index

    def cuboid(
        self, item_level: ItemLevel, path_level: PathLevel
    ) -> StoredCuboid:
        _, entries = self._cuboid_entries(item_level, path_level)
        masks = self._cells.cell_masks.get(item_level)
        return StoredCuboid(self, item_level, path_level, tuple(entries), masks)

    @property
    def version(self) -> int:
        """Index mutation counter (invalidation token for memoised views)."""
        return self._version

    @property
    def n_records(self) -> int | None:
        """The records the cube covers — what δ resolves against — from
        the build stats a build flushed and every append keeps current;
        ``None`` for a cube written only cell by cell, never built."""
        stats = self.build_stats
        if stats is None or "records" not in stats:
            return None
        return int(stats["records"])

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
        _, entries = self._cuboid_entries(item_level, path_level)
        return {key: entry_n_paths(entry) for key, entry in entries.items()}

    @property
    def cuboids(self) -> tuple[StoredCuboid, ...]:
        """Every cuboid, memoised per version; an item cuboid's cuboids
        share its keys and catalog masks."""
        with self._lock:
            lattice = self._require_built()
            cached = self._cuboids_cache
            if cached is not None and cached[0] == self._version:
                return cached[1]
            masks = self._cells.cell_masks
            cuboids = []
            for item_level, entries in self._index.items():
                keys = tuple(entries)
                cuboids += (
                    StoredCuboid(self, item_level, level, keys, masks.get(item_level))
                    for level in lattice
                )
            self._cuboids_cache = (self._version, tuple(cuboids))
            return self._cuboids_cache[1]

    def cells(self) -> Iterator[Cell]:
        """Every persisted cell, read through the cache."""
        for cuboid in self.cuboids:
            yield from cuboid

    def n_cells(self) -> int:
        """Number of persisted cells — item cells times path levels —
        from the index, no file IO."""
        return len(self.path_lattice or ()) * sum(map(len, self._index.values()))

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
            "cuboids": len(self.path_lattice or ()) * len(self._index),
            "cells": self.n_cells(),
            "min_support": self.min_support,
            "min_deviation": self.min_deviation,
            "cache": self.cache_stats(),
        }
        if self.is_built:
            out["generation"] = self._cells.generation
            out["files"] = self._cells.files
            out["delta_segments"] = len(self.delta_segments)
            out["io"] = self.io_counters()
            # The path table the records name, from the meta file and a
            # stat — describing a cube does not load it.
            table = self._paths.path
            out["paths"] = {
                "per_level": self._paths.counts,
                "bytes": table.stat().st_size if table.exists() else 0,
            }
        if self.build_stats is not None:
            out["version"] = self.build_version
            out["build_stats"] = self.build_stats
        return out
