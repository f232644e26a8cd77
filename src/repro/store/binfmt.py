"""Binary on-disk codecs: columnar partitions and the packed cell index.

The store reads and writes one layout — ``FCPART03`` partitions over a
shared ``FCSTRS02`` string table, an ``FCHEAP08`` cell heap addressed
through an ``FCCIDX04`` index, its records vectors over an ``FCPATH04``
path table — and this module defines it (see DESIGN.md for byte
diagrams).  The four sectioned containers are each one :class:`Layout`
table that their writer and their reader both go through, and every
published file is opened by :func:`map_file`:

* :func:`pack_partition` / :func:`unpack_partition` — a columnar
  partition file (``part-XXXXX.bin``): narrow reference/offset arenas,
  each stage one ref into the partition's table of distinct
  ``(location, duration)`` pairs, so
  :func:`~repro.store.partition.read_partition` rebuilds a
  :class:`~repro.core.path_database.PathDatabase` with bulk
  ``array.frombytes`` decodes and one :class:`Stage` per distinct pair
  instead of per-field text parsing;
* :func:`pack_cell_index` / :func:`unpack_cell_index` — the cell-heap
  index (``cells.idx``): per *item cell* (an item level and key, whose
  members no path level changes) its key and ``(offset, length,
  n_paths, redundant marks)``, in columnar arenas a reader decodes with
  a few C-speed ``zip`` passes and *zero* cell-payload IO;
* :class:`StringTable` — the shared per-store intern table
  (``strings.bin``): one mmap'd vocabulary for every partition, each
  partition carrying only a small local→global remap arena instead of
  a private copy of the location/product strings;
* :func:`encode_cell_payload` / :func:`decode_cell_parts` — the
  ``FCHEAP08`` item-cell record, the *distributive* part of the measure
  and nothing else: the record ids and the item cell's one ``(joint id,
  weight)`` vector, under a CRC-32 every reader checks first — a damaged
  record is a :class:`StoreError`, never another measure (exceptions
  are mined from the vector when a cell is read, never stored);
* :func:`pack_paths` / :func:`unpack_paths` — the cube's path table
  (``paths.bin``): every level's aggregated paths, each stage one ref
  into a table of distinct ``(location, duration)`` pairs, and the joint
  columns that map a vector to each level.

A slice's key catalog is not stored: it is a function of an item
cuboid's keys, which :class:`~repro.perf.query_kernel.CuboidKeyCatalog`
derives at the first slice that needs it.

Earlier releases also wrote CSV partitions, one JSON file per cell and
the ``RETIRED_*`` generations (``FCHEAP02`` each cell's serialised
flowgraph, ``FCHEAP03`` a copy of its coordinates, ``FCHEAP04`` and
``FCCIDX01`` a record and an entry per cell and path level, ``FCHEAP05``
a vector per path level in each item-cell record, ``FCHEAP06`` every
path level's exceptions in each record, ``FCPATH01`` a path table
without joint columns, ``FCPATH02`` one without a checksum;
``FCPART02``, ``FCSTRS01``, ``FCCIDX02``, ``FCPATH03`` and ``FCHEAP07``
``int64`` columns, two words per stage, no checksum on the first three
and a length prefix per heap record, ``FCCIDX03`` every item cuboid's
catalog masks beside its keys).  No reader or writer for them
survives: meeting one raises :func:`retired_layout`'s
:class:`StoreError` instead of decoding it.

Framing rules of the sectioned containers, which :meth:`Layout.pack`
and :meth:`Layout.open` alone implement:

* every file leads with its magic and the CRC-32 of every byte after
  it, checked before any section is handed back, so a flipped byte is a
  :class:`StoreError`, never another decode;
* header words are native-endian ``int64``, led by :data:`ORDER_TAG`,
  whose bytes read back wrong on a foreign-endian host, turning silent
  corruption into a :class:`StoreError`; one width code per integer
  section follows them;
* an integer section is stored as narrow as its values: ``B`` / ``H`` /
  ``I`` / ``Q`` (unsigned 8 … 64 bits) by its maximum, chosen at pack
  time and recorded in the header — ``q`` (``int64``) only when a value
  is negative; durations are native ``float64`` (``array('d')``);
* every arena starts on an 8-byte boundary (narrow columns and the
  UTF-8 string blob are zero-padded), and decoding slices **exactly**
  the bytes each arena owns before ``frombytes`` — never a full-buffer
  ``cast``, which breaks the moment an arena is not a multiple of its
  neighbour's width;
* decode buffers may be ``bytes``, a ``memoryview``, or an ``mmap`` —
  every slice taken is exactly the bytes an arena owns, so an mmap'd
  reader decodes only what it asks for (the CRC reads every byte once).

The cell heap (``cells.bin``) is :data:`HEAP_MAGIC` followed by
:func:`encode_cell_payload` records back to back, one per item cell,
addressed only through the index's ``(offset, length)`` entries.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from array import array
from collections.abc import Iterable, Sequence
from itertools import accumulate, chain
from math import copysign
from operator import ge, gt, sub
from pathlib import Path as FsPath

from repro import publish
from repro.core.path import Path, PathRecord
from repro.core.path_database import PathDatabase, PathSchema
from repro.core.stage import Stage
from repro.errors import MissingFileError, StoreError

__all__ = [
    "HEAP_MAGIC",
    "INDEX_MAGIC",
    "LAYOUT_NAME",
    "PARTITION_MAGIC",
    "PATHS_LAYOUT",
    "PATHS_MAGIC",
    "RETIRED_HEAP_MAGICS",
    "RETIRED_INDEX_MAGICS",
    "RETIRED_PARTITION_MAGICS",
    "RETIRED_PATHS_MAGICS",
    "RETIRED_STRINGS_MAGICS",
    "STRINGS_FILENAME",
    "STRINGS_MAGIC",
    "PartitionColumns",
    "StringTable",
    "check_heap_magic",
    "check_layout_name",
    "decode_cell_ids",
    "decode_cell_parts",
    "encode_cell_payload",
    "pack_cell_index",
    "pack_partition",
    "pack_paths",
    "pack_segment_offset",
    "retired_layout",
    "split_segment_offset",
    "unpack_cell_index",
    "unpack_partition",
    "unpack_paths",
]

#: What ``catalog.json`` and ``cube.json`` record under ``"format"``.  It
#: names the one layout this module defines; any other value (or none)
#: marks a store written in a retired layout.
LAYOUT_NAME = "binary"

#: Leading 8 bytes of the retired columnar partition generations (a
#: private per-partition string table; ``int64`` columns and two words
#: per stage); compared against only to reject them.
RETIRED_PARTITION_MAGICS = (b"FCPART01", b"FCPART02")

#: Leading 8 bytes of a columnar partition file: string references
#: resolve through the shared store table via a local→global remap
#: arena, each stage is one ref into the partition's stage table.
PARTITION_MAGIC = b"FCPART03"

#: Leading 8 bytes of the retired string-table generation (``int64``
#: offsets, no checksum); compared against only to reject it.
RETIRED_STRINGS_MAGICS = (b"FCSTRS01",)

#: Leading 8 bytes of the shared per-store string table
#: (``strings.bin``).
STRINGS_MAGIC = b"FCSTRS02"

#: File name of the shared string table inside the partitions
#: directory.
STRINGS_FILENAME = "strings.bin"

#: Leading 8 bytes of a cell-heap index file (``cells.idx``): one entry
#: per item cell.
INDEX_MAGIC = b"FCCIDX04"

#: Leading 8 bytes of the retired index generations (one entry per cell
#: and path level; ``int64`` columns without a checksum; stored catalog
#: masks); compared against only to reject them.
RETIRED_INDEX_MAGICS = (b"FCCIDX01", b"FCCIDX02", b"FCCIDX03")

#: Leading 8 bytes of the retired cell-heap generations (JSON payloads;
#: serialised flowgraphs; records that repeated their cell's
#: coordinates; one record per cell and path level; one record per item
#: cell with a vector per path level; records that carried every path
#: level's mined exceptions; records behind an unread length prefix);
#: compared against only to reject them.
RETIRED_HEAP_MAGICS = (
    b"FCHEAP01", b"FCHEAP02", b"FCHEAP03", b"FCHEAP04", b"FCHEAP05",
    b"FCHEAP06", b"FCHEAP07",
)

#: Leading 8 bytes of a cell-heap blob (:func:`encode_cell_payload`
#: records back to back, one per item cell, each one joint vector).
HEAP_MAGIC = b"FCHEAP08"

#: Leading 8 bytes of the retired path-table generations (no joint
#: columns; no checksum; ``int64`` columns and two words per stage);
#: compared against only to reject them.
RETIRED_PATHS_MAGICS = (b"FCPATH01", b"FCPATH02", b"FCPATH03")

#: Leading 8 bytes of a cube's path table (``paths.bin``).
PATHS_MAGIC = b"FCPATH04"

#: Endianness sentinel: stored as the first header word; a reader on a
#: host with the opposite byte order decodes a different value and
#: rejects the file instead of mis-addressing every arena.
ORDER_TAG = 0x0102030405060708

#: Delta-segment addressing: an index offset is a plain i64, so the high
#: bits carry the segment id — a *slot* ``cube.json`` maps to a file:
#: slot 0 is a whole heap, slot *n* ≥ 1 the *n*-th append since it.
#: 48 bits of local offset (256 TiB per segment) and 15 usable segment
#: bits keep the packed value positive in an i64.
SEGMENT_SHIFT = 48
SEGMENT_OFFSET_MASK = (1 << SEGMENT_SHIFT) - 1
MAX_SEGMENT_ID = (1 << (63 - SEGMENT_SHIFT)) - 1

_I64 = 8
#: The ``array`` codes an integer section may be stored as below ``Q``,
#: narrowest first, each with the largest value it holds (``H`` is 16
#: bits, ``I`` 32 and ``Q`` 64 on every platform CPython builds on).
_NARROW = (("B", 0xFF), ("H", 0xFFFF), ("I", 0xFFFFFFFF))
#: Bytes per element of every code a section can be read as: the narrow
#: ones, ``q``, ``d`` (``float64``) and ``B`` (a byte section's).
_WIDTHS = {"B": 1, "H": 2, "I": 4, "Q": 8, "q": 8, "d": 8}
#: What a narrow section's recorded width code may be.
_WIDTH_CODES = frozenset(b"BHIQq")


def _narrow(values) -> array:
    """*values* (ints) as the narrowest array that holds them: ``B`` /
    ``H`` / ``I`` / ``Q`` by the maximum, ``q`` when one is negative
    (an unsigned array refuses it)."""
    top = max(values, default=0)
    code = next((code for code, largest in _NARROW if top <= largest), "Q")
    try:
        return array(code, values)
    except OverflowError:
        return array("q", values)


def pack_segment_offset(segment_id: int, offset: int) -> int:
    """Tag a heap-local *offset* with its delta *segment_id*.

    Segment 0 round-trips to the bare offset, so base-heap entries are
    bit-identical to the pre-delta layout and old readers of fully
    compacted stores see nothing new.
    """
    if not 0 <= segment_id <= MAX_SEGMENT_ID:
        raise StoreError(
            f"delta segment id {segment_id} out of range (compact first)"
        )
    if not 0 <= offset <= SEGMENT_OFFSET_MASK:
        raise StoreError(f"heap offset {offset} exceeds the segment span")
    return (segment_id << SEGMENT_SHIFT) | offset


def split_segment_offset(packed: int) -> tuple[int, int]:
    """Inverse of :func:`pack_segment_offset`: ``(segment_id, offset)``."""
    return packed >> SEGMENT_SHIFT, packed & SEGMENT_OFFSET_MASK


def _pad8(n: int) -> int:
    """Zero bytes needed to round *n* up to an 8-byte boundary."""
    return (-n) % 8


def _pack_strings(strings: Iterable[str]) -> tuple[list[int], bytes]:
    """Intern table → the :data:`_STRING_SECTIONS` pair (offsets, blob)."""
    encoded = [s.encode("utf-8") for s in strings]
    return list(accumulate(map(len, encoded), initial=0)), b"".join(encoded)


_REBUILD = "rebuild the cube with `flowcube-store build` (the partitions are unchanged)"
_REINGEST = (
    "read the store's records with that release "
    "(`PartitionedPathStore.open(...).load_all().to_csv()`) and re-ingest "
    "them into a new store with `flowcube-store ingest --csv`"
)

#: Retired layout → (the last release that read it, the way out of it);
#: every layout not listed here went with the first pair.
_LAST_READERS = {
    None: (
        "PR 15 of this repository (1.0.0, commit 660f825)",
        "convert the store there with `flowcube-store migrate --to binary`, "
        "or re-ingest and rebuild",
    ),
    "FCHEAP02": (
        "PR 25 of this repository (commit 14ad353)",
        "rebuild the cube with `flowcube-store build` (the partitions are "
        "unchanged)",
    ),
    "FCHEAP03": ("the one at commit 234d306", _REBUILD),
    "FCHEAP04": ("the one at commit 8ab866c", _REBUILD),
    "FCHEAP05": ("the one at commit 035cbc7", _REBUILD),
    "FCPATH01": ("the one at commit 035cbc7", _REBUILD),
    "FCHEAP06": ("the one at commit c64931e", _REBUILD),
    "FCPATH02": ("the one at commit c64931e", _REBUILD),
    "FCCIDX01": (
        "the one at commit 8ab866c",
        f"remove the store's cube/ directory and {_REBUILD}",
    ),
    "FCHEAP07": ("the one at commit f3a84f9", _REBUILD),
    "FCPATH03": ("the one at commit f3a84f9", _REBUILD),
    "FCCIDX02": (
        "the one at commit f3a84f9",
        f"remove the store's cube/ directory and {_REBUILD}",
    ),
    "FCCIDX03": (
        "the one at commit 6a2762c",
        f"remove the store's cube/ directory and {_REBUILD}",
    ),
    "FCPART02": ("the one at commit f3a84f9", _REINGEST),
    "FCSTRS01": ("the one at commit f3a84f9", _REINGEST),
}


def retired_layout(what, layout: str) -> StoreError:
    """The error for *what* (a file or store) kept in a layout no longer read."""
    release, remedy = _LAST_READERS.get(layout, _LAST_READERS[None])
    return StoreError(
        f"{what} is in the retired {layout} layout, which this release "
        f"neither reads nor writes; the last one that did is {release} — "
        f"{remedy}"
    )


def check_layout_name(value, what) -> None:
    """Reject a meta file whose ``"format"`` is not :data:`LAYOUT_NAME`.

    Files written before the field existed were in the json layout.
    """
    if value == LAYOUT_NAME:
        return
    if value is None or value == "json":
        raise retired_layout(what, "json")
    raise StoreError(f"{what} names an unknown store format {value!r}")


def _check_magic(
    buffer, magic: bytes, what: str, retired: tuple[bytes, ...]
) -> None:
    """Reject a buffer not leading with *magic*, naming a *retired* one."""
    lead = bytes(buffer[: len(magic)])
    if lead == magic:
        return
    if lead in retired:
        raise retired_layout(what, lead.decode("ascii"))
    raise StoreError(f"not a {what}: bad magic")


def check_heap_magic(lead: bytes, path) -> None:
    """Reject a cell heap (or delta segment) not written as ``FCHEAP08``."""
    _check_magic(lead, HEAP_MAGIC, f"cell heap {path}", RETIRED_HEAP_MAGICS)


def map_file(path, what: str) -> mmap.mmap:
    """Map the published file at *path* read-only — the one place a
    store file is opened for reading.

    The map keeps its own duplicate of the descriptor, so its
    ``close()`` (or leaving a ``with`` block) releases everything.  A
    missing, unreadable, unmappable or empty file is a
    :class:`StoreError` naming *what* it was — a missing one the
    :class:`MissingFileError` a reader tells a swept file by.
    """
    try:
        with open(path, "rb") as handle:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError:
        raise MissingFileError(f"{what} {path} is missing") from None
    except (OSError, ValueError) as exc:
        raise StoreError(f"cannot map {what} {path}: {exc}") from None


#: What a section's count expression may call besides arithmetic.
_COUNT_FUNCTIONS = {"__builtins__": {}, "sum": sum}


class Layout:
    """One sectioned container file, written down once as data.

    *magic* | header (:data:`ORDER_TAG`, then one ``i64`` word per entry
    of *fields* — ``None`` is a reserved word, written as given and never
    interpreted) | the CRC-32 of every byte after the magic but its own,
    as one ``i64`` word | one width code byte per ``"u"`` section,
    zero-padded to 8 | *sections*.  A section is ``(name, type, count)``:
    *type* is ``"u"`` (integers, stored as the narrowest of ``B`` /
    ``H`` / ``I`` / ``Q`` that holds them, ``q`` when one is negative —
    the code is the header's), ``"d"`` (``float64``) or ``"B"`` (bytes),
    every section zero-padded to 8 bytes, and *count* an expression over
    the header fields and the sections before it (``sum(joint_counts)``
    is why a count may read an earlier section).  DESIGN.md §5 draws the
    same tables as byte diagrams; ``tests/test_binfmt.py`` holds the two
    together.
    """

    def __init__(self, magic, retired, what, fields, sections) -> None:
        self.magic = magic
        self.retired = retired
        self.what = what
        self.fields = fields
        self.sections = sections
        #: Where the header (its order tag) starts, where the CRC word
        #: follows it, where the width codes start and where the first
        #: section does.
        self.header_start = len(magic)
        self.crc_at = self.header_start + (1 + len(fields)) * _I64
        self.codes_start = self.crc_at + _I64
        n_codes = sum(kind == "u" for _, kind, _ in sections)
        self.sections_start = self.codes_start + n_codes + _pad8(n_codes)
        self._counts = [
            compile(count, f"<{what} {name}>", "eval")
            for name, _, count in sections
        ]

    def pack(self, header, *sections) -> bytes:
        """Frame *header* (one value per field) and one section each: a
        sequence of ints for a ``"u"`` section, an ``array('d')`` for a
        ``"d"`` one, a bytes-like object for a ``"B"`` one."""
        codes = bytearray()
        parts = []
        for (_, kind, _), section in zip(self.sections, sections, strict=True):
            if kind == "B":
                data = bytes(section)
            else:
                if kind == "u":
                    section = _narrow(section)
                    codes.append(ord(section.typecode))
                data = section.tobytes()
            parts.append(data)
            parts.append(b"\x00" * _pad8(len(data)))
        head = array("q", [ORDER_TAG, *header]).tobytes()
        body = b"".join((codes, b"\x00" * _pad8(len(codes)), *parts))
        crc = array("q", [zlib.crc32(body, zlib.crc32(head))]).tobytes()
        return b"".join((self.magic, head, crc, body))

    def open(self, buffer) -> dict:
        """Check and decode *buffer* (``bytes``, ``memoryview`` or map)
        into ``{field: value, section: array}``.

        A byte section comes back as its ``(start, end)`` span, so a
        mapped reader decodes none of it until asked.  A wrong or
        retired magic, a foreign byte order, a negative header field, an
        unknown width code, a count that overruns the buffer and a
        checksum that does not match are each a :class:`StoreError`;
        nothing past the failing field or section is read, and no section
        is handed back before the checksum matches (framing reads the
        sections a later count names).
        """
        what = self.what
        _check_magic(buffer, self.magic, what, self.retired)
        size = len(buffer)
        if self.sections_start > size:
            raise StoreError(f"corrupt {what}: truncated header")
        header = array("q")
        header.frombytes(buffer[self.header_start : self.crc_at])
        if header[0] != ORDER_TAG:
            raise StoreError(
                f"cannot read {what}: byte-order tag mismatch "
                "(file written on a host with different endianness?)"
            )
        out = dict(zip(self.fields, header[1:]))
        out.pop(None, None)
        for field, value in out.items():
            if value < 0:
                raise StoreError(f"corrupt {what}: negative {field}")
        codes = iter(bytes(buffer[self.codes_start : self.sections_start]))
        end = self.sections_start
        for (name, kind, _), count in zip(self.sections, self._counts):
            code = kind
            if kind == "u":
                code = next(codes)
                if code not in _WIDTH_CODES:
                    raise StoreError(
                        f"corrupt {what}: unknown width code {code} of {name}"
                    )
                code = chr(code)
            offset = end
            n = eval(count, _COUNT_FUNCTIONS, out)  # noqa: S307 - our table
            end = offset + n * _WIDTHS[code]
            if n < 0 or end > size:
                raise StoreError(f"corrupt {what}: truncated {name}")
            if kind == "B":
                out[name] = (offset, end)
            else:
                section = out[name] = array(code)
                section.frombytes(buffer[offset:end])
            end += _pad8(end - offset)
        crc = array("q")
        crc.frombytes(buffer[self.crc_at : self.codes_start])
        head = zlib.crc32(buffer[self.header_start : self.crc_at])
        if crc[0] != zlib.crc32(buffer[self.codes_start :], head):
            raise StoreError(f"corrupt {what}: checksum mismatch")
        return out


#: The string-table pair of sections ``FCSTRS02``, ``FCCIDX04`` and
#: ``FCPATH04`` share.
_STRING_SECTIONS = (
    ("str_offsets", "u", "n_strings + 1"),
    ("blob", "B", "blob_len"),
)


def _strings(opened: dict, buffer) -> list[str]:
    """The decoded strings of an opened :data:`_STRING_SECTIONS` pair;
    offsets that leave the blob or bytes that are not UTF-8 are a
    ``ValueError``."""
    offsets = opened["str_offsets"]
    blob = bytes(buffer[slice(*opened["blob"])])
    if offsets[0] != 0 or offsets[-1] != len(blob) or any(map(gt, offsets, offsets[1:])):
        raise ValueError("string offsets disagree with the blob")
    return [blob[start:end].decode("utf-8") for start, end in zip(offsets, offsets[1:])]


def _rows(values: Sequence, width: int, n_rows: int) -> list[tuple]:
    """*n_rows* width-*width* tuples from row-major *values*."""
    if width == 0:
        return [()] * n_rows
    return list(zip(*(values[d::width] for d in range(width))))


# --------------------------------------------------------------------------
# Shared string table (strings.bin)
# --------------------------------------------------------------------------


#: ``strings.bin``: global id → UTF-8 bytes ``blob[str_offsets[id] :
#: str_offsets[id + 1]]``.
STRINGS_LAYOUT = Layout(
    STRINGS_MAGIC,
    RETIRED_STRINGS_MAGICS,
    "string table",
    ("n_strings", "blob_len"),
    _STRING_SECTIONS,
)


class StringTable:
    """The shared per-store intern table backing ``FCPART03`` partitions.

    On disk (``strings.bin``) it is :data:`STRINGS_LAYOUT`.  The table is
    **append-only**: global ids are stable across saves, so a reader
    holding an older map keeps resolving every id it has ever seen while
    a writer interns new vocabulary and atomically replaces the file.

    Loaded tables are mmap'd, checked whole against their CRC, and
    decoded lazily — :meth:`get` slices one string out of the map the
    first time its id is referenced and memoises the result, so every
    partition sharing a location ends up with the *same* ``str`` object
    (identity-friendly hashing downstream) and an open builds strings
    only for the vocabulary it actually resolves.
    """

    __slots__ = (
        "_blob_start",
        "_ids",
        "_mm",
        "_offsets",
        "_n_disk",
        "_strings",
    )

    def __init__(self) -> None:
        self._strings: list[str | None] = []
        self._ids: dict[str, int] | None = {}
        self._mm: mmap.mmap | None = None
        self._offsets: array | None = None
        self._blob_start = 0
        self._n_disk = 0

    def __len__(self) -> int:
        return len(self._strings)

    @property
    def dirty(self) -> bool:
        """True when :meth:`intern` added strings not yet saved."""
        return len(self._strings) > self._n_disk

    def intern(self, value: str) -> int:
        """Global id of *value*, appending it if new."""
        ids = self._ids
        if ids is None:
            ids = {self.get(ref): ref for ref in range(len(self._strings))}
            self._ids = ids
        ref = ids.get(value)
        if ref is None:
            ref = len(self._strings)
            self._strings.append(value)
            ids[value] = ref
        return ref

    def get(self, ref: int) -> str:
        """The string with global id *ref* (lazily decoded from the map)."""
        try:
            value = self._strings[ref]
        except IndexError:
            raise StoreError(
                f"string table has no id {ref} (stale partition?)"
            ) from None
        if value is None:
            mm = self._mm
            if mm is None:
                raise StoreError("string table is closed")
            offsets = self._offsets
            start = self._blob_start + offsets[ref]
            value = mm[start : self._blob_start + offsets[ref + 1]].decode(
                "utf-8"
            )
            self._strings[ref] = value
        return value

    @classmethod
    def load(cls, path) -> "StringTable":
        """Map ``strings.bin`` at *path* (validating magic and byte order)."""
        mapped = map_file(path, "string table")
        try:
            opened = STRINGS_LAYOUT.open(mapped)
        except StoreError:
            mapped.close()
            raise
        table = cls()
        table._mm = mapped
        table._offsets = opened["str_offsets"]
        table._blob_start = opened["blob"][0]
        table._strings = [None] * opened["n_strings"]
        table._n_disk = opened["n_strings"]
        table._ids = None
        return table

    def save(self, path) -> None:
        """Atomically (re)write the table at *path* (temp + rename)."""
        strings = [self.get(ref) for ref in range(len(self._strings))]
        offsets, blob = _pack_strings(strings)
        publish.publish_file(
            FsPath(path),
            STRINGS_LAYOUT.pack((len(strings), len(blob)), offsets, blob),
        )
        self._n_disk = len(strings)

    def close(self) -> None:
        """Release the map (ids already decoded stay valid)."""
        mapped, self._mm = self._mm, None
        if mapped is not None:
            mapped.close()

    def __enter__(self) -> "StringTable":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------
# FCHEAP08 item-cell record codec
# --------------------------------------------------------------------------

#: A record's head: the CRC-32 of every byte after it, then the byte
#: lengths of the record-id varints (count, first id) and of the steps;
#: the vector varints run to the record's end.
_HEAD = struct.Struct("<III")
_CRC = struct.Struct("<I")

#: Record ids a record carries: ``[0, 2**63)``, ascending — every id a
#: partition's ``int64`` column holds.
_MAX_RECORD_ID = 2**63 - 1

#: The container types a record's sequences may have, and the sets the
#: writer's C-level ``set(map(type, …))`` checks compare against.
_SEQUENCES = (list, tuple)
_INT, _TWO, _PAIRS = {int}, {2}, set(_SEQUENCES)


#: What decoding a damaged record can raise: every one is reported as the
#: typed ``StoreError("corrupt cell payload: …")``.
_CORRUPT = (AttributeError, IndexError, KeyError, TypeError, ValueError, struct.error)


def _decode_varints(stream: bytes) -> list[int]:
    """A varint stream as ints (a stream of single bytes in one C pass)."""
    if not stream or max(stream) < 0x80:
        return list(stream)
    values: list[int] = []
    append = values.append
    pending = 0
    shift = 0
    for byte in stream:
        if byte < 0x80:
            if shift:
                append(pending | (byte << shift))
                pending = 0
                shift = 0
            else:
                append(byte)
        else:
            pending |= (byte & 0x7F) << shift
            shift += 7
    if shift:
        raise StoreError("corrupt cell payload: dangling varint")
    return values


def _varint_stream(values: list[int]) -> bytes:
    """Non-negative ints → varint bytes (one ``bytes(values)`` when every
    value fits seven bits)."""
    if max(values) < 0x80:
        return bytes(values)
    out = bytearray()
    append = out.append
    for value in values:
        while value >= 0x80:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


def _unencodable(what: str) -> StoreError:
    return StoreError(f"cell payload outside the FCHEAP08 record: {what}")


def encode_cell_payload(record_ids, vector) -> bytes:
    """Encode one item cell's measure as an ``FCHEAP08`` record — the
    only code that assembles one.

    *record_ids* are the item cell's ascending record ids and *vector*
    its ``(joint id, weight)`` pairs; sequences are taken as given (lists
    or tuples), not copied.

    Layout: :data:`_HEAD` (the CRC-32 of every byte after it, the byte
    lengths of the next two runs) | record-id varints (the count, the
    first id) | step varints | vector varints (``jid, weight`` per pair,
    in order) to the end.  Every later record id is its distance from the
    one before: gaps are small, so that run is almost always single
    bytes, which decode in one C pass.  What the layout cannot carry is a
    :class:`StoreError`: a field of the wrong type, a counter that is not
    a non-negative true ``int``, record ids that do not ascend strictly
    inside ``[0, 2**63)``.
    """
    if (
        type(record_ids) not in _SEQUENCES
        or type(vector) not in _SEQUENCES
        or set(map(type, record_ids)) - _INT
        or set(map(type, vector)) - _PAIRS
        or set(map(len, vector)) - _TWO
    ):
        raise _unencodable("a field of the wrong type")
    head = [len(record_ids), *record_ids[:1]]
    if min(head) < 0:
        raise _unencodable("a counter that is not a non-negative int")
    steps = b""
    if len(record_ids) > 1:
        gaps = list(map(sub, record_ids[1:], record_ids))
        if min(gaps) < 1:
            raise _unencodable("record ids that do not ascend")
        steps = _varint_stream(gaps)
    if record_ids and record_ids[-1] > _MAX_RECORD_ID:
        raise _unencodable("a record id past 2**63 - 1")
    ids = _varint_stream(head)
    values = list(chain.from_iterable(vector))
    # One C-level pass checks what came from outside (bool and float are
    # not int).
    if values and (set(map(type, values)) != _INT or min(values) < 0):
        raise _unencodable("a counter that is not a non-negative int")
    stream = _varint_stream(values) if values else b""
    try:
        head_bytes = _HEAD.pack(0, len(ids), len(steps))
    except struct.error:
        raise _unencodable("a run past 4 GiB") from None
    body = b"".join((head_bytes[_CRC.size :], ids, steps, stream))
    return _CRC.pack(zlib.crc32(body)) + body


def _open_record(buffer) -> tuple[int, int]:
    """Check a record's CRC, before anything is decoded, and frame it:
    ``(steps start, vector start)``."""
    if len(buffer) < _HEAD.size:
        raise StoreError("corrupt cell payload: truncated record")
    crc, ids_len, steps_len = _HEAD.unpack_from(buffer)
    if crc != zlib.crc32(buffer[_CRC.size :]):
        raise StoreError("corrupt cell payload: checksum mismatch")
    steps_at = _HEAD.size + ids_len
    vector_at = steps_at + steps_len
    if vector_at > len(buffer):
        raise StoreError("corrupt cell payload: runs disagree with the record")
    return steps_at, vector_at


def _record_ids(buffer, steps_at: int, vector_at: int) -> tuple[int, ...]:
    head = _decode_varints(buffer[_HEAD.size : steps_at])
    gaps = _decode_varints(buffer[steps_at:vector_at])
    n_ids = head[0]
    expected = (2, n_ids - 1) if n_ids else (1, 0)
    if (len(head), len(gaps)) != expected:
        raise StoreError("corrupt cell payload: record-id count mismatch")
    if 0 in gaps:
        raise StoreError("corrupt cell payload: record ids do not ascend")
    return tuple(accumulate(gaps, initial=head[1])) if n_ids else ()


def decode_cell_parts(buffer) -> tuple[tuple[int, ...], dict[int, int]]:
    """A record's ``(record_ids, {joint id: weight})`` once its CRC
    checks out — the one decode of its varints: no path table read and
    no graph built."""
    try:
        steps_at, vector_at = _open_record(buffer)
        record_ids = _record_ids(buffer, steps_at, vector_at)
        values = _decode_varints(buffer[vector_at:])
        if len(values) % 2:
            raise StoreError("corrupt cell payload: a joint id without its weight")
        return record_ids, dict(zip(values[::2], values[1::2]))
    except _CORRUPT as exc:
        raise StoreError(f"corrupt cell payload: {exc}") from None


def decode_cell_ids(buffer) -> tuple[int, ...]:
    """A record's record ids once its CRC checks out, its vector left
    undecoded — what a writer orders promoted cells by."""
    try:
        return _record_ids(buffer, *_open_record(buffer))
    except _CORRUPT as exc:
        raise StoreError(f"corrupt cell payload: {exc}") from None


# --------------------------------------------------------------------------
# Path table (paths.bin)
# --------------------------------------------------------------------------


#: ``paths.bin``: the aggregated paths a cube's cell vectors name, once
#: per cube.  Path *pid* of level *L* is path ``sum(level_counts[:L]) +
#: pid`` of the file; its stages are ``stage_offsets[p] :
#: stage_offsets[p + 1]`` of ``stage_refs``, each a row of the stage
#: table — one ``(location_refs, duration_refs)`` pair of string ids per
#: distinct stage.  Joint id *j*'s pid at level *L* is ``joint[(L -
#: joint_identity) * n_joint + j]``; with ``joint_identity`` set, level
#: 0's column is the identity (joint id = level-0 pid, as on every
#: lattice whose level 0 is the finest) and is not written.  ``lineage``
#: names the build the table belongs to (``cube.json`` records the same
#: number): a ``create()`` draws a new one, appends and compactions keep
#: it.
PATHS_LAYOUT = Layout(
    PATHS_MAGIC,
    RETIRED_PATHS_MAGICS,
    "path table",
    (
        "n_levels", "n_paths", "n_stages", "n_strings", "blob_len", "n_joint",
        "n_pairs", "joint_identity",
    ),
    (
        ("lineage", "u", "1"),
        ("level_counts", "u", "n_levels"),
        ("stage_offsets", "u", "n_paths + 1"),
        ("stage_refs", "u", "n_stages"),
        ("location_refs", "u", "n_pairs"),
        ("duration_refs", "u", "n_pairs"),
        ("joint_counts", "u", "n_levels"),
        ("joint", "u", "sum(joint_counts) - joint_identity * n_joint"),
        *_STRING_SECTIONS,
    ),
)


def pack_paths(lineage: int, levels, joint) -> bytes:
    """Encode a cube's path table — ``levels[level_id][pid]`` is an
    aggregated path, ``joint[level_id][jid]`` a joint id's pid at the
    level — as one ``paths.bin`` blob (:data:`PATHS_LAYOUT`)."""
    pairs: dict[tuple[str, str], int] = {}
    stage_refs: list[int] = []
    stage_offsets = [0]
    for paths in levels:
        for path in paths:
            stage_refs.extend(pairs.setdefault(stage, len(pairs)) for stage in path)
            stage_offsets.append(len(stage_refs))
    interned: dict[str, int] = {}
    location_refs = [interned.setdefault(loc, len(interned)) for loc, _ in pairs]
    duration_refs = [interned.setdefault(dur, len(interned)) for _, dur in pairs]
    n_joint = len(joint[0]) if joint else 0
    identity = int(bool(joint) and list(joint[0]) == list(range(n_joint)))
    str_offsets, blob = _pack_strings(interned)
    return PATHS_LAYOUT.pack(
        (
            len(levels), len(stage_offsets) - 1, len(stage_refs), len(interned),
            len(blob), n_joint, len(pairs), identity,
        ),
        [lineage],
        list(map(len, levels)),
        stage_offsets,
        stage_refs,
        location_refs,
        duration_refs,
        list(map(len, joint)),
        list(chain.from_iterable(joint[identity:])),
        str_offsets,
        blob,
    )


def unpack_paths(buffer) -> tuple[int, list[list[tuple]], list[list[int]]]:
    """Decode a :func:`pack_paths` blob → ``(lineage, levels, joint)``.

    Everything the framing cannot see — counts that disagree, an offset
    that runs backwards or leaves a path empty, a ref past the string
    section, the stage table or its level's paths, bytes that are not
    UTF-8 — is a :class:`StoreError` too.
    """
    opened = PATHS_LAYOUT.open(buffer)
    level_counts = opened["level_counts"]
    offsets = opened["stage_offsets"]
    n_joint = opened["n_joint"]
    identity = opened["joint_identity"]
    try:
        if min(level_counts, default=0) < 0 or sum(level_counts) != opened["n_paths"]:
            raise ValueError("level counts disagree with n_paths")
        if offsets[0] != 0 or offsets[-1] != opened["n_stages"]:
            raise ValueError("stage offsets disagree with n_stages")
        if any(map(ge, offsets, offsets[1:])):
            raise ValueError("stage offsets do not ascend")
        if any(count != n_joint for count in opened["joint_counts"]):
            raise ValueError(f"a joint column not {n_joint} ids long")
        if identity > min(1, len(level_counts)):
            raise ValueError(f"joint identity flag {identity}")
        columns = opened["joint"]
        joint = [list(range(n_joint))] * identity + [
            columns[level * n_joint : (level + 1) * n_joint].tolist()
            for level in range(len(level_counts) - identity)
        ]
        for level, (column, count) in enumerate(zip(joint, level_counts)):
            if column and (min(column) < 0 or max(column) >= count):
                raise ValueError(
                    f"a joint column ref past level {level}'s {count} paths"
                )
        strings = _strings(opened, buffer)
        refs = (opened["location_refs"], opened["duration_refs"])
        if any(column and min(column) < 0 for column in refs):
            raise ValueError("negative string ref")
        table = list(zip(*(map(strings.__getitem__, column) for column in refs)))
        stage_refs = opened["stage_refs"]
        if stage_refs and min(stage_refs) < 0:
            raise ValueError("negative stage ref")
        stages = list(map(table.__getitem__, stage_refs))
    except (IndexError, ValueError) as exc:
        raise StoreError(f"corrupt path table: {exc}") from None
    paths = [tuple(stages[start:end]) for start, end in zip(offsets, offsets[1:])]
    levels = []
    position = 0
    for count in level_counts:
        levels.append(paths[position : position + count])
        position += count
    return opened["lineage"][0], levels, joint


# --------------------------------------------------------------------------
# Columnar partitions
# --------------------------------------------------------------------------


#: ``part-XXXXX.bin``.  ``remap`` resolves the partition-local string
#: refs (dense, decode-once) to global ids in the store's shared table;
#: ``dim_refs`` is row-major, ``path_offsets`` each record's range of
#: ``stage_refs``, and each stage ref a row of the stage table: one
#: ``(stage_locs, durations)`` pair per distinct ``(location, duration)``
#: — a local ref and an exact IEEE double (no ``repr`` round-trip).
PARTITION_LAYOUT = Layout(
    PARTITION_MAGIC,
    RETIRED_PARTITION_MAGICS,
    "columnar partition",
    ("n_records", "n_dims", "n_locals", None, "total_stages", "n_pairs"),
    (
        ("remap", "u", "n_locals"),
        ("record_ids", "u", "n_records"),
        ("dim_refs", "u", "n_records * n_dims"),
        ("path_offsets", "u", "n_records + 1"),
        ("stage_refs", "u", "total_stages"),
        ("stage_locs", "u", "n_pairs"),
        ("durations", "d", "n_pairs"),
    ),
)


def pack_partition(database: PathDatabase, strings: StringTable) -> bytes:
    """Encode *database* as one columnar partition blob
    (:data:`PARTITION_LAYOUT`).

    Every dimension value and stage location is interned into *strings*,
    the store's shared table (which the caller saves as ``strings.bin``
    before the partition lands); the file carries only the local→global
    remap arena into it.  A stage-table row is a distinct ``(location,
    duration)`` as the float compares, except that a zero duration's
    key carries its sign: ``0.0`` and ``-0.0`` (equal as floats) stay two
    rows, a NaN (equal to nothing) one row per object, so every duration
    reads back bit for bit.
    """
    interned: dict[str, int] = {}
    record_ids = []
    dim_refs = []
    path_offsets = [0]
    stage_refs = []
    pairs: dict[tuple, int] = {}
    for record in database:
        record_ids.append(record.record_id)
        for value in record.dims:
            dim_refs.append(interned.setdefault(value, len(interned)))
        for stage in record.path.stages:
            duration = stage.duration
            key = (
                (stage.location, duration)
                if duration
                else (stage.location, duration, copysign(1.0, duration))
            )
            stage_refs.append(pairs.setdefault(key, len(pairs)))
        path_offsets.append(len(stage_refs))
    locations = [interned.setdefault(key[0], len(interned)) for key in pairs]
    remap = [strings.intern(value) for value in interned]
    n_dims = database.schema.n_dimensions
    return PARTITION_LAYOUT.pack(
        (len(database), n_dims, len(interned), 0, len(stage_refs), len(pairs)),
        remap,
        record_ids,
        dim_refs,
        path_offsets,
        stage_refs,
        locations,
        array("d", [key[1] for key in pairs]),
    )


class PartitionColumns:
    """One partition as :func:`unpack_partition` decodes it before any
    row object exists.

    ``record_ids`` (ascending, in row order) and ``dims`` (one key tuple
    per row) are the columns a scan that only *counts* reads;
    :meth:`paths` builds :class:`Path` objects for the rows a caller
    picks, over the partition's one :class:`Stage` per distinct
    ``(location, duration)`` pair.  Nothing here pins the file: every
    arena is an owned ``array``.
    """

    __slots__ = ("record_ids", "dims", "_stages", "_offsets", "_refs")

    def __init__(
        self,
        record_ids: array,
        dims: list[tuple[str, ...]],
        stages: list[Stage],
        offsets: array,
        refs: array,
    ) -> None:
        self.record_ids = record_ids
        self.dims = dims
        self._stages = stages
        self._offsets = offsets
        self._refs = refs

    def __len__(self) -> int:
        return len(self.record_ids)

    def paths(self, rows: Iterable[int] | None = None) -> list[Path]:
        """The paths of *rows* (positions, in the order given), or of every
        row when ``None``.

        Every path shares the partition's stage objects — stages are
        immutable — so a few rows of a large partition cost only their
        own refs, and a whole one maps its ref arena in one pass and
        slices per row.
        """
        stage = self._stages.__getitem__
        offsets = self._offsets
        refs = self._refs
        if rows is None:
            stages = list(map(stage, refs))
            runs = (
                stages[offsets[i] : offsets[i + 1]] for i in range(len(self))
            )
        else:
            runs = (map(stage, refs[offsets[i] : offsets[i + 1]]) for i in rows)
        out = []
        append = out.append
        for run in runs:
            path = object.__new__(Path)
            object.__setattr__(path, "stages", tuple(run))
            append(path)
        return out


def unpack_partition(
    buffer,
    schema: PathSchema,
    strings: StringTable | None,
    *,
    columns: bool = False,
) -> PathDatabase | PartitionColumns:
    """Decode a :func:`pack_partition` blob back into a database, or —
    with *columns* — into its :class:`PartitionColumns` and no row object.

    *strings* is the store's shared :class:`StringTable` (``None`` when
    the store has no ``strings.bin``, which is an error here).  *buffer*
    may be ``bytes`` or a ``memoryview`` over an mmap'd file — every
    arena is sliced exactly, and the CRC is checked before any is handed
    back.

    The whole decode is bulk work — ``frombytes`` per arena, one
    ``zip`` transpose for the dim tuples, one :class:`Stage` per row of
    the stage table — with the only per-record Python being the final
    :class:`Path` / :class:`PathRecord` construction, which the column
    form leaves to :meth:`PartitionColumns.paths`.  Validation against
    the schema is skipped: partitions are written by
    :func:`pack_partition` from an already-validated database.  What the
    framing cannot see — a ref that is negative or past its table, path
    offsets that run backwards or disagree with the stage refs — is a
    :class:`StoreError` before anything is handed back.
    """
    opened = PARTITION_LAYOUT.open(buffer)
    n_records = opened["n_records"]
    n_dims = opened["n_dims"]
    if n_dims != schema.n_dimensions:
        raise StoreError(
            f"partition has {n_dims} dimensions, schema expects "
            f"{schema.n_dimensions}"
        )
    if strings is None:
        raise StoreError(
            "partition references the shared string table, but the "
            "store has no strings.bin"
        )
    names = list(map(strings.get, opened["remap"]))
    offsets, refs = opened["path_offsets"], opened["stage_refs"]
    try:
        # Only a ``q`` column can hold a negative ref.
        for column in (opened["dim_refs"], opened["stage_locs"], refs):
            if column.typecode == "q" and min(column) < 0:
                raise ValueError("a negative ref")
        if refs and max(refs) >= opened["n_pairs"]:
            raise ValueError("a stage ref past the stage table")
        if offsets[0] != 0 or offsets[-1] != len(refs) or any(map(gt, offsets, offsets[1:])):
            raise ValueError("path offsets disagree with the stage refs")
        locations = map(names.__getitem__, opened["stage_locs"])
        decoded = PartitionColumns(
            opened["record_ids"],
            _rows(list(map(names.__getitem__, opened["dim_refs"])), n_dims, n_records),
            list(map(Stage, locations, opened["durations"])),
            offsets,
            refs,
        )
    except (IndexError, ValueError) as exc:
        raise StoreError(f"corrupt columnar partition: {exc}") from None
    if columns:
        return decoded
    rows = map(PathRecord, decoded.record_ids, decoded.dims, decoded.paths())
    return PathDatabase(schema, rows, validate=False)


# --------------------------------------------------------------------------
# Cell-heap index
# --------------------------------------------------------------------------


#: ``cells.idx`` / ``cells.delta.G.idx``: one entry per *item cell* — an
#: (item level, key) — whatever the number of path levels.
#: ``cuboid_table`` rows are ``[n_cells, item_level…]``, one per item
#: cuboid; the per-cell columns (``key_refs`` into the string table, the
#: heap ``offsets`` / ``lengths`` of the item cell's one record,
#: ``n_paths``) are grouped by item cuboid in table order, so a reader
#: slices each item cuboid's run without per-cell bookkeeping, and
#: ``redundant`` holds one byte per (cell, path level) — ``n_levels``,
#: the width of the cube's path lattice — row by row.
INDEX_LAYOUT = Layout(
    INDEX_MAGIC,
    RETIRED_INDEX_MAGICS,
    "cell index",
    ("n_cuboids", "n_cells", "n_dims", "n_strings", "blob_len", "n_levels"),
    (
        *_STRING_SECTIONS,
        ("cuboid_table", "u", "n_cuboids * (1 + n_dims)"),
        ("key_refs", "u", "n_cells * n_dims"),
        ("offsets", "u", "n_cells"),
        ("lengths", "u", "n_cells"),
        ("n_paths", "u", "n_cells"),
        ("redundant", "B", "n_cells * n_levels"),
    ),
)


def pack_cell_index(cuboids: Iterable, n_dims: int, n_levels: int) -> bytes:
    """Encode every item cuboid's key/offset columns as one ``cells.idx``
    blob (:data:`INDEX_LAYOUT`).

    *cuboids* yields ``(item_level_ids, cells)`` where each cell is
    ``(key, heap offset, record length, n_paths, redundant)`` and
    *redundant* holds one mark per path level, *n_levels* of them.
    """
    interned: dict[str, int] = {}
    cuboid_table: list[int] = []
    key_refs: list[int] = []
    offsets: list[int] = []
    lengths: list[int] = []
    n_paths_column: list[int] = []
    redundant_column = bytearray()
    n_cuboids = n_cells = 0
    for item_level, cells in cuboids:
        n_cuboids += 1
        count = 0
        for key, offset, length, n_paths, redundant in cells:
            for part in key:
                key_refs.append(interned.setdefault(part, len(interned)))
            count += 1
            offsets.append(offset)
            lengths.append(length)
            n_paths_column.append(n_paths)
            redundant_column.extend(1 if mark else 0 for mark in redundant)
        row = [count, *item_level]
        if len(row) != 1 + n_dims:
            raise StoreError(
                f"item level width {len(row) - 1} does not match "
                f"{n_dims} dimensions"
            )
        cuboid_table.extend(row)
        n_cells += count
    string_offsets, blob = _pack_strings(interned)
    return INDEX_LAYOUT.pack(
        (n_cuboids, n_cells, n_dims, len(interned), len(blob), n_levels),
        string_offsets,
        blob,
        cuboid_table,
        key_refs,
        offsets,
        lengths,
        n_paths_column,
        redundant_column,
    )


def unpack_cell_index(buffer, n_levels: int) -> list[tuple]:
    """Decode ``cells.idx`` → ``[(item_level_ids, keys, entries)]`` with
    entries as ``(offset, length, n_paths, redundant)`` — one *redundant*
    mark per path level.

    Everything per-cell happens inside C loops: one ``map`` decodes the
    key refs, one ``zip`` transpose rebuilds the key tuples, one
    four-column ``zip`` materialises the entry tuples.  Nothing handed
    back refers to *buffer*, so a mapped caller may close it at once.
    What the framing cannot see is a :class:`StoreError` before anything
    is handed out: another path-lattice width than *n_levels*, string
    offsets that disagree with the blob, a string ref past the string
    table, item-cuboid counts that do not sum to ``n_cells``, a negative
    item level.
    """
    opened = INDEX_LAYOUT.open(buffer)
    n_dims, n_cells = opened["n_dims"], opened["n_cells"]
    cuboid_table = opened["cuboid_table"]
    key_refs = opened["key_refs"]
    width = 1 + n_dims
    try:
        if opened["n_levels"] != n_levels:
            raise ValueError(
                f"{opened['n_levels']} path levels per cell, the cube's "
                f"lattice has {n_levels}"
            )
        strings = _strings(opened, buffer)
        if key_refs and (min(key_refs) < 0 or max(key_refs) >= len(strings)):
            raise ValueError("a string ref past the string table")
        counts = cuboid_table[::width]
        if min(cuboid_table, default=0) < 0:
            raise ValueError("a negative cell count or item level")
        if sum(counts) != n_cells:
            raise ValueError("cuboid rows disagree with n_cells")
    except ValueError as exc:
        raise StoreError(f"corrupt cell index: {exc}") from None

    keys = _rows(list(map(strings.__getitem__, key_refs)), n_dims, n_cells)
    marks = list(map(bool, buffer[slice(*opened["redundant"])]))
    entries = list(
        zip(
            opened["offsets"], opened["lengths"], opened["n_paths"],
            _rows(marks, n_levels, n_cells),
        )
    )
    out, position = [], 0
    for row, count in enumerate(counts):
        out.append(
            (
                tuple(cuboid_table[row * width + 1 : (row + 1) * width]),
                keys[position : position + count],
                entries[position : position + count],
            )
        )
        position += count
    return out
