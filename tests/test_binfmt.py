"""The storage layout: codecs, cell heap, pinned bytes.

The contracts:

* **codec round-trips** (hypothesis): the columnar partition codec
  agrees with the CSV interchange round-trip on adversarial values —
  unicode, the path column's own separators (``|``, ``:``, ``\\``),
  and string blobs whose byte length is not a multiple of eight (the
  full-buffer-``cast('q')`` bug class) — and the cell-index codec is
  an exact fixed point for arbitrary cuboid layouts including empty
  cuboids and empty indexes;
* **read behaviour over the heap**: the LRU fronts the heap's cells,
  and ``maybe_reload`` notices a cross-handle rebuild through the
  single-read meta signature;
* **one record writer, one reader** (hypothesis): a cell's measure — its
  ``(pid, weight)`` vector, record ids, exceptions — round-trips through
  its ``FCHEAP04`` record, which holds none of the cell's coordinates;
  the store's write door, fed a live cell, writes a record that reads
  back as the cell's ids, multiset and expanded flowgraph, and what the
  record or the index cannot carry — or a record with a flag bit the
  layout does not define — is a typed error;
* **every damaged byte is typed**: flipping each byte and cutting at
  each length of a record and of a path table yields a decode or a
  ``StoreError``, never an untyped exception;
* **pinned bytes**: the path table, heap, index and delta segment of the
  paper example hash to constants, so format drift cannot pass unnoticed;
* **one table per container** (generated from ``binfmt``'s four
  :class:`~repro.store.binfmt.Layout` tables): every corrupt header
  count and every truncation is a typed ``StoreError`` naming the field
  or section, and DESIGN.md's byte diagrams carry the tables' rows.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
import sys
from array import array
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowcube import Cell
from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import FlowException
from repro.core.lattice import ItemLevel
from repro.core.hierarchy import ConceptHierarchy
from repro.core.path import Path, PathRecord
from repro.core.path_database import PathDatabase, PathSchema
from repro.core.serialization import exceptions_to_dicts, flowgraph_to_dict
from repro.core.stage import Stage
from repro.errors import StoreError
from repro.store import (
    CubeStore,
    PartitionedPathStore,
    append_records,
    build_cube,
    cube_store,
)
from repro.store.binfmt import (
    _EXC,
    _EXC_ZLIB,
    INDEX_LAYOUT,
    INDEX_MAGIC,
    ORDER_TAG,
    PARTITION_LAYOUT,
    PATHS_LAYOUT,
    STRINGS_LAYOUT,
    MaskArena,
    StringTable,
    decode_cell_exceptions,
    decode_cell_parts,
    encode_cell_payload,
    pack_cell_index,
    pack_partition,
    pack_paths,
    unpack_cell_index,
    unpack_partition,
    unpack_paths,
)
from tests.conftest import cube_files
from tests.oracle import OracleCell

# ----------------------------------------------------------------------
# partition codec (hypothesis)
# ----------------------------------------------------------------------

# Unicode of every width (so the UTF-8 blob length is rarely a multiple
# of eight) plus the path column's own separator characters.
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    min_size=1,
    max_size=8,
).filter(lambda s: s != "*")
_SEPARATORS = st.sampled_from(
    ["a|b", "c:d", "e\\f", "naïve", "ブランド", "🛒", "\\", "|", ":", "::"]
)
_VALUE = st.one_of(_TEXT, _SEPARATORS)
_DURATION = st.floats(
    min_value=0, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def binary_databases(draw):
    """A small database stressing interning, unicode, and alignment."""
    n_dims = draw(st.integers(min_value=1, max_value=3))
    dim_values = draw(st.lists(_VALUE, min_size=1, max_size=4, unique=True))
    locations = draw(st.lists(_VALUE, min_size=1, max_size=4, unique=True))
    schema = PathSchema(
        dimensions=tuple(
            ConceptHierarchy.flat(f"d{i}", dim_values) for i in range(n_dims)
        ),
        location=ConceptHierarchy.flat("location", locations),
        duration=ConceptHierarchy.flat("duration", ["0", "1"]),
    )
    records = []
    for record_id in range(1, draw(st.integers(min_value=0, max_value=5)) + 1):
        dims = tuple(
            draw(st.sampled_from(dim_values)) for _ in range(n_dims)
        )
        stages = [
            Stage(draw(st.sampled_from(locations)), draw(_DURATION))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        records.append(PathRecord(record_id, dims, Path(stages)))
    return PathDatabase(schema, records)


@given(binary_databases())
@settings(max_examples=60, deadline=None)
def test_partition_codec_agrees_with_csv_roundtrip(database):
    # The contract: decoding pack_partition's blob yields exactly what
    # writing and re-reading the CSV interchange format yields (which
    # floats every duration): the partition layout loses nothing the
    # interchange format keeps.
    via_csv = PathDatabase.from_csv(database.schema, database.to_csv())
    table = StringTable()
    via_binary = unpack_partition(
        pack_partition(database, table), database.schema, table
    )
    assert list(via_binary) == list(via_csv)
    assert via_binary.to_csv() == via_csv.to_csv()
    # Packing is deterministic and a fixed point over its own decode.
    assert pack_partition(via_binary, StringTable()) == pack_partition(
        via_csv, StringTable()
    )


def test_partition_codec_rejects_garbage_and_foreign_endianness():
    database = PathDatabase(
        PathSchema(
            dimensions=(ConceptHierarchy.flat("d0", ["x"]),),
            location=ConceptHierarchy.flat("location", ["a"]),
            duration=ConceptHierarchy.flat("duration", ["0"]),
        ),
        [PathRecord(1, ("x",), Path([Stage("a", 1.0)]))],
    )
    table = StringTable()
    blob = pack_partition(database, table)
    with pytest.raises(StoreError):
        unpack_partition(b"not a partition", database.schema, table)
    with pytest.raises(StoreError):
        unpack_partition(blob[:40], database.schema, table)  # truncated header
    # Byte-swap the ORDER_TAG word: a foreign-endian file must be
    # rejected, not silently mis-decoded.
    swapped = bytearray(blob)
    swapped[8:16] = blob[8:16][::-1]
    with pytest.raises(StoreError):
        unpack_partition(bytes(swapped), database.schema, table)


# ----------------------------------------------------------------------
# cell-index codec (hypothesis)
# ----------------------------------------------------------------------

_KEY_PART = st.one_of(st.just("*"), _VALUE)


@st.composite
def cell_indexes(draw):
    """(cuboids, n_dims) for the index codec, empty cuboids included."""
    n_dims = draw(st.integers(min_value=0, max_value=3))
    cuboids = []
    offset = 8
    for level_id in range(draw(st.integers(min_value=0, max_value=3))):
        item_level = tuple(
            draw(st.integers(min_value=0, max_value=4)) for _ in range(n_dims)
        )
        cells = []
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            key = tuple(draw(_KEY_PART) for _ in range(n_dims))
            length = draw(st.integers(min_value=0, max_value=1 << 20))
            cells.append(
                (
                    key,
                    offset,
                    length,
                    draw(st.integers(min_value=0, max_value=1 << 40)),
                    draw(st.booleans()),
                )
            )
            offset += 8 + length
        cuboids.append((item_level, level_id, cells))
    return cuboids, n_dims


@given(cell_indexes())
@settings(max_examples=60, deadline=None)
def test_cell_index_codec_is_a_fixed_point(case):
    cuboids, n_dims = case
    blob = pack_cell_index(cuboids, n_dims)
    decoded = unpack_cell_index(blob, MaskArena(blob))
    assert len(decoded) == len(cuboids)
    for (item_level, level_id, cells), got in zip(cuboids, decoded):
        got_levels, got_level_id, got_keys, got_entries, got_masks = got
        assert got_levels == item_level
        assert got_level_id == level_id
        assert got_keys == [cell[0] for cell in cells]
        assert got_entries == [
            (cell[1], cell[2], cell[3], cell[4]) for cell in cells
        ]
        # The precomputed catalog masks are exactly what a per-cell
        # index pass over the keys would produce.
        expected: list[dict[str, int]] = [{} for _ in range(n_dims)]
        for ordinal, key in enumerate(got_keys):
            for dim, value in enumerate(key):
                expected[dim][value] = expected[dim].get(value, 0) | (
                    1 << ordinal
                )
        assert [dict(masks.items()) for masks in got_masks] == expected
    # Deterministic encode.
    assert pack_cell_index(cuboids, n_dims) == blob


def test_cell_index_rejects_corruption():
    blob = pack_cell_index(
        [((0,), 0, [(("a",), 8, 4, 2, False)])], 1
    )
    assert blob[:8] == INDEX_MAGIC
    with pytest.raises(StoreError):
        unpack_cell_index(blob[: len(blob) - 8], MaskArena(blob))
    with pytest.raises(StoreError):
        unpack_cell_index(b"FCWRONG!" + blob[8:], MaskArena(blob))
    swapped = bytearray(blob)
    swapped[8:16] = blob[8:16][::-1]
    assert int.from_bytes(blob[8:16], "little") == ORDER_TAG
    with pytest.raises(StoreError):
        unpack_cell_index(bytes(swapped), MaskArena(blob))


# ----------------------------------------------------------------------
# one table per container: corruption, truncation, the DESIGN diagrams
# ----------------------------------------------------------------------

LAYOUTS = {
    "FCSTRS01": STRINGS_LAYOUT,
    "FCPART02": PARTITION_LAYOUT,
    "FCCIDX01": INDEX_LAYOUT,
    "FCPATH01": PATHS_LAYOUT,
}
_HEADER_START = 8  # every magic is eight bytes


@pytest.fixture(scope="module")
def packed(tmp_path_factory, example_database):
    """``{magic: (blob, read)}`` — one packed example per container, no
    section empty, and the public reader that takes its bytes."""
    database = example_database
    table = StringTable()
    partition = pack_partition(database, table)
    strings_path = tmp_path_factory.mktemp("strings") / "strings.bin"
    table.save(strings_path)
    strings = strings_path.read_bytes()
    index = pack_cell_index(
        [
            ((0, 1), 0, [(("a", "x"), 8, 4, 2, False), (("b", "x"), 20, 4, 3, True)]),
            ((1, 1), 1, [(("c", "y"), 32, 5, 2, False)]),
        ],
        2,
    )

    def load_strings(blob):
        strings_path.write_bytes(blob)
        StringTable.load(strings_path).close()

    return {
        "FCSTRS01": (strings, load_strings),
        "FCPART02": (
            partition,
            lambda blob: unpack_partition(blob, database.schema, table),
        ),
        "FCCIDX01": (
            index,
            lambda blob: unpack_cell_index(blob, MaskArena(blob)),
        ),
        "FCPATH01": (
            pack_paths(
                7,
                [
                    [(("a", "1"), ("b", "2")), (("a", "*"),)],
                    [(("b", "1"),)],
                ],
            ),
            unpack_paths,
        ),
    }


@pytest.mark.parametrize("value", [-1, -3, 2**40])
@pytest.mark.parametrize(
    ("magic", "word", "field"),
    [
        (magic, word, field)
        for magic, layout in LAYOUTS.items()
        for word, field in enumerate(layout.fields, start=1)
        if field is not None  # the reserved word is not interpreted
    ],
)
def test_a_corrupt_header_count_is_typed_never_decoded(
    packed, magic, word, field, value
):
    blob, read = packed[magic]
    read(blob)  # the example itself is sound
    at = _HEADER_START + 8 * word
    patched = blob[:at] + array("q", [value]).tobytes() + blob[at + 8 :]
    with pytest.raises(StoreError, match="corrupt"):
        read(patched)


def test_the_reserved_partition_word_is_written_zero_and_not_read(packed):
    blob, read = packed["FCPART02"]
    at = _HEADER_START + 8 * (1 + PARTITION_LAYOUT.fields.index(None))
    assert blob[at : at + 8] == bytes(8)
    patched = blob[:at] + array("q", [-3]).tobytes() + blob[at + 8 :]
    assert read(patched).to_csv() == read(blob).to_csv()


def section_ends(layout, blob) -> list[tuple[str, int]]:
    """``(name, offset one past its last byte)`` for the header and every
    section of *blob*, from the table and the decoded sections alone."""
    opened = layout.open(blob)
    end = _HEADER_START + 8 * (1 + len(layout.fields))
    ends = [("header", end)]
    for name, code, _ in layout.sections:
        start = end + (-end) % 8  # byte sections are zero-padded to 8
        if code == "B":
            assert opened[name][0] == start
            end = opened[name][1]
        else:
            end = start + 8 * len(opened[name])
        assert end > start, f"the example leaves {name} empty"
        ends.append((name, end))
    return ends


@pytest.mark.parametrize("magic", LAYOUTS)
def test_every_truncation_names_the_section_it_cuts(packed, magic):
    layout = LAYOUTS[magic]
    blob, _ = packed[magic]
    ends = section_ends(layout, blob)
    assert ends[-1][1] + (-ends[-1][1]) % 8 == len(blob)
    for _, boundary in ends:
        for length in (boundary - 1, boundary):
            cut = next((name for name, end in ends if end > length), None)
            if cut is None:
                layout.open(blob[:length])  # the last section is whole
                continue
            with pytest.raises(StoreError, match=f"truncated {cut}$"):
                layout.open(blob[:length])


@pytest.mark.parametrize("magic", LAYOUTS)
def test_foreign_files_are_refused_as_before(packed, magic):
    layout = LAYOUTS[magic]
    blob, read = packed[magic]
    with pytest.raises(StoreError, match=f"^not a {layout.what}: bad magic$"):
        read(b"FCWRONG!" + blob[8:])
    swapped = blob[:8] + blob[8:16][::-1] + blob[16:]
    with pytest.raises(StoreError, match="byte-order tag mismatch"):
        read(swapped)
    for retired in layout.retired:  # only FCPART01 today
        name = retired.decode("ascii")
        with pytest.raises(StoreError, match=f"retired {name} layout"):
            read(retired + blob[8:])


_TYPE_NAMES = {"q": "i64", "d": "f64", "B": "u8"}


def diagram_rows(layout) -> list[str]:
    """The table as DESIGN.md draws it: one ``name  type[count]`` row per
    section under the magic and the header row."""
    fields = ", ".join(
        "0 (reserved)" if field is None else field for field in layout.fields
    )
    rows = [
        f'"{layout.magic.decode("ascii")}"',
        f"header i64[{1 + len(layout.fields)}] order tag, {fields}",
    ]
    rows += [
        f"{name} {_TYPE_NAMES[code]}[{count}]"
        for name, code, count in layout.sections
    ]
    return rows


@pytest.mark.parametrize("magic", LAYOUTS)
def test_design_diagrams_carry_the_tables_rows_in_order(magic):
    design = (FsPath(__file__).resolve().parents[1] / "DESIGN.md").read_text(
        encoding="utf-8"
    )
    start = design.index("### Storage formats")
    text = design[start : design.index("\n### ", start + 1)]
    at = 0
    for row in diagram_rows(LAYOUTS[magic]):
        # Spacing, line breaks and trailing commentary are the diagram's.
        pattern = r"\s+".join(re.escape(word) for word in row.split())
        found = re.compile(pattern).search(text, at)
        assert found, (
            f"DESIGN.md §5 'Storage formats' has no row {row!r} after "
            f"offset {at} of the section: the {magic} diagram and "
            "binfmt's Layout table disagree"
        )
        at = found.end()


# ----------------------------------------------------------------------
# FCHEAP04 cell record: one writer, one reader (hypothesis)
# ----------------------------------------------------------------------

#: Path weights on both sides of the one-, two- and three-byte varints.
_WEIGHT = st.sampled_from([1, 2, 100, 127, 128, 300, 16383, 16384, 70000])
_EXCEPTION = st.builds(
    FlowException,
    node_prefix=st.lists(_VALUE, min_size=1, max_size=3).map(tuple),
    condition=st.lists(
        st.tuples(st.lists(_VALUE, min_size=1, max_size=2).map(tuple), _VALUE),
        max_size=2,
    ).map(tuple),
    kind=st.sampled_from(["duration", "transition"]),
    support=st.integers(min_value=1, max_value=500),
    baseline=st.dictionaries(_VALUE, st.floats(0, 1), max_size=3),
    conditional=st.dictionaries(_VALUE, st.floats(0, 1), max_size=3),
    deviation=st.floats(0, 1),
)


@st.composite
def vector_cells(draw):
    """``(encode_cell_payload arguments, level path list)``: ascending
    record ids, a ``(pid, weight)`` vector in an order of its own over a
    path list, and an exception list."""
    locations = draw(st.lists(_VALUE, min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(_VALUE, min_size=1, max_size=5, unique=True))
    stage = st.tuples(st.sampled_from(locations), st.sampled_from(labels))
    paths = draw(
        st.lists(st.lists(stage, min_size=1, max_size=4).map(tuple), max_size=6)
    )
    # A level with many paths: path ids on either side of 127.
    for i in range(draw(st.sampled_from([0, 0, 3, 120, 140]))):
        paths.append(((locations[0], f"d{i}"),))
    paths = list(dict.fromkeys(paths))
    pids = draw(st.permutations(range(len(paths))))
    pids = pids[: draw(st.integers(min_value=0, max_value=len(pids)))]
    vector = [(pid, draw(_WEIGHT)) for pid in pids]
    record_ids = sorted(
        set(draw(st.lists(st.integers(0, 2**63 - 1), max_size=6)))
    )
    cell = (
        tuple(record_ids),
        vector,
        exceptions_to_dicts(draw(st.lists(_EXCEPTION, max_size=2))),
    )
    return cell, paths


def _json_form(value):
    """*value* as JSON hands it back (tuples become lists)."""
    return json.loads(json.dumps(value))


def _assert_round_trip(cell) -> bytes:
    """The one reader gives back what the writer was given: the ids and
    the vector, in its order, and the exception section."""
    record_ids, vector, exceptions = cell
    record = encode_cell_payload(*cell)
    decoded_ids, decoded = decode_cell_parts(record)
    assert decoded_ids == tuple(record_ids)
    assert list(decoded.items()) == [tuple(pair) for pair in vector]
    assert exceptions_to_dicts(decode_cell_exceptions(record)) == _json_form(
        exceptions
    )
    return record


@given(vector_cells())
@settings(max_examples=150, deadline=None)
def test_a_cell_round_trips_through_its_structured_record(case):
    cell, _ = case
    record = _assert_round_trip(cell)
    assert record[0] & ~(_EXC | _EXC_ZLIB) == 0
    assert bool(record[0] & _EXC) == bool(cell[-1])


_ONE_STAGE = [(("L", f"d{i}"),) for i in range(16385)]


@pytest.mark.parametrize("field", ["first record id", "record id step"])
def test_record_id_varint_widths(field):
    """127 → 128 and 16 383 → 16 384 each cost exactly one more byte
    (path ids and weights: ``test_varint_widths_and_the_pure_flag``)."""
    lengths = []
    for value in (127, 128, 16383, 16384):
        record_ids = (value,) if field == "first record id" else (1, 1 + value)
        lengths.append(len(_assert_round_trip((record_ids, [(0, 1)], []))))
    assert [n - lengths[0] for n in lengths] == [0, 1, 1, 2]


def test_exception_blob_is_zlibbed_only_when_smaller():
    exceptions = exceptions_to_dicts(
        [FlowException(("a",), (), "duration", 1, {"1": 1.0}, {"1": 0.5}, 0.5)]
    )
    record = _assert_round_trip(((3,), [(0, 1)], exceptions))
    assert record[0] & _EXC and record[0] & _EXC_ZLIB
    # Only a hand-made list is too short to shrink — and is no exception
    # list, which the reader says.
    record = encode_cell_payload((3,), [(0, 1)], [0])
    assert record[0] & _EXC and not record[0] & _EXC_ZLIB
    with pytest.raises(StoreError, match="corrupt cell payload"):
        decode_cell_exceptions(record)


class _Label(str):
    """Equal to, but not exactly, a ``str``: outside the store's layout."""


_TWO_PATHS = [(("a", "1"), ("b", "2")), (("a", "2"),)]


@pytest.mark.parametrize("writer", ["encoder", "door"])
def test_every_int64_record_id_is_stored_structured(live_cube, writer):
    """A record carries every id a partition's ``int64`` column holds,
    whether the encoder or the store's door writes it."""
    for record_ids in ((2**31,), (0, 2**31, 2**32 + 7), (1, 2**63 - 1)):
        if writer == "encoder":
            _assert_round_trip((record_ids, [(1, 2), (0, 1)], []))
        else:
            pairs = [(_TWO_PATHS[0], len(record_ids))]
            cell = _live_cell(("x", "y"), record_ids, False, pairs)
            _door_round_trip(live_cube, cell)


def _unencodable_record(case: str) -> tuple:
    record_ids, vector, exceptions = [1, 2], [[1, 2], [0, 1]], []
    if case == "record id 2**63":
        record_ids = [1, 2**63]
    elif case == "negative record id":
        record_ids = [-1]
    elif case == "descending record ids":
        record_ids = [2, 1]
    elif case == "repeated record id":
        record_ids = [1, 1]
    elif case == "bool record id":
        record_ids = [0, True]
    elif case == "bool weight":
        vector = [[1, True]]
    elif case == "float weight":
        vector = [[1, 2.0], [0, 1]]
    elif case == "pair of three":
        vector = [[1, 2, 3], [0]]
    elif case == "foreign key order":
        # The fields in another order than the encoder's.
        record_ids, vector = vector, record_ids
    elif case == "vector as a dict":
        vector = dict(vector)
    elif case == "exceptions as a tuple":
        exceptions = ()
    return record_ids, vector, exceptions


def _unindexable_cell(cube, case: str) -> Cell:
    """A cell whose fields the index — key, item level, ``n_paths``,
    ``redundant`` — or the door cannot carry."""
    key, levels, n_paths, redundant = ["x", "y"], [0, 1], 3, False
    weights = {0: 2, 1: 1}
    if case == "non-str key part":
        key[1] = 7
    elif case == "str-subclass key part":
        key[1] = _Label("y")
    elif case == "non-bool redundant":
        redundant = 1
    elif case == "negative n_paths":
        n_paths = -1
    elif case == "bool n_paths":
        n_paths = True
    elif case == "float n_paths":
        n_paths = 3.0
    elif case == "wrong item-level width":
        levels = [0, 1, 0]
    elif case == "wrong key width":
        key = ["x"]
    elif case == "a cell without its multiset":
        weights = {}
    return Cell(
        tuple(key), ItemLevel(levels), cube.path_lattice[_LIVE_LEVEL_ID],
        (1, 2, 5), weights, list(_TWO_PATHS), redundant, n_paths=n_paths,
    )


#: The cases whose field only the index holds — and a cell without its
#: multiset, the shape the retired verbatim-JSON record stored — go
#: through ``CubeStore.put_cell``, the write door; what it says of each.
_DOOR_REFUSALS = {
    "non-str key part": "a field of the wrong type",
    "str-subclass key part": "a field of the wrong type",
    "non-bool redundant": "a field of the wrong type",
    "negative n_paths": "a counter that is not a non-negative int",
    "bool n_paths": "a counter that is not a non-negative int",
    "float n_paths": "a counter that is not a non-negative int",
    "wrong item-level width": "does not span 2 dimensions",
    "wrong key width": "does not span 2 dimensions",
    "a cell without its multiset": "weighs 0 paths but has 3 record ids",
}


@pytest.mark.parametrize(
    "case",
    [
        "record id 2**63",
        "negative record id",
        "descending record ids",
        "repeated record id",
        "bool record id",
        "bool weight",
        "float weight",
        "pair of three",
        "foreign key order",
        "vector as a dict",
        "exceptions as a tuple",
        *_DOOR_REFUSALS,
    ],
)
def test_every_payload_the_record_cannot_carry_is_a_typed_error(
    live_cube, case
):
    if case not in _DOOR_REFUSALS:
        with pytest.raises(StoreError, match="outside the FCHEAP04 record"):
            encode_cell_payload(*_unencodable_record(case))
        return
    before = live_cube.n_cells()
    with pytest.raises(StoreError, match=re.escape(_DOOR_REFUSALS[case])):
        live_cube.put_cell(_unindexable_cell(live_cube, case))
    assert live_cube.n_cells() == before


def test_an_unknown_flag_bit_is_damage():
    """The flags byte defines two bits; a record with any other set —
    0x01 marked the retired verbatim-JSON record — is refused by both
    readers as a corrupt record, not read past."""
    record = encode_cell_payload((4,), [(0, 1)], [])
    for bit in (0x01, 0x08, 0x80):
        flagged = bytes((record[0] | bit,)) + record[1:]
        for read in (decode_cell_parts, decode_cell_exceptions):
            with pytest.raises(
                StoreError, match=f"corrupt cell payload: unknown flags {bit:#04x}"
            ):
                read(flagged)


# ----------------------------------------------------------------------
# the store's door: a live cell's record reads back as its measure
# ----------------------------------------------------------------------
#
# ``CubeStore._encode`` is what every write goes through: it checks the
# cell's index fields, resolves its multiset into the cube's path-id
# space and hands ``encode_cell_payload`` the ids, the vector and the
# exceptions.  What it writes must read back as the cell.

_LIVE_LEVEL_ID = 1


@pytest.fixture(scope="module")
def live_cube(tmp_path_factory):
    """A created (empty) cube whose write door the tests feed."""
    from repro.core.lattice import PathLattice
    from repro.core.path_database import example_path_database

    schema = example_path_database().schema
    cube = CubeStore(tmp_path_factory.mktemp("door") / "cube", schema)
    cube.create(PathLattice.paper_default(schema.location), 2, 0.1)
    yield cube
    cube.close()


def _live_cell(key, record_ids, redundant, pairs, exceptions=()):
    """An in-memory cell over *pairs* (``(path, weight)``…)."""
    graph = FlowGraph()
    for path, weight in pairs:
        graph.add_path(path, int(weight) if weight > 0 else 1)
    graph.exceptions = list(exceptions)
    return OracleCell(
        key=key,
        item_level=ItemLevel([0] * len(key)),
        path_level=None,
        record_ids=record_ids,
        flowgraph=graph,
        paths=tuple(pairs),
        redundant=redundant,
    )


def _door(cube, cell) -> bytes:
    coords = (cell.item_level, _LIVE_LEVEL_ID, cell.key)
    ((record, n_paths, redundant),) = cube._encode([(coords, cell)])
    assert n_paths == cell.n_paths and redundant == cell.redundant
    return record


def _door_round_trip(cube, cell) -> bytes:
    """The door's record for *cell*, read back: its record ids, its
    multiset in the cube's path-id space and the graph a reader expands
    from them, with its exceptions."""
    record = _door(cube, cell)
    record_ids, vector = decode_cell_parts(record)
    paths = cube.path_table.paths[_LIVE_LEVEL_ID]
    pairs = [(paths[pid], weight) for pid, weight in vector.items()]
    assert record_ids == cell.record_ids
    assert dict(pairs) == dict(cell.paths)
    graph = FlowGraph.expand(pairs)
    graph.exceptions = decode_cell_exceptions(record)
    assert flowgraph_to_dict(graph) == flowgraph_to_dict(cell.flowgraph)
    assert bool(record[0] & _EXC) == bool(cell.flowgraph.exceptions)
    return record


#: Two key parts: the example schema's dimensions.
_KEY = st.tuples(_VALUE, _VALUE)


@given(vector_cells(), _KEY, st.booleans(), st.lists(_EXCEPTION, max_size=2))
@settings(max_examples=100, deadline=None)
def test_the_door_writes_a_record_that_reads_back_as_the_cell(
    live_cube, case, key, redundant, exceptions
):
    ((_, vector, _), paths) = case
    # The door takes a cell whose multiset weighs its record ids.
    pairs = [(paths[pid], min(weight, 128)) for pid, weight in vector]
    record_ids = tuple(range(sum(weight for _, weight in pairs)))
    cell = _live_cell(key, record_ids, redundant, pairs, exceptions)
    _door_round_trip(live_cube, cell)


def test_a_record_carries_no_coordinates(live_cube):
    """Key, levels, ``n_paths`` and ``redundant`` are the index's: the
    record is the ids, the vector and the exceptions, byte for byte what
    the encoder makes of them alone."""
    key = ("coordinate-one", "coordinate-two")
    pairs = [(_TWO_PATHS[0], 2), (_TWO_PATHS[1], 1)]
    cell = _live_cell(key, (3, 9, 12), True, pairs)
    record = _door_round_trip(live_cube, cell)
    assert b"coordinate" not in record
    ids = live_cube.path_table.ids[_LIVE_LEVEL_ID]
    vector = [(ids[path], weight) for path, weight in pairs]
    assert record == encode_cell_payload((3, 9, 12), vector, [])


def _boundary_cell(n_labels: int, weight: int):
    """*n_labels* one-stage paths of *weight* each, in a level whose
    first three path ids other cells brought: ids 3 … n_labels + 2."""
    return (), [(3 + i, weight) for i in range(n_labels)], []


@pytest.mark.parametrize(
    ("n_labels", "weight", "pure"),
    [
        (1, 127, True),  # every value fits one byte
        (1, 128, False),  # a two-byte weight
        (1, 16383, False),
        (1, 16384, False),  # a three-byte weight
        (125, 1, True),  # path ids up to 127: still one byte each
        (126, 1, False),  # path id 128
        (16381, 1, False),  # path id 16 383: two-byte ids
        (16382, 1, False),  # path id 16 384: a three-byte id
    ],
)
def test_varint_widths_and_the_pure_flag(n_labels, weight, pure):
    """A record whose varints are all single bytes — *pure* — is decoded
    by one ``list(bytes)``; the record says so by holding no
    continuation byte, not by a flag."""
    record = _assert_round_trip(_boundary_cell(n_labels, weight))
    n_varints = struct.unpack_from("<II", record, 1)[0]
    assert (max(record[9 : 9 + n_varints]) < 0x80) is pure


def _unstorable_cell(case: str):
    pairs = [((("a", "1"), ("b", "2")), 2), ((("a", "2"),), 1)]
    key, record_ids, redundant = ("x", "y"), (1, 2, 5), False
    if case == "negative record id":
        record_ids = (-1, 2, 5)
    elif case == "record id 2**63":
        record_ids = (1, 2, 2**63)
    elif case == "bool count":
        pairs[1] = (pairs[1][0], True)
    elif case == "float count":
        pairs[0] = (pairs[0][0], 2.0)
    elif case == "negative count":
        pairs = [(pairs[0][0], 4), (pairs[1][0], -1)]
    elif case == "non-str key part":
        key = ("x", 7)
    elif case == "str-subclass label":
        pairs[1] = ((("a", _Label("9")),), 1)  # a path the table cannot carry
    elif case == "non-bool redundant":
        redundant = 1
    elif case == "a cell without its multiset":
        pairs = []
    elif case == "a multiset heavier than its record ids":
        pairs[0] = (pairs[0][0], 7)
    return _live_cell(key, record_ids, redundant, pairs)


#: What the door says about each cell it refuses.
_REFUSALS = {
    "negative record id": "a counter that is not a non-negative int",
    "record id 2**63": "a record id past 2**63 - 1",
    "bool count": "a counter that is not a non-negative int",
    "float count": "a counter that is not a non-negative int",
    "negative count": "a counter that is not a non-negative int",
    "non-str key part": "a field of the wrong type",
    "str-subclass label": "has a stage that is not a pair of str",
    "non-bool redundant": "a field of the wrong type",
    "a cell without its multiset": "weighs 0 paths but has 3 record ids",
    "a multiset heavier than its record ids": "weighs 8 paths but has 3",
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_every_cell_the_record_cannot_carry_is_refused_at_the_door(
    live_cube, case
):
    with pytest.raises(StoreError, match=re.escape(_REFUSALS[case])):
        _door(live_cube, _unstorable_cell(case))


# ----------------------------------------------------------------------
# damage: every flipped or missing byte is typed
# ----------------------------------------------------------------------


def _typed_or_decoded(read, says: str = "") -> str:
    """*says* is a pattern the error's message must contain."""
    try:
        read()
    except StoreError as exc:
        assert re.search(says, str(exc)), exc
        return "typed"
    return "decoded"


def test_no_damaged_record_escapes_as_an_untyped_error():
    """Flip each byte and cut at each length of an exception-bearing
    record: both readers decode (no checksum yet) or raise
    ``StoreError`` — never ``IndexError`` / ``struct.error`` /
    ``zlib.error`` from inside the codec."""
    exceptions = exceptions_to_dicts(
        [FlowException(("a",), (), "duration", 2, {"1": 1.0}, {"1": 0.5}, 0.5)]
    )
    record = _assert_round_trip(((4, 300, 70000), [(1, 128), (0, 2)], exceptions))
    damaged = [record[:length] for length in range(len(record))]
    for position in range(len(record)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(record)
            flipped[position] ^= mask
            damaged.append(bytes(flipped))
    outcomes = {"typed": 0, "decoded": 0}
    for data in damaged:
        for read in (decode_cell_parts, decode_cell_exceptions):
            outcomes[
                _typed_or_decoded(lambda: read(data), "corrupt cell payload")
            ] += 1
    assert outcomes["typed"] > 0 and outcomes["decoded"] > 0


def _with_runs(record: bytes, varints=lambda s: s, steps=lambda s: s) -> bytes:
    """*record* with its varints and its id-step varints edited."""
    n_varints, n_steps = struct.unpack_from("<II", record, 1)
    steps_at = 9 + n_varints
    new_varints = varints(record[9:steps_at])
    new_steps = steps(record[steps_at : steps_at + n_steps])
    return (
        record[:1]
        + struct.pack("<II", len(new_varints), len(new_steps))
        + new_varints
        + new_steps
        + record[steps_at + n_steps :]
    )


def test_named_record_damage_is_named():
    record = encode_cell_payload((4, 9, 300), [(1, 2), (0, 1)], [])
    assert decode_cell_parts(record) == ((4, 9, 300), {1: 2, 0: 1})
    assert decode_cell_parts(_with_runs(record)) == decode_cell_parts(record)
    # The varints are n_pairs=2, 1, 2, 0, 1, n_ids=3, first id 4; the
    # steps are 5, 291.
    for damaged in (
        _with_runs(record, varints=lambda s: s[:-1] + bytes((s[-1] | 0x80,))),
        _with_runs(record, steps=lambda s: s[:-1] + bytes((s[-1] | 0x80,))),
    ):
        with pytest.raises(StoreError, match="dangling varint"):
            decode_cell_parts(damaged)
    repeated = _with_runs(record, steps=lambda s: b"\x00" + s[1:])
    with pytest.raises(StoreError, match="record ids do not ascend"):
        decode_cell_parts(repeated)
    for damaged in (
        _with_runs(record, steps=lambda s: s[:1]),  # a step short
        _with_runs(record, steps=lambda s: s + b"\x01"),  # one too many
        _with_runs(record, varints=lambda s: s[:-2] + b"\x09" + s[-1:]),
        _with_runs(record, varints=lambda s: s + b"\x01"),
    ):
        with pytest.raises(StoreError, match="record-id count mismatch"):
            decode_cell_parts(damaged)
    # n_pairs says more pairs than the varints hold.
    overrun = _with_runs(record, varints=lambda s: b"\x09" + s[1:])
    with pytest.raises(StoreError, match="truncated varints"):
        decode_cell_parts(overrun)
    # A path id the level's table does not hold is damage, not IndexError,
    # wherever the cell's graph is expanded from.
    for level_paths in (_TWO_PATHS[:1], _TWO_PATHS):
        cell = Cell(
            ("k",), ItemLevel([1]), None, *decode_cell_parts(record),
            level_paths,
        )
        if len(level_paths) < 2:
            with pytest.raises(StoreError, match="a path id past the path"):
                cell.flowgraph
        else:
            assert cell.flowgraph.n_paths == 3


def test_no_damaged_path_table_escapes_as_an_untyped_error(packed):
    blob, read = packed["FCPATH01"]
    lineage, levels = unpack_paths(blob)
    assert lineage == 7 and [len(paths) for paths in levels] == [2, 1]
    outcomes = {"typed": 0, "decoded": 0}
    for position in range(len(blob)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(blob)
            flipped[position] ^= mask
            outcomes[_typed_or_decoded(lambda: read(bytes(flipped)))] += 1
    # Only the zero padding after the last section may go missing unseen.
    for length in range(section_ends(PATHS_LAYOUT, blob)[-1][1]):
        assert _typed_or_decoded(lambda: read(blob[:length])) == "typed"
    assert outcomes["typed"] > 0 and outcomes["decoded"] > 0


def _with_section(blob: bytes, name: str, index: int, value: int) -> bytes:
    """*blob* (a path table) with one word of section *name* replaced."""
    opened = PATHS_LAYOUT.open(blob)
    ends = dict(section_ends(PATHS_LAYOUT, blob))
    at = ends[name] - 8 * len(opened[name]) + 8 * index
    return blob[:at] + array("q", [value]).tobytes() + blob[at + 8 :]


@pytest.mark.parametrize(
    ("section", "index", "value", "message"),
    [
        ("level_counts", 0, 3, "level counts disagree"),
        ("level_counts", 1, -1, "level counts disagree"),
        ("stage_offsets", 0, 1, "stage offsets disagree"),
        ("stage_offsets", 1, 0, "stage offsets do not ascend"),  # empty path
        ("stage_offsets", 2, 1, "stage offsets do not ascend"),  # backwards
        ("location_refs", 0, 99, "list index out of range"),  # past the strings
        ("duration_refs", 1, -1, "negative string ref"),
        ("str_offsets", 1, 99, "string offsets disagree"),
    ],
)
def test_named_path_table_damage_is_named(packed, section, index, value, message):
    blob, read = packed["FCPATH01"]
    with pytest.raises(StoreError, match=f"corrupt path table: {message}"):
        read(_with_section(blob, section, index, value))


# ----------------------------------------------------------------------
# CubeStore behaviour over the heap backend
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def example_database():
    from repro.core.path_database import example_path_database

    return example_path_database()


def _built_binary_store(tmp_path, database, cache_size=128):
    store = PartitionedPathStore.init(
        tmp_path / "s", database.schema, partition_size=3
    )
    store.ingest(database)
    build_cube(
        store,
        min_support=0.25,
        min_deviation=2.0,
        into=store.cube_store(cache_size=cache_size),
    )
    return store


def test_lru_over_binary_cells(tmp_path, example_database):
    store = _built_binary_store(tmp_path, example_database)
    cube_store = CubeStore(
        tmp_path / "s" / "cube", example_database.schema, cache_size=2
    )
    cuboid = max(cube_store.cuboids, key=len)
    keys = cuboid.keys[:3]
    assert len(keys) == 3
    level = cuboid.item_level
    path_level = cuboid.path_level

    first = cube_store.cell(level, keys[0], path_level)
    assert cube_store.cell(level, keys[0], path_level) is first  # warm hit
    stats = cube_store.cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1

    cube_store.cell(level, keys[1], path_level)
    cube_store.cell(level, keys[2], path_level)  # evicts keys[0]
    assert cube_store.cache_stats()["evictions"] == 1
    again = cube_store.cell(level, keys[0], path_level)
    assert again is not first  # rematerialised from the heap
    assert again.record_ids == first.record_ids
    assert cube_store.cache_stats()["misses"] == 4


def test_cell_sizes_and_describe_need_no_heap(tmp_path, example_database):
    store = _built_binary_store(tmp_path, example_database)
    cube_dir = tmp_path / "s" / "cube"
    heap_file = cube_files(tmp_path / "s")["segments"][0]
    heap = heap_file.read_bytes()
    heap_file.unlink()
    # Index-only reads (open, sizes, describe) never touch cell bytes.
    cube_store = CubeStore(cube_dir, example_database.schema)
    cuboid = cube_store.cuboids[0]
    sizes = cube_store.cell_sizes(cuboid.item_level, cuboid.path_level)
    assert sizes and all(n > 0 for n in sizes.values())
    assert cube_store.describe()["format"] == "binary"
    # ... but materialising a cell does, and reports the loss clearly.
    with pytest.raises(StoreError, match="cell heap"):
        cube_store.cell(cuboid.item_level, cuboid.keys[0], cuboid.path_level)
    heap_file.write_bytes(heap)
    assert cube_store.cell(
        cuboid.item_level, cuboid.keys[0], cuboid.path_level
    )


def test_cold_open_serves_precomputed_catalog_masks(
    tmp_path, example_database
):
    from repro.perf.query_kernel import CuboidKeyCatalog

    _built_binary_store(tmp_path, example_database)
    cold = PartitionedPathStore.open(tmp_path / "s").cube_store()
    hierarchies = example_database.schema.dimensions
    for cuboid in cold.cuboids:
        assert cuboid.value_masks is not None
        fast = CuboidKeyCatalog(
            cuboid.keys, hierarchies, cuboid.value_masks
        )
        derived = CuboidKeyCatalog(cuboid.keys, hierarchies)
        for dim in range(len(hierarchies)):
            for key in cuboid.keys:
                value = key[dim]
                assert fast.value_mask(dim, value) == derived.value_mask(
                    dim, value
                )


def test_maybe_reload_sees_cross_handle_rebuild(tmp_path, example_database):
    store = _built_binary_store(tmp_path, example_database)
    reader = PartitionedPathStore.open(tmp_path / "s").cube_store()
    version = reader.version
    assert reader.maybe_reload() is False  # signature unchanged

    # Another handle rebuilds with a different threshold: the meta file
    # is replaced, and the reader notices through the atomic signature.
    build_cube(
        store,
        min_support=0.5,
        min_deviation=2.0,
        into=store.cube_store(),
    )
    assert reader.maybe_reload() is True
    assert reader.version > version
    assert reader.min_support == 0.5
    assert reader.maybe_reload() is False


# ----------------------------------------------------------------------
# pinned on-disk bytes
# ----------------------------------------------------------------------

#: SHA-256 of the paper example's cube files, re-pinned when ``FCHEAP04``
#: dropped each record's copy of its cell's coordinates (exceptions off,
#: so no zlib output — which may differ between zlib builds — is hashed;
#: the lineage is fixed below).  A change here is a format change: bump
#: the generation of the file that moved instead.  The files are found
#: through ``cube.json``'s listing: what they are *called* is not format.
PINNED_SHA256 = {
    "built paths": (
        "ef3894fde294bc607824b77e260c081712735577ba1d7bd9c0ae2e81d84028ef"
    ),
    "built heap": (
        "0047ea55b1c6b225fc755669ca4c27d3b250c98aae325129c87b97829db8bfad"
    ),
    "built index": (
        "87f095d42315f7249fe765e414bd3c2ce2bcef19c0cd11f3b0d5a940dac6bb2f"
    ),
    "appended paths": (
        "601316d2d0bee7f1d36688e8d29ab7df50058535b775506000821c2630c7231b"
    ),
    "appended delta": (
        "12b67044eb40b8729b960825728c2cd3e7b48921c18e6089c2ce5aee3ccb8262"
    ),
    "appended index": (
        "e893d77744fa419423913852c107e3a5704063519426af3d612b2ea9c9333346"
    ),
    "compacted paths": (
        "601316d2d0bee7f1d36688e8d29ab7df50058535b775506000821c2630c7231b"
    ),
    "compacted heap": (
        "e2cb55affe0b9b853762428ddcfec6959735c9662ea82073c8afd305970a36d2"
    ),
    "compacted index": (
        "06e53e182ab8d9377687b89377da7bdf6550829bbe82f4fe9113c2c85ed40465"
    ),
}


@pytest.mark.skipif(
    sys.byteorder != "little", reason="cells.idx arenas are native-endian"
)
def test_cube_files_hash_to_the_pinned_digests(
    tmp_path, example_database, monkeypatch
):
    # The one run-dependent word of the cube's files: the lineage a
    # create() draws (paths.bin carries it, cube.json names it).
    monkeypatch.setattr(cube_store, "new_lineage", lambda: 2006)
    rows = list(example_database)
    store = PartitionedPathStore.init(
        tmp_path / "wh", example_database.schema, partition_size=3
    )
    store.ingest(PathDatabase(example_database.schema, rows[:6], validate=False))
    cube = build_cube(
        store, min_support=2, compute_exceptions=False, into=store.cube_store()
    )
    seen = {}

    def digest(stage, slot, segment):
        files = cube_files(tmp_path / "wh")
        assert sorted(files["segments"]) == list(range(slot + 1))
        for role, path in (
            ("paths", files["paths"]),
            (segment, files["segments"][slot]),
            ("index", files["index"]),
        ):
            seen[f"{stage} {role}"] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()

    digest("built", 0, "heap")
    append_records(store, rows[6:], cube=cube, compact_after=0)
    digest("appended", 1, "delta")
    assert cube.compact() > 0
    digest("compacted", 0, "heap")
    assert seen["compacted paths"] == seen["appended paths"]
    assert seen == PINNED_SHA256
