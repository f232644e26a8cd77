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
* **one record writer, one reader** (hypothesis): an item cell's
  measure — its record ids and its one ``(joint id, weight)`` vector —
  round-trips through its ``FCHEAP07`` record, which holds none of its
  coordinates and no exception; the store's write door, fed a live cell,
  writes a record that reads back as the cell's ids, multiset and
  expanded flowgraph, and what the record or the index cannot carry is a
  typed error;
* **every damaged byte is typed**: flipping each byte and cutting at
  each length of a record or of a path table — whose CRC then fails, in
  a buffer and in a file — is a ``StoreError``, and of a cell index a
  decode or a ``StoreError``, never an untyped exception;
* **pinned bytes**: the path table, heap, index and delta segment of the
  paper example hash to constants, so format drift cannot pass unnoticed;
* **one table per container** (generated from ``binfmt``'s four
  :class:`~repro.store.binfmt.Layout` tables): every corrupt header
  count and every truncation is a typed ``StoreError`` naming the field
  or section, and DESIGN.md's byte diagrams carry the tables' rows.
"""

from __future__ import annotations

import hashlib
import re
import sys
import zlib
from array import array
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowcube import Cell
from repro.core.flowgraph import FlowGraph
from repro.core.lattice import ItemLevel
from repro.core.hierarchy import ConceptHierarchy
from repro.core.path import Path, PathRecord
from repro.core.path_database import PathDatabase, PathSchema
from repro.core.serialization import flowgraph_to_dict
from repro.core.stage import Stage
from repro.errors import StoreError
from repro.perf.measure_rollup import PathTable
from repro.store import (
    CubeStore,
    PartitionedPathStore,
    append_records,
    build_cube,
    cube_store,
)
from repro.store.binfmt import (
    _CRC,
    _HEAD,
    INDEX_LAYOUT,
    INDEX_MAGIC,
    ORDER_TAG,
    PARTITION_LAYOUT,
    PATHS_LAYOUT,
    STRINGS_LAYOUT,
    MaskArena,
    StringTable,
    _open_record,
    decode_cell_ids,
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
    """(cuboids, n_dims, n_levels) for the index codec, empty item
    cuboids included."""
    n_dims = draw(st.integers(min_value=0, max_value=3))
    n_levels = draw(st.integers(min_value=0, max_value=4))
    cuboids = []
    offset = 8
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
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
                    tuple(draw(st.booleans()) for _ in range(n_levels)),
                )
            )
            offset += 8 + length
        cuboids.append((item_level, cells))
    return cuboids, n_dims, n_levels


@given(cell_indexes())
@settings(max_examples=60, deadline=None)
def test_cell_index_codec_is_a_fixed_point(case):
    cuboids, n_dims, n_levels = case
    blob = pack_cell_index(cuboids, n_dims, n_levels)
    decoded = unpack_cell_index(blob, MaskArena(blob), n_levels)
    assert len(decoded) == len(cuboids)
    for (item_level, cells), got in zip(cuboids, decoded):
        got_levels, got_keys, got_entries, got_masks = got
        assert got_levels == item_level
        assert got_keys == [cell[0] for cell in cells]
        assert got_entries == [cell[1:] for cell in cells]
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
    assert pack_cell_index(cuboids, n_dims, n_levels) == blob


def test_cell_index_rejects_corruption():
    blob = pack_cell_index([((0,), [(("a",), 8, 4, 2, (False, True))])], 1, 2)
    assert blob[:8] == INDEX_MAGIC
    with pytest.raises(StoreError):
        unpack_cell_index(blob[: len(blob) - 8], MaskArena(blob), 2)
    with pytest.raises(StoreError):
        unpack_cell_index(b"FCWRONG!" + blob[8:], MaskArena(blob), 2)
    swapped = bytearray(blob)
    swapped[8:16] = blob[8:16][::-1]
    assert int.from_bytes(blob[8:16], "little") == ORDER_TAG
    with pytest.raises(StoreError):
        unpack_cell_index(bytes(swapped), MaskArena(blob), 2)
    # An index of another path-lattice width than the cube's.
    with pytest.raises(StoreError, match="2 path levels per cell, the cube's"):
        unpack_cell_index(blob, MaskArena(blob), 4)


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    """A built store over the paper example — exceptions on — and its
    index file's bytes."""
    from repro.core.path_database import example_path_database

    database = example_path_database()
    directory = tmp_path_factory.mktemp("fuzz") / "wh"
    store = PartitionedPathStore.init(directory, database.schema, partition_size=3)
    store.ingest(database)
    build_cube(
        store, min_support=2, min_deviation=0.05, into=store.cube_store()
    ).close()
    store.close()
    index = cube_files(directory)["index"]
    return database.schema, index, index.read_bytes()


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_no_damaged_index_byte_escapes_as_an_untyped_error(small_store, data):
    """Flip a byte of ``cells.idx``: opening the store and reading every
    cell's measure raise nothing but ``StoreError`` — a ref past the
    string table, counts that disagree or an extent off the heap are
    typed, and a record the damage points at fails its CRC."""
    schema, index, pristine = small_store
    position = data.draw(st.integers(min_value=0, max_value=len(pristine) - 1))
    mask = data.draw(st.integers(min_value=1, max_value=255))
    damaged = bytearray(pristine)
    damaged[position] ^= mask
    index.write_bytes(bytes(damaged))
    try:
        with CubeStore(index.parent, schema) as cube:
            for cell in cube.cells():
                cell.record_ids
                cell.flowgraph
    except StoreError:
        pass
    finally:
        index.write_bytes(pristine)


def _with_index_word(blob: bytes, section: str, index: int, value: int):
    """*blob* (a cell index) with one word of *section* replaced."""
    opened = INDEX_LAYOUT.open(blob)
    ends = dict(section_ends(INDEX_LAYOUT, blob))
    at = ends[section] - 8 * len(opened[section]) + 8 * index
    return blob[:at] + array("q", [value]).tobytes() + blob[at + 8 :]


@pytest.mark.parametrize(
    ("section", "index", "value", "message"),
    [
        ("key_refs", 0, 99, "a string ref past the string table"),
        ("key_refs", 1, -1, "a string ref past the string table"),
        ("mask_refs", 2, 99, "a string ref past the string table"),
        ("cuboid_table", 0, 1, "cuboid rows disagree with n_cells"),
        ("cuboid_table", 3, 5, "cuboid rows disagree with n_cells"),
        ("cuboid_table", 1, -1, "a negative cell count or item level"),
        ("str_offsets", 1, 99, "string offsets disagree with the blob"),
    ],
)
def test_named_cell_index_damage_is_named(packed, section, index, value, message):
    """What the framing cannot see of a damaged index — a ref past the
    string table, item-cuboid counts that do not sum to ``n_cells``, a
    negative item level, offsets that leave the blob — is named."""
    blob, read = packed["FCCIDX02"]
    read(blob)
    with pytest.raises(StoreError, match=f"corrupt cell index: {message}"):
        read(_with_index_word(blob, section, index, value))


# ----------------------------------------------------------------------
# one table per container: corruption, truncation, the DESIGN diagrams
# ----------------------------------------------------------------------

#: Each container's table, keyed by the magic its rows were first pinned
#: under: the path table's rows keep the key "FCPATH01", though the table
#: is written as FCPATH03 (with joint columns and a checksum) now.
LAYOUTS = {
    "FCSTRS01": STRINGS_LAYOUT,
    "FCPART02": PARTITION_LAYOUT,
    "FCCIDX02": INDEX_LAYOUT,
    "FCPATH01": PATHS_LAYOUT,
}


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
            (
                (0, 1),
                [
                    (("a", "x"), 8, 4, 2, (False, True)),
                    (("b", "x"), 20, 4, 3, (True, True)),
                ],
            ),
            ((1, 1), [(("c", "y"), 32, 5, 2, (False, False))]),
        ],
        2,
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
        "FCCIDX02": (
            index,
            lambda blob: unpack_cell_index(blob, MaskArena(blob), 2),
        ),
        "FCPATH01": (
            pack_paths(
                7,
                [
                    [(("a", "1"), ("b", "2")), (("a", "*"),)],
                    [(("b", "1"),)],
                ],
                [[0, 1], [0, 0]],
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
    at = LAYOUTS[magic].header_start + 8 * word
    patched = blob[:at] + array("q", [value]).tobytes() + blob[at + 8 :]
    with pytest.raises(StoreError, match="corrupt"):
        read(patched)


def test_the_reserved_partition_word_is_written_zero_and_not_read(packed):
    blob, read = packed["FCPART02"]
    at = PARTITION_LAYOUT.header_start + 8 * (
        1 + PARTITION_LAYOUT.fields.index(None)
    )
    assert blob[at : at + 8] == bytes(8)
    patched = blob[:at] + array("q", [-3]).tobytes() + blob[at + 8 :]
    assert read(patched).to_csv() == read(blob).to_csv()


def section_ends(layout, blob) -> list[tuple[str, int]]:
    """``(name, offset one past its last byte)`` for the header and every
    section of *blob*, from the table and the decoded sections alone."""
    opened = layout.open(blob)
    end = layout.header_start + 8 * (1 + len(layout.fields))
    ends = [("header", end)]
    for name, code, _ in layout.sections:
        start = end + (-end) % 8  # byte sections are zero-padded to 8
        if code == "B":
            assert opened[name][0] == start
            end = opened[name][1]
        else:
            end = start + opened[name].itemsize * len(opened[name])
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
            if cut is None and length < len(blob) and layout.checksum:
                # Every section is whole; the checksum misses the padding.
                with pytest.raises(StoreError, match="checksum mismatch$"):
                    layout.open(blob[:length])
            elif cut is None:
                layout.open(blob[:length])  # the last section is whole
            else:
                with pytest.raises(StoreError, match=f"truncated {cut}$"):
                    layout.open(blob[:length])


@pytest.mark.parametrize("magic", LAYOUTS)
def test_foreign_files_are_refused_as_before(packed, magic):
    layout = LAYOUTS[magic]
    blob, read = packed[magic]
    with pytest.raises(StoreError, match=f"^not a {layout.what}: bad magic$"):
        read(b"FCWRONG!" + blob[8:])
    at = layout.header_start
    swapped = blob[:at] + blob[at : at + 8][::-1] + blob[at + 8 :]
    with pytest.raises(StoreError, match="byte-order tag mismatch"):
        read(swapped)
    for retired in layout.retired:  # FCPART01, FCCIDX01 and FCPATH01 today
        name = retired.decode("ascii")
        with pytest.raises(StoreError, match=f"retired {name} layout"):
            read(retired + blob[8:])


_TYPE_NAMES = {"q": "i64", "d": "f64", "I": "u32", "B": "u8"}


def diagram_rows(layout) -> list[str]:
    """The table as DESIGN.md draws it: one ``name  type[count]`` row per
    section under the magic and the header row."""
    fields = ", ".join(
        "0 (reserved)" if field is None else field for field in layout.fields
    )
    rows = [f'"{layout.magic.decode("ascii")}"']
    if layout.checksum:
        rows.append("crc i64[1]")
    rows.append(f"header i64[{1 + len(layout.fields)}] order tag, {fields}")
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
# FCHEAP07 item-cell record: one writer, one reader (hypothesis)
# ----------------------------------------------------------------------

#: Path weights on both sides of the one-, two- and three-byte varints.
_WEIGHT = st.sampled_from([1, 2, 100, 127, 128, 300, 16383, 16384, 70000])


@st.composite
def vector_cells(draw):
    """``(encode_cell_payload arguments, path list)``: ascending record
    ids and one ``(id, weight)`` vector in an order of its own over the
    path list."""
    locations = draw(st.lists(_VALUE, min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(_VALUE, min_size=1, max_size=5, unique=True))
    stage = st.tuples(st.sampled_from(locations), st.sampled_from(labels))
    paths = draw(
        st.lists(st.lists(stage, min_size=1, max_size=4).map(tuple), max_size=6)
    )
    # Many paths: ids on either side of 127.
    for i in range(draw(st.sampled_from([0, 0, 3, 120, 140]))):
        paths.append(((locations[0], f"d{i}"),))
    paths = list(dict.fromkeys(paths))
    ids = draw(st.permutations(range(len(paths))))
    ids = ids[: draw(st.integers(min_value=0, max_value=len(ids)))]
    vector = [(jid, draw(_WEIGHT)) for jid in ids]
    record_ids = sorted(
        set(draw(st.lists(st.integers(0, 2**63 - 1), max_size=6)))
    )
    return (tuple(record_ids), vector), paths


def _resealed(record: bytes) -> bytes:
    """*record* with its CRC recomputed over what follows it."""
    body = record[_CRC.size :]
    return _CRC.pack(zlib.crc32(body)) + body


def _assert_round_trip(cell) -> bytes:
    """The one reader gives back what the writer was given: the ids and
    the vector in its order."""
    record_ids, vector = cell
    record = encode_cell_payload(*cell)
    decoded_ids, decoded = decode_cell_parts(record)
    assert decoded_ids == tuple(record_ids) == decode_cell_ids(record)
    assert list(decoded.items()) == [tuple(pair) for pair in vector]
    return record


@given(vector_cells())
@settings(max_examples=150, deadline=None)
def test_a_cell_round_trips_through_its_structured_record(case):
    cell, _ = case
    record = _assert_round_trip(cell)
    # The record is its head, the ids and the vector, which runs to the
    # end: the same bytes as the vector of a cell without records (whose
    # ids are the one count byte).
    _, vector_at = _open_record(record)
    assert record[vector_at:] == encode_cell_payload((), cell[1])[_HEAD.size + 1 :]


_ONE_STAGE = [(("L", f"d{i}"),) for i in range(16385)]


@pytest.mark.parametrize("field", ["first record id", "record id step"])
def test_record_id_varint_widths(field):
    """127 → 128 and 16 383 → 16 384 each cost exactly one more byte
    (path ids and weights: ``test_varint_widths_and_the_pure_flag``)."""
    lengths = []
    for value in (127, 128, 16383, 16384):
        record_ids = (value,) if field == "first record id" else (1, 1 + value)
        lengths.append(len(_assert_round_trip((record_ids, [(0, 1)]))))
    assert [n - lengths[0] for n in lengths] == [0, 1, 1, 2]


class _Label(str):
    """Equal to, but not exactly, a ``str``: outside the store's layout."""


_TWO_PATHS = [(("a", "1"), ("b", "2")), (("a", "2"),)]


@pytest.mark.parametrize("writer", ["encoder", "door"])
def test_every_int64_record_id_is_stored_structured(live_cube, writer):
    """A record carries every id a partition's ``int64`` column holds,
    whether the encoder or the store's door writes it."""
    for record_ids in ((2**31,), (0, 2**31, 2**32 + 7), (1, 2**63 - 1)):
        if writer == "encoder":
            _assert_round_trip((record_ids, [(1, 2), (0, 1)]))
        else:
            pairs = [(_TWO_PATHS[0], len(record_ids))]
            item = _live_cell(live_cube, ("x", "y"), record_ids, False, pairs)
            _door_round_trip(live_cube, item)


def _unencodable_record(case: str) -> tuple:
    record_ids, vector = [1, 2], [[1, 2], [0, 1]]
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
    elif case == "record ids as a range":
        record_ids = range(1, 3)
    return record_ids, vector


def _private_table(n_levels: int, paths) -> PathTable:
    """A table whose joint id *i* is ``paths[i]`` at every one of
    *n_levels* levels: the id space of a cell the cube did not build."""
    table = PathTable(n_levels)
    for path in paths:
        table.intern_joint([path] * n_levels)
    return table


def _unindexable_item(cube, case: str) -> list[Cell]:
    """An item cell whose fields the index — key, item level,
    ``n_paths``, ``redundant`` — or the door cannot carry."""
    key, levels, n_paths, redundant = ["x", "y"], [0, 1], 3, False
    vector = {0: 2, 1: 1}
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
        vector = {}
    table = _private_table(len(cube.path_lattice), _TWO_PATHS)
    return [
        Cell(
            tuple(key), ItemLevel(levels), path_level, (1, 2, 5), vector,
            table, level_id, redundant, n_paths=n_paths,
        )
        for level_id, path_level in enumerate(cube.path_lattice)
    ]


#: The cases whose field only the index holds — and a cell without its
#: multiset, the shape the retired verbatim-JSON record stored — go
#: through ``CubeStore.put_cuboid``, the write door, as a whole item cell;
#: what it says of each.
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
        "record ids as a range",
        *_DOOR_REFUSALS,
    ],
)
def test_every_payload_the_record_cannot_carry_is_a_typed_error(
    live_cube, case
):
    if case not in _DOOR_REFUSALS:
        record_ids, vector = _unencodable_record(case)
        with pytest.raises(StoreError, match="outside the FCHEAP07 record"):
            encode_cell_payload(record_ids, vector)
        return
    before = live_cube.n_cells()
    with pytest.raises(StoreError, match=re.escape(_DOOR_REFUSALS[case])):
        live_cube.put_cuboid(_unindexable_item(live_cube, case))
    assert live_cube.n_cells() == before


# ----------------------------------------------------------------------
# the store's door: a live cell's record reads back as its measure
# ----------------------------------------------------------------------
#
# ``CubeStore._encode`` is what every write goes through: it checks an
# item cell's index fields and that its levels share one vector,
# resolves that vector into the cube's path-id space and hands
# ``encode_cell_payload`` the ids and the vector.  What it writes must
# read back as the cells.  The tests
# feed it cells over a table of their own, one at every path level.

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


def _live_cell(cube, key, record_ids, redundant, pairs):
    """An in-memory item cell over *pairs* (``(path, weight)``…), the
    same paths at every path level of *cube*."""
    n_levels = len(cube.path_lattice)
    table = _private_table(n_levels, [path for path, _ in pairs])
    vector = {
        table.intern_joint([path] * n_levels): weight for path, weight in pairs
    }
    return [
        Cell(
            key, ItemLevel([0] * len(key)), path_level, record_ids, vector,
            table, level_id, redundant,
        )
        for level_id, path_level in enumerate(cube.path_lattice)
    ]


def _door(cube, item) -> bytes:
    ((record, n_paths, redundant),) = cube._encode(item).values()
    assert n_paths == item[0].n_paths
    assert redundant == tuple(cell.redundant for cell in item)
    return record


def _door_round_trip(cube, item) -> bytes:
    """The door's record for *item*, read back: its record ids, its
    multiset at a path level in the cube's path-id space and the graph a
    reader expands from them."""
    record = _door(cube, item)
    cell = item[_LIVE_LEVEL_ID]
    record_ids, vector = decode_cell_parts(record)
    table = cube.path_table
    paths = table.paths[_LIVE_LEVEL_ID]
    column = table.joint[_LIVE_LEVEL_ID]
    pairs = [(paths[column[jid]], weight) for jid, weight in vector.items()]
    assert record_ids == cell.record_ids
    assert dict(pairs) == dict(cell.paths)
    graph = FlowGraph.expand(pairs)
    assert flowgraph_to_dict(graph) == flowgraph_to_dict(cell.flowgraph)
    return record


#: Two key parts: the example schema's dimensions.
_KEY = st.tuples(_VALUE, _VALUE)


@given(vector_cells(), _KEY, st.booleans())
@settings(max_examples=100, deadline=None)
def test_the_door_writes_a_record_that_reads_back_as_the_cell(
    live_cube, case, key, redundant
):
    ((_, vector), paths) = case
    # The door takes a cell whose multiset weighs its record ids.
    pairs = [(paths[jid], min(weight, 128)) for jid, weight in vector]
    record_ids = tuple(range(sum(weight for _, weight in pairs)))
    item = _live_cell(live_cube, key, record_ids, redundant, pairs)
    _door_round_trip(live_cube, item)


def test_a_record_carries_no_coordinates(live_cube):
    """Key, levels, ``n_paths`` and ``redundant`` are the index's: the
    record is the ids and the one vector, byte for byte what the encoder
    makes of them alone."""
    key = ("coordinate-one", "coordinate-two")
    pairs = [(_TWO_PATHS[0], 2), (_TWO_PATHS[1], 1)]
    item = _live_cell(live_cube, key, (3, 9, 12), True, pairs)
    record = _door_round_trip(live_cube, item)
    assert b"coordinate" not in record
    table = live_cube.path_table
    n_levels = len(table.paths)
    vector = [
        (table.intern_joint([path] * n_levels), weight) for path, weight in pairs
    ]
    assert record == encode_cell_payload((3, 9, 12), vector)


def _boundary_cell(n_labels: int, weight: int):
    """*n_labels* ids of *weight* each, past three other cells brought:
    ids 3 … n_labels + 2."""
    return (), [(3 + i, weight) for i in range(n_labels)]


@pytest.mark.parametrize(
    ("n_labels", "weight", "pure"),
    [
        (1, 127, True),  # every value fits one byte
        (1, 128, False),  # a two-byte weight
        (1, 16383, False),
        (1, 16384, False),  # a three-byte weight
        (125, 1, True),  # ids up to 127: still one byte each
        (126, 1, False),  # id 128
        (16381, 1, False),  # id 16 383: two-byte ids
        (16382, 1, False),  # id 16 384: a three-byte id
    ],
)
def test_varint_widths_and_the_pure_flag(n_labels, weight, pure):
    """A record whose varints are all single bytes — *pure* — is decoded
    by one ``list(bytes)``; the record says so by holding no
    continuation byte, not by a flag."""
    record = _assert_round_trip(_boundary_cell(n_labels, weight))
    _, start = _open_record(record)
    assert (max(record[start:]) < 0x80) is pure


def _unstorable_cell(cube, case: str) -> list[Cell]:
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
    return _live_cell(cube, key, record_ids, redundant, pairs)


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
        _door(live_cube, _unstorable_cell(live_cube, case))


def test_a_cell_that_is_not_a_cell_or_shares_no_vector_is_refused(live_cube):
    """The door stores the one vector a :class:`Cell` carries: another
    cell-shaped object, or levels over vectors that differ, are refused
    before a byte is written."""
    pairs = [(_TWO_PATHS[0], 2), (_TWO_PATHS[1], 1)]
    item = _live_cell(live_cube, ("x", "y"), (1, 2, 5), False, pairs)
    shaped = OracleCell(
        key=item[0].key, item_level=item[0].item_level,
        path_level=item[0].path_level, record_ids=item[0].record_ids,
        flowgraph=item[0].flowgraph, paths=item[0].paths,
    )
    other = _live_cell(live_cube, ("x", "y"), (1, 2, 5), False, pairs[::-1])
    before = live_cube.n_cells()
    for cells, says in (
        ([shaped, *item[1:]], "OracleCell"),
        ([*item[:-1], other[-1]], "do not share one vector"),
    ):
        with pytest.raises(StoreError, match=says):
            live_cube.put_cuboid(cells)
    assert live_cube.n_cells() == before


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
    """Flip each byte and cut at each length of a record: its CRC no
    longer matches, so every reader raises ``StoreError`` — never
    ``IndexError`` / ``struct.error`` from inside the codec, and never
    another measure."""
    record = _assert_round_trip(((4, 300, 70000), [(1, 128), (0, 2)]))
    damaged = [record[:length] for length in range(len(record))]
    for position in range(len(record)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(record)
            flipped[position] ^= mask
            damaged.append(bytes(flipped))
    for data in damaged:
        for read in (decode_cell_parts, decode_cell_ids):
            assert _typed_or_decoded(
                lambda: read(data), "corrupt cell payload"
            ) == "typed"


def test_every_flipped_byte_of_a_stored_record_is_typed_at_first_touch(
    tmp_path, example_database
):
    """The record CRC over the heap: flip each byte of one stored record
    in turn, in its heap file.  A cold handle still opens reading no heap
    byte, and the first touch of the item cell's measure at every path
    level is ``StoreError("corrupt cell payload: …")`` — never a
    different cell.  The path table's CRC does the same for it: with
    each byte of it flipped in turn a cold handle opens, and every cell's
    first multiset is a ``StoreError``, never another multiset."""
    _built_binary_store(tmp_path, example_database)
    directory = tmp_path / "s" / "cube"
    files = cube_files(tmp_path / "s")
    heap = files["segments"][0]
    with CubeStore(directory, example_database.schema) as cube:
        item_level, entries = next(iter(cube._index.items()))
        key, (offset, length, *_) = next(iter(entries.items()))
        lattice = cube.path_lattice
    pristine = heap.read_bytes()
    try:
        for position in range(offset, offset + length):
            damaged = bytearray(pristine)
            damaged[position] ^= 0x01
            heap.write_bytes(bytes(damaged))
            with CubeStore(directory, example_database.schema) as cold:
                assert cold.io_counters()["heap_bytes_read"] == 0
                for level in lattice:
                    cell = cold.cell(item_level, key, level)
                    with pytest.raises(StoreError, match="corrupt cell payload"):
                        cell.record_ids
    finally:
        heap.write_bytes(pristine)
    table = files["paths"]
    pristine = table.read_bytes()
    try:
        for position in range(len(pristine)):
            damaged = bytearray(pristine)
            damaged[position] ^= 0x01
            table.write_bytes(bytes(damaged))
            with CubeStore(directory, example_database.schema) as cold:
                for cell in cold.cells():
                    with pytest.raises(StoreError, match="path table"):
                        cell.weights
    finally:
        table.write_bytes(pristine)


def _with_runs(record: bytes, ids=lambda s: s, steps=lambda s: s) -> bytes:
    """*record* with its record-id varints and its steps edited, under a
    CRC that matches."""
    _, ids_len, steps_len = _HEAD.unpack_from(record)
    steps_at = _HEAD.size + ids_len
    end = steps_at + steps_len
    new_ids = ids(record[_HEAD.size : steps_at])
    new_steps = steps(record[steps_at:end])
    return _resealed(
        _HEAD.pack(0, len(new_ids), len(new_steps))
        + new_ids
        + new_steps
        + record[end:]
    )


def _with_vector(record: bytes, edit) -> bytes:
    """*record* with its vector varints edited, under a CRC that
    matches."""
    _, start = _open_record(record)
    return _resealed(record[:start] + edit(record[start:]))


def test_named_record_damage_is_named():
    record = encode_cell_payload((4, 9, 300), [(1, 2), (0, 1)])
    parts = decode_cell_parts(record)
    assert parts == ((4, 9, 300), {1: 2, 0: 1})
    assert decode_cell_parts(_with_runs(record)) == parts
    assert decode_cell_parts(_with_vector(record, bytes)) == parts
    flipped = record[:-1] + bytes((record[-1] ^ 0x01,))
    with pytest.raises(StoreError, match="checksum mismatch"):
        decode_cell_parts(flipped)
    with pytest.raises(StoreError, match="truncated record"):
        decode_cell_parts(record[: _HEAD.size - 1])
    # The steps said to run past the record's end.
    _, ids_len, _ = _HEAD.unpack_from(record)
    overrun = _HEAD.pack(0, ids_len, len(record)) + record[_HEAD.size :]
    with pytest.raises(StoreError, match="runs disagree with the record"):
        decode_cell_parts(_resealed(overrun))
    # The id varints are n_ids=3 and the first id 4; the steps are 5,
    # 291; the vector is 1, 2, 0, 1.
    for damaged in (
        _with_runs(record, ids=lambda s: s[:-1] + bytes((s[-1] | 0x80,))),
        _with_runs(record, steps=lambda s: s[:-1] + bytes((s[-1] | 0x80,))),
        _with_vector(record, lambda s: s[:-1] + bytes((s[-1] | 0x80,))),
    ):
        with pytest.raises(StoreError, match="dangling varint"):
            decode_cell_parts(damaged)
    repeated = _with_runs(record, steps=lambda s: b"\x00" + s[1:])
    with pytest.raises(StoreError, match="record ids do not ascend"):
        decode_cell_parts(repeated)
    for damaged in (
        _with_runs(record, steps=lambda s: s[:1]),  # a step short
        _with_runs(record, steps=lambda s: s + b"\x01"),  # one too many
        _with_runs(record, ids=lambda s: b"\x09" + s[1:]),  # n_ids says 9
        _with_runs(record, ids=lambda s: s + b"\x01"),  # a third varint
    ):
        with pytest.raises(StoreError, match="record-id count mismatch"):
            decode_cell_parts(damaged)
    # A joint id whose weight is missing.
    with pytest.raises(StoreError, match="a joint id without its weight"):
        decode_cell_parts(_with_vector(record, lambda s: s[:-1]))
    # A joint id the table does not hold — or one mapped to a path id its
    # level does not hold — is damage, not IndexError, wherever the
    # cell's graph is expanded from.
    record_ids, vector = parts
    for joint, level_paths, says in (
        ([[0]], _TWO_PATHS, "a joint id past the path table"),
        ([[0, 1]], _TWO_PATHS[:1], "a path id past the path table"),
        ([[0, 1]], _TWO_PATHS, None),
    ):
        table = PathTable.over([list(level_paths)], joint)
        cell = Cell(("k",), ItemLevel([1]), None, record_ids, vector, table, 0)
        if says:
            with pytest.raises(StoreError, match=says):
                cell.flowgraph
        else:
            assert cell.flowgraph.n_paths == 3


def test_no_damaged_path_table_escapes_as_an_untyped_error(packed):
    """The path table's CRC covers every byte after it, the padding too:
    each byte flipped and each cut is a ``StoreError``, never a decode."""
    blob, read = packed["FCPATH01"]
    lineage, levels, joint = unpack_paths(blob)
    assert lineage == 7 and [len(paths) for paths in levels] == [2, 1]
    assert joint == [[0, 1], [0, 0]]
    for position in range(len(blob)):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(blob)
            flipped[position] ^= mask
            assert _typed_or_decoded(lambda: read(bytes(flipped))) == "typed"
    for length in range(len(blob)):
        assert _typed_or_decoded(lambda: read(blob[:length])) == "typed"


def _resealed_table(blob: bytes) -> bytes:
    """*blob* (a path table) with its CRC recomputed over what follows."""
    at = PATHS_LAYOUT.header_start
    crc = array("q", [zlib.crc32(blob[at:])]).tobytes()
    return blob[: at - len(crc)] + crc + blob[at:]


def _with_section(blob: bytes, name: str, index: int, value: int) -> bytes:
    """*blob* (a path table) with one word of section *name* replaced,
    under a CRC that matches."""
    opened = PATHS_LAYOUT.open(blob)
    section = opened[name]
    width = section.itemsize
    ends = dict(section_ends(PATHS_LAYOUT, blob))
    at = ends[name] - width * len(section) + width * index
    word = array(section.typecode, [value]).tobytes()
    return _resealed_table(blob[:at] + word + blob[at + width :])


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
        ("joint", 1, 2, "a joint column ref past level 0's 2 paths"),
        ("joint", 3, 1, "a joint column ref past level 1's 1 paths"),
    ],
)
def test_named_path_table_damage_is_named(packed, section, index, value, message):
    blob, read = packed["FCPATH01"]
    with pytest.raises(StoreError, match=f"corrupt path table: {message}"):
        read(_with_section(blob, section, index, value))


def test_a_joint_column_shorter_than_the_joint_count_is_damage(packed):
    """Every level's joint column holds ``n_joint`` ids: one of another
    length — however the section's framing came out — is refused."""
    levels = [[(("a", "1"), ("b", "2")), (("a", "*"),)], [(("b", "1"),)]]
    blob = pack_paths(7, levels, [[0, 1], [0]])
    with pytest.raises(StoreError, match="corrupt path table: a joint column not 2"):
        unpack_paths(blob)
    with pytest.raises(StoreError, match="a path id past 2\\*\\*32 - 1"):
        pack_paths(7, levels, [[0, 2**32], [0, 0]])


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

#: SHA-256 of the paper example's cube files, re-pinned when ``FCHEAP07``
#: records lost their flags byte and exception section (so every offset
#: in the index moved) and ``FCPATH03`` gained its leading CRC (the
#: lineage is fixed below).  A change here is a format change: bump
#: the generation of the file that moved instead.  The files are found
#: through ``cube.json``'s listing: what they are *called* is not format.
PINNED_SHA256 = {
    "built paths": (
        "77a499f50d6086e0a4438dd3917a47cf073a94e2476d6a7561b638f1018eb04e"
    ),
    "built heap": (
        "9d36952a79a49eddb13dd6a95cc028e3f2fca7fd88df6876ebde546ca28cc341"
    ),
    "built index": (
        "e442269ec5ef76b5d650dbcedc6973147f7eb25d44a93e473f550cb648a2a90e"
    ),
    "appended paths": (
        "a90f7a9a140f9795f2287ae7173287c9b1ebc63ad5154711fadcfa7ebe957e69"
    ),
    "appended delta": (
        "a1fa41c9be0edc6ea37f55fcc220b83c47b4c156db3e8ab7f22fd69442f48b6d"
    ),
    "appended index": (
        "b3bf7f57f02a853f912e00cad463442b060b52336235ca18a7b980bbef115d32"
    ),
    "compacted paths": (
        "a90f7a9a140f9795f2287ae7173287c9b1ebc63ad5154711fadcfa7ebe957e69"
    ),
    "compacted heap": (
        "29f4863fab45a4ba1da64bda40d2153347d2e55d386e3ea50cb14b8d0b24671c"
    ),
    "compacted index": (
        "c12f2373576c7c65466d07a3985922283e8dee73bf4b24c0204ef20829756474"
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
