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
* **one record writer, two feeders** (hypothesis): the live-cell encoder
  and the payload-dict encoder produce the same ``FCHEAP02`` bytes for
  every cell, including every verbatim-JSON fallback;
* **pinned bytes**: the heap, index and delta segment of the paper
  example hash to constants, so format drift cannot pass unnoticed;
* **one table per container** (generated from ``binfmt``'s three
  :class:`~repro.store.binfmt.Layout` tables): every corrupt header
  count and every truncation is a typed ``StoreError`` naming the field
  or section, and DESIGN.md's byte diagrams carry the tables' rows.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from array import array
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import FlowException
from repro.core.hierarchy import ConceptHierarchy
from repro.core.path import Path, PathRecord
from repro.core.path_database import PathDatabase, PathSchema
from repro.core.serialization import flowgraph_to_dict
from repro.core.stage import Stage
from repro.errors import StoreError
from repro.store import (
    CubeStore,
    PartitionedPathStore,
    append_records,
    build_cube,
)
from repro.store.binfmt import (
    _HEAP2_EXC,
    _HEAP2_EXC_ZLIB,
    _HEAP2_PURE,
    _HEAP2_RAW,
    INDEX_LAYOUT,
    INDEX_MAGIC,
    ORDER_TAG,
    PARTITION_LAYOUT,
    STRINGS_LAYOUT,
    MaskArena,
    StringTable,
    cell_payload,
    decode_cell_parts,
    decode_cell_payload,
    encode_cell,
    encode_cell_payload,
    pack_cell_index,
    pack_partition,
    unpack_cell_index,
    unpack_partition,
)

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
    if layout.retired is not None:
        retired = layout.retired.decode("ascii")  # only FCPART01 today
        with pytest.raises(StoreError, match=f"retired {retired} layout"):
            read(layout.retired + blob[8:])


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
# FCHEAP02 cell codec: one record writer, two feeders (hypothesis)
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
def live_cells(draw):
    """``encode_cell`` arguments: coordinates, record ids, a live graph."""
    key = tuple(draw(st.lists(_VALUE, max_size=3)))
    item_level = tuple(
        draw(st.integers(min_value=0, max_value=200)) for _ in key
    )
    locations = draw(st.lists(_VALUE, min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(_VALUE, min_size=1, max_size=5, unique=True))
    stage = st.tuples(st.sampled_from(locations), st.sampled_from(labels))
    graph = FlowGraph()
    for path in draw(st.lists(st.lists(stage, min_size=1, max_size=4), max_size=6)):
        graph.add_path(tuple(path), draw(_WEIGHT))
    # A node with many duration labels: tallies of every size, and a
    # per-cell string table on either side of 127 entries.
    for i in range(draw(st.sampled_from([0, 0, 3, 120, 140]))):
        graph.add_path(((locations[0], f"d{i}"),))
    graph.exceptions = draw(st.lists(_EXCEPTION, max_size=2))
    return (
        key,
        item_level,
        draw(st.integers(min_value=0, max_value=200)),
        tuple(draw(st.lists(st.integers(0, 2**31 - 1), max_size=6))),
        draw(st.booleans()),
        graph,
    )


def _assert_feeders_agree(cell) -> bytes:
    """Live bytes == dict-fed bytes, and both decoders read them back."""
    payload = cell_payload(*cell)
    record = encode_cell(*cell)
    assert record == encode_cell_payload(payload)
    assert decode_cell_payload(record) == payload
    record_ids, redundant, graph = decode_cell_parts(record)
    assert list(record_ids) == payload["record_ids"]
    assert redundant is payload["redundant"]
    assert flowgraph_to_dict(graph) == payload["flowgraph"]
    return record


@given(live_cells())
@settings(max_examples=150, deadline=None)
def test_live_encoder_matches_the_dict_encoder(cell):
    record = _assert_feeders_agree(cell)
    assert not record[0] & _HEAP2_RAW
    graph = cell[-1]
    assert bool(record[0] & _HEAP2_EXC) == bool(graph.exceptions)


def _single_node_cell(n_labels: int, weight: int):
    """One node ``L`` whose string table holds ``n_labels + 2`` strings."""
    graph = FlowGraph()
    for i in range(n_labels):
        graph.add_path((("L", f"d{i}"),), weight)
    return ((), (), 0, (), False, graph)


@pytest.mark.parametrize(
    ("n_labels", "weight", "pure"),
    [
        (1, 127, True),  # every value fits one byte
        (1, 128, False),  # a two-byte count
        (1, 16383, False),
        (1, 16384, False),  # a three-byte count
        (125, 1, True),  # 127 strings: the table size still fits one byte
        (126, 1, False),  # 128 strings
        (16381, 1, False),  # 16 383 strings: two-byte refs
        (16382, 1, False),  # 16 384 strings: a three-byte table size
    ],
)
def test_varint_widths_and_the_pure_flag(n_labels, weight, pure):
    record = _assert_feeders_agree(_single_node_cell(n_labels, weight))
    assert bool(record[0] & _HEAP2_PURE) is pure


def test_exception_blob_is_zlibbed_only_when_smaller():
    graph = FlowGraph([(("a", "1"),)])
    graph.exceptions = [
        FlowException(("a",), (), "duration", 1, {"1": 1.0}, {"1": 0.5}, 0.5)
    ]
    record = _assert_feeders_agree((("k",), (1,), 0, (3,), False, graph))
    assert record[0] & _HEAP2_EXC and record[0] & _HEAP2_EXC_ZLIB
    # Only a hand-made payload has an exception list too short to shrink.
    payload = cell_payload(("k",), (1,), 0, (3,), False, graph)
    payload["flowgraph"]["exceptions"] = [0]
    record = encode_cell_payload(payload)
    assert record[0] & _HEAP2_EXC and not record[0] & _HEAP2_EXC_ZLIB
    assert decode_cell_payload(record) == payload


class _Label(str):
    """Equal to, but not exactly, a ``str``: outside the structured codec."""


def _fallback_cell(case: str):
    graph = FlowGraph([(("a", "1"), ("b", "2"))])
    key, record_ids, redundant = ("x", "y"), (1, 2), False
    if case == "record id 2**31":
        record_ids = (1, 2**31)
    elif case == "negative record id":
        record_ids = (-1,)
    elif case == "bool count":
        graph.node(("a",)).duration_counts["1"] = True
    elif case == "float count":
        graph.node(("a", "b")).count = 1.0
    elif case == "negative count":
        graph.n_paths = -1
    elif case == "non-str key part":
        key = ("x", 7)
    elif case == "str-subclass label":
        graph.node(("a",)).duration_counts = {_Label("1"): 1}
    elif case == "non-bool redundant":
        redundant = 1
    elif case == "orphan prefix":
        del graph._index[("a",)]  # noqa: SLF001 - hand-broken graph
    return (key, (0, 1), 2, record_ids, redundant, graph)


@pytest.mark.parametrize(
    "case",
    [
        "record id 2**31",
        "negative record id",
        "bool count",
        "float count",
        "negative count",
        "non-str key part",
        "str-subclass label",
        "non-bool redundant",
        "orphan prefix",
    ],
)
def test_every_fallback_is_the_same_raw_record_from_both_feeders(case):
    cell = _fallback_cell(case)
    payload = cell_payload(*cell)
    raw = bytes((_HEAP2_RAW,)) + json.dumps(
        payload, separators=(",", ":")
    ).encode("utf-8")
    assert encode_cell(*cell) == raw
    assert encode_cell_payload(payload) == raw
    assert decode_cell_payload(raw) == json.loads(raw[1:])
    if case != "orphan prefix":  # no graph can be rebuilt around a hole
        record_ids, redundant, graph = decode_cell_parts(raw)
        assert list(record_ids) == payload["record_ids"]
        assert redundant == payload["redundant"]
        assert flowgraph_to_dict(graph) == payload["flowgraph"]


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
    heap = (cube_dir / "cells.bin").read_bytes()
    (cube_dir / "cells.bin").unlink()
    # Index-only reads (open, sizes, describe) never touch cell bytes.
    cube_store = CubeStore(cube_dir, example_database.schema)
    cuboid = cube_store.cuboids[0]
    sizes = cube_store.cell_sizes(cuboid.item_level, cuboid.path_level)
    assert sizes and all(n > 0 for n in sizes.values())
    assert cube_store.describe()["format"] == "binary"
    # ... but materialising a cell does, and reports the loss clearly.
    with pytest.raises(StoreError, match="cell heap"):
        cube_store.cell(cuboid.item_level, cuboid.keys[0], cuboid.path_level)
    (cube_dir / "cells.bin").write_bytes(heap)
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

#: SHA-256 of the paper example's cube files, generated on the commit
#: before the one-pass write codec (exceptions off, so no zlib output —
#: which may differ between zlib builds — is hashed).  A change here is
#: a format change: bump the heap/index generation instead.
PINNED_SHA256 = {
    "built cells.bin": (
        "73e77522088687ae8a80097501429c3a126aa5d34593cbc2883c05b91662c266"
    ),
    "built cells.idx": (
        "77c4fcf16a09a680ba7d49387143ec57d46792bad0611cd3218a7aa5c82cf67d"
    ),
    "appended cells.delta.001.bin": (
        "b7ae529b4b3590be28861c7ce6dd6306e9ab78914be26f7904f1a5e30fde8611"
    ),
    "appended cells.delta.idx": (
        "78631731522044df015c6e4348ae438ffab77802d2d219855a61c4f36579f9de"
    ),
    "compacted cells.bin": (
        "3d4a24ec0b0ed15009def7a26ede05683f9f2f6cfb0a76c9c08fc64b52975b3e"
    ),
    "compacted cells.idx": (
        "af3d359b55b619828d5f33b9bf5274f10886e96fe76a6bfabe347b3e1bded6e2"
    ),
}


@pytest.mark.skipif(
    sys.byteorder != "little", reason="cells.idx arenas are native-endian"
)
def test_cube_files_hash_to_the_pinned_digests(tmp_path, example_database):
    rows = list(example_database)
    store = PartitionedPathStore.init(
        tmp_path / "wh", example_database.schema, partition_size=3
    )
    store.ingest(PathDatabase(example_database.schema, rows[:6], validate=False))
    cube = build_cube(
        store, min_support=2, compute_exceptions=False, into=store.cube_store()
    )
    directory = tmp_path / "wh" / "cube"
    seen = {}

    def digest(stage, *names):
        for name in names:
            seen[f"{stage} {name}"] = hashlib.sha256(
                (directory / name).read_bytes()
            ).hexdigest()

    digest("built", "cells.bin", "cells.idx")
    append_records(store, rows[6:], cube=cube, compact_after=0)
    digest("appended", "cells.delta.001.bin", "cells.delta.idx")
    assert cube.compact() > 0
    digest("compacted", "cells.bin", "cells.idx")
    assert seen == PINNED_SHA256
