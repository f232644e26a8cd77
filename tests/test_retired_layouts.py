"""Retired layouts are rejected, never decoded.

The store reads and writes one layout.  What earlier releases also
wrote — json-format catalogs and cube metas (including the ones that
predate the ``"format"`` field, and the ones that list no ``"files"``),
``FCHEAP01`` to ``FCHEAP07`` heaps, ``FCCIDX01`` to ``FCCIDX03``
indexes, ``FCPATH01`` to ``FCPATH03`` path tables, ``FCPART01`` and
``FCPART02`` partitions, ``FCSTRS01`` string tables, CSV partition
files — has no reader left, so
each case is hand-crafted here from bytes on top of a store the current
writer made, and must surface as a :class:`~repro.errors.StoreError`
that names the layout and the last release that read it.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.core.path_database import example_path_database
from repro.core.serialization import cube_to_json
from repro.errors import StoreError
from repro.store import PartitionedPathStore, append_records, build_cube
from repro.store.binfmt import (
    HEAP_MAGIC,
    INDEX_MAGIC,
    PARTITION_MAGIC,
    PATHS_MAGIC,
    RETIRED_HEAP_MAGICS,
    RETIRED_INDEX_MAGICS,
    RETIRED_PARTITION_MAGICS,
    RETIRED_PATHS_MAGICS,
    RETIRED_STRINGS_MAGICS,
    STRINGS_MAGIC,
    StringTable,
    unpack_partition,
)
from tests.conftest import cube_files, item_cell

#: What every rejection says after naming the layout.
LAST_READER = "the last one that did is PR 15"
#: The first heap generation (JSON payloads in the heap).
RETIRED_HEAP_MAGIC = RETIRED_HEAP_MAGICS[0]


@pytest.fixture()
def built_dir(tmp_path):
    """A built store over the first six example records."""
    example = example_path_database()
    store = PartitionedPathStore.init(
        tmp_path / "wh", example.schema, partition_size=3
    )
    store.ingest(list(example)[:6])
    build_cube(
        store, min_support=2, compute_exceptions=False, into=store.cube_store()
    ).close()
    store.close()
    return tmp_path / "wh"


def _rewrite_json(path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")


def _set_magic(path, magic: bytes) -> None:
    data = path.read_bytes()
    path.write_bytes(magic + data[len(magic):])


def _retired(layout: str) -> str:
    return rf"retired {layout} layout.*{LAST_READER}"


# ----------------------------------------------------------------------
# meta files: "format" must say binary
# ----------------------------------------------------------------------

#: A meta file of the json era either says so or predates the field.
json_era_metas = pytest.mark.parametrize(
    "edit",
    [
        lambda payload: payload.update(format="json"),
        lambda payload: payload.pop("format"),
    ],
    ids=["json", "unmarked"],
)


@json_era_metas
def test_json_catalog_is_rejected_on_open(built_dir, edit):
    _rewrite_json(built_dir / "catalog.json", edit)
    with pytest.raises(StoreError, match=_retired("json")) as caught:
        PartitionedPathStore.open(built_dir)
    assert "catalog.json" in str(caught.value)


@json_era_metas
def test_json_cube_meta_is_rejected_on_open(built_dir, edit):
    _rewrite_json(built_dir / "cube" / "cube.json", edit)
    with PartitionedPathStore.open(built_dir) as store:
        with pytest.raises(StoreError, match=_retired("json")) as caught:
            store.cube_store()
    assert "cube.json" in str(caught.value)


def test_unknown_format_names_are_rejected_too(built_dir, tmp_path):
    _rewrite_json(
        built_dir / "catalog.json", lambda payload: payload.update(format="orc")
    )
    with pytest.raises(StoreError, match="unknown store format 'orc'"):
        PartitionedPathStore.open(built_dir)
    schema = example_path_database().schema
    with pytest.raises(StoreError, match="'binary' layout only"):
        PartitionedPathStore.init(tmp_path / "new", schema, store_format="json")
    assert not (tmp_path / "new").exists()


# ----------------------------------------------------------------------
# FCHEAP01: refused at first read, and never written into
# ----------------------------------------------------------------------

def test_retired_heap_is_rejected_at_first_read(built_dir):
    heap = built_dir / "cube" / "cells.bin"
    assert heap.read_bytes()[:8] == HEAP_MAGIC
    _set_magic(heap, RETIRED_HEAP_MAGIC)
    with PartitionedPathStore.open(built_dir) as store:
        cube = store.cube_store()  # a cold open reads the index only
        assert cube.n_cells() > 0
        cuboid = cube.cuboids[0]
        with pytest.raises(StoreError, match=_retired("FCHEAP01")) as caught:
            cuboid.cell(cuboid.keys[0])
        assert "cells.bin" in str(caught.value)
        assert cube.io_counters()["heap_bytes_read"] == 0
        cube.close()


def test_writes_into_a_retired_heap_fail_the_same_way(built_dir):
    with PartitionedPathStore.open(built_dir) as store:
        cube = store.cube_store()
        cells = item_cell(cube, next(iter(cube.cuboids[0])))
        for cell in cells:
            cell.flowgraph  # decode now: the heap is about to be retired
        cube.close()
    heap = built_dir / "cube" / "cells.bin"
    _set_magic(heap, RETIRED_HEAP_MAGIC)
    before = heap.read_bytes()
    example = example_path_database()
    with PartitionedPathStore.open(built_dir) as store:
        cold = store.cube_store()
        with pytest.raises(StoreError, match=_retired("FCHEAP01")):
            cold.put_cuboid(cells)  # nothing read yet: the write must check
        with pytest.raises(StoreError, match=_retired("FCHEAP01")):
            cold.begin_delta()
        cold.close()
        with pytest.raises(StoreError, match=_retired("FCHEAP01")):
            append_records(store, list(example)[6:], compact_after=0)
    assert heap.read_bytes() == before
    assert sorted(p.name for p in (built_dir / "cube").iterdir()) == [
        "cells.bin", "cells.idx", "cube.json", "paths.bin",
    ]


def test_retired_delta_segment_is_rejected_at_first_read(built_dir):
    example = example_path_database()
    with PartitionedPathStore.open(built_dir) as store:
        cube = store.cube_store()
        append_records(store, list(example)[6:], cube=cube, compact_after=0)
        expected = cube_to_json(cube)
        cube.close()
        segment = cube_files(built_dir)["segments"][1]
        _set_magic(segment, RETIRED_HEAP_MAGIC)
        cold = store.cube_store()
        with pytest.raises(StoreError, match=_retired("FCHEAP01")):
            cube_to_json(cold)
        cold.close()
        _set_magic(segment, HEAP_MAGIC)
        with store.cube_store() as healed:
            assert cube_to_json(healed) == expected


def test_a_flowgraph_heap_is_retired_too(built_dir):
    """``FCHEAP02`` — each cell's serialised flowgraph — was read until
    PR 25; its way out is a rebuild, not a conversion: the partitions it
    was built from are unchanged."""
    assert RETIRED_HEAP_MAGICS[:2] == (b"FCHEAP01", b"FCHEAP02")
    heap = built_dir / "cube" / "cells.bin"
    _set_magic(heap, b"FCHEAP02")
    pattern = (
        r"retired FCHEAP02 layout.*the last one that did is PR 25.*"
        r"rebuild the cube"
    )
    with PartitionedPathStore.open(built_dir) as store:
        cube = store.cube_store()  # a cold open reads the index only
        cuboid = cube.cuboids[0]
        with pytest.raises(StoreError, match=pattern) as caught:
            cuboid.cell(cuboid.keys[0])  # the magic is checked when mapped
        assert "cells.bin" in str(caught.value)
        assert cube.io_counters()["heap_bytes_read"] == 0
        with pytest.raises(StoreError, match=pattern):
            cube.begin_delta()
        cube.close()
        with pytest.raises(StoreError, match=pattern):
            append_records(store, list(example_path_database())[6:])
        build_cube(
            store, min_support=2, compute_exceptions=False,
            into=store.cube_store(),
        ).close()
        with store.cube_store() as rebuilt:
            assert json.loads(cube_to_json(rebuilt))["cuboids"]
    rebuilt_heap = cube_files(built_dir)["segments"][0]
    assert rebuilt_heap != heap  # a new file: the retired one was swept
    assert rebuilt_heap.read_bytes()[:8] == HEAP_MAGIC


def _assert_heap_file_retired(built_dir, file: str, magic: bytes, pattern):
    """A heap or delta segment leading with *magic* is refused when first
    mapped, never decoded: the message matches *pattern*."""
    with PartitionedPathStore.open(built_dir) as store:
        if file == "delta segment":
            with store.cube_store() as cube:
                append_records(
                    store, list(example_path_database())[6:], cube=cube,
                    compact_after=0,
                )
        segments = cube_files(built_dir)["segments"]
        retired = segments[max(segments)]
        _set_magic(retired, magic)
        cube = store.cube_store()  # a cold open reads the index only
        assert cube.n_cells() > 0
        assert cube.io_counters()["heap_bytes_read"] == 0
        with pytest.raises(StoreError, match=pattern) as caught:
            cube_to_json(cube)
        assert retired.name in str(caught.value)
        if file == "heap":
            assert cube.io_counters()["heap_bytes_read"] == 0
            with pytest.raises(StoreError, match=pattern):
                cube.begin_delta()
        cube.close()


@pytest.mark.parametrize("file", ["heap", "delta segment"])
def test_a_coordinate_bearing_heap_is_retired_too(built_dir, file):
    """``FCHEAP03`` records repeated their cell's key, levels, ``n_paths``
    and ``redundant`` flag — the index's fields — in front of the
    measure.  A heap or delta segment in it is refused when first mapped,
    so none of its records — the verbatim-JSON ones flagged ``0x01``
    included — is ever decoded; the way out is a rebuild."""
    assert RETIRED_HEAP_MAGICS[:3] == (b"FCHEAP01", b"FCHEAP02", b"FCHEAP03")
    _assert_heap_file_retired(
        built_dir, file, b"FCHEAP03",
        r"retired FCHEAP03 layout.*the last one that did is the one at "
        r"commit 234d306.*rebuild the cube",
    )


@pytest.mark.parametrize("file", ["heap", "delta segment"])
def test_a_per_path_level_heap_is_retired_too(built_dir, file):
    """``FCHEAP04`` held one record per cell and path level, each with its
    own copy of the item cell's record ids.  A heap or delta segment in it
    is refused when first mapped; the way out is a rebuild."""
    assert RETIRED_HEAP_MAGICS[3] == b"FCHEAP04"
    _assert_heap_file_retired(
        built_dir, file, b"FCHEAP04",
        r"retired FCHEAP04 layout.*the last one that did is the one at "
        r"commit 8ab866c.*rebuild the cube",
    )


@pytest.mark.parametrize("file", ["heap", "delta segment"])
def test_a_vector_per_path_level_heap_is_retired_too(built_dir, file):
    """``FCHEAP05`` held one record per item cell with one vector per
    path level, each counting every member again.  A heap or delta
    segment in it is refused when first mapped; the way out is a
    rebuild."""
    assert RETIRED_HEAP_MAGICS[4] == b"FCHEAP05"
    _assert_heap_file_retired(
        built_dir, file, b"FCHEAP05",
        r"retired FCHEAP05 layout.*the last one that did is the one at "
        r"commit 035cbc7.*rebuild the cube",
    )


@pytest.mark.parametrize("file", ["heap", "delta segment"])
def test_an_exception_bearing_heap_is_retired_too(built_dir, file):
    """``FCHEAP06`` records carried every path level's mined exceptions
    after the vector, behind a flags byte; cells now mine theirs when
    first read.  A heap or delta segment in it is refused when first
    mapped; the way out is a rebuild."""
    assert RETIRED_HEAP_MAGICS[5] == b"FCHEAP06"
    _assert_heap_file_retired(
        built_dir, file, b"FCHEAP06",
        r"retired FCHEAP06 layout.*the last one that did is the one at "
        r"commit c64931e.*rebuild the cube",
    )


def _assert_path_table_retired(built_dir, magic: bytes, pattern: str) -> None:
    """A path table leading with *magic* is read at the first multiset —
    never at open — and refused there, by a reader and by a writer; a
    rebuild writes the current one."""
    table = cube_files(built_dir)["paths"]
    _set_magic(table, magic)
    with PartitionedPathStore.open(built_dir) as store:
        cube = store.cube_store()  # a cold open reads the index only
        cuboid = cube.cuboids[0]
        cell = cuboid.cell(cuboid.keys[0])
        assert len(cell.record_ids) == cell.n_paths  # ids need no table
        with pytest.raises(StoreError, match=pattern) as caught:
            cell.flowgraph
        assert table.name in str(caught.value)
        cube.close()
        with pytest.raises(StoreError, match=pattern):
            append_records(store, list(example_path_database())[6:])
        build_cube(
            store, min_support=2, compute_exceptions=False,
            into=store.cube_store(),
        ).close()
        with store.cube_store() as rebuilt:
            assert json.loads(cube_to_json(rebuilt))["cuboids"]
    assert cube_files(built_dir)["paths"].read_bytes()[:8] == PATHS_MAGIC


def test_a_path_table_without_joint_columns_is_retired_too(built_dir):
    """``FCPATH01`` held every level's paths but no joint columns, so it
    cannot map a vector; the way out is a rebuild."""
    assert RETIRED_PATHS_MAGICS[0] == b"FCPATH01"
    _assert_path_table_retired(
        built_dir, b"FCPATH01",
        r"retired FCPATH01 layout.*the last one that did is the one at "
        r"commit 035cbc7.*rebuild the cube",
    )


def test_a_path_table_without_a_checksum_is_retired_too(built_dir):
    """``FCPATH02`` had no CRC: a flipped byte could map a vector to
    another multiset without an error.  It is refused like ``FCPATH01``;
    the way out is a rebuild."""
    assert RETIRED_PATHS_MAGICS[1] == b"FCPATH02"
    _assert_path_table_retired(
        built_dir, b"FCPATH02",
        r"retired FCPATH02 layout.*the last one that did is the one at "
        r"commit c64931e.*rebuild the cube",
    )


def _assert_index_retired(built_dir, magic: bytes, pattern: str) -> None:
    """An index leading with *magic* is refused by the open that reads
    it and by an append; removing the cube and rebuilding is the way
    out."""
    index = cube_files(built_dir)["index"]
    _set_magic(index, magic)
    with PartitionedPathStore.open(built_dir) as store:
        with pytest.raises(StoreError, match=pattern):
            store.cube_store()
        with pytest.raises(StoreError, match=pattern):
            append_records(store, list(example_path_database())[6:])
        shutil.rmtree(built_dir / "cube")
        build_cube(
            store, min_support=2, compute_exceptions=False,
            into=store.cube_store(),
        ).close()
        with store.cube_store() as rebuilt:
            assert rebuilt.n_cells() > 0
    assert cube_files(built_dir)["index"].read_bytes()[:8] == INDEX_MAGIC


def test_a_per_path_level_index_is_retired_too(built_dir):
    """``FCCIDX01`` held one entry per cell and path level.  The index is
    what a cold open reads, so the open refuses it; the way out is to
    remove the cube and rebuild it."""
    assert RETIRED_INDEX_MAGICS[0] == b"FCCIDX01"
    _assert_index_retired(
        built_dir, b"FCCIDX01",
        r"retired FCCIDX01 layout.*the last one that did is the one at "
        r"commit 8ab866c.*remove the store's cube/ directory and rebuild",
    )


# ----------------------------------------------------------------------
# the int64 generation: FCHEAP07, FCPATH03, FCCIDX02 (FCPART02 and
# FCSTRS01 below, with the partitions)
# ----------------------------------------------------------------------

#: What the int64 generation's cube files say: its last reader, then a
#: rebuild.
_INT64_CUBE = r"the last one that did is the one at commit f3a84f9.*"


@pytest.mark.parametrize("file", ["heap", "delta segment"])
def test_a_length_prefixed_heap_is_retired_too(built_dir, file):
    """``FCHEAP07`` framed each record with an 8-byte length prefix that
    nothing read.  A heap or delta segment in it is refused when first
    mapped; the way out is a rebuild."""
    assert RETIRED_HEAP_MAGICS[6:] == (b"FCHEAP07",)
    assert HEAP_MAGIC == b"FCHEAP08"
    _assert_heap_file_retired(
        built_dir, file, b"FCHEAP07",
        rf"retired FCHEAP07 layout.*{_INT64_CUBE}rebuild the cube",
    )


def test_a_two_word_stage_path_table_is_retired_too(built_dir):
    """``FCPATH03`` spent two ``int64`` refs on every stage; the way out
    is a rebuild."""
    assert RETIRED_PATHS_MAGICS[2:] == (b"FCPATH03",)
    assert PATHS_MAGIC == b"FCPATH04"
    _assert_path_table_retired(
        built_dir, b"FCPATH03",
        rf"retired FCPATH03 layout.*{_INT64_CUBE}rebuild the cube",
    )


def test_an_unsealed_int64_index_is_retired_too(built_dir):
    """``FCCIDX02`` had ``int64`` columns and no checksum; the open
    refuses it and the way out is to remove the cube and rebuild it."""
    assert RETIRED_INDEX_MAGICS[1] == b"FCCIDX02"
    _assert_index_retired(
        built_dir, b"FCCIDX02",
        rf"retired FCCIDX02 layout.*{_INT64_CUBE}"
        r"remove the store's cube/ directory and rebuild",
    )


# ----------------------------------------------------------------------
# the stored-mask generation: FCCIDX03
# ----------------------------------------------------------------------

def test_a_mask_bearing_index_is_retired_too(built_dir):
    """``FCCIDX03`` stored every item cuboid's catalog masks beside its
    keys, which a catalog derives from the keys alone.  The open refuses
    it; the way out is to remove the cube and rebuild it."""
    assert RETIRED_INDEX_MAGICS[2:] == (b"FCCIDX03",)
    assert INDEX_MAGIC == b"FCCIDX04"
    _assert_index_retired(
        built_dir, b"FCCIDX03",
        r"retired FCCIDX03 layout.*the last one that did is the one at "
        r"commit 6a2762c.*remove the store's cube/ directory and rebuild",
    )


def test_a_cube_written_in_place_is_retired_too(built_dir):
    """Until PR 26 ``cube.json`` named no files: the store found
    ``cells.bin`` / ``cells.idx`` / ``cells.delta.*`` by name arithmetic
    and replaced them in place.  Such a meta — here with the id list it
    carried instead — is refused at open, never read by guessing names."""

    def unlist(payload):
        del payload["files"], payload["generation"]
        payload["delta_segments"] = [1]

    _rewrite_json(built_dir / "cube" / "cube.json", unlist)
    pattern = r"lists no files.*the last release that did is PR 26.*rebuild the cube"
    with PartitionedPathStore.open(built_dir) as store:
        with pytest.raises(StoreError, match=pattern) as caught:
            store.cube_store()
    assert "cube.json" in str(caught.value)


# ----------------------------------------------------------------------
# partitions: FCPART01 and CSV files
# ----------------------------------------------------------------------

def test_retired_partition_magic_is_rejected_at_first_read(built_dir):
    part = built_dir / "partitions" / "part-00000.bin"
    assert part.read_bytes()[:8] == PARTITION_MAGIC
    _set_magic(part, RETIRED_PARTITION_MAGICS[0])
    with PartitionedPathStore.open(built_dir) as store:  # the catalog is fine
        with pytest.raises(StoreError, match=_retired("FCPART01")):
            store.load_partition(0)
        assert len(store.load_partition(1)) == 3  # its neighbour still reads
        with pytest.raises(StoreError, match=_retired("FCPART01")):
            build_cube(store, min_support=2, compute_exceptions=False)
    schema = example_path_database().schema
    with pytest.raises(StoreError, match=_retired("FCPART01")):
        unpack_partition(part.read_bytes(), schema, StringTable())


def test_csv_partition_entry_is_rejected_at_first_read(built_dir):
    # What the retired writer left behind: the interchange CSV rendering.
    (built_dir / "partitions" / "part-00000.csv").write_text(
        example_path_database().to_csv(), encoding="utf-8"
    )

    def point_at_csv(payload):
        payload["partitions"][0]["filename"] = "part-00000.csv"

    _rewrite_json(built_dir / "catalog.json", point_at_csv)
    with PartitionedPathStore.open(built_dir) as store:
        with pytest.raises(StoreError, match=_retired("CSV partition")) as caught:
            store.load_partition(0)
        assert "part-00000.csv" in str(caught.value)
        with pytest.raises(StoreError, match=_retired("CSV partition")):
            store.load_all()


#: What the int64 generation's partition files say: its last reader,
#: then a re-ingest — the records are in no file this release reads.
_INT64_RECORDS = (
    r"the last one that did is the one at commit f3a84f9.*"
    r"read the store's records with that release.*re-ingest them"
)


def test_a_two_column_stage_partition_is_retired_too(built_dir):
    """``FCPART02`` held an ``int64`` location ref and a ``float64``
    duration per stage and no checksum.  It is refused at its first read;
    the records it holds are read with the last release that reads it
    and re-ingested."""
    assert RETIRED_PARTITION_MAGICS == (b"FCPART01", b"FCPART02")
    part = built_dir / "partitions" / "part-00000.bin"
    _set_magic(part, b"FCPART02")
    pattern = rf"retired FCPART02 layout.*{_INT64_RECORDS}"
    with PartitionedPathStore.open(built_dir) as store:
        with pytest.raises(StoreError, match=pattern):
            store.load_partition(0)
        assert len(store.load_partition(1)) == 3  # its neighbour still reads
        with pytest.raises(StoreError, match=pattern):
            build_cube(store, min_support=2, compute_exceptions=False)


def test_an_unsealed_string_table_is_retired_too(built_dir):
    """``FCSTRS01`` had ``int64`` offsets and no checksum.  Every
    partition resolves its strings through it, so the first partition
    read refuses it; the way out is a re-ingest."""
    assert RETIRED_STRINGS_MAGICS == (b"FCSTRS01",)
    assert STRINGS_MAGIC == b"FCSTRS02"
    strings = built_dir / "partitions" / "strings.bin"
    _set_magic(strings, b"FCSTRS01")
    pattern = rf"retired FCSTRS01 layout.*{_INT64_RECORDS}"
    with PartitionedPathStore.open(built_dir) as store:  # the catalog is fine
        with pytest.raises(StoreError, match=pattern):
            store.load_partition(0)
    with PartitionedPathStore.open(built_dir) as store:
        with pytest.raises(StoreError, match=pattern):
            build_cube(store, min_support=2, compute_exceptions=False)
