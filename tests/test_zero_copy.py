"""The zero-copy read path: lazy masks, lifecycle, admin.

The load-bearing assertions:

* a cold binary open reads **zero** cell-heap bytes and decodes **zero**
  catalog masks (``CubeStore.io_counters``); the first slice decodes
  only the masks it ANDs, and heap bytes are paid only per materialised
  cell;
* a reload (``maybe_reload``) materialises still-referenced lazy mask
  views out of the superseded index map before closing it, so catalogs
  built against the old build keep answering;
* open/close cycles leak no file descriptors (``/proc/self/fd``), and a
  closed store fails loudly instead of returning garbage;
* ``strings.bin`` written on a foreign-endian host is rejected, and a
  truncated ``cells.idx`` refuses to load.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.core.path import PathRecord
from repro.errors import StoreError
from repro.perf.query_kernel import CuboidKeyCatalog
from repro.query.api import FlowCubeQuery
from repro.store import PartitionedPathStore, build_cube
from repro.store.binfmt import (
    STRINGS_FILENAME,
    StringTable,
    pack_partition,
    unpack_partition,
)
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import item_cell

CONFIG = GeneratorConfig(
    n_paths=120,
    n_dims=2,
    dim_fanouts=(2, 3),
    n_location_groups=3,
    locations_per_group=2,
    n_sequences=8,
    max_path_length=4,
    max_duration=3,
    seed=3,
)
MIN_SUPPORT = 0.1


@pytest.fixture(scope="module")
def database():
    return generate_path_database(CONFIG)


@pytest.fixture()
def built_dir(tmp_path, database):
    """A built store."""
    directory = tmp_path / "wh"
    store = PartitionedPathStore.init(
        directory, database.schema, partition_size=30, store_format="binary"
    )
    store.ingest(database)
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    store.close()
    return directory


# ----------------------------------------------------------------------
# IO counters: the zero-copy contract
# ----------------------------------------------------------------------

UNTOUCHED = {"heap_bytes_read": 0, "mask_bits_decoded": 0, "cells_decoded": 0}

def test_cold_open_reads_zero_heap_bytes_and_masks(built_dir):
    store = PartitionedPathStore.open(built_dir)
    cube = store.cube_store()
    assert cube.io_counters() == UNTOUCHED

    # Enumerating cuboids and building a key catalog from the lazy mask
    # views still reads nothing: the masks stay byte spans over the map.
    cuboids = cube.cuboids
    biggest = max(cuboids, key=len)
    catalog = CuboidKeyCatalog(
        biggest.keys, store.schema.dimensions, biggest.value_masks
    )
    assert cube.io_counters() == UNTOUCHED

    # ANDing a constraint decodes masks; the heap is still untouched.
    value = biggest.keys[0][0]
    assert catalog.match_mask([(0, value)]) != 0
    counters = cube.io_counters()
    assert counters["mask_bits_decoded"] > 0
    assert counters["heap_bytes_read"] == 0

    # Reading cells finally pays heap IO — per cell, not per open — and
    # still decodes nothing until a measure is touched.
    query = FlowCubeQuery(cube)
    cells = query.slice_cells(None, **{store.schema.dimension_names[0]: value})
    assert cells
    assert cube.io_counters()["heap_bytes_read"] > 0
    assert cube.io_counters()["cells_decoded"] == 0
    assert cells[0].flowgraph.n_paths == cells[0].n_paths
    assert cube.io_counters()["cells_decoded"] == 1
    cube.close()
    store.close()


def test_cold_open_with_pending_deltas_reads_zero_heap_bytes(
    built_dir, database
):
    """The zero-copy contract holds for delta-bearing cubes.

    A store with pending delta segments lists an index that addresses
    them — which must be just as lazy as a whole heap's: the cold open
    mmaps it, decodes no masks, and reads zero heap bytes from the base
    heap *or* any segment.
    """
    from repro.store import append_records

    store = PartitionedPathStore.open(built_dir)
    rows = list(database)
    batch = [
        PathRecord(1000 + i, record.dims, record.path)
        for i, record in enumerate(rows[:12])
    ]
    append_records(store, batch, cube=store.cube_store(), compact_after=0)

    cold = store.cube_store()
    assert cold.delta_segments == [1]
    assert cold.io_counters() == UNTOUCHED

    cuboids = cold.cuboids
    biggest = max(cuboids, key=len)
    catalog = CuboidKeyCatalog(
        biggest.keys, store.schema.dimensions, biggest.value_masks
    )
    assert cold.io_counters() == UNTOUCHED
    assert catalog.match_mask([(0, biggest.keys[0][0])]) != 0
    counters = cold.io_counters()
    assert counters["mask_bits_decoded"] > 0
    assert counters["heap_bytes_read"] == 0

    # Materialising a delta-resident cell pays segment IO, per cell.
    query = FlowCubeQuery(cold)
    cells = query.slice_cells(None)
    assert cells
    assert cold.io_counters()["heap_bytes_read"] > 0
    assert cold.describe()["delta_segments"] == 1
    cold.close()
    store.close()


def test_describe_reports_shared_strings_and_io(built_dir):
    store = PartitionedPathStore.open(built_dir)
    report = store.describe()
    assert report["shared_strings"] > 0
    cube_report = store.cube_store().describe()
    assert cube_report["io"]["heap_bytes_read"] == 0
    store.close()


# ----------------------------------------------------------------------
# reload safety: live mask views survive the map swap
# ----------------------------------------------------------------------

def test_reload_materialises_live_mask_views(built_dir):
    store = PartitionedPathStore.open(built_dir)
    cube = store.cube_store()
    cuboid = max(cube.cuboids, key=len)
    masks = cuboid.value_masks
    assert masks is not None
    # Decode one mask eagerly; leave the rest as spans over the mmap.
    expected = {
        dim: dict(per_dim.items()) for dim, per_dim in enumerate(masks)
    }
    _ = masks[0].get(next(iter(masks[0])), 0)

    # Another handle republished the cube: the first handle reloads,
    # closing its superseded index map.
    writer = PartitionedPathStore.open(built_dir).cube_store()
    cell = next(iter(writer.cuboids[0]))
    writer.put_cuboid(item_cell(writer, cell))
    writer.flush()
    writer.close()
    assert cube.maybe_reload()

    # The pre-reload views still answer every value, and agree with the
    # fresh index.
    for dim, per_dim in enumerate(masks):
        assert dict(per_dim.items()) == expected[dim]
    fresh = max(cube.cuboids, key=len).value_masks
    for dim, per_dim in enumerate(fresh):
        assert dict(per_dim.items()) == expected[dim]
    cube.close()
    store.close()


# ----------------------------------------------------------------------
# lifecycle: fd hygiene and loud failures after close
# ----------------------------------------------------------------------

def _open_fds() -> int:
    # Collect first: handles leaked by *other* tests in the process are
    # reclaimed lazily, and a collection mid-loop would skew the count.
    gc.collect()
    return len(os.listdir("/proc/self/fd"))


def test_open_query_close_leaks_no_fds(built_dir, database):
    dim = database.schema.dimension_names[0]
    # Warm import/intern caches so the counted loop is steady-state.
    with PartitionedPathStore.open(built_dir) as store:
        with store.cube_store() as cube:
            FlowCubeQuery(cube).slice_cells(None)
    before = _open_fds()
    for _ in range(5):
        store = PartitionedPathStore.open(built_dir)
        store.load_partition(store.partition_ids()[0])
        cube = store.cube_store()
        query = FlowCubeQuery(cube)
        assert query.slice_cells(None)
        cube.close()
        store.close()
    assert _open_fds() == before


def test_closed_store_raises_clearly(built_dir):
    store = PartitionedPathStore.open(built_dir)
    cube = store.cube_store()
    cuboid = max(cube.cuboids, key=len)
    cube.close()
    store.close()
    # A final close drops the index map without materialising, so
    # undecoded lazy masks refuse loudly instead of returning garbage.
    with pytest.raises(StoreError):
        for per_dim in cuboid.value_masks:
            dict(per_dim.items())
    # Cell reads, by contrast, reopen the heap lazily: the handle stays
    # usable after close (close releases resources, it does not poison).
    cell = cube.cell(cuboid.item_level, cuboid.keys[0], cuboid.path_level)
    assert cell.key == cuboid.keys[0]
    cube.close()


# ----------------------------------------------------------------------
# corruption and portability guards
# ----------------------------------------------------------------------

def test_truncated_cell_index_refuses_to_load(built_dir):
    index_path = built_dir / "cube" / "cells.idx"
    blob = index_path.read_bytes()
    index_path.write_bytes(blob[: len(blob) // 2])
    store = PartitionedPathStore.open(built_dir)
    with pytest.raises(StoreError):
        store.cube_store()


def test_foreign_endian_string_table_rejected(built_dir):
    strings_path = built_dir / "partitions" / STRINGS_FILENAME
    blob = bytearray(strings_path.read_bytes())
    # Byte-swap the ORDER_TAG sentinel (first header word after the
    # magic) — exactly what the file would look like to a foreign-endian
    # reader.
    blob[8:16] = blob[8:16][::-1]
    strings_path.write_bytes(bytes(blob))
    store = PartitionedPathStore.open(built_dir)
    with pytest.raises(StoreError, match="endian"):
        store.load_partition(store.partition_ids()[0])


def test_shared_table_interning_is_stable_across_partitions(database):
    table = StringTable()
    parts = [
        pack_partition(database, table),
        pack_partition(database, table),
    ]
    first = unpack_partition(parts[0], database.schema, table)
    second = unpack_partition(parts[1], database.schema, table)
    assert first.to_csv() == second.to_csv() == database.to_csv()
    # Both partitions resolve through the same interned str objects.
    a = next(iter(first)).path[0].location
    b = next(iter(second)).path[0].location
    assert a is b
