"""The zero-copy read path: generations, lazy masks, lifecycle, admin.

The load-bearing assertions:

* a cold binary open reads **zero** cell-heap bytes and decodes **zero**
  catalog masks (``CubeStore.io_counters``); the first slice decodes
  only the masks it ANDs, and heap bytes are paid only per materialised
  cell;
* the three cell-payload generations — JSON files, ``FCHEAP01`` (JSON
  in the heap), ``FCHEAP02`` (binary records) — convert into each other
  in place with ``cube_to_json`` byte-identical throughout, and
  ``flowcube-store migrate --to binary`` upgrades a legacy
  generation-1 store (``FCPART01`` partitions, no ``strings.bin``,
  ``FCHEAP01`` heap) even though the format already reads "binary";
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
import json
import os

import pytest

from repro.core.path import PathRecord
from repro.core.serialization import cube_to_json
from repro.errors import StoreError
from repro.perf.query_kernel import CuboidKeyCatalog
from repro.query.api import FlowCubeQuery
from repro.store import PartitionedPathStore, build_cube
from repro.store.binfmt import (
    HEAP_MAGIC,
    HEAP_MAGIC_V2,
    STRINGS_FILENAME,
    StringTable,
    pack_partition,
    unpack_partition,
)
from repro.store.cli import main
from repro.store.partition import partition_generation, write_partition
from repro.synth import GeneratorConfig, generate_path_database

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
    """A built binary store (the default, generation-2 layout)."""
    directory = tmp_path / "wh"
    store = PartitionedPathStore.init(
        directory, database.schema, partition_size=30, store_format="binary"
    )
    store.ingest(database)
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    store.close()
    return directory


def _heap_magic(directory) -> bytes:
    with open(directory / "cube" / "cells.bin", "rb") as handle:
        return handle.read(8)


def _downgrade_to_generation_one(directory, schema) -> None:
    """Rewrite a built binary store as a PR-8-era generation-1 store."""
    store = PartitionedPathStore.open(directory)
    for meta in store.catalog.partitions:
        path = directory / "partitions" / meta.filename
        database = store.load_partition(meta.partition_id)
        write_partition(path, database)  # no table -> FCPART01
    store.cube_store().convert("binary", generation=1)
    store.close()
    (directory / "partitions" / STRINGS_FILENAME).unlink()


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
    """The overlay extends the zero-copy contract to delta-bearing cubes.

    A store with pending ``cells.delta.NNN.bin`` segments routes its
    index through the ``cells.delta.idx`` overlay — which must be just
    as lazy as ``cells.idx``: the cold open mmaps it, decodes no masks,
    and reads zero heap bytes from the base heap *or* any segment.
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


def test_describe_reports_generation_and_io(built_dir):
    store = PartitionedPathStore.open(built_dir)
    report = store.describe()
    assert report["partition_generations"] == {"1": 0, "2": 4}
    assert report["shared_strings"] > 0
    cube_report = store.cube_store().describe()
    assert cube_report["heap_generation"] == 2
    assert cube_report["io"]["heap_bytes_read"] == 0
    store.close()


# ----------------------------------------------------------------------
# heap generations: FCHEAP01 <-> FCHEAP02 <-> JSON files
# ----------------------------------------------------------------------

def test_generation_round_trip_is_byte_identical(built_dir):
    store = PartitionedPathStore.open(built_dir)
    cube = store.cube_store()
    baseline = cube_to_json(cube)
    n_cells = cube.n_cells()
    assert _heap_magic(built_dir) == HEAP_MAGIC_V2

    # Down to generation 1 (JSON payloads in the heap)...
    assert cube.convert("binary", generation=1) == n_cells
    assert _heap_magic(built_dir) == HEAP_MAGIC
    assert cube.needs_upgrade()
    assert cube_to_json(cube) == baseline

    # ...through the portable JSON layout...
    assert cube.convert("json") == n_cells
    assert cube_to_json(cube) == baseline

    # ...and back up to generation 2.
    assert cube.convert("binary") == n_cells
    assert _heap_magic(built_dir) == HEAP_MAGIC_V2
    assert not cube.needs_upgrade()
    assert cube.convert("binary") == 0  # already latest: a no-op
    assert cube_to_json(cube) == baseline

    # A cold reader of the final store agrees byte for byte.
    cold = PartitionedPathStore.open(built_dir).cube_store()
    assert cold.describe()["heap_generation"] == 2
    assert cube_to_json(cold) == baseline


def test_migrate_cli_upgrades_legacy_binary_store(
    built_dir, database, capsys
):
    baseline = cube_to_json(
        PartitionedPathStore.open(built_dir).cube_store()
    )
    _downgrade_to_generation_one(built_dir, database.schema)
    legacy = PartitionedPathStore.open(built_dir)
    assert legacy.partitions_need_upgrade()
    assert legacy.cube_store().needs_upgrade()
    assert cube_to_json(legacy.cube_store()) == baseline  # still readable
    legacy.close()
    capsys.readouterr()

    # Same-format migrate is NOT a no-op here: it upgrades in place.
    assert main(["migrate", str(built_dir), "--to", "binary"]) == 0
    assert "migrating" in capsys.readouterr().out
    upgraded = PartitionedPathStore.open(built_dir)
    assert not upgraded.partitions_need_upgrade()
    assert (built_dir / "partitions" / STRINGS_FILENAME).exists()
    for meta in upgraded.catalog.partitions:
        assert partition_generation(
            built_dir / "partitions" / meta.filename
        ) == 2
    assert _heap_magic(built_dir) == HEAP_MAGIC_V2
    assert cube_to_json(upgraded.cube_store()) == baseline
    upgraded.close()

    # Now it really is a no-op.
    assert main(["migrate", str(built_dir), "--to", "binary"]) == 0
    assert "already in binary format" in capsys.readouterr().out


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
    writer.put_cell(cell)
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
