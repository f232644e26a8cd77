"""Stored cells: index fields now, the measure on first touch.

What :class:`~repro.store.cube_store.StoredCell` promises, pinned here:

* selecting cells decodes nothing — a default slice through
  ``SlicerApp.handle`` makes zero ``binfmt.decode_cell_parts`` calls
  (the call that expands a flowgraph from the stored vector) and never
  opens ``paths.bin``, ``measure=true`` makes exactly one per matching
  cell, and repeats (or another route over the same cells) make none;
  reading a cell's record ids or vector expands nothing either;
* over every store state, a stored cell equals the cell an
  eager decode of its record gives, and the index's ``n_paths`` /
  ``redundant`` agree with the record's;
* a cell is a snapshot: it decodes the measure it was read with after
  the store has been appended to, compacted, reloaded and closed;
* a damaged record is a typed ``StoreError`` at first touch, and a typed
  status — never a traceback — on every serve route that touches the
  measure; so is a path table that belongs to another build of the cube,
  or is shorter than the cube meta commits;
* ``/exceptions`` renders the bytes it rendered when it serialised the
  whole flowgraph to read one field.
"""

from __future__ import annotations

import copy
import json
import pickle
import re
import tempfile
from pathlib import Path as FsPath

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.flowcube import Cell, FlowCube
from repro.core.lattice import ItemLattice
from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase, example_path_database
from repro.core.redundancy import flowgraph_for, prune_redundant
from repro.core.serialization import cube_to_json, flowgraph_to_dict
from repro.core.similarity import tv_similarity
from repro.errors import StoreError
from repro.query.api import FlowCubeQuery
from repro.serve import CubeTenant, SlicerApp
from repro.serve.cuts import format_cut
from repro.serve.http import encode_json
from repro.store import (
    BuildStats,
    PartitionedPathStore,
    append_records,
    binfmt,
    build_cube,
    shared_mine_store,
)
from repro.store.cube_store import (
    CubeStore,
    StoredCell,
    entry_n_paths,
    entry_redundant,
)
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import cube_files, stored_cube_json
from tests.oracle import direct_cube
from tests.test_properties import path_databases
from tests.test_serve import get, post

CONFIG = GeneratorConfig(
    n_paths=150,
    n_dims=2,
    dim_fanouts=(2, 3),
    n_location_groups=3,
    locations_per_group=2,
    n_sequences=8,
    max_path_length=4,
    max_duration=3,
    seed=5,
)
BASE_ROWS = 120
#: Record ids from here up once left the record layout (they were stored
#: as verbatim JSON); every ``int64`` id is a structured record's now.
WIDE_ID_FLOOR = 2**31


def level_paths(cube: CubeStore, path_level) -> list:
    """The path list the records of *path_level*'s cuboids name."""
    return cube.path_table.paths[cube.path_lattice.index_of(path_level)]


def build_store(directory, schema, rows, **build):
    """A store over *rows* with its cube built."""
    store = PartitionedPathStore.init(directory, schema, partition_size=40)
    store.ingest(PathDatabase(schema, rows, validate=False))
    cube = store.cube_store()
    build.setdefault("min_support", 0.05)
    build_cube(store, into=cube, stats=BuildStats(), **build)
    return store, cube


@pytest.fixture(scope="module")
def database():
    return generate_path_database(CONFIG)


@pytest.fixture()
def store_dir(tmp_path, database):
    store, cube = build_store(tmp_path / "wh", database.schema, list(database))
    cube.close()
    store.close()
    return tmp_path / "wh"


@pytest.fixture()
def decodes(monkeypatch):
    """Every record handed to ``binfmt.decode_cell_parts``, in call order."""
    calls: list[bytes] = []
    original = binfmt.decode_cell_parts

    def counting(buffer, paths):
        calls.append(bytes(buffer))
        return original(buffer, paths)

    monkeypatch.setattr(binfmt, "decode_cell_parts", counting)
    return calls


def stored_entries(cube: CubeStore):
    """``(item_level, path_level, key, entry)`` for every persisted cell."""
    for (item_level, level_id), entries in cube._index.items():
        for key, entry in entries.items():
            yield item_level, cube.path_lattice[level_id], key, entry


# ----------------------------------------------------------------------
# (a) what decodes, and how often
# ----------------------------------------------------------------------

def test_slice_decodes_nothing_and_measure_decodes_each_cell_once(
    store_dir, decodes, monkeypatch
):
    mapped: list[str] = []
    real_map = binfmt.map_file

    def mapping(path, what):
        mapped.append(FsPath(path).name)
        return real_map(path, what)

    monkeypatch.setattr(binfmt, "map_file", mapping)
    table = cube_files(store_dir)["paths"].name
    tenant = CubeTenant.mount("wh", store_dir)
    app = SlicerApp([tenant])
    cut = {"cut": "d0:d0_0"}

    plain = post(app, "/cubes/wh/slice", cut)
    assert plain.status == 200
    n_cells = json.loads(plain.body)["n_cells"]
    assert n_cells > 1
    assert decodes == []
    assert table not in mapped  # the table waits for a graph
    counters = tenant.cube_store.io_counters()
    assert counters["heap_bytes_read"] > 0  # read ...
    assert counters["cells_decoded"] == 0  # ... and not decoded
    assert post(app, "/cubes/wh/slice", cut).body == plain.body
    assert decodes == []

    full = post(app, "/cubes/wh/slice", {**cut, "measure": True})
    assert full.status == 200
    assert json.loads(full.body)["n_cells"] == n_cells
    assert len(decodes) == n_cells
    assert len(set(decodes)) == n_cells  # one call per cell, none twice
    assert tenant.cube_store.io_counters()["cells_decoded"] == n_cells
    assert mapped.count(table) == 1  # ... and is read once

    # Repeats, and another route over the same cells, find them decoded.
    assert post(app, "/cubes/wh/slice", {**cut, "measure": True}).body == full.body
    assert post(app, "/cubes/wh/slice", cut).body == plain.body
    assert get(app, "/cubes/wh/exceptions", {"cut": "d0:d0_0"}).status == 200
    assert len(decodes) == n_cells
    stats = json.loads(get(app, "/stats").body)["cubes"]["wh"]
    assert stats["io"]["cells_decoded"] == n_cells
    assert stats["io"]["heap_bytes_read"] == counters["heap_bytes_read"]
    tenant.close()


def test_index_fields_never_touch_the_measure(store_dir, decodes):
    with PartitionedPathStore.open(store_dir) as store:
        cube = store.cube_store()
        cells = list(cube.cells())
        assert cells and all(type(cell) is StoredCell for cell in cells)
        for cell in cells:
            assert isinstance(cell, Cell)
            assert cell.n_paths > 0 and cell.redundant is False
            assert repr(cell) == f"Cell({cell.key!r}, n={cell.n_paths}, redundant=False)"
            assert not hasattr(cell, "no_such_field")
        # Cells at different coordinates compare unequal on the index alone.
        assert cells[0] != cells[1]
        assert decodes == []
        # Ids and the stored vector come from the record alone: no graph
        # is expanded (and no path table loaded) to read them.
        for cell in cells:
            assert len(cell.record_ids) == cell.n_paths
            assert sum(cell.weights.values()) == cell.n_paths
        assert decodes == []
        # The multiset names paths: the table is read, no graph expanded.
        for cell in cells:
            assert sum(weight for _, weight in cell.paths) == cell.n_paths
        assert decodes == []
        assert cube.io_counters()["cells_decoded"] == 0
        cube.close()


def test_copy_pickle_and_equality_decode_at_most_once(store_dir, decodes):
    with PartitionedPathStore.open(store_dir) as store:
        cube = store.cube_store()
        cell = next(iter(cube.cells()))

        # Untouched: copies carry the record, not a decoded measure.
        clone = copy.copy(cell)
        thawed = pickle.loads(pickle.dumps(cell))
        assert decodes == []
        assert hasattr(cell, "flowgraph")
        assert len(decodes) == 1
        graph = cell.flowgraph
        assert cell.flowgraph is graph and cell.record_ids is cell.record_ids
        assert len(decodes) == 1

        # Each copy is its own cell: one decode of the same record each.
        assert clone == cell and thawed == cell and cell == thawed
        assert decodes == [decodes[0]] * 3
        assert thawed.flowgraph is not graph

        # Touched: the decoded measure travels with the copy.
        assert copy.copy(cell).flowgraph is graph
        again = pickle.loads(pickle.dumps(cell))
        assert again == cell and again.n_paths == cell.n_paths
        assert len(decodes) == 3
        cube.close()


# ----------------------------------------------------------------------
# (b) stored cell == eager decode, over every store state
# ----------------------------------------------------------------------

def assert_cells_match_records(cube: CubeStore) -> None:
    """Every stored cell equals the eager decode of its own record."""
    seen = 0
    for item_level, path_level, key, entry in stored_entries(cube):
        record = cube._cells.record(entry)
        record_ids, redundant, vector = binfmt.decode_cell_vector(record)
        paths = level_paths(cube, path_level)
        eager = Cell(
            key=key,
            item_level=item_level,
            path_level=path_level,
            record_ids=tuple(record_ids),
            flowgraph=binfmt.decode_cell_parts(record, paths)[1],
            paths=tuple((paths[pid], weight) for pid, weight in vector),
            redundant=bool(redundant),
        )
        stored = cube.cell(item_level, key, path_level)
        assert stored == eager and eager == stored
        assert stored.n_paths == entry_n_paths(entry) == len(stored.record_ids)
        assert stored.redundant == entry_redundant(entry) == bool(redundant)
        seen += 1
    assert seen == cube.n_cells() > 0


#: At δ = 2 this draw of ``path_databases()`` has no frequent cell at
#: item level (3, 3): the in-memory build keeps four empty cuboids there
#: and the store holds none.
EMPTY_ITEM_LEVEL = GeneratorConfig(
    n_paths=20,
    n_dims=2,
    dim_fanouts=(2, 2, 2),
    n_location_groups=3,
    locations_per_group=2,
    n_sequences=4,
    max_path_length=4,
    max_duration=3,
    seed=452,
)


@given(
    database=path_databases(),
    exceptions=st.booleans(),
    wide_ids=st.booleans(),
)
@example(
    database=generate_path_database(EMPTY_ITEM_LEVEL),
    exceptions=False,
    wide_ids=False,
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_stored_cells_equal_eager_decode_across_store_states(
    database, exceptions, wide_ids
):
    offset = WIDE_ID_FLOOR if wide_ids else 0
    rows = [
        PathRecord(record.record_id + offset, record.dims, record.path)
        for record in database
    ]
    split = len(rows) * 3 // 4
    reference = direct_cube(
        PathDatabase(database.schema, rows, validate=False),
        min_support=2,
        compute_exceptions=exceptions,
    )
    expected = stored_cube_json(reference)
    with tempfile.TemporaryDirectory() as scratch:
        store, cube = build_store(
            FsPath(scratch) / "wh",
            database.schema,
            rows[:split],
            min_support=2,
            compute_exceptions=exceptions,
        )
        assert_cells_match_records(cube)  # built
        # ids past 2**31 are stored in the structured record
        first = next(stored_entries(cube))[3]
        record = cube._cells.record(first)
        assert not record[0] & binfmt._RAW
        assert min(binfmt.decode_cell_vector(record)[0]) >= offset

        append_records(store, rows[split:], cube=cube, compact_after=0)
        assert_cells_match_records(cube)  # appended (delta segment)
        assert stored_cube_json(cube) == expected

        cube.compact()
        assert_cells_match_records(cube)  # compacted
        assert stored_cube_json(cube) == expected
        cold = store.cube_store()
        assert_cells_match_records(cold)
        assert stored_cube_json(cold) == expected
        cold.close()
        cube.close()
        store.close()


def test_index_redundant_marks_agree_with_the_record(tmp_path, database):
    """Redundancy marks reach a stored cell from the index entry."""
    memory = FlowCube.build(database, min_support=0.05)
    assert prune_redundant(memory, threshold=0.6, metric=tv_similarity) > 0
    cube = CubeStore(tmp_path / "cube", database.schema)
    cube.create(memory.path_lattice, memory.min_support, memory.min_deviation)
    for cuboid in memory.cuboids:
        cube.put_cuboid(cuboid)
    cube.flush()
    cold = CubeStore(tmp_path / "cube", database.schema)
    assert_cells_match_records(cold)
    marks = {
        (cell.item_level, cell.path_level, cell.key): cell.redundant
        for cell in memory.cells()
    }
    assert {
        (cell.item_level, cell.path_level, cell.key): cell.redundant
        for cell in cold.cells()
    } == marks
    assert cube_to_json(cold) == cube_to_json(memory)
    # One inference walks both cubes to the same ancestor.
    for cell in memory.cells():
        if cell.redundant:
            coords = (cell.item_level, cell.key, cell.path_level)
            assert flowgraph_to_dict(flowgraph_for(cold, *coords)) == (
                flowgraph_to_dict(flowgraph_for(memory, *coords))
            )
    cold.close()
    cube.close()


def test_put_cell_refuses_a_multiset_its_record_ids_disagree_with(tmp_path):
    """A stored cell's index ``n_paths`` counts its record ids and its
    flowgraph weighs its multiset: a cell whose two disagree is refused,
    not stored as a measure that contradicts its own index."""
    example = example_path_database()
    memory = FlowCube.build(example, min_support=2)
    apex = FlowCubeQuery(memory).cell()
    (path, weight), *rest = apex.paths
    heavier = Cell(
        key=apex.key,
        item_level=apex.item_level,
        path_level=apex.path_level,
        record_ids=apex.record_ids,
        flowgraph=apex.flowgraph,
        paths=((path, weight + 5), *rest),
    )
    cube = CubeStore(tmp_path / "cube", example.schema)
    cube.create(memory.path_lattice, memory.min_support, memory.min_deviation)
    with pytest.raises(StoreError, match="weighs 13 paths but has 8 record"):
        cube.put_cell(heavier)
    assert cube.n_cells() == 0
    cube.put_cell(apex)
    cube.flush()
    cold = CubeStore(tmp_path / "cube", example.schema)
    (stored,) = cold.cells()
    assert stored.n_paths == len(stored.record_ids) == 8
    assert stored.flowgraph.n_paths == 8 and stored == apex
    cold.close()
    cube.close()


# ----------------------------------------------------------------------
# (c) a cell is a snapshot of the read that produced it
# ----------------------------------------------------------------------

def test_held_cells_survive_append_compact_reload_and_close(
    tmp_path, database
):
    rows = list(database)
    store, writer = build_store(
        tmp_path / "wh", database.schema, rows[:BASE_ROWS]
    )
    before = {
        (cell.item_level, cell.path_level, cell.key): (
            cell.record_ids,
            flowgraph_to_dict(cell.flowgraph),
        )
        for cell in writer.cells()
    }

    # A reader (its own handle, as a server has) holds a slice undecoded
    # while the writer appends, compacts, and the reader reloads + closes.
    reader = store.cube_store()
    held = FlowCubeQuery(reader).slice_cells(None)
    assert len(held) > 1
    stats = append_records(store, rows[BASE_ROWS:], cube=writer, compact_after=0)
    assert stats["updated"] > 0
    writer.compact()
    assert reader.maybe_reload()
    after = FlowCubeQuery(reader).slice_cells(None)
    reader.close()
    writer.close()
    store.close()

    changed = 0
    for cell in held:
        coords = (cell.item_level, cell.path_level, cell.key)
        assert (cell.record_ids, flowgraph_to_dict(cell.flowgraph)) == before[coords]
    for cell in after:  # read after the reload, touched after the close
        coords = (cell.item_level, cell.path_level, cell.key)
        if coords in before and before[coords][0] != cell.record_ids:
            assert cell.record_ids[: len(before[coords][0])] == before[coords][0]
            assert cell.flowgraph.n_paths == cell.n_paths == len(cell.record_ids)
            changed += 1
    assert changed > 0


# ----------------------------------------------------------------------
# (d) damage is a typed error at first touch
# ----------------------------------------------------------------------

def corrupt_every_record(directory: FsPath) -> None:
    """Set a high bit in each record's varint-stream length, so every
    record's head points past its end (same file size, index untouched)."""
    # flags byte, then "<II": byte 4 is the top byte of the stream length
    with PartitionedPathStore.open(directory) as store:
        cube = store.cube_store()
        offsets = [entry[0] for *_, entry in stored_entries(cube)]
        cube.close()
    heap = cube_files(directory)["segments"][0]
    data = bytearray(heap.read_bytes())
    for offset in offsets:
        data[offset + 4] ^= 0x40
    heap.write_bytes(bytes(data))


def test_flipped_heap_byte_is_a_store_error_at_first_touch(store_dir):
    corrupt_every_record(store_dir)
    with PartitionedPathStore.open(store_dir) as store:
        cube = store.cube_store()
        cells = FlowCubeQuery(cube).slice_cells(None)  # selection still works
        assert cells
        cell = cells[0]
        assert cell.n_paths > 0
        for touch in (
            lambda: cell.flowgraph,
            lambda: cell.record_ids,
            lambda: hasattr(cell, "flowgraph"),
            lambda: cell == cells[0],
            lambda: cell.flowgraph,  # failure is not cached as success
        ):
            with pytest.raises(StoreError, match="corrupt cell payload"):
                touch()
        assert cube.io_counters()["cells_decoded"] == 0
        assert pickle.loads(pickle.dumps(cell)).n_paths == cell.n_paths
        cube.close()


def test_no_flipped_byte_escapes_as_an_untyped_error(tmp_path):
    """Flip each byte of an exception-bearing record in turn: the touch
    either decodes (no checksum yet) or raises ``StoreError`` — a flags
    byte that reads as the retired verbatim-JSON flag is refused as
    such — never a ``zlib.error`` / ``KeyError`` / ``TypeError`` from
    inside the codec."""
    example = example_path_database()
    store, cube = build_store(
        tmp_path / "wh", example.schema, list(example), min_support=2
    )
    for item_level, path_level, key, entry in stored_entries(cube):
        if cube.cell(item_level, key, path_level).flowgraph.exceptions:
            break
    else:
        pytest.fail("the example cube has no exception-bearing cell")
    record = cube._cells.record(entry)
    level_id = cube.path_lattice.index_of(path_level)
    outcomes = {"decoded": 0, "typed": 0}
    for position in range(len(record)):
        for mask in (0x01, 0x80, 0xFF):
            damaged = bytearray(record)
            damaged[position] ^= mask
            cell = StoredCell(
                key, item_level, path_level, 1, False, bytes(damaged),
                {"cells_decoded": 0}, cube._paths, level_id,
            )
            for touch in (
                lambda: cell.record_ids,
                lambda: cell.weights,
                lambda: cell.paths,
                lambda: cell.flowgraph,
            ):
                try:
                    touch()
                except StoreError as exc:
                    assert re.search("corrupt cell payload|retired", str(exc))
                    outcomes["typed"] += 1
                else:
                    outcomes["decoded"] += 1
    assert outcomes["typed"] > 0 and outcomes["decoded"] > 0
    cube.close()
    store.close()


# ----------------------------------------------------------------------
# (d') the path table a record names is the cube's own, or a typed error
# ----------------------------------------------------------------------

def _rewrite_meta(directory: FsPath, edit) -> None:
    meta = directory / "cube" / "cube.json"
    payload = json.loads(meta.read_text(encoding="utf-8"))
    edit(payload)
    meta.write_text(json.dumps(payload, indent=1), encoding="utf-8")


def _measure_touches(directory: FsPath):
    """One untouched cell of a fresh handle, and its measure touches."""
    store = PartitionedPathStore.open(directory)
    cube = store.cube_store()
    cell = FlowCubeQuery(cube).slice_cells(None)[0]
    return store, cube, cell


def test_a_path_table_of_another_build_is_never_expanded(store_dir, tmp_path, database):
    """``cube.json`` names its table by lineage: a rebuild's ``paths.bin``
    under the old meta (the crash window of a rebuild over a built cube)
    is a typed error at the first graph, not a wrong graph."""
    other, cube = build_store(tmp_path / "other", database.schema, list(database))
    cube.close()
    other.close()
    ours = cube_files(store_dir)["paths"]
    theirs = cube_files(tmp_path / "other")["paths"]
    # Same database, same build: the two tables differ in lineage only.
    assert binfmt.unpack_paths(ours.read_bytes())[1] == binfmt.unpack_paths(
        theirs.read_bytes()
    )[1]
    ours.write_bytes(theirs.read_bytes())
    store, cube, cell = _measure_touches(store_dir)
    assert cell.n_paths == len(cell.record_ids)  # ids need no table
    for _ in range(2):  # the failure is not cached as success
        with pytest.raises(StoreError, match="belongs to another build"):
            cell.flowgraph
    with pytest.raises(StoreError, match="belongs to another build"):
        cube.path_table  # a writer is refused the same way
    assert cube.io_counters()["cells_decoded"] == 0
    cube.close()
    store.close()


def test_a_path_table_shorter_than_committed_is_never_expanded(store_dir):
    committed = json.loads(
        (store_dir / "cube" / "cube.json").read_text(encoding="utf-8")
    )["paths"]
    assert committed["counts"] and max(committed["counts"]) > 1
    file = cube_files(store_dir)["paths"]
    lineage, levels = binfmt.unpack_paths(file.read_bytes())
    assert lineage == committed["lineage"]
    assert [len(paths) for paths in levels] == committed["counts"]
    longest = max(range(len(levels)), key=lambda level: len(levels[level]))
    levels[longest].pop()
    file.write_bytes(binfmt.pack_paths(lineage, levels))
    store, cube, cell = _measure_touches(store_dir)
    with pytest.raises(StoreError, match="fewer than the .* the cube meta"):
        cell.flowgraph
    cube.close()
    store.close()
    # A *longer* table is the same cube: ids are first-seen, never reordered.
    levels[longest] += [((("nowhere", "*"),)), ((("nowhere", "1"),))]
    file.write_bytes(binfmt.pack_paths(lineage, levels))
    store, cube, cell = _measure_touches(store_dir)
    assert cell.flowgraph.n_paths == cell.n_paths
    cube.close()
    store.close()


def test_a_missing_or_unnamed_path_table_is_typed(store_dir):
    cube_files(store_dir)["paths"].unlink()
    store, cube, cell = _measure_touches(store_dir)
    with pytest.raises(StoreError, match="path table .* is missing"):
        cell.flowgraph
    cube.close()
    store.close()
    _rewrite_meta(store_dir, lambda payload: payload.pop("paths"))
    store, cube, cell = _measure_touches(store_dir)
    with pytest.raises(StoreError, match="names no path table"):
        cell.flowgraph
    cube.close()
    store.close()


def test_a_path_id_past_the_table_is_a_corrupt_payload(store_dir):
    """A record naming a path its level does not hold (here: the meta and
    the table both cut back by hand) is damage, not ``IndexError``."""
    file = cube_files(store_dir)["paths"]
    lineage, levels = binfmt.unpack_paths(file.read_bytes())
    cut = [paths[:1] for paths in levels]
    file.write_bytes(binfmt.pack_paths(lineage, cut))
    _rewrite_meta(
        store_dir,
        lambda payload: payload["paths"].update(
            counts=[len(paths) for paths in cut]
        ),
    )
    store = PartitionedPathStore.open(store_dir)
    cube = store.cube_store()
    typed = 0
    for cell in cube.cells():
        try:
            cell.flowgraph
        except StoreError as exc:
            assert "corrupt cell payload" in str(exc)
            typed += 1
    assert typed > 0
    cube.close()
    store.close()


def test_measure_routes_map_damage_to_a_typed_status(tmp_path, database):
    """Every route that touches the measure answers 400 + a JSON error."""
    # One item level is left out, so ``derive`` has work to do.
    lattice = ItemLattice([h.depth for h in database.schema.dimensions])
    store, cube = build_store(
        tmp_path / "wh",
        database.schema,
        list(database),
        item_levels=[level for level in lattice if level.levels != (1, 0)],
    )
    cube.close()
    store.close()
    corrupt_every_record(tmp_path / "wh")
    tenant = CubeTenant.mount("wh", tmp_path / "wh")
    app = SlicerApp([tenant])
    cut = "d0:d0_0"

    assert post(app, "/cubes/wh/slice", {"cut": cut}).status == 200
    damaged = [
        post(app, "/cubes/wh/slice", {"cut": cut, "measure": True}),
        get(app, "/cubes/wh/flowgraph", {"cut": "d1:d1_0"}),
        get(app, "/cubes/wh/exceptions", {"cut": cut}),
        post(app, "/cubes/wh/query", {"cut": "d1:d1_0"}),
        post(app, "/cubes/wh/query", {"cut": cut, "derive": True}),
        post(app, "/cubes/wh/rollup",
             {"cut": "d1:d1_0", "dimension": "d1", "measure": True}),
        post(app, "/cubes/wh/drilldown", {"dimension": "d1", "measure": True}),
    ]
    for response in damaged:
        assert response.status == 400, response.body
        assert "corrupt cell payload" in json.loads(response.body)["error"]
    # Nothing was cached under a good key, and the server still answers.
    assert post(app, "/cubes/wh/slice", {"cut": cut}).status == 200
    tenant.close()


# ----------------------------------------------------------------------
# /exceptions renders the same bytes from the exception list alone
# ----------------------------------------------------------------------

def exceptions_oracle(tenant: CubeTenant, dims: dict) -> bytes:
    """The response the route rendered when it serialised whole graphs."""
    cells = FlowCubeQuery(tenant.cube_store, kernel="scan").slice_cells(
        None, **dims
    )
    reports = [
        {
            "key": list(cell.key),
            "item_level": list(cell.item_level.levels),
            "exceptions": flowgraph_to_dict(cell.flowgraph)["exceptions"],
        }
        for cell in cells
        if cell.flowgraph.exceptions
    ]
    return encode_json(
        {
            "cube": tenant.name,
            "cut": format_cut(dims),
            "n_cells": len(reports),
            "cells": reports,
        }
    )


def test_exceptions_route_bytes_unchanged_on_the_paper_example(tmp_path):
    example = example_path_database()
    store, cube = build_store(
        tmp_path / "wh", example.schema, list(example), min_support=2
    )
    cube.close()
    store.close()
    tenant = CubeTenant.mount("wh", tmp_path / "wh")
    app = SlicerApp([tenant])
    for dims in ({}, {"product": "clothing"}, {"brand": "nike"}):
        response = get(
            app, "/cubes/wh/exceptions", {"cut": format_cut(dims)} if dims else {}
        )
        assert response.status == 200
        assert response.body == exceptions_oracle(tenant, dims)
    assert json.loads(get(app, "/cubes/wh/exceptions").body)["n_cells"] > 0
    tenant.close()


def test_exceptions_route_bytes_unchanged_on_an_iceberg_store(
    tmp_path, database
):
    """Shared-mined segments, (ε, δ) exceptions, an iceberg δ: the
    flowbench ``iceberg`` pipeline at test scale."""
    store = PartitionedPathStore.init(
        tmp_path / "wh", database.schema, partition_size=40
    )
    store.ingest(database)
    stats = BuildStats()
    mined = shared_mine_store(store, min_support=6, build_stats=stats)
    cube = build_cube(
        store,
        min_support=6,
        segments_by_cell=mined.segments_by_cell(),
        into=store.cube_store(),
        stats=stats,
    )
    cube.close()
    store.close()
    tenant = CubeTenant.mount("wh", tmp_path / "wh")
    app = SlicerApp([tenant])
    seen = 0
    for dims in ({}, {"d0": "d0_0"}, {"d0": "d0_1", "d1": "d1_0"}):
        response = get(
            app, "/cubes/wh/exceptions", {"cut": format_cut(dims)} if dims else {}
        )
        assert response.status == 200
        assert response.body == exceptions_oracle(tenant, dims)
        seen += json.loads(response.body)["n_cells"]
    assert seen > 0
    tenant.close()
