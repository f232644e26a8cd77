"""Work budgets: how often an operation may call what, as a function of
its input — performance gates that do not read a clock.

Timing on a shared host cannot gate a small regression; a *count* can.
Each row below runs one operation with one callable counted (through
``monkeypatch`` — nothing in ``src/`` is instrumented) and checks the
count against a bound computed from the input, at two ``repro.synth``
sizes, so what is asserted is how the work *scales*, not a constant.

The rows are the ones the stored-vector layout makes true: a store build
persists each item cell's ``{joint id: weight}`` and never builds a
flowgraph; a default slice expands nothing and never opens the path
table; an append adds vectors, reads only the partitions its promotion
candidates might live in, and expands no graph.
And the ones exceptions mined at first read make true: neither a build
nor an append calls the exception kernel, an exceptions build writes the
plain build's heap and index bytes, and reading k cells' exceptions
mines k cells, once.
And the ones the immutable-files rule must not cost: every operation
publishes as many files as it did when it replaced them in place,
unlinks only what the committed meta no longer lists, and a cold open
maps the listed index and nothing else.
And the one a record that is only the measure makes true: a stored
cell decodes its record's varints once, whatever it is asked for first.
And the ones one write-side process makes exact: a build decodes each
partition once per pass, nothing forks, and importing the store loads
no process machinery.  And the one the multiset sum makes true: a
derived cell expands one graph and decodes or merges no child graph.
And the one the single roll-up makes true: each build runs the roll-up
once.
And the ones the columns-first promotion sweep makes true: an append
rolls each distinct dims tuple up once per item level, and builds the
paths of its promoted cells' members and no other.
And the ones one record per item cell makes true: a build encodes each
item cell once, an append reads, decodes and encodes each dirty item
cell once — one vector each, whatever the number of path levels — and a miss round builds one key catalog per item cuboid,
whatever path levels it slices.  And the ones mining in the cell's own
id space makes true: a build and an append construct no postings,
reading k cells' exceptions constructs k, and no cell index outlives
its read.
A PR that claims a layer moved adds or tightens a row here.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

import repro.perf.exception_kernel as exception_kernel
import repro.perf.measure_rollup as measure_rollup
import repro.perf.query_kernel as query_kernel
import repro.store.append as append
import repro.store.builder as builder
import repro.store.partition as partition
import repro.store.pathstore as pathstore
from repro import publish
from repro.core.flowcube import Cell, FlowCube
from repro.core.flowgraph import FlowGraph
from repro.core.lattice import ItemLevel, roll_up_key
from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase
from repro.query.api import FlowCubeQuery
from repro.query.plan import Plan, parse_cut
from repro.query.planner import derive_cell, derive_cuboid, plan_derivation
from repro.serve import CubeTenant, SlicerApp
from repro.store import (
    BuildStats,
    PartitionedPathStore,
    append_records,
    binfmt,
    build_cube,
    shared_mine_store,
)
from repro.store.cli import main
from repro.store.cube_store import CubeStore
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import cube_files
from tests.test_publish_points import EXPECTED as CRASH_TABLE
from tests.test_publish_points import listed_names
from tests.test_serve import post

#: Two sizes of one population: a bound must hold at both.
SIZES = (200, 600)
MIN_SUPPORT = 4
N_PARTITIONS = 5
#: The last tenth of the rows is the appended batch.
BATCH_SHARE = 10


def config(n_paths: int) -> GeneratorConfig:
    return GeneratorConfig(
        n_paths=n_paths,
        n_dims=2,
        dim_fanouts=(2, 3),
        n_location_groups=3,
        locations_per_group=2,
        n_sequences=10,
        max_path_length=4,
        max_duration=3,
        seed=7,
    )


class Counted:
    """Count the calls of ``owner.name`` for the life of a ``monkeypatch``."""

    def __init__(self, monkeypatch, owner, name: str) -> None:
        self.calls: list[tuple] = []
        real = getattr(owner, name)
        calls = self.calls

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    def __len__(self) -> int:
        return len(self.calls)


def published_as(published: Counted, directory: FsPath) -> list[str]:
    """The counted ``publish_file`` calls as the crash table spells them:
    cube files by what the committed meta lists them as."""
    kinds = listed_names(directory)
    names = [call[0].name for call in published.calls]
    return [kinds.get(name, name) for name in names]


def graph_counters(monkeypatch) -> dict[str, Counted]:
    return {
        name: Counted(monkeypatch, FlowGraph, name)
        for name in ("__init__", "add_path", "merge")
    }


def ingested(directory: FsPath, schema, rows) -> PartitionedPathStore:
    store = PartitionedPathStore.init(
        directory, schema, partition_size=-(-len(rows) // N_PARTITIONS)
    )
    store.ingest(PathDatabase(schema, rows, validate=False))
    return store


def built(directory: FsPath, database, rows, exceptions: bool):
    store = ingested(directory, database.schema, rows)
    cube = store.cube_store()
    build_cube(
        store,
        min_support=MIN_SUPPORT,
        compute_exceptions=exceptions,
        into=cube,
        stats=BuildStats(),
    )
    return store, cube


def base_and_batch(database):
    rows = list(database)
    cut = len(rows) - len(rows) // BATCH_SHARE
    return rows[:cut], rows[cut:]


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_paths", SIZES)
def test_an_exception_free_build_builds_no_graph(tmp_path, monkeypatch, n_paths):
    database = generate_path_database(config(n_paths))
    store = ingested(tmp_path / "wh", database.schema, list(database))
    graphs = graph_counters(monkeypatch)
    aggregated = Counted(monkeypatch, measure_rollup, "aggregate_path")
    reads = Counted(monkeypatch, pathstore, "read_partition")
    published = Counted(monkeypatch, publish, "publish_file")
    cube = build_cube(
        store, min_support=MIN_SUPPORT, compute_exceptions=False,
        into=store.cube_store(), stats=BuildStats(),
    )
    assert cube.n_cells() > n_paths // 10
    assert [len(counter) for counter in graphs.values()] == [0, 0, 0]
    distinct = len({record.path for record in database})
    assert 0 < len(aggregated) <= distinct * len(cube.path_lattice)
    assert len(reads) == len(store.catalog.partitions)
    # The crash table's row, whatever the size of the cube: 4 publishes.
    row = CRASH_TABLE["first build"][1]
    assert published_as(published, tmp_path / "wh") == row and len(row) == 4
    assert cube.io_counters()["cells_decoded"] == 0
    cube.close()
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_a_build_with_exceptions_folds_each_vector_once(
    tmp_path, monkeypatch, n_paths
):
    """One ``FlowGraph.expand`` per built cell, over exactly its vector —
    at the cell's first read, not in the build: the routine every cell
    expands with, not a path-by-path fold."""
    database = generate_path_database(config(n_paths))
    store = ingested(tmp_path / "wh", database.schema, list(database))
    graphs = graph_counters(monkeypatch)
    expand = Counted(monkeypatch, FlowGraph, "expand")
    cube = build_cube(
        store, min_support=MIN_SUPPORT, into=store.cube_store(),
        stats=BuildStats(),
    )
    assert len(graphs["__init__"]) == len(expand) == 0
    cells = list(cube.cells())
    for cell in cells:
        cell.flowgraph
    vectors = [list(cell.paths) for cell in cells]
    assert len(graphs["__init__"]) == len(expand) == len(vectors)
    assert len(vectors) == cube.n_cells()
    assert sorted(list(call[0]) for call in expand.calls) == sorted(vectors)
    assert len(graphs["add_path"]) == len(graphs["merge"]) == 0
    cube.close()
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_an_exceptions_build_mines_and_expands_nothing(
    tmp_path, monkeypatch, n_paths
):
    """Exceptions are mined at a cell's first read: a store build and an
    in-memory build with them on call the exception kernel 0 times,
    construct 0 postings and expand 0 flowgraphs (parent: one kernel call
    and one graph per cell)."""
    database = generate_path_database(config(n_paths))
    store = ingested(tmp_path / "wh", database.schema, list(database))
    mined = Counted(monkeypatch, exception_kernel, "mine_exceptions_bitmap")
    postings = Counted(monkeypatch, exception_kernel, "PathPostings")
    expand = Counted(monkeypatch, FlowGraph, "expand")
    graphs = graph_counters(monkeypatch)
    cube = build_cube(
        store, min_support=MIN_SUPPORT, compute_exceptions=True,
        into=store.cube_store(), stats=BuildStats(),
    )
    memory = FlowCube.build(database, min_support=MIN_SUPPORT)
    assert cube.compute_exceptions and memory.compute_exceptions
    assert cube.n_cells() > n_paths // 10
    assert len(mined) == len(expand) == len(graphs["__init__"]) == 0
    assert len(postings) == 0
    assert "exceptions" not in cube.build_stats["phase_seconds"]
    cube.close()
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_an_exceptions_build_writes_the_plain_builds_bytes(
    tmp_path, monkeypatch, n_paths
):
    """No record holds an exception: an exceptions build and a plain
    build of one store write byte-identical heap, index and path table
    files; only ``cube.json`` says which the cube is."""
    monkeypatch.setattr("repro.store.cube_store.new_lineage", lambda: 2006)
    database = generate_path_database(config(n_paths))
    store = ingested(tmp_path / "wh", database.schema, list(database))
    written = {}
    for exceptions in (False, True):
        build_cube(
            store, min_support=MIN_SUPPORT, compute_exceptions=exceptions,
        ).close()
        files = cube_files(tmp_path / "wh")
        written[exceptions] = [
            path.read_bytes()
            for path in (files["paths"], *files["segments"].values(), files["index"])
        ]
        meta = json.loads((tmp_path / "wh" / "cube" / "cube.json").read_text())
        assert meta["exceptions"] is exceptions
    assert written[True] == written[False]
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_a_build_encodes_each_item_cell_once(tmp_path, monkeypatch, n_paths):
    """The store keeps an item cell — an (item level, key) with its cells
    at every path level — as one record and one index entry: a build
    encodes one record per item cell (parent: one per cell and path
    level), and the index holds as many entries."""
    database = generate_path_database(config(n_paths))
    store = ingested(tmp_path / "wh", database.schema, list(database))
    encoded = Counted(monkeypatch, binfmt, "encode_cell_payload")
    cube = build_cube(
        store, min_support=MIN_SUPPORT, into=store.cube_store(),
        stats=BuildStats(),
    )
    n_levels = len(cube.path_lattice)
    item_cells = sum(
        len(cuboid) for cuboid in cube.cuboids
        if cuboid.path_level == cube.path_lattice[0]
    )
    assert len(encoded) == item_cells == cube.n_cells() // n_levels > 0
    blob = cube_files(tmp_path / "wh")["index"].read_bytes()
    entries = binfmt.unpack_cell_index(blob, binfmt.MaskArena(blob), n_levels)
    assert sum(len(keys) for _, keys, _, _ in entries) == item_cells
    cube.close()
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_a_build_hands_the_encoder_one_vector_per_item_cell(
    tmp_path, monkeypatch, n_paths
):
    """Every path level of an item cell maps from one joint vector: each
    record a build encodes carries one ``(joint id, weight)`` list that
    weighs the item cell's record ids, and nothing else."""
    database = generate_path_database(config(n_paths))
    store = ingested(tmp_path / "wh", database.schema, list(database))
    encoded = Counted(monkeypatch, binfmt, "encode_cell_payload")
    cube = build_cube(
        store, min_support=MIN_SUPPORT, into=store.cube_store(),
        stats=BuildStats(),
    )
    n_levels = len(cube.path_lattice)
    assert len(encoded) == cube.n_cells() // n_levels > 0
    for record_ids, vector in encoded.calls:
        assert all(type(jid) is int and type(w) is int for jid, w in vector)
        assert sum(weight for _, weight in vector) == len(record_ids)
    table = cube.path_table
    assert len(table.paths[0]) <= table.n_joint
    cube.close()
    store.close()


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "plain"])
@pytest.mark.parametrize("n_paths", SIZES)
def test_a_build_decodes_each_partition_once_per_pass(
    tmp_path, monkeypatch, n_paths, shared
):
    database = generate_path_database(config(n_paths))
    store = ingested(tmp_path / "wh", database.schema, list(database))
    decoded = Counted(monkeypatch, partition, "unpack_partition")
    stats = BuildStats()
    if shared:  # the paper's pipeline: Algorithm 1, then the cube
        shared_mine_store(store, min_support=MIN_SUPPORT, build_stats=stats)
    cube = build_cube(
        store, min_support=MIN_SUPPORT, into=store.cube_store(), stats=stats,
    )
    # The Shared pre-mine is one pass, the roll-up scan the other.
    passes = 2 if shared else 1
    assert len(decoded) == passes * len(store.catalog.partitions)
    assert stats.scans == len(decoded)
    cube.close()
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_each_build_runs_the_roll_up_once(tmp_path, monkeypatch, n_paths):
    database = generate_path_database(config(n_paths))
    store = ingested(tmp_path / "wh", database.schema, list(database))
    in_memory = Counted(monkeypatch, measure_rollup, "roll_up")
    out_of_core = Counted(monkeypatch, builder, "roll_up")
    FlowCube.build(database, min_support=MIN_SUPPORT, compute_exceptions=False)
    assert (len(in_memory), len(out_of_core)) == (1, 0)
    build_cube(
        store, min_support=MIN_SUPPORT, compute_exceptions=False
    ).close()
    assert (len(in_memory), len(out_of_core)) == (1, 1)
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_the_write_side_never_forks(tmp_path, monkeypatch, n_paths):
    database = generate_path_database(config(n_paths))
    rows = list(database)
    cut = len(rows) - 2 * (len(rows) // BATCH_SHARE)
    middle = (cut + len(rows)) // 2
    forks = Counted(monkeypatch, os, "fork")
    store, cube = built(tmp_path / "wh", database, rows[:cut], True)
    for batch in (rows[cut:middle], rows[middle:]):
        assert append_records(store, batch, cube=cube, compact_after=0)[
            "updated"
        ]
    assert len(forks) == 0
    cube.close()
    store.close()


def test_importing_the_store_loads_no_process_machinery():
    """Every ``flowcube-store`` invocation pays this import."""
    source = FsPath(publish.__file__).parents[1]
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.store; print(*sorted("
            "m for m in sys.modules if m.startswith('multiprocessing') "
            "or m == 'concurrent.futures.process'))",
        ],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert loaded.stdout.split() == []


# ----------------------------------------------------------------------
# read
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_paths", SIZES)
def test_a_default_slice_expands_nothing_and_measure_expands_each_cell(
    tmp_path, monkeypatch, n_paths
):
    database = generate_path_database(config(n_paths))
    store, cube = built(tmp_path / "wh", database, list(database), False)
    cube.close()
    store.close()
    decoded = Counted(monkeypatch, binfmt, "decode_cell_parts")
    mapped = Counted(monkeypatch, binfmt, "map_file")
    graphs = graph_counters(monkeypatch)
    tenant = CubeTenant.mount("wh", tmp_path / "wh")
    app = SlicerApp([tenant])
    assert tenant.cube_store.io_counters()["heap_bytes_read"] == 0
    cut = {"cut": "d0:d0_0"}

    plain = post(app, "/cubes/wh/slice", cut)
    assert plain.status == 200
    n_cells = json.loads(plain.body)["n_cells"]
    assert n_cells > 1
    assert len(decoded) == len(graphs["__init__"]) == 0
    # The cold open mapped the listed index — one file — and the slice
    # one heap; the path table waits for a graph.
    listed = cube_files(tmp_path / "wh")
    files = [FsPath(call[0]) for call in mapped.calls]
    assert files == [listed["index"], listed["segments"][0]]

    full = post(app, "/cubes/wh/slice", {**cut, "measure": True})
    assert json.loads(full.body)["n_cells"] == n_cells
    assert len(decoded) == len(graphs["__init__"]) == n_cells
    files = [FsPath(call[0]) for call in mapped.calls]
    assert files.count(listed["paths"]) == 1
    tenant.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_a_miss_round_builds_one_catalog_per_item_cuboid(
    tmp_path, monkeypatch, n_paths
):
    """A key catalog is a function of an item cuboid's keys, which no
    path level changes: slicing every cut at every path level builds at
    most one per item cuboid (parent: one per item cuboid and path
    level)."""
    database = generate_path_database(config(n_paths))
    store, cube = built(tmp_path / "wh", database, list(database), False)
    n_levels = len(cube.path_lattice)
    cube.close()
    store.close()
    catalogs = Counted(monkeypatch, query_kernel.CuboidKeyCatalog, "__init__")
    tenant = CubeTenant.mount("wh", tmp_path / "wh")
    app = SlicerApp([tenant])
    for level_id in range(n_levels):
        for cut in one_concept_cuts(database.schema):
            response = post(
                app, "/cubes/wh/slice", {"cut": cut, "path_level": level_id}
            )
            assert response.status == 200
    item_cuboids = {cuboid.item_level for cuboid in tenant.cube_store.cuboids}
    assert 1 < len(catalogs) <= len(item_cuboids)
    assert tenant.catalogs.stats()["builds"] == len(catalogs)
    tenant.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_a_cold_open_maps_the_listed_index_and_nothing_else(
    tmp_path, monkeypatch, n_paths
):
    """Bytes mapped at cold open = the index only, with or without
    delta segments pending: no byte of the path table, of a heap file,
    of a partition or of ``strings.bin``, through a handle on the open
    store and through a fresh one alike."""
    database = generate_path_database(config(n_paths))
    base, batch = base_and_batch(database)
    store, cube = built(tmp_path / "wh", database, base, False)
    for grow in (lambda: None, lambda: append_records(
        store, batch, cube=cube, compact_after=0
    ), cube.compact):
        grow()
        index = cube_files(tmp_path / "wh")["index"]
        mapped = Counted(monkeypatch, binfmt, "map_file")
        with store.cube_store() as cold:
            assert cold.n_cells() == cube.n_cells()
        with PartitionedPathStore.open(tmp_path / "wh") as fresh:
            with fresh.cube_store() as cold:
                assert cold.n_cells() == cube.n_cells()
        assert [FsPath(call[0]) for call in mapped.calls] == [index, index]
    cube.close()
    store.close()


#: Two orders a reader may touch a stored cell's measure in.
TOUCHES = {
    "ids first": ("record_ids", "weights", "flowgraph", "exceptions"),
    "exceptions first": ("exceptions", "flowgraph", "weights", "record_ids"),
}


@pytest.mark.parametrize("order", list(TOUCHES))
@pytest.mark.parametrize("n_paths", SIZES)
def test_a_stored_cell_decodes_its_varints_once(
    tmp_path, monkeypatch, n_paths, order
):
    """Ids, vector, graph and exceptions of a stored cell, read in either
    order, decode its record's varints as often as one
    ``decode_cell_parts`` does — the graph expands from the vector the
    ids came with, and the exceptions are mined with the graph, read
    first or after it."""
    database = generate_path_database(config(n_paths))
    store, cube = built(tmp_path / "wh", database, list(database), True)
    cube.close()
    varints = Counted(monkeypatch, binfmt, "_decode_varints")
    expand = Counted(monkeypatch, FlowGraph, "expand")
    with store.cube_store() as cold:
        cells = list(cold.cells())
        mined = 0
        for cell in cells:
            binfmt.decode_cell_parts(cell._record)
            once = len(varints)
            del varints.calls[:]
            for name in TOUCHES[order]:
                graphs = len(expand)
                mined += bool(getattr(cell, name)) and name == "exceptions"
                if name == "exceptions" and order == "exceptions first":
                    assert len(expand) == graphs + 1
                    assert cold.io_counters()["cells_decoded"] == graphs + 1
            assert len(varints) == once
            del varints.calls[:]
        assert len(expand) == cold.io_counters()["cells_decoded"] == len(cells)
        assert 0 < mined < len(cells)
    store.close()


# ----------------------------------------------------------------------
# derive
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_paths", SIZES)
def test_a_derived_cell_adds_vectors_and_expands_one_graph(
    tmp_path, monkeypatch, capsys, n_paths
):
    """``derive_cuboid``, ``derive_cell`` and ``query --derive`` sum the
    children's vectors: one graph per derived cell, however many
    children it has, expanded only when its measure is read — and no
    cell, child or derived, rendered to path tuples, and no child
    decoded to a graph or merged."""
    database = generate_path_database(config(n_paths))
    schema = database.schema
    store = ingested(tmp_path / "wh", schema, list(database))
    base = ItemLevel([h.depth for h in schema.dimensions])
    build_cube(
        store, item_levels=[ItemLevel([0, 0]), base], min_support=MIN_SUPPORT,
        compute_exceptions=False, into=store.cube_store(), stats=BuildStats(),
    ).close()
    value = sorted(schema.dimensions[0].concepts_at_level(1))[0]
    expand = Counted(monkeypatch, FlowGraph, "expand")
    graphs = graph_counters(monkeypatch)
    rendered = []
    cell_paths = Cell.paths
    monkeypatch.setattr(
        Cell, "paths",
        property(lambda cell: rendered.append(cell) or cell_paths.fget(cell)),
    )
    with store.cube_store() as cube:
        plan = plan_derivation(cube, ItemLevel([1, 0]), cube.path_lattice[0])
        derived = derive_cuboid(cube, plan)
        assert 1 < len(derived) < plan.source_cells
        assert len(expand) == len(graphs["__init__"]) == 0
        for cell in derived:
            assert cell.flowgraph is cell.flowgraph
        assert len(expand) == len(graphs["__init__"]) == len(derived)
        for key in derived.cells:
            assert derive_cell(cube, plan, key).flowgraph.n_paths > 0
        assert len(expand) == 2 * len(derived)
        assert cube.io_counters()["cells_decoded"] == 0  # no child graph
    directory = str(tmp_path / "wh")
    assert main(["query", directory, "-d", f"d0={value}", "--derive"]) == 0
    assert "derived from cuboid" in capsys.readouterr().out
    assert len(expand) == 2 * len(derived) + 1
    assert len(graphs["merge"]) == len(rendered) == 0
    store.close()


def live_indexes() -> int:
    """How many exception-kernel cell indexes are alive, after a collection."""
    gc.collect()
    return sum(
        isinstance(held, exception_kernel.CellExceptionIndex)
        for held in gc.get_objects()
    )


@pytest.mark.parametrize("n_paths", SIZES)
def test_derivations_leave_the_handles_postings_without_views(
    tmp_path, n_paths
):
    """A derived cell mines in its own id space, through postings and an
    index that go with the call: many distinct derivations through one
    façade leave no cell index alive."""
    database = generate_path_database(config(n_paths))
    schema = database.schema
    store = ingested(tmp_path / "wh", schema, list(database))
    base = ItemLevel([h.depth for h in schema.dimensions])
    build_cube(
        store, item_levels=[base], min_support=MIN_SUPPORT,
        into=store.cube_store(), stats=BuildStats(),
    ).close()
    before = live_indexes()
    with store.cube_store() as cube:
        query = FlowCubeQuery(cube, derive=True)
        derived = mined = 0
        for item_level in cube.item_levels[0].parents() + (ItemLevel([1, 1]),):
            for path_level in cube.path_lattice:
                cuboid = query.derived_cuboid(item_level, path_level)
                derived += len(cuboid)
                mined += sum(bool(cell.exceptions) for cell in cuboid)
        assert derived > 10 and mined > 0
        assert live_indexes() == before
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_reading_k_cells_exceptions_mines_k_cells_once(
    tmp_path, monkeypatch, n_paths
):
    """A cell mines at the first read of its exceptions, over postings of
    its own, and keeps them: reading k cells' exceptions mines exactly k
    cells and constructs exactly k postings (parent: one per path level
    of the cube's table), reading them again mines and constructs none,
    no cell index outlives the reads, and a plain cube's cells mine
    nothing at all."""
    database = generate_path_database(config(n_paths))
    store, cube = built(tmp_path / "wh", database, list(database), True)
    cube.close()
    mined = Counted(monkeypatch, exception_kernel, "mine_exceptions_bitmap")
    postings = Counted(monkeypatch, exception_kernel, "PathPostings")
    before = live_indexes()
    with store.cube_store(cache_size=100_000) as cold:
        cells = list(cold.cells())
        k = len(cells) // 2
        first = [cell.exceptions for cell in cells[:k]]
        assert len(mined) == len(postings) == k > 1
        for cell in cells[:k]:
            assert cell.flowgraph.exceptions is cell.exceptions
        again = [
            cold.cell(cell.item_level, cell.key, cell.path_level).exceptions
            for cell in cells[:k]
        ]
        assert again == first and len(mined) == len(postings) == k
        assert live_indexes() == before
        assert any([cell.exceptions for cell in cold.cells()])
        assert len(mined) == len(cells)
    build_cube(
        store, min_support=MIN_SUPPORT, compute_exceptions=False
    ).close()
    del mined.calls[:]
    with store.cube_store() as plain:
        assert not any(cell.exceptions for cell in plain.cells())
        assert all(cell.flowgraph.exceptions == [] for cell in plain.cells())
    assert len(mined) == 0
    store.close()


# ----------------------------------------------------------------------
# append
# ----------------------------------------------------------------------

def candidate_partitions(store, levels, held, batch) -> set[int]:
    """The partitions Bloom selection keeps for the promotion candidates
    of *batch*: its keys, per item level, that the cube did not hold."""
    schema = store.schema
    chosen: set[int] = set()
    for item_level in levels:
        for key in {
            roll_up_key(record.dims, item_level, schema.dimensions)
            for record in batch
        } - held[item_level]:
            constraints = {
                name: part
                for name, part, depth in zip(
                    schema.dimension_names, key, item_level
                )
                if depth > 0
            }
            chosen.update(store.select_partitions(**constraints))
    return chosen


def held_keys(cube) -> dict:
    held: dict = {level: set() for level in cube.item_levels}
    for cuboid in cube.cuboids:
        held[cuboid.item_level].update(cuboid.keys)
    return held


@pytest.mark.parametrize("exceptions", [True, False], ids=["mined", "plain"])
@pytest.mark.parametrize("n_paths", SIZES)
def test_an_append_reads_its_candidates_partitions_and_adds_vectors(
    tmp_path, monkeypatch, n_paths, exceptions
):
    database = generate_path_database(config(n_paths))
    base, batch = base_and_batch(database)
    store, cube = built(tmp_path / "wh", database, base, exceptions)
    held = held_keys(cube)
    levels = list(cube.item_levels)
    graphs = graph_counters(monkeypatch)
    reads = Counted(monkeypatch, pathstore, "read_partition")
    published = Counted(monkeypatch, publish, "publish_file")
    mined = Counted(monkeypatch, exception_kernel, "mine_exceptions_bitmap")
    postings = Counted(monkeypatch, exception_kernel, "PathPostings")

    stats = append_records(store, batch, cube=cube, compact_after=0)

    # An exceptions cube's append mines no cell (parent: every dirty one)
    # and constructs no postings.
    assert len(mined) == len(postings) == 0
    dirty = stats["updated"] + stats["created"]
    assert stats["updated"] > 0 and stats["promoted"] > 0
    selected = candidate_partitions(store, levels, held, batch)
    assert 0 < len(reads) <= len(selected)
    assert len(graphs["merge"]) == 0
    # No stored graph is decoded to be merged.
    assert cube.io_counters()["cells_decoded"] == 0
    assert dirty > 0
    assert len(graphs["__init__"]) == len(graphs["add_path"]) == 0
    names = published_as(published, tmp_path / "wh")
    row = CRASH_TABLE["first append"][1]
    assert names[2:] in (row[2:], row[3:])  # with or without the table
    assert len(names) <= len(row) == 6
    cube.close()
    store.close()


@pytest.mark.parametrize("exceptions", [True, False], ids=["mined", "plain"])
@pytest.mark.parametrize("n_paths", SIZES)
def test_an_append_reads_and_writes_each_dirty_item_cell_once(
    tmp_path, monkeypatch, n_paths, exceptions
):
    """An append reads an item cell it adds to — or whose first record id
    orders a promotion — once: one record read and one decode for its
    ids and its one vector, or its ids alone; and it encodes each dirty
    item cell once (parent, flowbench ``dense``'s first batch: 1,059
    decodes and 624 encodes for 156 dirty item cells)."""
    database = generate_path_database(config(n_paths))
    base, batch = base_and_batch(database)
    store, cube = built(tmp_path / "wh", database, base, exceptions)
    n_levels = len(cube.path_lattice)
    read = Counted(monkeypatch, CubeStore, "item_records")
    decoded = Counted(monkeypatch, binfmt, "decode_cell_parts")
    ids_only = Counted(monkeypatch, binfmt, "decode_cell_ids")
    encoded = Counted(monkeypatch, binfmt, "encode_cell_payload")

    stats = append_records(store, batch, cube=cube, compact_after=0)

    assert stats["updated"] > 0 and stats["promoted"] > 0
    dirty = (stats["updated"] + stats["created"]) // n_levels
    assert len(encoded) == dirty
    item_cells = [(call[1], key) for call in read.calls for key in call[2]]
    assert len(decoded) + len(ids_only) == len(item_cells) == len(set(item_cells))
    assert stats["updated"] // n_levels <= len(item_cells)
    cube.close()
    store.close()


@pytest.mark.parametrize("exceptions", [True, False], ids=["mined", "plain"])
@pytest.mark.parametrize("n_paths", SIZES)
def test_an_append_decodes_one_vector_per_dirty_item_cell(
    tmp_path, monkeypatch, n_paths, exceptions
):
    """An updated item cell's every path level is a function of its one
    joint vector: the append decodes one vector per updated item cell —
    no other record's — and adds each batch member to it once (parent:
    one vector per path level, and a decode for every survivor a
    promotion orders)."""
    database = generate_path_database(config(n_paths))
    base, batch = base_and_batch(database)
    store, cube = built(tmp_path / "wh", database, base, exceptions)
    n_levels = len(cube.path_lattice)
    decoded = Counted(monkeypatch, binfmt, "decode_cell_parts")

    stats = append_records(store, batch, cube=cube, compact_after=0)

    assert stats["promoted"] > 0
    assert len(decoded) == stats["updated"] // n_levels > 0
    for (record,) in list(decoded.calls):
        record_ids, vector = binfmt.decode_cell_parts(record)
        assert type(vector) is dict and sum(vector.values()) == len(record_ids)
    cube.close()
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_an_append_rolls_up_distinct_dims_and_builds_only_promoted_paths(
    tmp_path, monkeypatch, n_paths
):
    """The promotion sweep decides on columns: ``roll_up_key`` runs once
    per item level per distinct dims tuple (of the batch, and of the
    swept partitions), and the partition codec builds the paths of the
    promoted cells' members and no other."""
    database = generate_path_database(config(n_paths))
    base, batch = base_and_batch(database)
    store, cube = built(tmp_path / "wh", database, base, False)
    levels = list(cube.item_levels)
    held = held_keys(cube)
    rolled = Counted(monkeypatch, append, "roll_up_key")
    swept_dims: set[tuple] = set()
    read = pathstore.read_partition

    def reading(*args, **kwargs):
        part = read(*args, **kwargs)
        swept_dims.update(
            part.dims if isinstance(part, binfmt.PartitionColumns)
            else [record.dims for record in part]
        )
        return part

    monkeypatch.setattr(pathstore, "read_partition", reading)
    built_paths: list[int] = []
    paths = binfmt.PartitionColumns.paths

    def building(columns, rows=None):
        out = paths(columns, rows)
        built_paths.append(len(out))
        return out

    monkeypatch.setattr(binfmt.PartitionColumns, "paths", building)

    stats = append_records(store, batch, cube=cube, compact_after=0)

    assert stats["promoted"] > 0 and swept_dims
    batch_dims = {record.dims for record in batch}
    assert 0 < len(rolled) <= (len(batch_dims) + len(swept_dims)) * len(levels)
    promoted_members = {
        record_id
        for level, keys in held_keys(cube).items()
        for key in keys - held[level]
        for record_id in cube.cell(level, key, cube.path_lattice[0]).record_ids
    }
    assert sum(built_paths) == len(promoted_members) > 0
    cube.close()
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_an_append_without_a_candidate_reads_no_partition(
    tmp_path, monkeypatch, n_paths
):
    database = generate_path_database(config(n_paths))
    rows = list(database)
    store, cube = built(tmp_path / "wh", database, rows, True)
    finest = max(cube.item_levels, key=lambda level: sum(level.levels))
    held = held_keys(cube)
    # Re-arrivals of records whose finest cell is materialised: every
    # coarser cell they belong to is too, so nothing can be promoted.
    top = rows[-1].record_id
    batch = [
        PathRecord(top + 1 + n, record.dims, record.path)
        for n, record in enumerate(
            [r for r in rows if tuple(r.dims) in held[finest]][:8]
        )
    ]
    assert batch
    reads = Counted(monkeypatch, pathstore, "read_partition")
    graphs = graph_counters(monkeypatch)
    published = Counted(monkeypatch, publish, "publish_file")

    stats = append_records(store, batch, cube=cube, compact_after=0)

    assert stats["updated"] > 0 and stats["promoted"] == 0
    assert len(reads) == 0  # parent: every partition of the store
    assert len(graphs["merge"]) == len(graphs["__init__"]) == 0
    # Paths the cube already holds: the table is not republished.
    assert "paths" not in published_as(published, tmp_path / "wh")
    cube.close()
    store.close()


# ----------------------------------------------------------------------
# reload (another handle's write under a mounted tenant)
# ----------------------------------------------------------------------

def one_concept_cuts(schema) -> list[str]:
    return [""] + [
        f"{h.name}:{concept}"
        for h in schema.dimensions
        for level in range(1, h.depth + 1)
        for concept in sorted(h.concepts_at_level(level))
    ]


def selects(schema, cut: str, key) -> bool:
    """The scan kernel's match of *cut* against one cell key."""
    for name, wanted in parse_cut(cut).items():
        index = schema.dimension_index(name)
        actual = key[index]
        if actual != wanted and (
            actual == "*"
            or not schema.dimensions[index].is_ancestor(wanted, actual)
        ):
            return False
    return True


def warm_tenant(directory: FsPath, cuts: list[str]):
    """A tenant whose caches hold every cut's slice (and its cells)."""
    tenant = CubeTenant.mount("wh", directory, cache_size=1 << 14)
    app = SlicerApp([tenant])
    for cut in cuts:
        assert post(app, "/cubes/wh/slice", {"cut": cut}).status == 200
    return tenant, app


@pytest.mark.parametrize("n_paths", SIZES)
def test_a_reload_reruns_the_cuts_an_append_changed_and_no_other(
    tmp_path, monkeypatch, n_paths
):
    """After another handle's append, replaying the warm cuts runs a plan
    once per cut that selects a changed cell and never otherwise, and the
    reload took exactly the changed item cells' cells — at every path
    level — out of the cell cache."""
    database = generate_path_database(config(n_paths))
    base, batch = base_and_batch(database)
    store, cube = built(tmp_path / "wh", database, base, False)
    cube.close()
    store.close()
    schema = database.schema
    cuts = one_concept_cuts(schema)
    # A batch in one corner: every record under one top concept of d0.
    top = schema.dimensions[0]
    corner = sorted(top.concepts_at_level(1))[0]
    batch = [r for r in batch if top.ancestor_at_level(r.dims[0], 1) == corner]
    tenant, app = warm_tenant(tmp_path / "wh", cuts)
    cells = tenant.cube_store._cache
    cached = set(cells._entries)
    changes = []
    tenant.cube_store.subscribe(lambda version, changed: changes.append(changed))

    with PartitionedPathStore.open(tmp_path / "wh") as writer:
        append_records(writer, batch, compact_after=0)
    assert tenant.refresh()
    [changed] = changes
    stale = {coords for coords in cached if coords[:2] in changed}
    assert set(cells._entries) == cached - stale
    assert len(cells) == len(cached) - len(stale) < len(cached)

    runs = Counted(monkeypatch, Plan, "run")
    for cut in cuts:
        assert post(app, "/cubes/wh/slice", {"cut": cut}).status == 200
    rerun = [
        cut for cut in cuts
        if any(selects(schema, cut, key) for _, key in changed)
    ]
    assert 0 < len(runs) == len(rerun) < len(cuts)
    assert [call[0].dims for call in runs.calls] == [
        tuple(sorted(parse_cut(cut).items())) for cut in rerun
    ]
    stats = tenant.stats()
    assert stats["responses_kept"] == len(cuts) - len(rerun)
    tenant.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_a_reload_after_a_compaction_keeps_nothing(tmp_path, n_paths):
    """The limitation, as a count: a compaction rewrites every cell into a
    heap the served cube did not list, so the reload keeps no cell and no
    response."""
    database = generate_path_database(config(n_paths))
    base, batch = base_and_batch(database)
    store, cube = built(tmp_path / "wh", database, base, False)
    append_records(store, batch, cube=cube, compact_after=0)
    cube.close()
    store.close()
    cuts = one_concept_cuts(database.schema)
    tenant, _ = warm_tenant(tmp_path / "wh", cuts)
    held = tenant.stats()["response_cache"]["size"]
    assert held == len(cuts) and len(tenant.cube_store._cache)

    with PartitionedPathStore.open(tmp_path / "wh") as writer:
        with writer.cube_store() as compacting:
            assert compacting.compact()
    assert tenant.refresh()
    stats = tenant.stats()
    assert (stats["responses_kept"], stats["responses_dropped"]) == (0, held)
    assert stats["cell_cache"]["size"] == 0
    tenant.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_compaction_copies_bytes(tmp_path, monkeypatch, n_paths):
    database = generate_path_database(config(n_paths))
    base, batch = base_and_batch(database)
    store, cube = built(tmp_path / "wh", database, base, False)
    append_records(store, batch, cube=cube, compact_after=0)
    graphs = graph_counters(monkeypatch)
    decoded = [
        Counted(monkeypatch, binfmt, name)
        for name in ("decode_cell_parts", "decode_cell_ids", "encode_cell_payload")
    ]
    published = Counted(monkeypatch, publish, "publish_file")
    assert cube.compact() == cube.n_cells()
    assert [len(counter) for counter in decoded] == [0, 0, 0]
    assert len(graphs["__init__"]) == 0
    row = CRASH_TABLE["compact"][1]
    assert published_as(published, tmp_path / "wh") == row and len(row) == 3
    cube.close()
    store.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_an_operation_unlinks_only_what_the_new_meta_does_not_list(
    tmp_path, monkeypatch, n_paths
):
    """One sweep per commit: its unlinks are the previous listing minus
    the new one — none for a first build, a handful otherwise — so no
    timed stage grew by more than a directory scan."""
    database = generate_path_database(config(n_paths))
    base, batch = base_and_batch(database)
    store = ingested(tmp_path / "wh", database.schema, base)
    cube = store.cube_store()
    unlinked = Counted(monkeypatch, FsPath, "unlink")
    listed: set[str] = set()

    def build():
        build_cube(
            store, min_support=MIN_SUPPORT, compute_exceptions=False,
            into=cube, stats=BuildStats(),
        )

    for operation, most in (
        (build, 0),
        (lambda: append_records(store, batch, cube=cube, compact_after=0), 2),
        (cube.compact, 4),
        (build, 4),
    ):
        del unlinked.calls[:]
        operation()
        now = set(listed_names(tmp_path / "wh"))
        gone = {call[0].name for call in unlinked.calls}
        # ... and the alias a compaction left, which no meta lists.
        assert listed - now <= gone <= (listed - now) | {"cells.bin"}
        assert not gone & now and len(unlinked) == len(gone) <= most
        listed = now
    cube.close()
    store.close()

