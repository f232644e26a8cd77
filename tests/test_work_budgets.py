"""Work budgets: how often an operation may call what, as a function of
its input — performance gates that do not read a clock.

Timing on a shared host cannot gate a small regression; a *count* can.
Each row below runs one operation with one callable counted (through
``monkeypatch`` — nothing in ``src/`` is instrumented) and checks the
count against a bound computed from the input, at two ``repro.synth``
sizes, so what is asserted is how the work *scales*, not a constant.

The rows are the ones the stored-vector layout makes true: a store build
persists each cell's ``{pid: weight}`` and never builds a flowgraph it
does not mine; a default slice expands nothing and never opens the
path table; an append adds vectors, reads only the partitions its
promotion candidates might live in, and expands a graph only to mine it.
And the ones the immutable-files rule must not cost: every operation
publishes as many files as it did when it replaced them in place,
unlinks only what the committed meta no longer lists, and a cold open
maps the listed index and nothing else.
And the ones one write-side process makes exact: a build decodes each
partition once per pass, nothing forks, and importing the store loads
no process machinery.  And the one the multiset sum makes true: a
derived cell expands one graph and decodes or merges no child graph.
And the one the single roll-up makes true: each build runs the roll-up
once.
A PR that claims a layer moved adds or tightens a row here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

import repro.perf.measure_rollup as measure_rollup
import repro.store.builder as builder
import repro.store.partition as partition
import repro.store.pathstore as pathstore
from repro import publish
from repro.core.flowcube import FlowCube
from repro.core.flowgraph import FlowGraph
from repro.core.lattice import ItemLevel, roll_up_key
from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase
from repro.query.plan import Plan, parse_cut
from repro.query.planner import derive_cell, derive_cuboid, plan_derivation
from repro.serve import CubeTenant, SlicerApp
from repro.store import (
    BuildStats,
    PartitionedPathStore,
    append_records,
    binfmt,
    build_cube,
)
from repro.store.cli import main
from repro.store.cube_store import StoredCell
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
    """One ``FlowGraph.expand`` per built cell, over exactly its vector:
    the routine a stored cell expands with, not a path-by-path fold."""
    database = generate_path_database(config(n_paths))
    store = ingested(tmp_path / "wh", database.schema, list(database))
    graphs = graph_counters(monkeypatch)
    expand = Counted(monkeypatch, FlowGraph, "expand")
    cube = build_cube(
        store, min_support=MIN_SUPPORT, into=store.cube_store(),
        stats=BuildStats(),
    )
    built_graphs = len(graphs["__init__"])
    vectors = [list(cell.paths) for cell in cube.cells()]
    assert built_graphs == len(expand) == len(vectors) == cube.n_cells()
    assert sorted(list(call[0]) for call in expand.calls) == sorted(vectors)
    assert len(graphs["add_path"]) == len(graphs["merge"]) == 0
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
    cube = build_cube(
        store, min_support=MIN_SUPPORT, use_shared=shared,
        into=store.cube_store(), stats=stats,
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
    expanded = Counted(monkeypatch, binfmt, "decode_cell_parts")
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
    assert len(expanded) == len(graphs["__init__"]) == 0
    # The cold open mapped the listed index — one file — and the slice
    # one heap; the path table waits for a graph.
    listed = cube_files(tmp_path / "wh")
    files = [FsPath(call[0]) for call in mapped.calls]
    assert files == [listed["index"], listed["segments"][0]]

    full = post(app, "/cubes/wh/slice", {**cut, "measure": True})
    assert json.loads(full.body)["n_cells"] == n_cells
    assert len(expanded) == len(graphs["__init__"]) == n_cells
    files = [FsPath(call[0]) for call in mapped.calls]
    assert files.count(listed["paths"]) == 1
    tenant.close()


@pytest.mark.parametrize("n_paths", SIZES)
def test_a_cold_open_maps_the_listed_index_and_nothing_else(
    tmp_path, monkeypatch, n_paths
):
    """Bytes mapped at cold open = the index only, with or without
    delta segments pending."""
    database = generate_path_database(config(n_paths))
    base, batch = base_and_batch(database)
    store, cube = built(tmp_path / "wh", database, base, False)
    for grow in (lambda: None, lambda: append_records(
        store, batch, cube=cube, compact_after=0
    ), cube.compact):
        grow()
        mapped = Counted(monkeypatch, binfmt, "map_file")
        with store.cube_store() as cold:
            assert cold.n_cells() == cube.n_cells()
        assert [FsPath(call[0]) for call in mapped.calls] == [
            cube_files(tmp_path / "wh")["index"]
        ]
    cube.close()
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
    child rendered to path tuples, decoded to a graph or merged."""
    database = generate_path_database(config(n_paths))
    schema = database.schema
    store = ingested(tmp_path / "wh", schema, list(database))
    base = ItemLevel([h.depth for h in schema.dimensions])
    build_cube(
        store, item_levels=[ItemLevel([0, 0]), base], min_support=MIN_SUPPORT,
        compute_exceptions=False, into=store.cube_store(), stats=BuildStats(),
    ).close()
    value = sorted(schema.dimensions[0].concepts_at_level(1))[0]
    expanded = Counted(monkeypatch, binfmt, "decode_cell_parts")
    expand = Counted(monkeypatch, FlowGraph, "expand")
    graphs = graph_counters(monkeypatch)
    rendered = []
    stored_paths = StoredCell.paths
    monkeypatch.setattr(
        StoredCell, "paths",
        property(lambda cell: rendered.append(cell) or stored_paths.fget(cell)),
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
    directory = str(tmp_path / "wh")
    assert main(["query", directory, "-d", f"d0={value}", "--derive"]) == 0
    assert "derived from cuboid" in capsys.readouterr().out
    assert len(expand) == 2 * len(derived) + 1
    assert len(expanded) == len(graphs["merge"]) == len(rendered) == 0
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
    expanded = Counted(monkeypatch, binfmt, "decode_cell_parts")
    reads = Counted(monkeypatch, pathstore, "read_partition")
    published = Counted(monkeypatch, publish, "publish_file")

    stats = append_records(store, batch, cube=cube, compact_after=0)

    dirty = stats["updated"] + stats["created"]
    assert stats["updated"] > 0 and stats["promoted"] > 0
    selected = candidate_partitions(store, levels, held, batch)
    assert 0 < len(reads) <= len(selected)
    assert len(expanded) == 0  # no stored graph is decoded to be merged
    assert len(graphs["merge"]) == 0
    assert cube.io_counters()["cells_decoded"] == 0
    if exceptions:
        assert 0 < len(graphs["__init__"]) <= dirty
    else:
        assert len(graphs["__init__"]) == len(graphs["add_path"]) == 0
    names = published_as(published, tmp_path / "wh")
    row = CRASH_TABLE["first append"][1]
    assert names[2:] in (row[2:], row[3:])  # with or without the table
    assert len(names) <= len(row) == 6
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
    assert len(graphs["merge"]) == 0
    assert 0 < len(graphs["__init__"]) <= stats["updated"]
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
    reload took exactly the changed coordinates out of the cell cache."""
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
    assert set(cells._entries) == cached - changed
    assert len(cells) == len(cached) - len(cached & changed) < len(cached)

    runs = Counted(monkeypatch, Plan, "run")
    for cut in cuts:
        assert post(app, "/cubes/wh/slice", {"cut": cut}).status == 200
    lattice = tenant.cube_store.path_lattice
    level = lattice.index_of(tenant.query.default_path_level())
    rerun = [
        cut for cut in cuts
        if any(
            selects(schema, cut, key)
            for _, level_id, key in changed if level_id == level
        )
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
        for name in ("decode_cell_parts", "decode_cell_vector",
                     "encode_cell_payload")
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

