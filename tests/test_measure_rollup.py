"""The aggregate-once measure roll-up engine (repro.perf.measure_rollup).

The load-bearing assertions:

* **Byte parity** — serialised cubes from the roll-up engine are
  byte-identical to the direct (semantics-defining) builder's, on random
  synth databases, across δ values, partial item-level subsets, and for
  the out-of-core builder serial and parallel;
* **FlowGraph.merge** is a proper algebraic measure: it conserves weight,
  is associative, and renormalises distributions exactly as building one
  graph over the union would;
* **Aggregate-once** — a counting hook proves each *distinct* path is
  aggregated exactly once per path level per build, however many
  records, item levels or partitions carry it.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.perf.measure_rollup as measure_rollup
from repro.core import FlowGraph, ItemLevel
from repro.core.aggregation import expand_weighted, total_weight
from repro.core.flowcube import FlowCube
from repro.core.lattice import ItemLattice
from repro.core.serialization import cube_to_json, flowgraph_to_dict
from repro.errors import CubeError
from repro.perf.measure_rollup import derivation_plan
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import exception_lists
from tests.test_properties import agg_paths, path_databases

# ----------------------------------------------------------------------
# FlowGraph.merge unit suite
# ----------------------------------------------------------------------


def _graph(paths):
    graph = FlowGraph()
    for path in paths:
        graph.add_path(path)
    return graph


@given(agg_paths, agg_paths)
def test_merge_equals_union_build(a, b):
    merged = FlowGraph().merge([_graph(a), _graph(b)])
    union = _graph(a + b)
    assert flowgraph_to_dict(merged) == flowgraph_to_dict(union)


@given(agg_paths, agg_paths, agg_paths)
def test_merge_is_associative(a, b, c):
    left = FlowGraph().merge(
        [FlowGraph().merge([_graph(a), _graph(b)]), _graph(c)]
    )
    right = FlowGraph().merge(
        [_graph(a), FlowGraph().merge([_graph(b), _graph(c)])]
    )
    assert flowgraph_to_dict(left) == flowgraph_to_dict(right)


@given(agg_paths, agg_paths)
def test_merge_conserves_weight(a, b):
    merged = FlowGraph().merge([_graph(a), _graph(b)])
    assert merged.n_paths == len(a) + len(b)
    for node in merged.nodes():
        assert node.count == sum(node.duration_counts.values())
        assert sum(node.transition_counts.values()) == node.count


@given(agg_paths, agg_paths)
def test_merge_renormalises_distributions(a, b):
    merged = FlowGraph().merge([_graph(a), _graph(b)])
    union = _graph(a + b)
    for node in merged.nodes():
        twin = union.node(node.prefix)
        assert node.duration_distribution() == twin.duration_distribution()
        assert node.transition_distribution() == twin.transition_distribution()


def test_merge_leaves_inputs_untouched():
    a = _graph([(("f", "1"), ("s", "2"))])
    before = flowgraph_to_dict(a)
    FlowGraph().merge([a, _graph([(("f", "3"),)])])
    assert flowgraph_to_dict(a) == before


# ----------------------------------------------------------------------
# derivation plan
# ----------------------------------------------------------------------


def test_full_lattice_has_single_root():
    lattice = ItemLattice([2, 3])
    plan = derivation_plan(list(lattice))
    roots = [level for level, source in plan if source is None]
    assert roots == [lattice.base]
    for level, source in plan:
        if source is not None:
            assert level.is_higher_or_equal(source) and level != source


def test_sparse_subset_gets_multiple_roots():
    # Two incomparable levels and their common ancestor: the ancestor can
    # derive from either, the two deep levels must both scan records.
    levels = [ItemLevel((0, 0)), ItemLevel((2, 0)), ItemLevel((0, 3))]
    plan = dict(derivation_plan(levels))
    assert plan[ItemLevel((2, 0))] is None
    assert plan[ItemLevel((0, 3))] is None
    assert plan[ItemLevel((0, 0))] in (ItemLevel((2, 0)), ItemLevel((0, 3)))


# ----------------------------------------------------------------------
# engine parity (in-memory)
# ----------------------------------------------------------------------


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(path_databases(), st.sampled_from([0.05, 0.1, 2]))
def test_engines_byte_identical(database, min_support):
    direct = FlowCube.build(
        database, min_support=min_support, min_deviation=0.05, engine="direct"
    )
    rollup = FlowCube.build(
        database, min_support=min_support, min_deviation=0.05, engine="rollup"
    )
    assert cube_to_json(direct) == cube_to_json(rollup)


@settings(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(path_databases(), st.integers(min_value=0, max_value=3))
def test_engines_byte_identical_on_level_subsets(database, pick):
    # Partial materialisation plans hand FlowCube.build arbitrary level
    # subsets; the roll-up engine must degrade to multiple roots and agree.
    lattice = ItemLattice([h.depth for h in database.schema.dimensions])
    levels = list(lattice)
    subset = levels[pick::2] or [lattice.apex]
    direct = FlowCube.build(
        database, item_levels=subset, min_support=0.1, engine="direct"
    )
    rollup = FlowCube.build(
        database, item_levels=subset, min_support=0.1, engine="rollup"
    )
    assert cube_to_json(direct) == cube_to_json(rollup)


def test_deeper_hierarchies_byte_identical():
    config = GeneratorConfig(
        n_paths=150,
        n_dims=3,
        dim_fanouts=(2, 2, 2, 2),
        n_location_groups=3,
        locations_per_group=3,
        n_sequences=10,
        max_path_length=5,
        max_duration=4,
        seed=17,
    )
    database = generate_path_database(config)
    direct = FlowCube.build(database, min_support=0.05, engine="direct")
    rollup = FlowCube.build(database, min_support=0.05, engine="rollup")
    assert cube_to_json(direct) == cube_to_json(rollup)


def test_unknown_engine_rejected():
    database = generate_path_database(GeneratorConfig(n_paths=20, seed=1))
    try:
        FlowCube.build(database, engine="psychic")
    except CubeError as exc:
        assert "psychic" in str(exc)
    else:  # pragma: no cover - defensive
        raise AssertionError("bad engine accepted")


# ----------------------------------------------------------------------
# engine parity (out-of-core) + weighted cells
# ----------------------------------------------------------------------

STORE_CONFIG = GeneratorConfig(
    n_paths=120,
    n_dims=2,
    dim_fanouts=(2, 3),
    n_location_groups=3,
    locations_per_group=2,
    n_sequences=8,
    max_path_length=4,
    max_duration=3,
    seed=29,
)


def _store(tmp_path):
    from repro.store import PartitionedPathStore

    database = generate_path_database(STORE_CONFIG)
    store = PartitionedPathStore.init(
        tmp_path / "wh", database.schema, partition_size=30
    )
    store.ingest(database)
    return database, store


def test_out_of_core_rollup_byte_identical(tmp_path):
    from repro.store import build_cube

    database, store = _store(tmp_path)
    direct = FlowCube.build(database, min_support=0.1, engine="direct")
    built = build_cube(store, min_support=0.1)
    assert cube_to_json(built) == cube_to_json(direct)
    assert exception_lists(built) == exception_lists(direct)


def test_cell_paths_are_weighted(tmp_path):
    database = generate_path_database(STORE_CONFIG)
    rollup = FlowCube.build(database, min_support=0.1, engine="rollup")
    direct = FlowCube.build(database, min_support=0.1, engine="direct")
    for cell in rollup.cells():
        # Weights conserve the record count and the flowgraph's path count.
        assert total_weight(cell.paths) == cell.n_paths == cell.flowgraph.n_paths
        assert len({path for path, _ in cell.paths}) == len(cell.paths)
    for cuboid in direct.cuboids:
        twin = rollup.cuboid(cuboid.item_level, cuboid.path_level)
        for cell in cuboid:
            other = twin.cell(cell.key)
            # Same multiset of aggregated paths, engine-independent.
            assert sorted(expand_weighted(cell.paths)) == sorted(
                expand_weighted(other.paths)
            )


# ----------------------------------------------------------------------
# the aggregate-once guarantee
# ----------------------------------------------------------------------


def _counting_hook(monkeypatch):
    calls = {"n": 0}
    real = measure_rollup.aggregate_path

    def counted(path, level, *args, **kwargs):
        calls["n"] += 1
        return real(path, level, *args, **kwargs)

    monkeypatch.setattr(measure_rollup, "aggregate_path", counted)
    return calls


def _with_duplicated_paths():
    """STORE_CONFIG's database twice over: every path at least doubled."""
    from repro.core.path import PathRecord
    from repro.core.path_database import PathDatabase

    base = generate_path_database(STORE_CONFIG)
    records = list(base) + [
        PathRecord(len(base) + r.record_id, r.dims, r.path) for r in base
    ]
    database = PathDatabase(base.schema, records)
    distinct = len({record.path for record in database})
    assert distinct <= len(base) < len(database)
    return database, distinct


def test_rollup_aggregates_once_per_path_level(monkeypatch):
    database, distinct = _with_duplicated_paths()
    calls = _counting_hook(monkeypatch)
    cube = FlowCube.build(database, min_support=0.1, engine="rollup")
    n_item_levels = len(list(cube.item_lattice))
    assert n_item_levels >= 3
    # Exactly once per distinct path per path level — independent of how
    # many records share the path and of the item levels.
    assert calls["n"] == distinct * len(cube.path_lattice)


def test_out_of_core_rollup_aggregates_once(tmp_path, monkeypatch):
    from repro.store import PartitionedPathStore, build_cube

    database, distinct = _with_duplicated_paths()
    store = PartitionedPathStore.init(
        tmp_path / "wh", database.schema, partition_size=30
    )
    store.ingest(database)
    # Every path recurs in a later partition: the memo spans the scan.
    assert len(store.catalog.partitions) >= 2
    calls = _counting_hook(monkeypatch)
    cube = build_cube(store, min_support=0.1)
    assert calls["n"] == distinct * len(cube.path_lattice)


# ----------------------------------------------------------------------
# the index-once guarantee: the holistic pass works per level, not per cell
# ----------------------------------------------------------------------


def _kernel_hooks(monkeypatch):
    """Count the kernel's stage interning and postings; keep the tables."""
    import repro.perf.exception_kernel as exception_kernel
    import repro.store.builder as store_builder

    seen = {"interned": 0, "postings": 0, "tables": []}

    class CountingInterner(exception_kernel.ItemInterner):
        def intern(self, item):
            seen["interned"] += 1
            return super().intern(item)

    real_init = exception_kernel.PathPostings.__init__

    def counted_init(self, *args, **kwargs):
        seen["postings"] += 1
        real_init(self, *args, **kwargs)

    class RecordedTable(measure_rollup.PathTable):
        def __init__(self, n_path_levels):
            super().__init__(n_path_levels)
            seen["tables"].append(self)

    monkeypatch.setattr(exception_kernel, "ItemInterner", CountingInterner)
    monkeypatch.setattr(exception_kernel.PathPostings, "__init__", counted_init)
    monkeypatch.setattr(store_builder, "PathTable", RecordedTable)
    return seen


def _level_stages(table):
    return sum(len(path) for paths in table.paths for path in paths)


def test_exception_pass_indexes_once_per_path_level(tmp_path, monkeypatch):
    """A path's stages are walked once per path level per build and per
    append — however many cells hold the path — through exactly one
    postings object per level."""
    from repro.core.path_database import PathDatabase
    from repro.store import PartitionedPathStore, append_records, build_cube

    database = generate_path_database(STORE_CONFIG)
    rows = list(database)
    base, batch = rows[:100], rows[100:]
    store = PartitionedPathStore.init(
        tmp_path / "wh", database.schema, partition_size=30
    )
    base_db = PathDatabase(database.schema, base, validate=False)
    store.ingest(base_db)
    # What indexing cell by cell walks: every cell's every path.
    per_cell_stages = sum(
        len(path)
        for cell in FlowCube.build(
            base_db, min_support=0.05, compute_exceptions=False
        ).cells()
        for path, _ in cell.paths
    )
    seen = _kernel_hooks(monkeypatch)

    cube = store.cube_store()
    build_cube(store, min_support=0.05, into=cube)
    n_path_levels = len(cube.path_lattice)
    (table,) = seen["tables"]
    assert seen["postings"] == n_path_levels
    assert 0 < seen["interned"] <= _level_stages(table)
    assert cube.n_cells() > n_path_levels
    assert per_cell_stages > 2 * seen["interned"]

    # An append mines over the cube's own table — loaded from paths.bin
    # by a cold handle, one postings per level — never a private one.
    cube.close()
    seen.update(interned=0, postings=0, tables=[])
    cold = store.cube_store()
    stats = append_records(store, batch, cube=cold, compact_after=0)
    assert seen["tables"] == []
    assert stats["updated"] + stats["created"] > n_path_levels
    assert seen["postings"] == n_path_levels
    assert 0 < seen["interned"] <= _level_stages(cold.path_table)
    assert all(
        appended[: len(built)] == built
        for appended, built in zip(cold.path_table.paths, table.paths)
    )  # ids are first-seen: an append only ever extends the table


def test_tuple_door_needs_no_path_table(monkeypatch):
    """``mine_exceptions_weighted`` over plain pairs interns them into a
    private postings: same kernel, no ``PathTable`` in sight."""
    from repro.core.flowgraph_exceptions import mine_exceptions_weighted

    def refuse(self, n_path_levels):
        raise AssertionError("the tuple door built a PathTable")

    monkeypatch.setattr(measure_rollup.PathTable, "__init__", refuse)
    cube = FlowCube.build(
        generate_path_database(STORE_CONFIG), min_support=0.1,
        engine="direct", compute_exceptions=False,
    )
    mined = 0
    cache: dict = {}
    for cell in cube.cells():
        pairs = list(cell.paths)
        lists = []
        for kwargs in (
            {"kernel": "scan"},
            {"kernel": "bitmap"},
            {"kernel": "bitmap", "index_cache": cache},
        ):
            graph = FlowGraph()
            for path, weight in pairs:
                graph.add_path(path, weight)
            lists.append(
                mine_exceptions_weighted(graph, pairs, 0.1, 0.05, **kwargs)
            )
        assert lists[0] == lists[1] == lists[2]
        mined += len(lists[0])
    assert mined
    assert len(cache) == 1  # one private postings for the whole run
