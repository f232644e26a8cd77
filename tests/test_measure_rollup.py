"""The aggregate-once measure roll-up (repro.perf.measure_rollup).

The load-bearing assertions:

* **Byte parity** — serialised cubes from the roll-up are byte-identical
  to the per-cell oracle's (``tests/oracle.py``), on random synth
  databases, across δ values, partial item-level subsets, and for the
  out-of-core build;
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
from repro.perf.measure_rollup import derivation_plan
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import exception_lists, stored_cube_json
from tests.oracle import direct_cube
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
# parity with the oracle (in-memory)
# ----------------------------------------------------------------------


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(path_databases(), st.sampled_from([0.05, 0.1, 2]))
def test_engines_byte_identical(database, min_support):
    direct = direct_cube(
        database, min_support=min_support, min_deviation=0.05
    )
    rollup = FlowCube.build(
        database, min_support=min_support, min_deviation=0.05
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
    # subsets; the roll-up must degrade to multiple roots and agree.
    lattice = ItemLattice([h.depth for h in database.schema.dimensions])
    levels = list(lattice)
    subset = levels[pick::2] or [lattice.apex]
    direct = direct_cube(database, item_levels=subset, min_support=0.1)
    rollup = FlowCube.build(database, item_levels=subset, min_support=0.1)
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
    direct = direct_cube(database, min_support=0.05)
    rollup = FlowCube.build(database, min_support=0.05)
    assert cube_to_json(direct) == cube_to_json(rollup)


# ----------------------------------------------------------------------
# parity with the oracle (out-of-core) + weighted cells
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
    direct = direct_cube(database, min_support=0.1)
    built = build_cube(store, min_support=0.1)
    assert stored_cube_json(built) == stored_cube_json(direct)
    assert exception_lists(built) == exception_lists(direct)
    built.close()


def test_cell_paths_are_weighted(tmp_path):
    database = generate_path_database(STORE_CONFIG)
    rollup = FlowCube.build(database, min_support=0.1)
    direct = direct_cube(database, min_support=0.1)
    for cell in rollup.cells():
        # Weights conserve the record count and the flowgraph's path count.
        assert total_weight(cell.paths) == cell.n_paths == cell.flowgraph.n_paths
        assert len({path for path, _ in cell.paths}) == len(cell.paths)
    for cuboid in direct.cuboids:
        twin = rollup.cuboid(cuboid.item_level, cuboid.path_level)
        for cell in cuboid:
            other = twin.cell(cell.key)
            # Same multiset of aggregated paths, build-independent.
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
    cube = FlowCube.build(database, min_support=0.1)
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
    cube.close()


# ----------------------------------------------------------------------
# the tuple door: the exception kernel needs no roll-up id space
# ----------------------------------------------------------------------


def test_tuple_door_needs_no_path_table(monkeypatch):
    """``mine_exceptions_weighted`` over plain pairs interns them into the
    cell's own postings: same kernel, no ``PathTable`` in sight."""
    from repro.core.flowgraph_exceptions import mine_exceptions_weighted

    def refuse(self, n_path_levels):
        raise AssertionError("the tuple door built a PathTable")

    monkeypatch.setattr(measure_rollup.PathTable, "__init__", refuse)
    cube = direct_cube(
        generate_path_database(STORE_CONFIG), min_support=0.1,
        compute_exceptions=False,
    )
    mined = 0
    for cell in cube.cells():
        pairs = list(cell.paths)
        lists = []
        for kernel in ("scan", "bitmap"):
            graph = FlowGraph()
            for path, weight in pairs:
                graph.add_path(path, weight)
            lists.append(
                mine_exceptions_weighted(
                    graph, pairs, 0.1, 0.05, kernel=kernel
                )
            )
        assert lists[0] == lists[1]
        mined += len(lists[0])
    assert mined


# ----------------------------------------------------------------------
# joint ids: a lattice whose coarse levels are no function of level 0
# ----------------------------------------------------------------------

#: Raw paths over the example's locations with float durations whose sums
#: depend on how stages group (0.1 + 0.2 is not 0.3): the first two share
#: their coarse path — transportation for 0.30000000000000004 — and
#: differ at the leaves.
_FLOAT_TEMPLATES = (
    (("factory", 0.1), ("dist center", 0.1), ("truck", 0.2), ("shelf", 0.3)),
    (("factory", 0.1), ("warehouse", 0.2), ("truck", 0.1), ("shelf", 0.3)),
    (("factory", 0.1), ("dist center", 0.1), ("truck", 0.2),
     ("warehouse", 0.3), ("backroom", 0.1), ("shelf", 0.2), ("checkout", 0.0)),
    (("factory", 0.1), ("dist center", 0.3), ("truck", 0.3), ("backroom", 0.2)),
    (("factory", 0.2), ("truck", 0.6), ("shelf", 0.3), ("checkout", 0.1)),
)


def _coarse_first_case():
    """A database over :data:`_FLOAT_TEMPLATES` and a path lattice whose
    level 0 is the coarse view: level 1 (the leaves) is no function of
    level 0, so a cell's level-1 multiset cannot derive from its level-0
    one."""
    from repro.core.lattice import (
        DURATION_ANY,
        DURATION_VALUE,
        LocationView,
        PathLattice,
        PathLevel,
    )
    from repro.core.path import Path, PathRecord
    from repro.core.path_database import PathDatabase, example_path_database

    example = example_path_database()
    dims = [record.dims for record in example]
    records = [
        PathRecord(
            i + 1, dims[i % len(dims)],
            Path(_FLOAT_TEMPLATES[(i * 3) % len(_FLOAT_TEMPLATES)]),
        )
        for i in range(60)
    ]
    location = example.schema.location
    coarse = LocationView.level_view(location, 1)
    lattice = PathLattice(
        [
            PathLevel(coarse, DURATION_VALUE),
            PathLevel(LocationView.leaf_view(location), DURATION_VALUE),
            PathLevel(coarse, DURATION_ANY),
        ]
    )
    return PathDatabase(example.schema, records), lattice


def test_a_lattice_that_does_not_compose_builds_and_appends_exactly(tmp_path):
    """Joint ids serve any lattice: over a coarse level 0 the store build,
    the in-memory build and the per-cell oracle are byte-identical, the
    cube holds more joint ids than level-0 paths, and an append equals a
    rebuild over both batches."""
    from repro.core.path_database import PathDatabase
    from repro.store import PartitionedPathStore, append_records, build_cube

    database, lattice = _coarse_first_case()
    build = {"path_lattice": lattice, "min_support": 4, "min_deviation": 0.1}
    memory = FlowCube.build(database, **build)
    expected = cube_to_json(direct_cube(database, **build))
    assert cube_to_json(memory) == expected
    table = memory.path_table
    assert table.n_joint > len(table.paths[0])
    assert table.n_joint == len({record.path for record in database})

    rows = list(database)
    store = PartitionedPathStore.init(
        tmp_path / "wh", database.schema, partition_size=15
    )
    store.ingest(database)
    with build_cube(store, into=store.cube_store(), **build) as built:
        assert stored_cube_json(built) == stored_cube_json(memory)
    store.close()

    base, batch = rows[:45], rows[45:]
    store = PartitionedPathStore.init(
        tmp_path / "appended", database.schema, partition_size=15
    )
    store.ingest(PathDatabase(database.schema, base, validate=False))
    cube = build_cube(store, into=store.cube_store(), **build)
    assert append_records(store, batch, cube=cube, compact_after=0)["updated"]
    assert stored_cube_json(cube) == stored_cube_json(memory)
    assert cube.path_table.n_joint > len(cube.path_table.paths[0])
    cube.close()
    with store.cube_store() as cold:
        assert stored_cube_json(cold) == stored_cube_json(memory)
    store.close()
