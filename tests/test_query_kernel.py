"""The bitmap query kernel, roll-up planner, and serving cache.

The load-bearing assertions:

* the ``"index"`` slice kernel yields exactly the seed ``"scan"`` kernel's
  cells (same cells, same order) over both the in-memory cube and the
  store, across a hypothesis grid of δ and materialised-level subsets;
* slicing a :class:`CubeStore` reads *only* the matching cells —
  pinned by a counting hook on ``Cell.__init__``;
* a derived cuboid is byte-identical (``cube_to_json``) to a directly
  built one whenever the source cuboid is unpruned, and — under a real
  iceberg threshold — to a direct build over the records covered by the
  source's materialised cells (the planner's exactness contract);
* the query cache memoises answers and counts derivations, and its
  counters persist across processes for ``flowcube-store stats``.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from pathlib import Path as FsPath

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.flowcube import Cell, FlowCube
from repro.core.lattice import ItemLattice, ItemLevel
from repro.core.materialization import MaterializationPlan, plan_between_layers
from repro.core.path_database import PathDatabase
from repro.core.serialization import (
    cube_from_json,
    cube_to_json,
    flowgraph_to_dict,
)
from repro.errors import QueryError
from repro.perf.query_kernel import (
    CuboidKeyCatalog,
    QueryCache,
    iter_set_bits,
    load_query_stats,
    merge_query_stats,
)
from repro.query.api import FlowCubeQuery
from repro.query.planner import derive_cell, derive_cuboid, plan_derivation
from repro.store import BuildStats, PartitionedPathStore, append_records, build_cube
from repro.store.cli import main
from repro.synth import GeneratorConfig, generate_path_database
from tests.test_properties import path_databases
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


@pytest.fixture(scope="module")
def cube(database):
    return FlowCube.build(database, min_support=MIN_SUPPORT)


@pytest.fixture()
def store(tmp_path, database):
    s = PartitionedPathStore.init(tmp_path / "wh", database.schema)
    s.ingest(database)
    return s


def _cell_ids(cells):
    return [(cell.item_level, cell.key) for cell in cells]


# ----------------------------------------------------------------------
# the bitmap key catalog
# ----------------------------------------------------------------------

def test_iter_set_bits():
    assert list(iter_set_bits(0)) == []
    assert list(iter_set_bits(0b1011)) == [0, 1, 3]
    assert list(iter_set_bits(1 << 200)) == [200]


def test_catalog_masks_and_closures(database):
    hierarchies = database.schema.dimensions
    h0 = hierarchies[0]
    child = sorted(h0.concepts_at_level(1))[0]
    grandchild = sorted(h0.children(child))[0]
    keys = (
        ("*", "*"),
        (child, "*"),
        (grandchild, "*"),
    )
    catalog = CuboidKeyCatalog(keys, hierarchies)
    assert len(catalog) == 3
    assert catalog.all_mask == 0b111
    assert catalog.value_mask(0, child) == 0b010
    # The closure of a concept covers itself and its descendants' cells —
    # but a stored "*" matches only a wanted "*" (the seed semantics).
    assert catalog.closure_mask(0, child) == 0b110
    assert catalog.closure_mask(0, grandchild) == 0b100
    assert catalog.closure_mask(0, "*") == 0b111
    assert catalog.match_mask([]) == 0b111
    assert catalog.match_mask([(0, child)]) == 0b110
    assert list(catalog.matching_keys([(0, child)])) == [
        (child, "*"), (grandchild, "*")
    ]


def test_catalog_conjunction_short_circuits(database):
    hierarchies = database.schema.dimensions
    a = sorted(hierarchies[0].concepts_at_level(1))
    b = sorted(hierarchies[1].concepts_at_level(1))
    keys = ((a[0], b[0]), (a[0], b[1]), (a[1], b[0]))
    catalog = CuboidKeyCatalog(keys, hierarchies)
    assert catalog.match_mask([(0, a[0]), (1, b[0])]) == 0b001
    assert catalog.match_mask([(0, a[1]), (1, b[1])]) == 0


# ----------------------------------------------------------------------
# slice: index kernel ≡ scan kernel, and no IO for filtered-out cells
# ----------------------------------------------------------------------

def test_slice_kernels_agree_in_memory(cube, database):
    h0 = database.schema.dimensions[0]
    value = sorted(h0.concepts_at_level(1))[0]
    index_q = FlowCubeQuery(cube, kernel="index")
    scan_q = FlowCubeQuery(cube, kernel="scan")
    for dims in ({}, {"d0": value}, {"d0": "*"}):
        assert _cell_ids(index_q.slice(**dims)) == _cell_ids(
            scan_q.slice(**dims)
        )


def test_unknown_kernel_rejected(cube):
    with pytest.raises(QueryError, match="unknown query kernel"):
        FlowCubeQuery(cube, kernel="warp")


def test_slice_over_store_materialises_only_matching_cells(
    store, database, monkeypatch
):
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    h0 = database.schema.dimensions[0]
    value = sorted(h0.concepts_at_level(1))[0]
    reads: list[tuple] = []
    original = Cell.__init__

    def counting(self, key, item_level, *rest, **fields):
        reads.append((item_level, key))
        original(self, key, item_level, *rest, **fields)

    monkeypatch.setattr(Cell, "__init__", counting)

    cold = store.cube_store()
    index_cells = list(FlowCubeQuery(cold).slice(d0=value))
    index_reads = list(reads)
    # Index-first: the predicate ran on the key catalog, so exactly the
    # yielded cells were read from disk — nothing else.
    assert len(index_reads) == len(index_cells)
    assert set(index_reads) == set(_cell_ids(index_cells))

    reads.clear()
    cold_scan = store.cube_store()
    scan_cells = list(FlowCubeQuery(cold_scan, kernel="scan").slice(d0=value))
    # The scan kernel reads every cell of the sliced path level.
    assert len(reads) > len(scan_cells)
    assert _cell_ids(index_cells) == _cell_ids(scan_cells)


# ----------------------------------------------------------------------
# satellite fixes: memoised cuboids, cached per-query lookups
# ----------------------------------------------------------------------

def test_store_cuboids_memoised_and_invalidated(store, database, cube):
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    cube_store = store.cube_store()
    first = cube_store.cuboids
    assert cube_store.cuboids is first  # memoised, not rebuilt per access
    some_cell = next(iter(cube.cuboids[0]))
    cube_store.put_cuboid(item_cell(cube_store, some_cell))
    assert cube_store.cuboids is not first  # a write invalidates
    second = cube_store.cuboids
    cube_store.flush()
    assert cube_store.cuboids is not second  # flush invalidates too


def test_default_path_level_cached_per_query(cube):
    query = FlowCubeQuery(cube)
    level = query.default_path_level()
    # The memo makes later calls independent of the cube's lattice.
    query.cube = None
    assert query.default_path_level() == level


def test_dimension_index_memoised(cube, database):
    query = FlowCubeQuery(cube)
    assert query._dim_index("d1") == 1
    calls = []
    original = database.schema.dimension_index
    query._schema = type(
        "S", (), {"dimension_index": lambda self, name: calls.append(name)}
    )()
    assert query._dim_index("d1") == 1  # served from the memo
    assert calls == []
    assert original("d1") == 1


# ----------------------------------------------------------------------
# the query cache
# ----------------------------------------------------------------------

def test_query_cache_counters():
    cache = QueryCache(capacity=2)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    cache.put("b", 2)
    cache.put("c", 3)  # evicts "a"
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] >= 1
    assert stats["evictions"] == 1
    assert stats["derivations"] == 0
    cache.derivations += 1
    assert cache.stats()["derivations"] == 1


def test_repeated_slice_served_from_query_cache(cube, database):
    h0 = database.schema.dimensions[0]
    value = sorted(h0.concepts_at_level(1))[0]
    query = FlowCubeQuery(cube)
    first = list(query.slice(d0=value))
    hits_before = query.cache_stats()["hits"]
    second = list(query.slice(d0=value))
    assert query.cache_stats()["hits"] > hits_before
    assert _cell_ids(first) == _cell_ids(second)


def test_query_stats_persist_and_accumulate(tmp_path):
    directory = tmp_path / "cube"
    assert load_query_stats(directory) is None
    merged = merge_query_stats(
        directory,
        {"hits": 2, "misses": 2, "evictions": 0, "derivations": 1,
         "capacity": 8, "size": 3},
    )
    assert merged["hits"] == 2
    merged = merge_query_stats(
        directory,
        {"hits": 4, "misses": 0, "evictions": 1, "derivations": 0,
         "capacity": 8, "size": 1},
    )
    assert merged["hits"] == 6
    assert merged["misses"] == 2
    assert merged["evictions"] == 1
    assert merged["derivations"] == 1
    assert merged["hit_rate"] == pytest.approx(6 / 8)
    assert load_query_stats(directory) == merged


# ----------------------------------------------------------------------
# the roll-up planner
# ----------------------------------------------------------------------

def _levels(database):
    return list(
        ItemLattice([h.depth for h in database.schema.dimensions])
    )


def _shell(database, template, cuboids):
    """A cube carrying exactly *cuboids*, for ``cube_to_json`` comparison."""
    shell = FlowCube(
        database,
        template.item_lattice,
        template.path_lattice,
        template.min_support,
        template.min_deviation,
    )
    shell.compute_exceptions = template.compute_exceptions
    for cuboid in cuboids:
        shell._cuboids[(cuboid.item_level, cuboid.path_level)] = cuboid
    return shell


def test_planner_picks_cheapest_materialised_descendant(database):
    levels = _levels(database)
    base = levels[-1]
    # Materialise the base and one intermediate level; the intermediate
    # one is the shallower (cheaper) source for the apex.
    apex = ItemLevel([0] * len(base))
    intermediate = next(
        lv for lv in levels if lv != apex and lv != base
        and apex.is_higher_or_equal(lv)
    )
    partial = FlowCube.build(
        database, item_levels=[intermediate, base], min_support=1,
        compute_exceptions=False,
    )
    path_level = FlowCubeQuery(partial).default_path_level()
    plan = plan_derivation(partial, apex, path_level)
    assert plan is not None
    assert plan.source == intermediate
    assert plan.distance == sum(intermediate.levels)
    assert plan.cost == plan.distance * plan.source_cells
    assert plan.exact is True  # δ=1: the source cuboid is unpruned


def test_planner_returns_none_without_descendants(database):
    levels = _levels(database)
    apex = ItemLevel([0] * len(levels[-1]))
    apex_only = FlowCube.build(
        database, item_levels=[apex], min_support=1, compute_exceptions=False
    )
    path_level = FlowCubeQuery(apex_only).default_path_level()
    # The base level has no materialised strict descendant to merge from.
    assert plan_derivation(apex_only, levels[-1], path_level) is None


def test_derived_cuboid_byte_identical_when_unpruned(database):
    levels = _levels(database)
    base = levels[-1]
    target = next(lv for lv in levels if lv != base and lv.parents())
    partial = FlowCube.build(
        database, item_levels=[base], min_support=1
    )
    direct = FlowCube.build(
        database, item_levels=[target], min_support=1
    )
    derived = []
    for path_level in partial.path_lattice:
        plan = plan_derivation(partial, target, path_level)
        assert plan.exact is True
        derived.append(derive_cuboid(partial, plan))
    assert cube_to_json(_shell(database, partial, derived)) == cube_to_json(
        direct
    )


def test_derived_cuboid_matches_direct_build_over_covered_records(database):
    """The exactness contract under a real iceberg threshold."""
    levels = _levels(database)
    base = levels[-1]
    target = next(lv for lv in levels if lv != base and lv.parents())
    partial = FlowCube.build(
        database, item_levels=[base], min_support=MIN_SUPPORT,
        compute_exceptions=False,
    )
    path_level = FlowCubeQuery(partial).default_path_level()
    plan = plan_derivation(partial, target, path_level)
    assert plan.exact is False  # δ pruned some base cells
    derived = derive_cuboid(partial, plan)
    covered = set()
    for cell in partial.cuboid(base, path_level):
        covered.update(cell.record_ids)
    restricted = PathDatabase(
        database.schema,
        [record for record in database if record.record_id in covered],
    )
    reference = FlowCube.build(
        restricted, item_levels=[target], min_support=plan.threshold,
        compute_exceptions=False,
    )
    reference_cuboid = reference.cuboid(target, path_level)
    assert list(derived.cells) == list(reference_cuboid.cells)
    for key, cell in derived.cells.items():
        expected = reference_cuboid.cell(key)
        assert cell.record_ids == expected.record_ids
        assert {n.prefix: n.count for n in cell.flowgraph.nodes()} == {
            n.prefix: n.count for n in expected.flowgraph.nodes()
        }


def test_derive_cell_matches_derived_cuboid_with_index_only_selection(
    store, database
):
    levels = _levels(database)
    base = levels[-1]
    target = next(lv for lv in levels if lv != base and lv.parents())
    build_cube(
        store, item_levels=[base], min_support=1,
        compute_exceptions=False, into=store.cube_store(),
    )
    cube_store = store.cube_store()
    path_level = FlowCubeQuery(cube_store).default_path_level()
    plan = plan_derivation(cube_store, target, path_level)
    # The apex cuboid is not materialised, but the store knows its
    # record count from its build stats: at δ=1 the base cuboid covers
    # every record, so the plan is exact.
    assert plan is not None and plan.exact is True
    assert plan.threshold == 1
    whole = derive_cuboid(cube_store, plan)
    for key, expected in whole.cells.items():
        single = derive_cell(cube_store, plan, key)
        assert single.record_ids == expected.record_ids
        assert {n.prefix: n.count for n in single.flowgraph.nodes()} == {
            n.prefix: n.count for n in expected.flowgraph.nodes()
        }
    missing = ("definitely", "missing")
    with pytest.raises(QueryError, match="iceberg"):
        derive_cell(cube_store, plan, missing)


def test_a_store_plans_against_its_record_count(tmp_path):
    """On ``dense``-shaped data at δ = 2 a base-only store knows its
    record count from its build stats, so it resolves δ against every
    record and knows the pruned base cuboid makes its plans inexact:
    ``exact`` is ``False``, and ``POST /query`` never serves ``null``."""
    from repro.serve import create_app
    from repro.synth import scaled_config
    from tests.test_plan import call

    database = generate_path_database(scaled_config(300, seed=1))
    dimensions = database.schema.dimensions
    store = PartitionedPathStore.init(tmp_path / "wh", database.schema)
    store.ingest(database)
    base = ItemLevel([h.depth for h in dimensions])
    build_cube(
        store, item_levels=[base], min_support=2, compute_exceptions=False,
    ).close()
    target = ItemLevel([1] * len(dimensions))
    with store.cube_store() as cube_store:
        assert cube_store.n_records == len(database)
        path_level = cube_store.path_lattice[0]
        covered = sum(cube_store.cell_sizes(base, path_level).values())
        assert covered < len(database)  # δ = 2 pruned some base cells
        plan = plan_derivation(cube_store, target, path_level)
        assert plan.exact is False and plan.threshold == 2
    value = sorted(dimensions[0].concepts_at_level(1))[0]
    app = create_app({"wh": tmp_path / "wh"})
    try:
        for cut in (f"{dimensions[0].name}:{value}", ""):
            response = call(
                app, "wh", "POST", "query", {"cut": cut, "derive": True}
            )
            assert response.status == 200, response.body
            body = json.loads(response.body)
            assert body["derived"] is True
            assert body["derivation"]["exact"] is False
    finally:
        for tenant in app.tenants.values():
            tenant.close()
    store.close()


def test_a_store_never_built_refuses_to_plan(tmp_path, database, cube):
    """A cube written only through ``put_cuboid`` carries no record
    count: planning over it is a typed error, not a guessed threshold."""
    from repro.store import CubeStore

    levels = _levels(database)
    base = levels[-1]
    target = next(lv for lv in levels if lv != base and lv.parents())
    path_level = cube.path_lattice[0]
    written = CubeStore(tmp_path / "cube", database.schema)
    written.create(cube.path_lattice, cube.min_support, cube.min_deviation)
    written.put_cuboid(
        cell for level in cube.path_lattice for cell in cube.cuboid(base, level)
    )
    written.flush()
    assert written.n_records is None
    with pytest.raises(QueryError, match="no record count"):
        plan_derivation(written, target, path_level)
    written.close()


def test_store_derived_cuboid_byte_identical_to_direct_build(store, database):
    """With exceptions off and on: stored cells carry their multisets, so
    a derived cell of a store built with exceptions mines them (Lemma 4.3)
    at first read exactly as a direct build's cells do."""
    levels = _levels(database)
    base = levels[-1]
    target = next(lv for lv in levels if lv != base and lv.parents())
    for exceptions in (False, True):
        build_cube(
            store, item_levels=[base], min_support=1,
            compute_exceptions=exceptions, into=store.cube_store(),
        ).close()
        cube_store = store.cube_store()
        direct = FlowCube.build(
            database, item_levels=[target], min_support=1,
            compute_exceptions=exceptions,
        )
        assert exceptions is any(cell.exceptions for cell in direct.cells())
        derived = []
        for path_level in cube_store.path_lattice:
            plan = plan_derivation(cube_store, target, path_level)
            derived.append(derive_cuboid(cube_store, plan))
        assert cube_to_json(_shell(database, direct, derived)) == (
            cube_to_json(direct)
        )
        cube_store.close()


# ----------------------------------------------------------------------
# FlowCubeQuery + derivation
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def partial_cube(database):
    levels = _levels(database)
    apex = ItemLevel([0, 0])
    base = levels[-1]
    return FlowCube.build(
        database, item_levels=[apex, base], min_support=1,
        compute_exceptions=False,
    )


def test_query_derive_answers_non_materialised_coordinates(
    partial_cube, database
):
    h0 = database.schema.dimensions[0]
    value = sorted(h0.concepts_at_level(1))[0]
    strict = FlowCubeQuery(partial_cube)
    with pytest.raises(QueryError, match="not materialised"):
        strict.cell(d0=value)
    derive_q = FlowCubeQuery(partial_cube, derive=True)
    cell = derive_q.cell(d0=value)
    assert cell.key == (value, "*")
    assert derive_q.cache_stats()["derivations"] == 1
    # Parity with a direct build of the same cuboid.
    target = ItemLevel([1, 0])
    direct = FlowCube.build(
        database, item_levels=[target], min_support=1,
        compute_exceptions=False,
    )
    expected = FlowCubeQuery(direct).cell(d0=value)
    assert cell.record_ids == expected.record_ids
    # A repeat is a cache hit, not a second derivation.
    derive_q.cell(d0=value)
    assert derive_q.cache_stats()["derivations"] == 1
    graph = derive_q.flowgraph(d0=value)
    assert {n.prefix: n.count for n in graph.nodes()} == {
        n.prefix: n.count for n in expected.flowgraph.nodes()
    }


def test_query_derive_navigation(partial_cube, database):
    query = FlowCubeQuery(partial_cube, derive=True)
    apex_cell = query.cell()
    # roll_up climbs through non-materialised levels via the planner.
    base = _levels(database)[-1]
    leaf_cells = [
        cell for cell in query.slice() if cell.item_level == base
    ]
    assert leaf_cells
    rolled = query.roll_up(leaf_cells[0], "d0")
    assert rolled.item_level[0] == leaf_cells[0].item_level[0] - 1
    # drill_down derives the non-materialised child cuboid.
    children = query.drill_down(apex_cell, "d0")
    assert children
    for child in children:
        assert child.item_level == ItemLevel([1, 0])
    strict = FlowCubeQuery(partial_cube)
    with pytest.raises(QueryError, match="not materialised"):
        strict.drill_down(apex_cell, "d0")


# ----------------------------------------------------------------------
# parity grid: FlowCubeQuery over FlowCube vs over CubeStore
# ----------------------------------------------------------------------

@given(
    path_databases(),
    st.sampled_from([0.05, 0.1, 2]),
    st.integers(min_value=0, max_value=3),
)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
def test_query_parity_memory_vs_store(tmp_path_factory, db, min_support, pick):
    levels = _levels(db)
    # Drop one non-base level: a realistic partial materialisation.
    dropped = pick % (len(levels) - 1)
    subset = [lv for i, lv in enumerate(levels) if i != dropped]
    memory = FlowCube.build(
        db, item_levels=subset, min_support=min_support,
        compute_exceptions=False,
    )
    s = PartitionedPathStore.init(
        tmp_path_factory.mktemp("wh") / "wh", db.schema
    )
    s.ingest(db)
    build_cube(
        s, item_levels=subset, min_support=min_support,
        compute_exceptions=False, into=s.cube_store(),
    )
    cube_store = s.cube_store()
    materialised = set(subset)
    h0 = db.schema.dimensions[0]
    value = sorted(h0.concepts_at_level(1))[0]
    for kernel in ("index", "scan"):
        mem_q = FlowCubeQuery(memory, kernel=kernel)
        store_q = FlowCubeQuery(cube_store, kernel=kernel)
        for dims in ({}, {"d0": value}):
            mem_cells = list(mem_q.slice(**dims))
            store_cells = list(store_q.slice(**dims))
            assert _cell_ids(mem_cells) == _cell_ids(store_cells)
            for ours, theirs in zip(mem_cells, store_cells):
                assert ours.record_ids == theirs.record_ids
        # Navigation parity over the materialised subset.
        mem_cell = next(
            (c for c in mem_q.slice() if c.key == (value, "*")), None
        )
        if mem_cell is not None:
            store_cell = store_q.cell(d0=value)
            assert mem_cell.record_ids == store_cell.record_ids
            rolled = list(mem_cell.item_level.levels)
            rolled[0] -= 1
            if ItemLevel(rolled) in materialised:
                mem_rolled = mem_q.roll_up(mem_cell, "d0")
                store_rolled = store_q.roll_up(store_cell, "d0")
                assert mem_rolled.record_ids == store_rolled.record_ids
            deeper = list(mem_cell.item_level.levels)
            deeper[0] += 1
            if ItemLevel(deeper) in materialised:
                mem_children = mem_q.drill_down(mem_cell, "d0")
                store_children = store_q.drill_down(store_cell, "d0")
                assert _cell_ids(mem_children) == _cell_ids(store_children)


def _grid_source(kind, db, base, exceptions, directory):
    """A cube materialising only *base*: built in memory, restored by
    ``cube_from_json``, or built into a store."""
    memory = FlowCube.build(
        db, item_levels=[base], min_support=1, compute_exceptions=exceptions
    )
    if kind == "memory":
        return memory
    if kind == "restored":
        return cube_from_json(cube_to_json(memory), db)
    store = PartitionedPathStore.init(directory / "wh", db.schema)
    store.ingest(db)
    cube = build_cube(
        store, item_levels=[base], min_support=1, compute_exceptions=exceptions
    )
    store.close()
    return cube


@given(path_databases(), st.integers(min_value=0, max_value=3))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_derived_rollup_byte_identity_grid(db, pick):
    """Derived vs directly-built cuboids, byte-identical when unpruned —
    from a source cube built in memory, restored by ``cube_from_json`` or
    built into a store, with exceptions off and on."""
    levels = _levels(db)
    base = levels[-1]
    ancestors = [lv for lv in levels if lv != base]
    target = ancestors[pick % len(ancestors)]
    for exceptions in (False, True):
        direct = FlowCube.build(
            db, item_levels=[target], min_support=1,
            compute_exceptions=exceptions,
        )
        for kind in ("memory", "restored", "store"):
            with tempfile.TemporaryDirectory() as directory:
                source = _grid_source(
                    kind, db, base, exceptions, FsPath(directory)
                )
                if kind != "store":  # every in-memory cell is a vector
                    table = source.path_table
                    for level_id, path_level in enumerate(source.path_lattice):
                        for cell in source.cuboid(base, path_level):
                            assert type(cell) is Cell
                            assert cell.level_paths is table.paths[level_id]
                derived = []
                for path_level in source.path_lattice:
                    plan = plan_derivation(source, target, path_level)
                    assert plan.exact is True
                    derived.append(derive_cuboid(source, plan))
                if kind == "store":
                    source.close()
            assert cube_to_json(_shell(db, direct, derived)) == cube_to_json(
                direct
            ), (kind, exceptions)


@pytest.mark.parametrize("exceptions", [False, True], ids=["plain", "mined"])
def test_derivation_across_a_reload_that_extended_the_path_table(
    tmp_path, exceptions
):
    """After an append and a reload, the cached cells of one source
    cuboid sit on two path lists of one lineage: the derivation sums
    them as the fresh handle and the direct build do."""
    database = generate_path_database(
        GeneratorConfig(n_paths=240, n_dims=2, dim_fanouts=(2, 3), seed=3)
    )
    rows = sorted(database, key=lambda record: record.record_id)
    schema = database.schema
    base = _levels(database)[-1]
    target = ItemLevel([1, 1])
    store = PartitionedPathStore.init(tmp_path / "wh", schema, partition_size=60)
    store.ingest(PathDatabase(schema, rows[:180], validate=False))
    writer = store.cube_store()
    build_cube(
        store, item_levels=[base], min_support=1,
        compute_exceptions=exceptions, into=writer, stats=BuildStats(),
    )
    reader = store.cube_store(cache_size=10_000)
    lattice = reader.path_lattice

    def derived(cube):
        return [
            derive_cuboid(cube, plan_derivation(cube, target, path_level))
            for path_level in lattice
        ]

    derived(reader)  # reads, and caches, every source cell
    append_records(store, rows[180:], cube=writer, compact_after=0)
    assert reader.maybe_reload()
    lists = {
        id(cell.level_paths): len(cell.level_paths)
        for cell in reader.cuboid(base, lattice[0])
    }
    assert len(lists) == len(set(lists.values())) == 2
    direct = FlowCube.build(
        PathDatabase(schema, rows, validate=False), item_levels=[target],
        min_support=1, compute_exceptions=exceptions,
    )
    answer = cube_to_json(_shell(database, direct, derived(reader)))
    assert answer == cube_to_json(direct)
    with store.cube_store() as fresh:
        assert answer == cube_to_json(_shell(database, direct, derived(fresh)))
    reader.close()
    writer.close()
    store.close()


def test_threads_deriving_with_exceptions_get_the_serial_answers(database):
    """One façade, more threads than cores, derived cells mining their
    exceptions on the cube's shared postings — cold, so the threads race
    to index them."""
    levels = _levels(database)

    def query():
        cube = FlowCube.build(
            database, item_levels=[levels[-1]], min_support=MIN_SUPPORT,
        )
        return FlowCubeQuery(cube, derive=True)

    def answers(q, order):
        return {
            coord: [
                (cell.key, flowgraph_to_dict(cell.flowgraph))
                for cell in q.derived_cuboid(*coord)
            ]
            for coord in order
        }

    first = query()
    coords = [
        (item_level, path_level)
        for item_level in levels[:-1]
        for path_level in first.cube.path_lattice
    ]
    serial = answers(first, coords)
    n_threads = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):  # a fresh, cold façade per round
            shared = query()
            barrier = threading.Barrier(n_threads)
            results: list = [None] * n_threads

            def run(slot):
                barrier.wait()
                order = coords[:: 1 if slot % 2 else -1]
                results[slot] = answers(shared, order)

            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert results == [serial] * n_threads
            # Every level's postings indexed each of its paths once.
            postings = shared.cube.path_table.postings
            assert [len(level.rows) for level in postings] == [
                len(level.paths) for level in postings
            ]
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# plan-aware derivability (core.materialization)
# ----------------------------------------------------------------------

def test_materialization_plan_derivability():
    minimum = ItemLevel([0, 1])
    observation = ItemLevel([2, 2])
    plan = plan_between_layers(minimum, observation)
    assert plan.derivability(minimum) == "materialised"
    # A level between the layers but off the drill path derives from the
    # observation layer (its shallowest planned strict descendant).
    off_path = ItemLevel([0, 2])
    assert off_path not in plan.item_levels
    assert plan.derivability(off_path) == "derivable"
    assert plan.derivation_source(off_path) == observation
    # Nothing below the observation layer is planned: underivable.
    deeper = ItemLevel([3, 2])
    assert plan.derivability(deeper) == "unreachable"
    assert plan.derivation_source(deeper) is None
    single = MaterializationPlan((observation,))
    assert single.derivability(observation) == "materialised"
    assert single.derivation_source(minimum) == observation


# ----------------------------------------------------------------------
# CLI: query --derive and persisted cache stats
# ----------------------------------------------------------------------

def test_cli_query_derive_and_stats(store, database, capsys):
    levels = _levels(database)
    base = levels[-1]
    apex = ItemLevel([0, 0])
    build_cube(
        store, item_levels=[apex, base], min_support=1,
        compute_exceptions=False, into=store.cube_store(),
    )
    target_dir = str(store.directory)
    h0 = database.schema.dimensions[0]
    value = sorted(h0.concepts_at_level(1))[0]
    # Without --derive the non-materialised coordinate fails...
    assert main(["query", target_dir, "-d", f"d0={value}"]) == 2
    capsys.readouterr()
    # ...with it, the planner answers and reports its source.
    assert main(["query", target_dir, "-d", f"d0={value}", "--derive"]) == 0
    out = capsys.readouterr().out
    assert "derived from cuboid" in out
    assert "flowgraph measure of d0=" in out
    # The derivation counter survived into the persisted stats...
    assert main(["stats", target_dir]) == 0
    report = json.loads(capsys.readouterr().out)
    query_cache = report["cube"]["query_cache"]
    assert query_cache["derivations"] == 1
    assert query_cache["misses"] >= 1
    # ...and accumulates across invocations.
    assert main(["query", target_dir, "-d", f"d0={value}", "--derive"]) == 0
    capsys.readouterr()
    assert main(["stats", target_dir]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cube"]["query_cache"]["derivations"] == 2
