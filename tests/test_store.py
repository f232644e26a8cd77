"""The persistent partitioned store: catalog, builder, cube store, CLI.

The load-bearing assertions here are the out-of-core contracts:

* ``build_cube`` over a ≥4-partition store persists a cube identical to
  :meth:`FlowCube.build` over the concatenated data (same cuboids, cell
  keys, record ids, aggregated paths, flowgraphs, and exceptions), and
  a level listed twice is built once;
* ``shared_mine_store`` mines exactly :func:`shared_mine`'s supports while
  never holding more than one partition's encoded
  :class:`TransactionDatabase` (``BuildStats.max_live_transaction_dbs``);
* the :class:`CubeStore` read cache reports hits/misses/evictions and a
  repeated :class:`FlowCubeQuery` measure access is served from it.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.flowcube import FlowCube
from repro.core.lattice import ItemLevel
from repro.core.path import PathRecord
from repro.errors import CubeError, StoreError
from repro.mining.shared import shared_mine
from repro.query.api import FlowCubeQuery
from repro.store import (
    BloomSummary,
    BuildStats,
    LRUCache,
    PartitionedPathStore,
    build_cube,
    schema_fingerprint,
    schema_from_dict,
    schema_to_dict,
    shared_mine_store,
)
from repro.store.cli import main
from repro.store.partition import LOCATION_SUMMARY, bloom_mask
from repro.synth import GeneratorConfig, generate_path_database, scaled_config
from tests.conftest import cube_files, exception_lists, stored_cube_json

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
PARTITION_SIZE = 30  # 120 records -> 4 partitions


@pytest.fixture(scope="module")
def database():
    return generate_path_database(CONFIG)


@pytest.fixture(scope="module")
def reference_cube(database):
    return FlowCube.build(database, min_support=MIN_SUPPORT)


@pytest.fixture()
def store(tmp_path, database):
    s = PartitionedPathStore.init(
        tmp_path / "wh", database.schema, partition_size=PARTITION_SIZE
    )
    s.ingest(database)
    return s


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------

def test_lru_cache_counts_hits_misses_and_evictions():
    cache = LRUCache(2)
    assert cache.get("a") is None  # miss
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # hit; "a" becomes most recent
    cache.put("c", 3)  # evicts "b" (least recently used)
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.get("b") is None  # miss
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 2
    assert stats["evictions"] == 1
    assert stats["size"] == 2 and stats["capacity"] == 2
    assert stats["hit_rate"] == pytest.approx(1 / 3)


def test_lru_cache_clear_keeps_counters():
    cache = LRUCache(4)
    cache.put("x", 1)
    cache.get("x")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1


def test_lru_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        LRUCache(0)


# ----------------------------------------------------------------------
# Bloom summaries
# ----------------------------------------------------------------------

def test_bloom_summary_membership_and_roundtrip():
    summary = BloomSummary()
    for value in ("outerwear", "jacket", "nike"):
        summary.add(value)
    assert summary.might_contain("jacket")
    assert not summary.might_contain("definitely-absent-value-xyz")
    restored = BloomSummary.from_dict(summary.to_dict())
    assert restored.bits == summary.bits
    assert restored.might_contain("outerwear")


def test_bloom_summary_rejects_bad_geometry():
    with pytest.raises(StoreError):
        BloomSummary(n_bits=4)


#: The default geometry, and one other.
GEOMETRIES = [(1024, 4), (256, 3)]


def blake2b_positions(value: str, n_bits: int, n_hashes: int) -> list[int]:
    """The reference derivation: double hashing over one BLAKE2b digest."""
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1
    return [(h1 + i * h2) % n_bits for i in range(n_hashes)]


def reference_bits(values, n_bits: int, n_hashes: int) -> int:
    bits = 0
    for value in values:
        for position in blake2b_positions(value, n_bits, n_hashes):
            bits |= 1 << position
    return bits


@pytest.mark.parametrize("n_bits,n_hashes", GEOMETRIES)
def test_memoised_bloom_positions_equal_the_blake2b_derivation(
    database, n_bits, n_hashes
):
    schema = database.schema
    values = {
        concept
        for hierarchy in (*schema.dimensions, schema.location)
        for concept in hierarchy
    } | {"", "ünïcödé", "definitely-absent-value-xyz"}
    for value in sorted(values):
        expected = reference_bits([value], n_bits, n_hashes)
        # The first call derives, the second answers from the memo.
        assert bloom_mask(value, n_bits, n_hashes) == expected
        hits = bloom_mask.cache_info().hits
        assert bloom_mask(value, n_bits, n_hashes) == expected
        assert bloom_mask.cache_info().hits == hits + 1
        summary = BloomSummary(n_bits, n_hashes)
        summary.add(value)
        assert summary.bits == expected
        assert summary.might_contain(value)


def test_a_catalog_round_trip_with_another_geometry_prunes_the_same(
    store, database
):
    n_bits, n_hashes = GEOMETRIES[1]
    schema = database.schema
    columns = [(f"dim:{h.name}", h) for h in schema.dimensions]
    columns.append((LOCATION_SUMMARY, schema.location))
    expected_bits: dict[tuple[int, str], int] = {}
    for meta, part in store.iter_partitions():
        present = {
            key: {record.dims[i] for record in part}
            for i, (key, _) in enumerate(columns[:-1])
        }
        present[LOCATION_SUMMARY] = {
            stage.location for record in part for stage in record.path
        }
        for key, hierarchy in columns:
            concepts = {
                concept
                for value in present[key]
                for concept in hierarchy.ancestors(value, include_self=True)
            } - {"*"}
            summary = BloomSummary(n_bits, n_hashes)
            for concept in sorted(concepts):
                summary.add(concept)
            meta.summaries[key] = summary
            expected_bits[meta.partition_id, key] = reference_bits(
                concepts, n_bits, n_hashes
            )
    store.catalog.save()

    reopened = PartitionedPathStore.open(store.directory)
    pruned = 0
    for meta in reopened.catalog.partitions:
        for key, _ in columns:
            summary = meta.summaries[key]
            assert (summary.n_bits, summary.n_hashes) == (n_bits, n_hashes)
            assert summary.bits == expected_bits[meta.partition_id, key]
    for key, hierarchy in columns:
        for concept in sorted(set(hierarchy) - {"*"}):
            expected = [
                meta.partition_id
                for meta in store.catalog.partitions
                if all(
                    expected_bits[meta.partition_id, key] >> p & 1
                    for p in blake2b_positions(concept, n_bits, n_hashes)
                )
            ]
            if key == LOCATION_SUMMARY:
                selected = reopened.select_partitions(location=concept)
            else:
                selected = reopened.select_partitions(**{key[4:]: concept})
            assert selected == expected
            pruned += len(store.catalog.partitions) - len(expected)
    assert pruned > 0  # the geometry prunes something
    reopened.close()


# ----------------------------------------------------------------------
# schema serialisation + catalog
# ----------------------------------------------------------------------

def test_schema_roundtrip_preserves_codes_and_fingerprint(database):
    schema = database.schema
    restored = schema_from_dict(schema_to_dict(schema))
    assert schema_fingerprint(restored) == schema_fingerprint(schema)
    # Sibling order (and hence the Section 5 digit codes) must survive.
    for original, rebuilt in zip(
        list(schema.dimensions) + [schema.location, schema.duration],
        list(restored.dimensions) + [restored.location, restored.duration],
    ):
        for concept in original:
            assert rebuilt.code_of(concept) == original.code_of(concept)


def test_open_missing_and_corrupt_catalog(tmp_path):
    with pytest.raises(StoreError):
        PartitionedPathStore.open(tmp_path / "nowhere")
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "catalog.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(StoreError):
        PartitionedPathStore.open(broken)


def test_init_refuses_existing_store(store, database):
    with pytest.raises(StoreError):
        PartitionedPathStore.init(store.directory, database.schema)


# ----------------------------------------------------------------------
# partitioned path store
# ----------------------------------------------------------------------

def test_ingest_partitions_and_roundtrip(store, database):
    assert store.partition_ids() == [0, 1, 2, 3]
    assert len(store) == len(database)
    for meta in store.catalog.partitions:
        assert meta.n_records <= PARTITION_SIZE
    reopened = PartitionedPathStore.open(store.directory)
    assert list(reopened.load_all()) == list(database)


def test_iter_partitions_preserves_record_order(store, database):
    ids = [
        record.record_id
        for _, part in store.iter_partitions()
        for record in part
    ]
    assert ids == [record.record_id for record in database]


def test_ingest_rejects_id_collisions(store, database):
    with pytest.raises(StoreError):
        store.ingest(database)  # same ids again
    floor = store.catalog.max_record_id
    record = database[database.records[0].record_id]
    descending = [
        PathRecord(floor + 2, record.dims, record.path),
        PathRecord(floor + 1, record.dims, record.path),
    ]
    with pytest.raises(StoreError):
        store.ingest(descending)


def test_ingest_rejects_foreign_schema(store):
    other = generate_path_database(
        CONFIG.with_(n_paths=5, dim_fanouts=(3, 3), seed=1)
    )
    with pytest.raises(StoreError):
        store.ingest(other)


def test_select_partitions_prunes_with_blooms(store, database):
    name = database.schema.dimensions[0].name
    assert store.select_partitions(**{name: "no-such-value"}) == []
    # A value actually present must keep every partition that holds it.
    value = database.records[0].dims[0]
    holding = {
        meta.partition_id
        for meta, part in store.iter_partitions()
        if any(record.dims[0] == value for record in part)
    }
    assert holding <= set(store.select_partitions(**{name: value}))
    # Level-1 ancestors prune too (ancestor closure is indexed).
    parent = database.schema.dimensions[0].ancestor_at_level(value, 1)
    assert holding <= set(store.select_partitions(**{name: parent}))
    with pytest.raises(Exception):
        store.select_partitions(not_a_dimension="x")


# ----------------------------------------------------------------------
# out-of-core construction
# ----------------------------------------------------------------------

def test_shared_mine_store_equals_in_memory(store, database):
    build_stats = BuildStats()
    out_of_core = shared_mine_store(
        store, min_support=MIN_SUPPORT, build_stats=build_stats
    )
    in_memory = shared_mine(database, min_support=MIN_SUPPORT)
    assert out_of_core.supports == in_memory.supports
    assert out_of_core.threshold == in_memory.threshold
    # The out-of-core invariant, proven by the live tracker.
    assert build_stats.partitions >= 4
    assert build_stats.max_live_transaction_dbs == 1


def test_build_cube_matches_flowcube_build(store, reference_cube):
    stats = BuildStats()
    cube = build_cube(store, min_support=MIN_SUPPORT, stats=stats)
    assert stats.partitions >= 4
    assert stored_cube_json(cube) == stored_cube_json(reference_cube)
    assert exception_lists(cube) == exception_lists(reference_cube)
    for actual, expected in zip(
        cube.cells(), reference_cube.cells(), strict=True
    ):
        assert actual.paths == expected.paths
    cube.close()


def test_build_cube_with_shared_segments(store, reference_cube):
    """Shared's segments, which flowbench still passes, change nothing: a
    cell mines its own at first read, the ones Shared finds."""
    segments = shared_mine_store(store, min_support=MIN_SUPPORT)
    stats = BuildStats()
    cube = build_cube(
        store, min_support=MIN_SUPPORT,
        segments_by_cell=segments.segments_by_cell(), stats=stats,
    )
    assert stats.max_live_transaction_dbs == 1
    assert cube.n_cells() > 0
    assert stored_cube_json(cube) == stored_cube_json(reference_cube)
    assert exception_lists(cube) == exception_lists(reference_cube)
    cube.close()


#: What differs between two builds of one cube: when they ran.
TIMED = ("version", "built_at", "elapsed_seconds", "phase_seconds")


def _untimed(stats: dict) -> dict:
    return {name: value for name, value in stats.items() if name not in TIMED}


def test_a_repeated_item_level_is_built_once(tmp_path, monkeypatch):
    """``item_levels=[L, L]`` persists the very cube ``[L]`` does: heap,
    index, path table, ``cube.json`` and the build's counters."""
    monkeypatch.setattr("repro.store.cube_store.new_lineage", lambda: 2006)
    database = generate_path_database(scaled_config(300, 11))
    level = ItemLevel((0, 1, 1))
    built = []
    for name, levels in (("once", [level]), ("twice", [level, level])):
        store = PartitionedPathStore.init(
            tmp_path / name, database.schema, partition_size=100
        )
        store.ingest(database)
        stats = BuildStats()
        build_cube(
            store, item_levels=levels, min_support=2,
            compute_exceptions=False, into=store.cube_store(), stats=stats,
        ).close()
        listed = cube_files(store.directory)
        files = {
            path.name: path.read_bytes()
            for path in (
                listed["index"], listed["paths"], *listed["segments"].values()
            )
        }
        meta = json.loads(
            (store.directory / "cube" / "cube.json").read_text(encoding="utf-8")
        )
        meta["build_stats"] = _untimed(meta["build_stats"])
        built.append((files, meta, _untimed(stats.as_dict())))
    assert built[0] == built[1]
    assert built[1][1]["item_levels"] == [[0, 1, 1]]


# ----------------------------------------------------------------------
# the cube store
# ----------------------------------------------------------------------

def test_cube_store_roundtrips_the_cube(store, reference_cube):
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    reopened = store.cube_store()
    assert reopened.is_built
    assert reopened.min_support == MIN_SUPPORT
    assert reopened.n_cells() == reference_cube.n_cells()
    for reference in reference_cube.cuboids:
        cuboid = reopened.cuboid(reference.item_level, reference.path_level)
        assert set(cuboid.keys) == set(reference.cells)
        for key, expected in reference.cells.items():
            actual = cuboid.cell(key)
            assert actual.record_ids == expected.record_ids
            expected_nodes = {
                n.prefix: n.count for n in expected.flowgraph.nodes()
            }
            actual_nodes = {
                n.prefix: n.count for n in actual.flowgraph.nodes()
            }
            assert actual_nodes == expected_nodes
            assert sorted(map(str, actual.flowgraph.exceptions)) == sorted(
                map(str, expected.flowgraph.exceptions)
            )


def test_cube_store_cache_reports_hits_misses_evictions(store):
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    small = store.cube_store(cache_size=2)
    cells = list(small.cells())  # every read misses a cold 2-entry cache
    stats = small.cache_stats()
    assert stats["misses"] == len(cells)
    assert stats["evictions"] == len(cells) - 2
    assert stats["size"] == 2
    # Re-reading the most recent cell is a hit.
    last = cells[-1]
    small.cell(last.item_level, last.key, last.path_level)
    assert small.cache_stats()["hits"] == 1


def test_cube_store_raises_before_build_and_on_missing_cells(store):
    empty = store.cube_store()
    with pytest.raises(StoreError):
        empty.cuboid(None, None)
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    built = store.cube_store()
    cuboid = built.cuboids[0]
    with pytest.raises(CubeError):
        cuboid.cell(("no", "such"))


def test_query_over_cube_store_hits_cache_on_repeat(store, reference_cube):
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    cube_store = store.cube_store(cache_size=16)
    query = FlowCubeQuery(cube_store)
    first = query.flowgraph()  # apex cell, first touch materialises
    hits_before = query.cache_stats()["hits"]
    second = query.flowgraph()  # repeat must be served from the query cache
    assert query.cache_stats()["hits"] > hits_before
    # A fresh query object (empty query cache) over the same store is
    # served by the store's LRU instead: the cell file is not re-read.
    store_hits_before = cube_store.cache_stats()["hits"]
    FlowCubeQuery(cube_store).flowgraph()
    assert cube_store.cache_stats()["hits"] > store_hits_before
    assert {n.prefix for n in first.nodes()} == {n.prefix for n in second.nodes()}
    # The measure matches the in-memory cube's apex measure.
    reference_query = FlowCubeQuery(reference_cube)
    expected = reference_query.flowgraph()
    assert {n.prefix: n.count for n in second.nodes()} == {
        n.prefix: n.count for n in expected.nodes()
    }


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------

def test_cli_full_lifecycle(tmp_path, capsys):
    target = str(tmp_path / "wh")
    assert main([
        "init", target, "--synthetic", "--n-dims", "2", "--fanouts", "2,3",
        "--n-location-groups", "3", "--locations-per-group", "2",
        "--max-duration", "3", "--partition-size", "25",
    ]) == 0
    assert main([
        "ingest", target, "--synthetic", "--n-paths", "100", "--seed", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "4 new partition(s)" in out
    assert main([
        "build", target, "--min-support", "0.2", "--no-exceptions",
    ]) == 0
    assert "built" in capsys.readouterr().out
    assert main(["query", target]) == 0
    assert "flowgraph measure" in capsys.readouterr().out
    assert main(["stats", target]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["store"]["partitions"] == 4
    assert report["cube"]["built"] is True
    assert_byte_rows(report["bytes"], tmp_path / "wh", n_partitions=4, n_deltas=0)
    assert main([
        "append", target, "--synthetic", "--n-paths", "20", "--seed", "4",
        "--compact-after", "0",
    ]) == 0
    capsys.readouterr()
    assert main(["stats", target]) == 0
    rows = json.loads(capsys.readouterr().out)["bytes"]
    assert_byte_rows(rows, tmp_path / "wh", n_partitions=5, n_deltas=1)


def assert_byte_rows(rows: dict, directory, n_partitions: int, n_deltas: int):
    """``stats``'s bytes per file role: every role present, one row per
    delta segment, and a total that is every regular file of the store."""
    assert set(rows) == {
        "partitions", "strings", "paths", "index", "heap", "delta_segments",
        "meta", "total",
    }
    assert rows["partitions"]["count"] == n_partitions
    assert len(rows["delta_segments"]) == n_deltas
    assert all(rows[role] > 0 for role in ("strings", "paths", "index", "heap"))
    on_disk = sum(
        path.stat().st_size
        for path in directory.rglob("*")
        if path.is_file() and not path.is_symlink()
    )
    assert rows["total"] == on_disk == (
        rows["partitions"]["bytes"] + sum(rows["delta_segments"].values())
        + sum(rows[role] for role in ("strings", "paths", "index", "heap", "meta"))
    )


def test_cli_csv_roundtrip_and_errors(tmp_path, capsys, database):
    target = str(tmp_path / "wh")
    assert main([
        "init", target, "--synthetic", "--n-dims", "2", "--fanouts", "2,3",
        "--n-location-groups", "3", "--locations-per-group", "2",
        "--max-duration", "3",
    ]) == 0
    csv_file = tmp_path / "batch.csv"
    csv_file.write_text(database.to_csv(), encoding="utf-8")
    assert main(["ingest", target, "--csv", str(csv_file)]) == 0
    # Same ids again: the append invariant rejects the batch.
    assert main(["ingest", target, "--csv", str(csv_file)]) == 2
    assert "error:" in capsys.readouterr().err
    # Querying before any build fails cleanly too.
    assert main(["query", target]) == 2
    assert main(["stats", str(tmp_path / "missing")]) == 2
