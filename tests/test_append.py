"""Incremental store append (repro.store.append): delta-merge parity.

The load-bearing contract: appending a batch to a persisted cube and
querying it is **byte-identical** (``cube_to_json``) to the reference
in-memory build over the extended database — the per-cell oracle
(``tests/oracle.py``, scan exception kernel) — before *and* after
compaction; warm handle and cold reopen.

The durability contracts ride along: appends never rewrite the base
heap; a crash between the delta-segment publish and the meta commit
leaves the old cube fully readable and the next append refuses the
now-stale cube; a rebuild sweeps crash orphans; fresh generations skip
over orphaned files.
"""

from __future__ import annotations

import json

import pytest

from repro.core.flowcube import FlowCube
from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase
from repro.core.serialization import cube_to_json, flowgraph_to_dict
from repro import publish
from repro.errors import PathDatabaseError, StoreError
from repro.store import (
    BuildStats,
    PartitionedPathStore,
    append_records,
    build_cube,
)
from repro.store.cli import main
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import cube_files, item_cell, stored_cube_json
from tests.oracle import direct_cube

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
MIN_SUPPORT = 0.05
PARTITION_SIZE = 40
BASE_ROWS = 120  # appends get the remaining 30 (a 25% batch)


@pytest.fixture(scope="module")
def database():
    return generate_path_database(CONFIG)


@pytest.fixture(scope="module")
def split(database):
    rows = list(database)
    return rows[:BASE_ROWS], rows[BASE_ROWS:]


def _base_store(directory, database, rows, **build_kwargs):
    store = PartitionedPathStore.init(
        directory, database.schema, partition_size=PARTITION_SIZE
    )
    store.ingest(PathDatabase(database.schema, rows, validate=False))
    cube = store.cube_store()
    build_cube(
        store,
        min_support=build_kwargs.pop("min_support", MIN_SUPPORT),
        into=cube,
        stats=BuildStats(),
        **build_kwargs,
    )
    return store, cube


@pytest.fixture(scope="module")
def rebuilt_reference(database):
    """``cube_to_json`` of the reference in-memory build over the whole
    database (the per-cell oracle), cached per build options."""
    cache: dict[tuple, str] = {}

    def reference(**build_kwargs) -> str:
        key = tuple(sorted(build_kwargs.items()))
        if key not in cache:
            build_kwargs.setdefault("min_support", MIN_SUPPORT)
            cache[key] = cube_to_json(
                direct_cube(database, **build_kwargs)
            )
        return cache[key]

    return reference


# ----------------------------------------------------------------------
# the parity grid
# ----------------------------------------------------------------------

def test_append_matches_rebuild_byte_identical(
    tmp_path, database, split, rebuilt_reference
):
    base, batch = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    stats = append_records(store, batch, cube=cube, compact_after=0)
    assert stats["ingested"] == len(batch)
    assert stats["partitions"] == 1  # what the batch wrote, not the store's 4
    assert stats["updated"] > 0
    expected = rebuilt_reference()
    assert cube_to_json(cube) == expected

    # Cold reopen reads the delta overlay, not stale base state.
    cube.close()
    cold = store.cube_store()
    assert cube_to_json(cold) == expected
    assert cold.delta_segments == [1]

    # Compaction folds the segments without changing a byte.
    assert cold.compact() > 0
    assert cube_to_json(cold) == expected
    assert cold.delta_segments == []
    assert cube_to_json(store.cube_store()) == expected


def test_a_read_cell_keeps_its_measure_through_an_append(
    tmp_path, database, split
):
    """The append adds a batch into a *copy* of a stored cell's vector.
    A cell read — and its ``weights`` taken — before the append, through
    the very handle the append then reads that cell with, still reports
    its old size, multiset and flowgraph afterwards."""
    base, batch = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    before = FlowCube.build(
        PathDatabase(database.schema, base, validate=False),
        min_support=MIN_SUPPORT,
    )
    apex = next(c for c in before.cuboids if not any(c.item_level.levels))
    coords = (apex.item_level, ("*",) * len(apex.item_level.levels))
    path_level = apex.path_level
    cell = cube.cell(coords[0], coords[1], path_level)
    weights = cell.weights
    held = dict(weights)
    append_records(store, batch, cube=cube, compact_after=0)
    grown = cube.cell(coords[0], coords[1], path_level)
    assert grown.n_paths == len(base) + len(batch)  # the batch updated it
    expected = before.cell(coords[0], coords[1], path_level)
    assert weights == held and cell.weights == held
    assert cell.n_paths == len(cell.record_ids) == len(base)
    assert cell.paths == expected.paths
    assert flowgraph_to_dict(cell.flowgraph) == flowgraph_to_dict(
        expected.flowgraph
    )
    cube.close()
    store.close()


def test_append_never_rewrites_the_base_heap(tmp_path, database, split):
    base, batch = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    heap = cube_files(store.directory)["segments"][0]
    before = (heap.stat().st_mtime_ns, heap.stat().st_size, heap.read_bytes())
    append_records(store, batch, cube=cube, compact_after=0)
    after = (heap.stat().st_mtime_ns, heap.stat().st_size, heap.read_bytes())
    assert before == after
    files = cube_files(store.directory)
    assert files["segments"][0] == heap and files["segments"][1].exists()
    assert files["index"].name.startswith("cells.delta.")

    # A plain write to a published cube is an append too: with no writer
    # open it stages a delta segment — O(dirty cells), not a heap copy.
    store, cube = _base_store(tmp_path / "put", database, base)
    cube.close()
    reference = direct_cube(
        PathDatabase(database.schema, base, validate=False),
        min_support=MIN_SUPPORT,
    )
    cell = next(iter(reference.cuboids[0]))
    coords = (cell.item_level, cell.key, cell.path_level)
    heap = cube_files(store.directory)["segments"][0]
    before = (heap.stat().st_mtime_ns, heap.read_bytes())
    writer, reader = store.cube_store(), store.cube_store()
    assert not reader.cell(*coords).redundant
    cell = writer.cell(*coords)
    writer.put_cuboid(item_cell(writer, cell, redundant=True))
    writer.flush()
    assert (heap.stat().st_mtime_ns, heap.read_bytes()) == before
    segment = cube_files(store.directory)["segments"][1]
    assert 8 < segment.stat().st_size < len(before[1]) // 10
    assert reader.maybe_reload() and reader.delta_segments == [1]
    assert reader.cell(*coords).redundant
    # And back: a second flush, a second segment.
    writer.put_cuboid(item_cell(writer, cell))
    writer.flush()
    assert (heap.stat().st_mtime_ns, heap.read_bytes()) == before
    assert writer.delta_segments == [1, 2]
    assert writer.compact() > 0 and writer.delta_segments == []
    assert not list((store.directory / "cube").glob("cells.delta.*"))
    assert reader.maybe_reload()
    for handle in (writer, reader, store.cube_store()):
        assert cube_to_json(handle) == cube_to_json(reference)
        handle.close()


def test_append_without_exceptions_matches_rebuild(
    tmp_path, database, split, rebuilt_reference
):
    """Bloom-pruned promotion path: no full sweep, still byte-identical."""
    base, batch = split
    store, cube = _base_store(
        tmp_path / "wh", database, base,
        compute_exceptions=False, min_support=6,
    )
    stats = append_records(store, batch, cube=cube, compact_after=0)
    assert stats["created"] > 0  # this split promotes keys at δ=6
    expected = rebuilt_reference(compute_exceptions=False, min_support=6)
    assert cube_to_json(cube) == expected
    cube.compact()
    assert cube_to_json(cube) == expected


def test_fractional_delta_append_demotes_to_rebuild_state(
    tmp_path, database, split, rebuilt_reference
):
    base, batch = split
    store, cube = _base_store(
        tmp_path / "wh", database, base, min_support=0.08
    )
    stats = append_records(store, batch, cube=cube, compact_after=0)
    assert stats["demoted"] > 0
    expected = rebuilt_reference(min_support=0.08)
    assert cube_to_json(cube) == expected


def test_iceberg_promotion_lands_in_rebuild_order(
    tmp_path, database, split, rebuilt_reference
):
    base, batch = split
    store, cube = _base_store(
        tmp_path / "wh", database, base, min_support=6
    )
    stats = append_records(store, batch, cube=cube, compact_after=0)
    assert stats["created"] > 0 and stats["promoted"] > 0
    expected = rebuilt_reference(min_support=6)
    assert cube_to_json(cube) == expected


def test_auto_compaction_trips_at_threshold(tmp_path, database, split):
    base, batch = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    first, second = batch[:15], batch[15:]
    r1 = append_records(store, first, cube=cube, compact_after=2)
    assert r1["compacted"] == 0 and cube.delta_segments == [1]
    r2 = append_records(store, second, cube=cube, compact_after=2)
    assert r2["compacted"] > 0 and cube.delta_segments == []
    counters = cube.build_stats["append"]
    assert counters["batches"] == 2
    assert counters["compactions"] == 1
    assert counters["delta_segments"] == 0
    assert counters["last_compaction"]["folded_segments"] == 2


# ----------------------------------------------------------------------
# counters and guardrails
# ----------------------------------------------------------------------

def test_append_counters_persist_and_surface_in_stats(
    tmp_path, capsys, database, split
):
    base, batch = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    append_records(store, batch, cube=cube, compact_after=0)
    cube.close()

    meta = json.loads(
        (store.directory / "cube" / "cube.json").read_text(encoding="utf-8")
    )
    counters = meta["build_stats"]["append"]
    assert counters["batches"] == 1
    assert counters["records_appended"] == len(batch)
    assert counters["delta_segments"] == 1
    assert meta["build_stats"]["records"] == len(store)

    assert main(["stats", str(store.directory)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cube"]["build_stats"]["append"]["batches"] == 1
    assert report["cube"]["delta_segments"] == 1


def test_a_cube_from_a_jobs_build_still_opens_appends_and_reports(
    tmp_path, capsys, database, split, rebuilt_reference
):
    """A ``cube.json`` written by an older ``--jobs N`` build carries a
    ``build_stats.pool`` block; nothing reads it, nothing drops it."""
    base, batch = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    cube.close()
    pool = {
        "jobs": 2,
        "spawn_count": 2,
        "spawn_seconds": 0.0312,
        "task_batches": 44,
        "worker_busy_seconds": 0.4187,
    }
    meta_path = store.directory / "cube" / "cube.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["build_stats"]["pool"] = pool
    meta["build_stats"]["phase_seconds"]["pool_spawn"] = 0.0312
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    cube = store.cube_store()
    assert cube.build_stats["pool"] == pool
    stats = append_records(store, batch, cube=cube, compact_after=0)
    assert stats["updated"] > 0
    assert cube_to_json(cube) == rebuilt_reference()
    cube.close()

    assert main(["stats", str(store.directory)]) == 0
    report = json.loads(capsys.readouterr().out)["cube"]["build_stats"]
    assert report["pool"] == pool
    assert report["append"]["batches"] == 1


def test_append_bumps_the_build_version(tmp_path, database, split):
    base, batch = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    before = cube.build_version
    append_records(store, batch, cube=cube, compact_after=0)
    assert cube.build_version != before


def test_id_collision_rejected_before_touching_the_cube(
    tmp_path, database, split
):
    base, _ = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    snapshot = cube_to_json(cube)
    colliding = [PathRecord(0, base[0].dims, base[0].path)]
    one_dimension = [PathRecord(10_000, base[0].dims[:1], base[0].path)]
    for records, error, match in (
        (colliding, StoreError, "high-water mark"),
        (one_dimension, PathDatabaseError, "dimension values"),
    ):
        with pytest.raises(error, match=match):
            append_records(store, records, cube=cube)
        assert len(store) == BASE_ROWS
        assert cube_to_json(cube) == snapshot
        assert cube.delta_segments == []


def test_rejected_batch_writes_nothing_and_the_handle_retries(
    tmp_path, database, split, rebuilt_reference
):
    """A bad record in the batch's last chunk is refused before the first
    partition write: the handle still counts the old rows, no partition
    file is left behind, and the good rows then append on the same
    handle."""
    base, batch = split
    store = PartitionedPathStore.init(
        tmp_path / "wh", database.schema, partition_size=10
    )
    store.ingest(PathDatabase(database.schema, base, validate=False))
    cube = store.cube_store()
    build_cube(store, min_support=MIN_SUPPORT, into=cube, stats=BuildStats())
    partitions = store.directory / "partitions"
    files = sorted(path.name for path in partitions.iterdir())
    bad = PathRecord(batch[-1].record_id + 1, base[0].dims[:1], base[0].path)
    with pytest.raises(PathDatabaseError, match="dimension values"):
        append_records(store, [*batch, bad], cube=cube, compact_after=0)
    assert len(store) == BASE_ROWS
    assert sorted(path.name for path in partitions.iterdir()) == files

    stats = append_records(store, batch, cube=cube, compact_after=0)
    assert stats["ingested"] == len(batch) and stats["partitions"] == 3
    assert cube_to_json(cube) == rebuilt_reference()
    cube.close()


def test_brand_new_key_below_delta_is_counted_not_created(
    tmp_path, database, split
):
    """A leaf key no record has carried is a promotion candidate that
    stays below δ: counted, not materialised, and the cube equals a
    rebuild over the grown rows."""
    base, _ = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    new_key = ("d0_1_0", "d1_0_2")
    assert new_key not in {record.dims for record in database}
    record = PathRecord(base[-1].record_id + 1, new_key, base[0].path)
    stats = append_records(store, [record], cube=cube, compact_after=0)
    assert stats["still_below_delta"] > 0
    assert stats["created"] == 0 and stats["promoted"] == 0
    assert new_key not in {cell.key for cell in cube.cells()}
    reference = direct_cube(
        PathDatabase(database.schema, [*base, record]),
        min_support=MIN_SUPPORT,
    )
    assert cube_to_json(cube) == stored_cube_json(reference)


def test_stale_cube_refused(tmp_path, database, split):
    base, batch = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    store.ingest(
        PathDatabase(database.schema, batch[:5], validate=False)
    )  # out-of-band ingest the cube never saw
    with pytest.raises(StoreError, match="stale"):
        append_records(store, batch[5:], cube=cube)


def test_unbuilt_cube_refused(tmp_path, database, split):
    base, batch = split
    store = PartitionedPathStore.init(
        tmp_path / "wh", database.schema, partition_size=PARTITION_SIZE
    )
    store.ingest(PathDatabase(database.schema, base, validate=False))
    with pytest.raises(StoreError, match="no cube has been built"):
        append_records(store, batch)


def test_empty_batch_is_a_noop(tmp_path, database, split):
    base, _ = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    snapshot = cube_to_json(cube)
    stats = append_records(store, [], cube=cube)
    assert stats["ingested"] == 0 and stats["updated"] == 0
    assert stats["partitions"] == 0
    assert cube_to_json(cube) == snapshot


# ----------------------------------------------------------------------
# crash consistency
# ----------------------------------------------------------------------

def test_interrupted_append_leaves_old_cube_readable(
    tmp_path, database, split, rebuilt_reference, monkeypatch
):
    """Crash between the delta/index publish and the meta commit.

    The meta file is the commit point: a writer that dies instead of
    renaming ``cube.json`` must leave the old cube byte-identical on a
    cold open, make the next append refuse the stale cube, and let a
    rebuild sweep the orphans.
    """
    base, batch = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    before_json = cube_to_json(cube)
    real_publish = publish.publish_file

    class Killed(BaseException):
        pass

    def dying_at_the_commit(destination, source):
        if destination.name == "cube.json":
            raise Killed
        return real_publish(destination, source)

    with monkeypatch.context() as patch:
        patch.setattr(publish, "publish_file", dying_at_the_commit)
        with pytest.raises(Killed):
            append_records(store, batch, cube=cube, compact_after=0)
    cube.close()

    # Orphaned segment + index on disk, but the old state serves.
    assert list((store.directory / "cube").glob("cells.delta.*.bin"))
    cold = store.cube_store()
    assert cold.delta_segments == []
    assert cube_to_json(cold) == before_json

    # The store moved on without the cube: appends refuse to pile on.
    with pytest.raises(StoreError, match="stale"):
        append_records(
            store,
            [PathRecord(10_000, base[0].dims, base[0].path)],
            cube=cold,
        )

    # A rebuild recovers: orphans swept, parity restored.
    rebuilt = store.cube_store()
    build_cube(
        store, min_support=MIN_SUPPORT, into=rebuilt, stats=BuildStats()
    )
    assert not list((store.directory / "cube").glob("cells.delta.*"))
    assert cube_to_json(rebuilt) == rebuilt_reference()


def test_fresh_segment_ids_skip_crash_orphans(tmp_path, database, split):
    base, batch = split
    store, cube = _base_store(tmp_path / "wh", database, base)
    orphan = store.directory / "cube" / "cells.delta.000007.bin"
    orphan.write_bytes(b"FCHEAP02")  # a crashed append's leftover
    append_records(store, batch, cube=cube, compact_after=0)
    # The slot is the next one; the *name* is past the orphan's, which
    # the sweep after the commit removed.
    assert cube.delta_segments == [1]
    files = cube_files(store.directory)
    assert files["segments"][1].name == "cells.delta.000008.bin"
    assert files["index"].name == "cells.delta.000008.idx"
    assert not orphan.exists()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_append_always_remines_an_exception_cube(tmp_path, capsys):
    """``append`` has no ``--no-exceptions``: the flag stored every cell
    it touched in an exception-built cube with an empty exception list.
    The cube already knows whether to re-mine, and a CLI append equals
    the rebuild."""
    database = generate_path_database(
        GeneratorConfig(n_paths=400, n_dims=2, dim_fanouts=(2, 3), seed=3)
    )
    rows = sorted(database, key=lambda record: record.record_id)
    directory = tmp_path / "wh"
    store = PartitionedPathStore.init(
        directory, database.schema, partition_size=100
    )
    store.ingest(PathDatabase(database.schema, rows[:300], validate=False))
    build_cube(store, min_support=0.05, stats=BuildStats()).close()
    store.close()
    csv_path = tmp_path / "batch.csv"
    csv_path.write_text(
        PathDatabase(database.schema, rows[300:], validate=False).to_csv(),
        encoding="utf-8",
    )
    append = ["append", str(directory), "--csv", str(csv_path)]
    with pytest.raises(SystemExit) as exit_info:
        main([*append, "--no-exceptions"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --no-exceptions" in capsys.readouterr().err
    assert main(append) == 0
    rebuilt = FlowCube.build(
        PathDatabase(database.schema, rows, validate=False), min_support=0.05
    )
    store = PartitionedPathStore.open(directory)
    with store.cube_store() as cube:
        assert cube.delta_segments == [1]
        assert stored_cube_json(cube) == stored_cube_json(rebuilt)
    store.close()


def test_cli_append_and_compact_round_trip(tmp_path, capsys):
    directory = str(tmp_path / "wh")
    assert main([
        "init", directory, "--synthetic", "--n-dims", "2",
        "--fanouts", "2,3", "--partition-size", "60",
    ]) == 0
    assert main([
        "ingest", directory, "--synthetic", "--n-paths", "120", "--seed", "3",
    ]) == 0
    assert main(["build", directory, "--min-support", "0.1"]) == 0
    assert main([
        "append", directory, "--synthetic", "--n-paths", "12", "--seed", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "cell(s) updated" in out
    assert "1 delta segment(s) pending" in out
    assert main(["compact", directory]) == 0
    assert "folded 1 delta segment(s)" in capsys.readouterr().out
    assert main(["compact", directory]) == 0
    assert "nothing to compact" in capsys.readouterr().out
