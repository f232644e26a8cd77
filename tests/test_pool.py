"""The persistent worker pool: parity hammer and worker failures.

The pool's contract mirrors the kernel contract one layer up: forked
workers and batched per-partition tasks are *implementation details* —
every ``jobs`` count must produce a cube byte-identical to the
in-memory reference build, with identical per-cell exception lists, and
a worker that raises takes neither the pool nor its other slots down.
"""

from __future__ import annotations

import gc
import math
import multiprocessing

import pytest

from repro.core.flowcube import FlowCube
from repro.core.lattice import PathLattice
from repro.core.serialization import cube_to_json
from repro.perf import collector
from repro.perf.pool import PoolStats, WorkerPool, worker_context
from repro.store import BuildStats, PartitionedPathStore, build_cube
from repro.synth import GeneratorConfig, generate_path_database, scaled_config

CONFIG = GeneratorConfig(
    n_paths=80,
    n_dims=2,
    dim_fanouts=(2, 3),
    n_location_groups=3,
    locations_per_group=2,
    n_sequences=6,
    max_path_length=4,
    max_duration=3,
    seed=5,
)
MIN_SUPPORT = 0.1


@pytest.fixture(scope="module")
def database():
    return generate_path_database(CONFIG)


@pytest.fixture(scope="module")
def store(tmp_path_factory, database):
    s = PartitionedPathStore.init(
        tmp_path_factory.mktemp("pool") / "wh",
        database.schema,
        partition_size=math.ceil(len(database) / 4),
    )
    s.ingest(database)
    return s


def _exception_lists(cube):
    return [
        (cell.key, cell.flowgraph.exceptions) for cell in cube.cells()
    ]


@pytest.fixture(scope="module")
def reference(database):
    """The in-memory reference build (direct engine, scan kernel) every
    store build must match."""
    cube = FlowCube.build(
        database, min_support=MIN_SUPPORT, engine="direct", kernel="scan"
    )
    return cube_to_json(cube), _exception_lists(cube)


# ----------------------------------------------------------------------
# the parity hammer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_pooled_builds_are_byte_identical(store, reference, jobs):
    stats = BuildStats()
    cube = build_cube(store, min_support=MIN_SUPPORT, stats=stats, jobs=jobs)
    assert cube_to_json(cube) == reference[0]
    assert _exception_lists(cube) == reference[1]
    assert stats.max_live_transaction_dbs <= 1
    if jobs > 1:
        assert stats.pool["jobs"] == jobs
        assert stats.pool["task_batches"] > 0
    # The build-owned pool is joined before build_cube returns.
    assert multiprocessing.active_children() == []


def test_external_pool_reused_across_builds(store, reference):
    """One caller-owned pool serves consecutive builds."""
    pool = WorkerPool(2).start()
    try:
        spawned = pool.stats.spawn_count
        for _ in range(2):
            cube = build_cube(store, min_support=MIN_SUPPORT, pool=pool)
            assert cube_to_json(cube) == reference[0]
        assert pool.stats.spawn_count == spawned  # no respawn per build
    finally:
        pool.close()


def test_reused_pool_rebinds_the_path_lattice(store):
    """Nothing path-lattice-bound survives in a worker between builds.

    The two lattices hold the same levels in opposite order, so a worker
    that kept the first build's aggregation memo would hand the second
    build the wrong level's paths without raising.
    """
    default = PathLattice.paper_default(store.schema.location)
    lattices = [default, PathLattice(reversed(list(default)))]
    assert len(default) > 1
    pool = WorkerPool(2).start()
    try:
        reused = [
            cube_to_json(
                build_cube(
                    store, path_lattice=lattice, min_support=MIN_SUPPORT,
                    pool=pool,
                )
            )
            for lattice in lattices
        ]
    finally:
        pool.close()
    fresh = [
        cube_to_json(
            build_cube(
                store, path_lattice=lattice, min_support=MIN_SUPPORT, jobs=2
            )
        )
        for lattice in lattices
    ]
    assert reused == fresh
    assert reused[0] != reused[1]


def _cached_fingerprints() -> set:
    """This worker's cached exception indexes, as path-multiset fingerprints."""
    postings = worker_context()["exception_indexes"].get("postings")
    if postings is None:
        return set()
    return {
        frozenset(
            (postings.paths[pid], weight)
            for pid, weight in index.weights.items()
        )
        for index in postings.indexes.values()
    }


def test_reused_pool_drops_the_exception_index_cache(store, reference):
    """A worker's index cache lives for one build: a long-lived pool holds
    the second build's fingerprints only, not every build's so far."""
    pool = WorkerPool(2).start()
    try:
        held = []
        for min_support in (MIN_SUPPORT, 0.4):
            cube = build_cube(store, min_support=min_support, pool=pool)
            if min_support == MIN_SUPPORT:
                assert cube_to_json(cube) == reference[0]
            mined = {frozenset(cell.paths) for cell in cube.cells()}
            cached = set().union(*pool.broadcast(_cached_fingerprints))
            assert cached == mined
            held.append(cached)
        # The first build mined cells the second never saw.
        assert held[0] - held[1]
    finally:
        pool.close()


def test_use_shared_build_matches_premined_segments(store):
    """``use_shared`` mines in-process even when the cube runs on a pool."""
    serial = build_cube(store, min_support=MIN_SUPPORT, use_shared=True)
    stats = BuildStats()
    pooled = build_cube(
        store, min_support=MIN_SUPPORT, use_shared=True, jobs=2, stats=stats
    )
    assert cube_to_json(pooled) == cube_to_json(serial)
    assert _exception_lists(pooled) == _exception_lists(serial)
    assert stats.max_live_transaction_dbs == 1


# ----------------------------------------------------------------------
# worker failures
# ----------------------------------------------------------------------

def _boom(partition_id: int) -> None:
    raise RuntimeError(f"worker exploded on partition {partition_id}")


def test_pool_survives_a_raising_worker():
    pool = WorkerPool(2).start()
    try:
        with pytest.raises(RuntimeError, match="worker exploded"):
            pool.submit(0, _boom, 0).result()
        # Both slots still answer, the raising one included.
        assert pool.broadcast(_echo, 7) == [7, 7]
    finally:
        pool.close()


def _echo(partition_id: int) -> int:
    return partition_id


def _collector_enabled() -> bool:
    return gc.isenabled()


def test_workers_run_collector_on_wherever_the_pool_started():
    """A pool forked inside a collector pause (what a build-owned
    ``jobs > 1`` pool is) must not inherit the pause for life: every slot
    runs on the interpreter's default, like a caller's long-lived pool."""
    assert gc.isenabled()
    with collector.paused():
        pool = WorkerPool(2).start()
    try:
        assert pool.broadcast(_collector_enabled) == [True, True]
    finally:
        pool.close()
    assert gc.isenabled()


def test_pool_stats_snapshot():
    stats = PoolStats(jobs=2)
    stats.spawn_count = 2
    stats.spawn_seconds = 0.12345
    snapshot = stats.as_dict()
    assert snapshot["jobs"] == 2
    assert snapshot["spawn_seconds"] == round(0.12345, 4)
    assert set(snapshot) == {
        "jobs",
        "spawn_count",
        "spawn_seconds",
        "task_batches",
        "worker_busy_seconds",
    }


def test_scaled_config_is_deterministic():
    a = generate_path_database(scaled_config(200))
    b = generate_path_database(scaled_config(200))
    assert len(a) == 200
    assert [r.path for r in a] == [r.path for r in b]
