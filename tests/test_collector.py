"""The collector budget: what the write side pauses, and why it may.

``build_cube``, ``shared_mine_store`` and ``append_records`` run with the
cyclic collector paused (:func:`repro.perf.collector.paused`).  Two
contracts make that a saving and not a leak:

* the collector's state is the **caller's** on every exit — return or
  raise, enabled or disabled on entry, nested or not;
* the write side makes **no cyclic garbage that scales with its input**:
  with the collector held off around a build and two appends, a
  ``gc.collect()`` afterwards finds a few dozen objects (the stdlib JSON
  encoder's closures), the same few dozen at four times the paths.
"""

from __future__ import annotations

import gc
import inspect
import sys
from contextlib import contextmanager

import pytest

from repro.core.flowcube import FlowCube
from repro.core.path_database import PathDatabase
from repro.errors import CubeError, StoreError
from repro.perf import collector
from repro.store import (
    PartitionedPathStore,
    append_records,
    build_cube,
    shared_mine_store,
)
from repro.synth import generate_path_database, scaled_config

MIN_SUPPORT = 0.05
BATCH = 40
#: Unreachable objects one entry point may leave behind, at any size.
GARBAGE_BUDGET = 200


@pytest.fixture(scope="module")
def database():
    return generate_path_database(scaled_config(300 + 2 * BATCH, seed=7))


def _store(directory, database, n_rows):
    store = PartitionedPathStore.init(
        directory, database.schema, partition_size=-(-n_rows // 4)
    )
    store.ingest(PathDatabase(database.schema, list(database)[:n_rows]))
    return store


def _build(store, database):
    build_cube(
        store, min_support=MIN_SUPPORT, compute_exceptions=False,
        into=store.cube_store(),
    ).close()


@pytest.fixture
def built(tmp_path, database):
    """A store over the first 300 paths with its cube built."""
    store = _store(tmp_path / "wh", database, 300)
    _build(store, database)
    return store


@contextmanager
def collector_state(enabled: bool):
    """Enter with the collector in *enabled* state; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


# ----------------------------------------------------------------------
# the pause itself
# ----------------------------------------------------------------------

@pytest.mark.parametrize("enabled", [True, False])
def test_paused_restores_the_state_it_found(enabled):
    with collector_state(enabled):
        with collector.paused():
            assert not gc.isenabled()
            with collector.paused():  # nests: the outer pause stays in charge
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(ZeroDivisionError):
            with collector.paused():
                1 / 0
        assert gc.isenabled() is enabled


# ----------------------------------------------------------------------
# the collector state is the caller's on every exit
# ----------------------------------------------------------------------

def _batch(database, index):
    rows = list(database)
    start = 300 + index * BATCH
    return rows[start:start + BATCH]


def _mine(store, database):
    shared_mine_store(store, min_support=MIN_SUPPORT)


def _append(store, database):
    append_records(store, _batch(database, 0))


def _build_outside_the_lattice(store, database):
    listed = sorted((store.directory / "cube").iterdir())
    with pytest.raises(CubeError, match="outside the lattice"):
        build_cube(store, item_levels=[(99, 99, 99)], min_support=MIN_SUPPORT)
    # Refused before anything is staged or the writer lock is taken.
    assert sorted((store.directory / "cube").iterdir()) == listed
    _build(store, database)


def _mine_with_bad_jobs(store, database):
    with pytest.raises(StoreError, match="jobs must be"):
        shared_mine_store(store, min_support=MIN_SUPPORT, jobs=-1)


def _append_to_a_stale_cube(store, database):
    store.ingest(_batch(database, 0))  # the store runs ahead of its cube
    with pytest.raises(StoreError, match="stale"):
        append_records(store, _batch(database, 1))


def _append_colliding_ids(store, database):
    cube = store.cube_store()
    try:
        before = cube.version
        with pytest.raises(StoreError):  # from store.ingest, cube untouched
            append_records(store, list(database)[:BATCH], cube=cube)
        assert cube.version == before
    finally:
        cube.close()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "call",
    [
        _build,
        _mine,
        _append,
        _build_outside_the_lattice,
        _mine_with_bad_jobs,
        _append_to_a_stale_cube,
        _append_colliding_ids,
    ],
)
def test_collector_state_is_the_callers_on_every_exit(
    built, database, call, enabled
):
    with collector_state(enabled):
        call(built, database)
        assert gc.isenabled() is enabled


def test_nested_entry_points_stay_paused_until_the_outermost_returns(
    tmp_path, database
):
    """A caller that pauses around ``shared_mine_store`` and
    ``build_cube`` (Algorithm 1, then the cube) keeps the collector off
    until its own pause ends: if an inner pause re-enabled it on its way
    out, the rest of the caller's batch would run collected.  No
    collector run may start while ``build_cube``'s body is on the stack
    (the un-paused build makes hundreds); the debt the pause ran up is
    collected after the outermost pause has returned, which is the
    caller's collector doing the caller's work."""
    store = _store(tmp_path / "wh", database, 300)
    body = inspect.unwrap(build_cube).__code__
    runs = []

    def probe(phase, info):
        frame = sys._getframe()
        while phase == "start" and frame is not None:
            if frame.f_code is body:
                runs.append(info["generation"])
                break
            frame = frame.f_back

    with collector_state(True):
        gc.collect()
        gc.callbacks.append(probe)
        try:
            with collector.paused():
                shared_mine_store(store, min_support=MIN_SUPPORT)
                assert not gc.isenabled()
                cube = build_cube(
                    store, min_support=MIN_SUPPORT, compute_exceptions=True,
                    into=store.cube_store(),
                )
                assert not gc.isenabled()
        finally:
            gc.callbacks.remove(probe)
        cube.close()
        assert gc.isenabled()
    assert runs == []


# ----------------------------------------------------------------------
# the contract the pause rests on: no input-scaled cyclic garbage
# ----------------------------------------------------------------------

def _unreachable_after_store_lifecycle(directory, n_paths, exceptions):
    """``gc.collect()`` counts after a build and after each of two appends,
    the collector held off throughout and every result dropped."""
    database = generate_path_database(scaled_config(n_paths + 2 * BATCH, seed=7))
    rows = list(database)
    store = _store(directory, database, n_paths)
    found = []
    with collector_state(False):
        gc.collect()
        build_cube(
            store, min_support=MIN_SUPPORT, compute_exceptions=exceptions,
            into=store.cube_store(),
        ).close()
        found.append(gc.collect())
        for start in (n_paths, n_paths + BATCH):
            append_records(store, rows[start:start + BATCH])
            found.append(gc.collect())
    return found


@pytest.mark.parametrize("exceptions", [False, True])
def test_write_side_leaves_no_input_scaled_cyclic_garbage(tmp_path, exceptions):
    small = _unreachable_after_store_lifecycle(tmp_path / "s", 300, exceptions)
    large = _unreachable_after_store_lifecycle(tmp_path / "l", 1200, exceptions)
    assert max(small + large) <= GARBAGE_BUDGET, (small, large)
    assert all(b <= a for a, b in zip(small, large)), (small, large)


def _unreachable_after_rollup(n_paths):
    database = generate_path_database(scaled_config(n_paths, seed=7))
    with collector_state(False):
        gc.collect()
        cube = FlowCube.build(
            database, min_support=MIN_SUPPORT,
            compute_exceptions=True,
        )
        del cube
        return gc.collect()


def test_rollup_engine_frees_its_path_table_by_reference_count():
    """The in-memory roll-up is not paused: dropping the cube must free
    its path table and cells without a collector pass."""
    small = _unreachable_after_rollup(300)
    large = _unreachable_after_rollup(1200)
    assert small <= GARBAGE_BUDGET and large <= small, (small, large)
