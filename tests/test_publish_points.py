"""Every publish point of the store's write path, killed once each.

The store makes a file visible in exactly one way,
:func:`repro.publish.publish_file`, so the write path's crash windows can
be *enumerated* instead of hand-picked: for each operation this file
counts the publishes, then re-runs the operation on a fresh copy of the
starting store once per publish, raising a ``BaseException`` right after
it, and asks what a fresh reader sees — the old cube, the new cube, or
anything else (always a failure).  The outcomes are pinned in
``EXPECTED`` below, next to the order the files are published in.

Every row reads *old … old, new*: ``cube.json`` is the only name a
writer replaces, every other cube file goes out under a name of its own
generation, and what the committed meta does not list is swept after
the commit.  The same enumeration then goes *inside* the sweep (one kill
per unlink), over two-operation sequences (a second operation runs to
completion over whatever the killed one left), and past a reader that
holds a superseded meta while all of that happens.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

from repro import publish
from repro.core.lattice import ItemLevel
from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase
from repro.core.serialization import cube_to_json, flowgraph_to_dict
from repro.errors import CubeError, StoreError
from repro.store import (
    BuildStats,
    PartitionedPathStore,
    append_records,
    build_cube,
)
from repro.store.cube_store import CubeStore
from repro.synth import generate_path_database
from tests.conftest import cube_files
from tests.test_append import BASE_ROWS, CONFIG, MIN_SUPPORT, PARTITION_SIZE

FIRST_BATCH = 135  # appends: rows[BASE_ROWS:135], then rows[135:]


class Killed(BaseException):
    """The writer dies here (not an ``Exception``: nothing may catch it)."""


@pytest.fixture(scope="module")
def rows():
    return list(generate_path_database(CONFIG))


def _build(directory, **options):
    with PartitionedPathStore.open(directory) as store:
        cube = store.cube_store()
        try:
            options.setdefault("min_support", MIN_SUPPORT)
            build_cube(
                store,
                into=cube,
                stats=BuildStats(),
                compute_exceptions=False,
                **options,
            )
        finally:
            cube.close()


def _append(directory, batch):
    with PartitionedPathStore.open(directory) as store:
        cube = store.cube_store()
        try:
            return append_records(store, batch, cube=cube, compact_after=0)
        finally:
            cube.close()


def _compact(directory):
    with PartitionedPathStore.open(directory) as store:
        cube = store.cube_store()
        try:
            assert cube.compact() > 0
        finally:
            cube.close()


@pytest.fixture(scope="module")
def starts(tmp_path_factory, rows):
    """The store each operation starts from, built once:
    ``{name: directory}``."""
    root = tmp_path_factory.mktemp("starts")
    schema = generate_path_database(CONFIG).schema

    def fresh(name):
        store = PartitionedPathStore.init(
            root / name, schema, partition_size=PARTITION_SIZE
        )
        store.ingest(PathDatabase(schema, rows[:BASE_ROWS], validate=False))
        store.close()
        return root / name

    def grown(name, source, step):
        shutil.copytree(source, root / name)
        step(root / name)
        return root / name

    ingested = fresh("ingested")
    built = grown("built", ingested, _build)
    appended = grown(
        "appended", built, lambda d: _append(d, rows[BASE_ROWS:FIRST_BATCH])
    )
    twice = grown(
        "twice", appended, lambda d: _append(d, rows[FIRST_BATCH:])
    )
    # Only the finest item level, δ a fraction: a batch of records that
    # land in no materialised cell grows the database, so the resolved
    # threshold rises and cells are demoted while none is rewritten.
    finest = grown(
        "finest", ingested, lambda d: _build(d, item_levels=[ItemLevel((2, 2))])
    )
    return {
        "ingested": ingested,
        "built": built,
        "appended": appended,
        "twice": twice,
        "finest": finest,
    }


def demotion_batch(directory, rows):
    """A few records past the base rows whose finest-level key is not
    materialised (so the append dirties nothing) — few enough that none
    of those keys is promoted."""
    with PartitionedPathStore.open(directory) as store:
        cube = store.cube_store()
        try:
            keys = set(cube.cuboids[0].keys)
        finally:
            cube.close()
    return [
        record for record in rows[BASE_ROWS:] if tuple(record.dims) not in keys
    ][:3]


def rearrivals(rows):
    """A batch for a store that has ingested every row: the first few
    again, under ids past the last."""
    top = rows[-1].record_id
    return [
        PathRecord(top + 1 + n, record.dims, record.path)
        for n, record in enumerate(rows[:10])
    ]


def observe(directory):
    """What a fresh reader makes of the store: ``(cells, meta)``,
    ``"unbuilt"``, or the :class:`StoreError` type.

    *cells* is what the index and the heap files serve (the cuboids of
    ``cube_to_json``); *meta* is what ``cube.json`` says about them —
    δ, ε, the path lattice and the run-independent build counters.
    """
    try:
        with PartitionedPathStore.open(directory) as store:
            cube = store.cube_store()
            try:
                if not cube.is_built:
                    return "unbuilt"
                payload = json.loads(cube_to_json(cube))
                cells = payload.pop("cuboids")
                stats = cube.build_stats
                counters = stats.get("append", {})
                payload.update(
                    records=stats["records"],
                    cells=stats["cells"],
                    batches=counters.get("batches", 0),
                    compactions=counters.get("compactions", 0),
                )
                return cells, payload
            finally:
                cube.close()
    except StoreError:
        return StoreError


def classify(seen, old, new):
    if seen == old:
        return "old"
    if seen == new:
        return "new"
    raise AssertionError(f"a reader sees neither the old nor the new cube: {seen}")


def run(monkeypatch, operation, directory, kill_after=None):
    """Run *operation* on *directory*; ``(published, unlinked)``: the
    names it published and the ``cube/`` names it unlinked, in order.

    *kill_after* is the last thing the writer does: k — its k-th
    publish; ``("unlink", k)`` — its k-th unlink under ``cube/``;
    ``"create"`` — the return of ``CubeStore.create()``, which must
    have touched nothing the committed meta lists.
    """
    published: list[str] = []
    unlinked: list[str] = []
    real_publish = publish.publish_file
    real_unlink = FsPath.unlink
    real_create = CubeStore.create

    def publishing(destination, source):
        stat = real_publish(destination, source)
        published.append(destination.name)
        if len(published) == kill_after:
            raise Killed
        return stat

    def unlinking(self, missing_ok=False):
        real_unlink(self, missing_ok=missing_ok)
        if self.parent.name == "cube":
            unlinked.append(self.name)
            if ("unlink", len(unlinked)) == kill_after:
                raise Killed

    def creating(self, *args, **kwargs):
        real_create(self, *args, **kwargs)
        if kill_after == "create":
            raise Killed
        return self

    with monkeypatch.context() as patch:
        patch.setattr(publish, "publish_file", publishing)
        patch.setattr(FsPath, "unlink", unlinking)
        patch.setattr(CubeStore, "create", creating)
        try:
            operation(directory)
        except Killed:
            pass
        else:
            assert kill_after is None, f"kill point {kill_after} not reached"
    return published, unlinked


def listed_names(directory) -> dict[str, str]:
    """``{file name: what it is}`` for what the committed meta lists."""
    files = cube_files(directory)
    kinds = {path.name: "segment" for path in files["segments"].values()}
    kinds[files["paths"].name] = "paths"
    kinds[files["index"].name] = "index"
    kinds["cube.json"] = "cube.json"
    return kinds


def assert_directory_is_the_listing(directory):
    """``cube/`` holds the listed files, the ``cells.bin`` alias of a
    stamped whole heap, the servers' ``query_stats.json*`` — and nothing
    else: no orphan, no superseded generation, no dead writer's temp."""
    files = cube_files(directory)
    listed = set(listed_names(directory))
    present = {
        path.name
        for path in (directory / "cube").iterdir()
        if not path.name.startswith("query_stats.json")
    }
    assert listed <= present
    assert present - listed <= {"cells.bin"}
    if present - listed:
        alias = directory / "cube" / "cells.bin"
        assert alias.is_symlink()
        assert os.readlink(alias) == files["segments"][0].name
        assert len(files["segments"]) == 1


#: One publish order for every flush: the path table if it grew, the
#: segment if one was staged, the index, the meta file.  Operations
#: differ in which of the first two they have — and in what the segment
#: holds: every record (slot 0), or the dirty ones (a delta).
FLUSH = ["paths", "segment", "index", "cube.json"]
INGEST = ["part-00003.bin", "catalog.json"]


def row(start, published):
    """Old at every point but the last, which is the commit."""
    return start, published, ["old"] * (len(published) - 1) + ["new"]


#: operation -> (start, files published in order — cube files by what
#: the committed meta lists them as —, what a fresh reader sees after a
#: kill at each point).
EXPECTED = {
    "first build": row("ingested", FLUSH),
    # ``create()`` discards nothing: the previous build stands until
    # the new meta replaces the old.
    "rebuild": row("built", FLUSH),
    "first append": row("built", INGEST + FLUSH),
    # The same append over the same store, minus the records whose path
    # the cube had not seen: nothing to add to the table, no publish.
    "append of known paths": row("built", INGEST + FLUSH[1:]),
    # A later append is a first append: its index is a new file too.
    "second append": row(
        "appended", ["part-00004.bin", "catalog.json"] + FLUSH
    ),
    # No record written, no segment published.
    "demotion-only append": row("finest", INGEST + FLUSH[2:]),
    # ... and copies records byte for byte: no path table is published.
    "compact": row("twice", FLUSH[1:]),
}


def known_paths_batch(directory, rows):
    """The first batch's records whose aggregated path, at every path
    level, the built cube's table already holds."""
    from repro.core.aggregation import aggregate_path

    with PartitionedPathStore.open(directory) as store:
        cube = store.cube_store()
        try:
            lattice = list(cube.path_lattice)
            known = [set(paths) for paths in cube.path_table.paths]
        finally:
            cube.close()
    batch = [
        record
        for record in rows[BASE_ROWS:FIRST_BATCH]
        if all(
            aggregate_path(record.path, level) in paths
            for level, paths in zip(lattice, known)
        )
    ]
    assert 0 < len(batch) < FIRST_BATCH - BASE_ROWS
    return batch


def operations(rows, starts):
    return {
        "first build": _build,
        "rebuild": lambda d: _build(d, min_support=0.1),
        "first append": lambda d: _append(d, rows[BASE_ROWS:FIRST_BATCH]),
        "append of known paths": lambda d: _append(
            d, known_paths_batch(starts["built"], rows)
        ),
        "second append": lambda d: _append(d, rows[FIRST_BATCH:]),
        "demotion-only append": lambda d: _append(
            d, demotion_batch(starts["finest"], rows)
        ),
        "compact": _compact,
        "append of re-arrivals": lambda d: _append(d, rearrivals(rows)),
    }


@pytest.mark.parametrize("name", list(EXPECTED))
def test_every_publish_point_is_classified(
    name, tmp_path, monkeypatch, rows, starts
):
    start, expected_files, expected_outcomes = EXPECTED[name]
    operation = operations(rows, starts)[name]

    def fresh_copy(tag):
        return shutil.copytree(starts[start], tmp_path / str(tag))

    old = observe(starts[start])
    before = (
        set(listed_names(starts[start])) if start != "ingested" else set()
    )
    done = fresh_copy("done")
    published, unlinked = run(monkeypatch, operation, done)
    new = observe(done)
    assert new is not StoreError and new != old
    kinds = listed_names(done)
    assert [kinds.get(name, name) for name in published] == expected_files
    # Published once, under a name never used: nothing the previous
    # meta listed is replaced — only ``cube.json`` — and what is swept
    # is what the new one does not list.
    assert not (set(published) - {"cube.json"}) & before
    assert set(unlinked) == before - set(kinds)
    assert_directory_is_the_listing(done)

    points = list(range(1, len(published) + 1))
    if name == "rebuild":
        points.insert(0, "create")
        expected_outcomes = ["old"] + expected_outcomes
    points += [("unlink", k) for k in range(1, len(unlinked) + 1)]
    expected_outcomes = expected_outcomes + ["new"] * len(unlinked)
    outcomes = []
    for point in points:
        directory = fresh_copy(point)
        run(monkeypatch, operation, directory, kill_after=point)
        outcomes.append(classify(observe(directory), old, new))
    assert outcomes == expected_outcomes


#: (killed operation, its start, the operation that then runs to
#: completion).  The second one must not care what the first left.
SEQUENCES = [
    ("second append", "appended", "compact"),
    ("compact", "twice", "append of re-arrivals"),
    ("rebuild", "built", "first append"),
]


@pytest.mark.parametrize("first,start,second", SEQUENCES)
def test_an_operation_after_a_killed_one_succeeds_and_sweeps(
    first, start, second, tmp_path, monkeypatch, rows, starts
):
    """Kill *first* at every point, then run *second*: the result is
    *second* over the old cube (or over the new one, when the kill came
    after the commit), no file the killed writer published without
    committing is ever listed, and ``cube/`` ends as the listing."""
    ops = operations(rows, starts)

    def fresh_copy(tag):
        return shutil.copytree(starts[start], tmp_path / str(tag))

    over_old = fresh_copy("over-old")
    ops[second](over_old)
    over_new = fresh_copy("over-new")
    published, unlinked = run(monkeypatch, ops[first], over_new)
    ops[second](over_new)
    expected = {"old": observe(over_old), "new": observe(over_new)}
    assert StoreError not in expected.values()

    before_the_commit = range(1, len(published))
    points = list(range(1, len(published) + 1))
    points += [("unlink", k) for k in range(1, len(unlinked) + 1)]
    orphaned = set()
    for point in points:
        directory = fresh_copy(point)
        killed, _ = run(monkeypatch, ops[first], directory, kill_after=point)
        committed = set(listed_names(directory))
        orphans = {
            name for name in killed
            if (directory / "cube" / name).exists() and name not in committed
        }
        assert bool(orphans) <= (point in before_the_commit)
        orphaned |= orphans
        ops[second](directory)
        side = "old" if point in before_the_commit else "new"
        assert observe(directory) == expected[side], point
        assert not orphans & set(listed_names(directory))
        assert_directory_is_the_listing(directory)
    assert orphaned


def test_the_directory_is_the_listing_after_every_operation(
    tmp_path, rows, starts
):
    directory = shutil.copytree(starts["ingested"], tmp_path / "wh")
    cube_dir = directory / "cube"

    def step(operation, generation, segments):
        operation(directory)
        assert_directory_is_the_listing(directory)
        meta = json.loads((cube_dir / "cube.json").read_text(encoding="utf-8"))
        assert meta["generation"] == generation
        assert sorted(meta["files"]["segments"]) == segments

    # Generation 0 is spelled the way a cube always was.
    step(_build, 0, ["0"])
    assert sorted(p.name for p in cube_dir.iterdir()) == [
        "cells.bin", "cells.idx", "cube.json", "paths.bin",
    ]
    step(lambda d: _append(d, rows[BASE_ROWS:FIRST_BATCH]), 1, ["0", "1"])
    assert len(list(cube_dir.glob("cells.delta.*"))) == 2  # segment + index
    step(lambda d: _append(d, rows[FIRST_BATCH:]), 2, ["0", "1", "2"])
    step(_compact, 3, ["0"])
    assert (cube_dir / "cells.bin").is_symlink()  # the alias, see sweep()
    assert not list(cube_dir.glob("cells.delta.*"))
    # The slot restarts at 1 after a compaction; the generation goes on.
    step(lambda d: _append(d, rearrivals(rows)), 4, ["0", "1"])
    assert not (cube_dir / "cells.bin").exists()
    step(_compact, 5, ["0"])
    step(lambda d: _build(d, min_support=0.1), 6, ["0"])
    assert observe(directory) is not StoreError


def test_every_commit_sweeps_a_dead_writers_files(tmp_path, rows, starts):
    """A killed writer's temps carry a pid nobody will use again, and its
    published-but-uncommitted files a generation nobody will draw again:
    the next commit — of any operation — removes both."""
    directory = shutil.copytree(starts["built"], tmp_path / "wh")
    cube_dir = directory / "cube"

    def fabricate_orphans():
        for name in (
            "cells.bin", "cells.idx", "cube.json", "paths.bin",
            "cells.delta.000009.bin", "cells.000009.idx",
        ):
            (cube_dir / f"{name}.99999.tmp").write_bytes(b"half a file")
        (cube_dir / "cells.delta.000009.bin").write_bytes(b"FCHEAP05")
        (cube_dir / "paths.000009.bin").write_bytes(b"FCPATH01")
        # Serving processes publish query_stats.json concurrently with a
        # writer: neither the file nor its temps are the writer's to sweep.
        (cube_dir / "query_stats.json").write_bytes(b"{}")
        (cube_dir / "query_stats.json.99999.tmp").write_bytes(b"{}")

    for operation in (
        _build,
        lambda d: _append(d, rows[BASE_ROWS:FIRST_BATCH]),
        _compact,
    ):
        fabricate_orphans()
        operation(directory)
        assert_directory_is_the_listing(directory)
        # Past the orphans' generation, not into it.
        assert cube_files(directory)["index"].name > "cells.000009.idx"
        assert (cube_dir / "query_stats.json").exists()
        assert (cube_dir / "query_stats.json.99999.tmp").exists()


# ----------------------------------------------------------------------
# a reader that holds a superseded meta
# ----------------------------------------------------------------------

def serialised(cell) -> str:
    return json.dumps(
        [list(cell.record_ids), cell.redundant, flowgraph_to_dict(cell.flowgraph)],
        sort_keys=True,
    )


def cell_bytes(cube) -> dict:
    """``{(item levels, path-level id, key): the cell, serialised}``."""
    lattice = cube.path_lattice
    return {
        (
            cuboid.item_level.levels,
            lattice.index_of(cuboid.path_level),
            key,
        ): serialised(cell)
        for cuboid in cube.cuboids
        for key, cell in zip(cuboid.keys, cuboid)
    }


@pytest.mark.parametrize(
    "name", ["first append", "second append", "compact", "rebuild"]
)
def test_a_stale_handle_reloads_instead_of_failing(
    name, tmp_path, rows, starts
):
    """A handle opened before the operation and never reloaded by hand
    has mapped the old index and nothing else; the writer then commits
    and sweeps.  Every cell it is asked for is the old cube's or the new
    cube's, byte for byte — never an error, never the wrong heap."""
    start = EXPECTED[name][0]
    directory = shutil.copytree(starts[start], tmp_path / "wh")
    with PartitionedPathStore.open(directory) as store:
        with store.cube_store() as reference:
            old = cell_bytes(reference)
        stale = store.cube_store()
        assert stale.io_counters()["heap_bytes_read"] == 0
        operations(rows, starts)[name](directory)
        with store.cube_store() as reference:
            new = cell_bytes(reference)
        assert old != new or name == "compact"
        version = stale.version
        for coords in sorted(set(old) | set(new), key=repr):
            levels, level_id, key = coords
            try:
                cell = stale.cell(
                    ItemLevel(levels), key, stale.path_lattice[level_id]
                )
                seen = serialised(cell)
            except CubeError:
                # Not a cell of the cube the handle is at: of the other.
                assert coords not in (old if stale.version == version else new)
                continue
            assert seen in (old.get(coords), new.get(coords))
        # An append sweeps nothing a reader of the old cube maps late but
        # the path table, whose successor stands in: the handle serves
        # the old cube until told.  A compaction and a rebuild sweep the
        # heap, and the handle reloaded when it reached for it.
        assert (stale.version > version) == (name in ("compact", "rebuild"))
        stale.maybe_reload()
        assert cell_bytes(stale) == new
        stale.close()


# ----------------------------------------------------------------------
# one writer
# ----------------------------------------------------------------------

def test_a_second_writer_is_refused_before_it_stages_anything(
    tmp_path, rows, starts
):
    directory = shutil.copytree(starts["appended"], tmp_path / "wh")
    lockfile = directory / publish.LOCK_FILENAME
    batch = rows[FIRST_BATCH:]

    def cube_listing():
        return sorted(path.name for path in (directory / "cube").iterdir())

    before = cube_listing()
    with PartitionedPathStore.open(directory) as store:
        first, second = store.cube_store(), store.cube_store()
        first.begin_delta()  # the first staged byte
        staged = cube_listing()
        assert len(staged) == len(before) + 1
        # Another handle in this process ...
        for write in (
            second.begin_delta,
            second.compact,
            second.flush,
            lambda: second.create(second.path_lattice, 2, 0.1),
            lambda: store.ingest(batch),
        ):
            with pytest.raises(StoreError, match=str(lockfile)):
                write()
            assert cube_listing() == staged
        assert len(store) == FIRST_BATCH
        # ... and another process.
        script = (
            "import sys\n"
            "from repro.errors import StoreError\n"
            "from repro.store import PartitionedPathStore\n"
            "cube = PartitionedPathStore.open(sys.argv[1]).cube_store()\n"
            "try:\n"
            "    cube.begin_delta()\n"
            "except StoreError as error:\n"
            "    print(error)\n"
        )
        env = dict(
            os.environ, PYTHONPATH=str(FsPath(publish.__file__).parents[1])
        )
        child = subprocess.run(
            [sys.executable, "-c", script, str(directory)],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        )
        assert str(lockfile) in child.stdout
        assert cube_listing() == staged
        # Readers take no lock.
        assert second.maybe_reload() is False
        assert len(list(second.cells())) == second.n_cells()

        # Re-entrant within the holder, released by flush — or close.
        first.flush()
        second.begin_delta()
        second.close()
        assert store.ingest(batch)
        first.close()
        second.close()
    assert observe(directory) is not StoreError
