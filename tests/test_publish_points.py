"""Every publish point of the store's write path, killed once each.

The store makes a file visible in exactly one way,
:func:`repro.publish.publish_file`, so the write path's crash windows can
be *enumerated* instead of hand-picked: for each operation this file
counts the publishes, then re-runs the operation on a fresh copy of the
starting store once per publish, raising a ``BaseException`` right after
it, and asks what a fresh reader sees — the old cube, the new cube, a
typed :class:`~repro.errors.StoreError`, or anything else (always a
failure).  The outcomes are pinned in ``EXPECTED`` below, next to the
order the files are published in.

Most windows are old-or-new.  The ones that are not are pinned *as they
are today*, each with a comment: they are the ROADMAP's "Store integrity
and fault injection" durability item, and the PR that closes them flips
rows here instead of discovering them.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro import publish
from repro.core.lattice import ItemLevel
from repro.core.path_database import PathDatabase
from repro.core.serialization import cube_to_json
from repro.errors import StoreError
from repro.store import (
    BuildStats,
    PartitionedPathStore,
    append_records,
    build_cube,
)
from repro.store.cube_store import _HeapCells
from repro.synth import generate_path_database
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
    if seen is StoreError:
        return "error"
    if seen[0] == new[0] and seen[1] == old[1]:
        return TORN
    raise AssertionError(f"a reader sees neither cube nor a typed error: {seen}")


def run(monkeypatch, operation, directory, kill_after=None):
    """Run *operation* on *directory*; the names published, in order.

    With *kill_after* = k the k-th publish is the last thing the writer
    does; k = ``"discard"`` kills right after ``create()`` dropped the
    previous build's files (not a publish, but a point of no return).
    """
    published: list[str] = []
    real_publish = publish.publish_file
    real_discard = _HeapCells.discard_files

    def publishing(destination, source):
        stat = real_publish(destination, source)
        published.append(destination.name)
        if len(published) == kill_after:
            raise Killed
        return stat

    def discarding(self):
        real_discard(self)
        if kill_after == "discard":
            raise Killed

    with monkeypatch.context() as patch:
        patch.setattr(publish, "publish_file", publishing)
        patch.setattr(_HeapCells, "discard_files", discarding)
        try:
            operation(directory)
        except Killed:
            pass
        else:
            assert kill_after is None, f"kill point {kill_after} not reached"
    return published


#: The index (and heap) of the new cube under the meta file of the old.
TORN = "new cells, old meta"
SEGMENT_1 = "cells.delta.001.bin"
SEGMENT_2 = "cells.delta.002.bin"
#: The path table goes first: the records that name a path id land after
#: the path does.  An append publishes it only when the batch brought a
#: path the cube had not seen, and only ever *extends* it, so a kill
#: right after it leaves the old cube readable — byte for byte.
PATHS = "paths.bin"
COMPACT = ["cells.bin", "cells.idx", "cube.json"]
BUILD = [PATHS] + COMPACT
INGEST = ["part-00003.bin", "catalog.json"]

#: operation -> (start, files published in order, what a fresh reader
#: sees after a kill at each point).  ``"discard"`` rows come first.
EXPECTED = {
    "first build": ("ingested", BUILD, ["old", "old", "old", "new"]),
    # DURABILITY (ROADMAP "Store integrity and fault injection"): a
    # rebuild unlinks the previous heap, index and path table before it
    # has staged a byte, so from the discard until the new meta lands the
    # old meta names files that are gone (a typed error).  Once the new
    # index is in place the old meta would read the new cells — and
    # expand them over the *new* build's path table; the lineage the old
    # meta commits does not match it, so that is a typed error too, never
    # a graph of the wrong paths.
    "rebuild": (
        "built",
        BUILD,
        ["error", "error", "error", "error", "new"],
    ),
    "first append": (
        "built",
        INGEST + [PATHS, SEGMENT_1, "cells.delta.idx", "cube.json"],
        ["old", "old", "old", "old", "old", "new"],
    ),
    # The same append over the same store, minus the records whose path
    # the cube had not seen: nothing to add to the table, no publish.
    "append of known paths": (
        "built",
        INGEST + [SEGMENT_1, "cells.delta.idx", "cube.json"],
        ["old", "old", "old", "old", "new"],
    ),
    # DURABILITY: the overlay is rewritten in place while the committed
    # meta already reads it, so between the overlay rename and the meta
    # rename a reader serves the new cells under the old meta (old build
    # stats and version).
    "second append": (
        "appended",
        ["part-00004.bin", "catalog.json"]
        + [PATHS, SEGMENT_2, "cells.delta.idx", "cube.json"],
        ["old", "old", "old", "old", TORN, "new"],
    ),
    "demotion-only append": (
        "finest",
        INGEST + ["cells.idx", "cube.json"],
        ["old", "old", TORN, "new"],
    ),
    # DURABILITY: compaction republishes ``cells.bin`` in place, so from
    # the heap rename until the meta rename the committed overlay's
    # offsets point into the wrong heap: a typed error (corrupt cell
    # payload), not the old cube that DESIGN §5 used to promise.
    # ... and copies records byte for byte: no path table is published.
    "compact": (
        "twice",
        COMPACT,
        ["error", "error", "new"],
    ),
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
    done = fresh_copy("done")
    files = run(monkeypatch, operation, done)
    new = observe(done)
    assert new is not StoreError and new != old
    assert files == expected_files

    points = list(range(1, len(files) + 1))
    if name == "rebuild":
        points.insert(0, "discard")
    outcomes = []
    for point in points:
        directory = fresh_copy(point)
        run(monkeypatch, operation, directory, kill_after=point)
        outcomes.append(classify(observe(directory), old, new))
    assert outcomes == expected_outcomes


def test_rebuild_and_compaction_sweep_a_dead_writers_staging_files(
    tmp_path, rows, starts
):
    """A killed writer's temps carry a pid nobody will use again, so only
    the operations that supersede every earlier write can remove them."""
    directory = shutil.copytree(starts["built"], tmp_path / "wh")
    cube_dir = directory / "cube"

    def listing():
        return sorted(path.name for path in cube_dir.iterdir())

    def fabricate_orphans():
        for name in ("cells.bin", "cells.idx", "cube.json", "paths.bin"):
            (cube_dir / f"{name}.99999.tmp").write_bytes(b"half a file")

    fabricate_orphans()
    _build(directory)
    assert listing() == ["cells.bin", "cells.idx", "cube.json", "paths.bin"]

    # Serving processes publish query_stats.json concurrently with a
    # writer: their temps are not the writer's to sweep.
    fabricate_orphans()
    (cube_dir / "cells.delta.idx.99999.tmp").write_bytes(b"half a file")
    (cube_dir / "query_stats.json.99999.tmp").write_bytes(b"{}")
    _append(directory, rows[BASE_ROWS:FIRST_BATCH])
    assert "cells.bin.99999.tmp" in listing()  # an append supersedes nothing
    _compact(directory)
    assert listing() == [
        "cells.bin", "cells.idx", "cube.json", "paths.bin",
        "query_stats.json.99999.tmp",
    ]
