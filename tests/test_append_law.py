"""The append law: ``build(A); append(B)`` ≡ ``build(A ∪ B)``.

One law of the cube algebra, checked byte for byte (``cube_to_json``)
over generated inputs: small ``repro.synth`` databases cut at a random
point, partitions of 1–4 records, δ absolute (1, 2, 3) or fractional
(5 %), exceptions mined or not.  Three constructed batches pin the
frontier's three outcomes a random cut may miss: a batch with no
promotion candidate, candidates that stay below δ, and a promoted cell
whose members sit in every partition of the store.
"""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path as FsPath

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core.lattice import ItemLevel
from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase
from repro.core.serialization import cube_to_json
from repro.store import PartitionedPathStore, append_records, build_cube
from repro.synth import GeneratorConfig, generate_path_database

DELTAS = (1, 2, 3, 0.05)


def database_of(n_paths: int, seed: int) -> PathDatabase:
    return generate_path_database(
        GeneratorConfig(
            n_paths=n_paths,
            n_dims=2,
            dim_fanouts=(2, 3),
            n_location_groups=3,
            locations_per_group=2,
            n_sequences=6,
            max_path_length=4,
            max_duration=3,
            seed=seed,
        )
    )


def built(directory: FsPath, schema, rows, partition_size, delta, exceptions):
    store = PartitionedPathStore.init(
        directory, schema, partition_size=partition_size
    )
    store.ingest(PathDatabase(schema, rows, validate=False))
    cube = build_cube(
        store, min_support=delta, compute_exceptions=exceptions,
        into=store.cube_store(),
    )
    return store, cube


def check_law(
    directory: FsPath, schema, base, batch, partition_size, delta, exceptions
) -> tuple[dict, PartitionedPathStore, object]:
    """Append *batch* to a cube built over *base*, compare it with a cube
    built over both, and hand back the append's stats and the appended
    store and cube (open; the caller closes them)."""
    options = (partition_size, delta, exceptions)
    store, cube = built(directory / "appended", schema, base, *options)
    stats = append_records(store, batch, cube=cube, compact_after=0)
    whole, rebuilt = built(
        directory / "rebuilt", schema, [*base, *batch], *options
    )
    assert cube_to_json(cube) == cube_to_json(rebuilt)
    rebuilt.close()
    whole.close()
    return stats, store, cube


@given(
    n_paths=st.integers(8, 36),
    seed=st.integers(0, 10_000),
    cut=st.floats(0.05, 0.95),
    partition_size=st.integers(1, 4),
    delta=st.sampled_from(DELTAS),
    exceptions=st.booleans(),
)
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    # A failing example is small already: report it, do not shrink it.
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)
def test_an_append_equals_a_build_over_both(
    n_paths, seed, cut, partition_size, delta, exceptions
):
    database = database_of(n_paths, seed)
    rows = list(database)
    split = min(max(1, round(cut * n_paths)), n_paths - 1)
    with tempfile.TemporaryDirectory() as directory:
        stats, store, cube = check_law(
            FsPath(directory), database.schema,
            rows[:split], rows[split:], partition_size, delta, exceptions,
        )
        assert stats["ingested"] == n_paths - split
        cube.close()
        store.close()


# ----------------------------------------------------------------------
# the frontier's three outcomes, constructed
# ----------------------------------------------------------------------

def renumbered(records, start: int) -> list[PathRecord]:
    return [
        PathRecord(start + n, record.dims, record.path)
        for n, record in enumerate(records)
    ]


def finest(schema) -> ItemLevel:
    return ItemLevel([h.depth for h in schema.dimensions])


@pytest.mark.parametrize("exceptions", [True, False], ids=["mined", "plain"])
def test_a_batch_without_a_candidate(tmp_path, exceptions):
    database = database_of(30, 4)
    rows = list(database)
    counts = {}
    for record in rows:
        counts[record.dims] = counts.get(record.dims, 0) + 1
    # Re-arrivals of records whose finest cell holds ≥ δ paths: every
    # key they roll up to is held already.
    batch = renumbered(
        [r for r in rows if counts[r.dims] >= 2][:5], rows[-1].record_id + 1
    )
    assert batch
    stats, store, cube = check_law(
        tmp_path, database.schema, rows, batch, 3, 2, exceptions
    )
    assert stats["promoted"] == stats["still_below_delta"] == 0
    assert stats["updated"] > 0
    cube.close()
    store.close()


@pytest.mark.parametrize("exceptions", [True, False], ids=["mined", "plain"])
def test_candidates_that_stay_below_delta(tmp_path, exceptions):
    database = database_of(30, 4)
    schema = database.schema
    rows = list(database)
    present = {record.dims for record in rows}
    fresh = next(
        dims
        for dims in itertools.product(*(h.leaves for h in schema.dimensions))
        if dims not in present
    )
    batch = [PathRecord(rows[-1].record_id + 1, fresh, rows[0].path)]
    stats, store, cube = check_law(
        tmp_path, schema, rows, batch, 4, 3, exceptions
    )
    assert stats["still_below_delta"] > 0
    cube.close()
    store.close()


@pytest.mark.parametrize("exceptions", [True, False], ids=["mined", "plain"])
def test_a_promoted_cell_with_members_in_every_partition(tmp_path, exceptions):
    database = database_of(40, 4)
    schema = database.schema
    rows = list(database)
    partition_size, n_partitions = 3, 4
    target = rows[0].dims
    others = [r for r in rows if r.dims != target]
    # One record of *target* per base partition: n_partitions members,
    # one short of δ, until the batch brings the last one.
    base = []
    for n in range(n_partitions):
        base += others[2 * n : 2 * n + 2] + [rows[0]]
    base = renumbered(base, 1)
    batch = renumbered([rows[0]], len(base) + 1)
    delta = n_partitions + 1
    stats, store, cube = check_law(
        tmp_path, schema, base, batch, partition_size, delta, exceptions
    )
    assert stats["promoted"] > 0
    cell = cube.cell(finest(schema), target, cube.path_lattice[0])
    ranges = [
        (meta.min_record_id, meta.max_record_id)
        for meta in store.catalog.partitions
    ]
    assert len(ranges) == n_partitions + 1
    assert all(
        any(low <= record_id <= high for record_id in cell.record_ids)
        for low, high in ranges
    )
    cube.close()
    store.close()
