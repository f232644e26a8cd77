"""A reload invalidates what the write touched, and nothing else.

When another handle commits, a held-open reader reloads
(``CubeStore.maybe_reload``) and computes the *changed set* — the
``(item level, key)`` item cells added, removed or rewritten, by extent
identity (``changed_coords``).  Its cell cache drops their cells at every
path level only, and a tenant's response cache carries every ``slice`` /
``exceptions`` answer whose cut selects none of them over to the new
version.  The load-bearing assertions:

* differential: after an append with promotions, an append under a
  fractional δ that demotes cells, a compaction, a ``put_cuboid`` re-put
  of a key with equal ``n_paths`` and a rebuild, every body a warm tenant
  serves — all six routes, with and without ``measure`` — equals a fresh
  mount's bytes (hypothesis over small ``repro.synth`` databases);
* the hazards: the changed set compares the cube loaded with the one the
  handle served, even when its first load attempt lost a race with a
  sweep; a cuboid whose surviving keys change order counts whole; a
  reload that raises leaves the handle, its caches and its version as
  they were;
* the query façade keeps one derivation plan per coordinate however many
  reloads pass.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core.lattice import ItemLevel
from repro.core.path import PathRecord
from repro.core.serialization import cube_to_json
from repro.errors import StoreError
from repro.serve import CubeTenant, SlicerApp
from repro.store import PartitionedPathStore, append_records, build_cube
from repro.store.cube_store import changed_coords, read_meta
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import cube_files, item_cell
from tests.test_plan import call

#: A fractional δ: an append that grows the store raises the threshold.
MIN_SUPPORT = 0.05


def database_of(n_paths: int, seed: int = 3):
    return generate_path_database(
        GeneratorConfig(
            n_paths=n_paths,
            n_dims=2,
            dim_fanouts=(2, 3),
            n_location_groups=3,
            locations_per_group=2,
            n_sequences=8,
            max_path_length=4,
            max_duration=3,
            seed=seed,
        )
    )


def built(directory, database, rows, **options):
    store = PartitionedPathStore.init(directory, database.schema)
    store.ingest(rows)
    build_cube(
        store,
        min_support=options.pop("min_support", MIN_SUPPORT),
        into=store.cube_store(),
        **options,
    )
    store.close()
    return directory


class Clones:
    """Batches of copies of existing records, under ascending fresh ids."""

    def __init__(self, rows) -> None:
        self.rows = rows
        self.counts = Counter(record.dims for record in rows)
        self.next_id = max(record.record_id for record in rows) + 1

    def of(self, pick, count: int) -> list[PathRecord]:
        """*count* copies of the record whose dimension values are the
        rarest (*pick* = ``min``) or the commonest (``max``)."""
        source = pick(self.rows, key=lambda record: self.counts[record.dims])
        batch = [
            PathRecord(self.next_id + n, source.dims, source.path)
            for n in range(count)
        ]
        self.next_id += count
        return batch


def requests(schema) -> list[tuple[str, str, dict]]:
    """Every cut of one concept (and the empty one) through all six
    routes, the measure-rendering variants and another path level."""
    cuts = [("", schema.dimensions[0].name)] + [
        (f"{h.name}:{concept}", h.name)
        for h in schema.dimensions
        for level in range(1, h.depth + 1)
        for concept in sorted(h.concepts_at_level(level))
    ]
    out = []
    for cut, dimension in cuts:
        out += [
            ("POST", "slice", {"cut": cut}),
            ("POST", "slice", {"cut": cut, "measure": True}),
            ("POST", "slice", {"cut": cut, "path_level": 1}),
            ("GET", "exceptions", {"cut": cut}),
            ("POST", "query", {"cut": cut}),
            ("GET", "flowgraph", {"cut": cut}),
            ("POST", "rollup", {"cut": cut, "dimension": dimension}),
            ("POST", "drilldown",
             {"cut": cut, "dimension": dimension, "measure": True}),
        ]
    return out


def served(app, wanted) -> list[tuple[int, bytes]]:
    out = []
    for method, route, params in wanted:
        response = call(app, "wh", method, route, params)
        out.append((response.status, response.body))
    return out


def stale(app, directory, wanted) -> list[tuple[str, str, dict]]:
    """The requests *app* answers otherwise than a tenant mounted on the
    cube committed now — status and body bytes."""
    tenant = CubeTenant.mount("wh", directory)
    try:
        now = served(SlicerApp([tenant]), wanted)
    finally:
        tenant.close()
    return [
        request
        for request, answer, expected in zip(wanted, served(app, wanted), now)
        if answer != expected
    ]


def re_put(handle) -> None:
    """Re-put a cell under its own key, record ids and multiset — equal
    ``n_paths`` — with the other redundancy mark, so only its extent
    says it changed."""
    cuboid = next(c for c in handle.cuboids if len(c) > 1)
    first = next(iter(cuboid))
    handle.put_cuboid(item_cell(handle, first, redundant=not first.redundant))
    handle.flush()


# ----------------------------------------------------------------------
# differential: a warm tenant serves what a fresh mount serves
# ----------------------------------------------------------------------

@given(seed=st.integers(0, 10_000), n_paths=st.integers(90, 140))
@settings(
    max_examples=3,
    deadline=None,
    derandomize=True,
    # An example takes a second or two: report it, do not shrink it.
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)
def test_a_warm_tenant_serves_what_a_fresh_mount_serves(
    tmp_path_factory, seed, n_paths
):
    database = database_of(n_paths, seed)
    rows = list(database)
    directory = built(tmp_path_factory.mktemp("warm") / "wh", database, rows)
    wanted = requests(database.schema)
    tenant = CubeTenant.mount("wh", directory, cache_size=4096)
    store = PartitionedPathStore.open(directory)
    writer = store.cube_store()
    batches = Clones(rows)

    def append(batch, grew: str) -> None:
        stats = append_records(store, batch, cube=writer, compact_after=0)
        assert stats[grew] > 0, stats

    steps = {
        "mount": lambda: None,
        "promoting append": lambda: append(batches.of(min, 12), "promoted"),
        # Doubling the store doubles the fractional δ's threshold.
        "demoting append": lambda: append(
            batches.of(max, n_paths), "demoted"
        ),
        "compaction": writer.compact,
        "re-put": lambda: re_put(writer),
        "rebuild": lambda: build_cube(
            store, min_support=MIN_SUPPORT, into=writer
        ),
    }
    try:
        app = SlicerApp([tenant])
        for name, step in steps.items():
            step()
            assert not stale(app, directory, wanted), name
        assert tenant.responses_kept > 0 and tenant.responses_dropped > 0
    finally:
        writer.close()
        store.close()
        tenant.close()


# ----------------------------------------------------------------------
# hazards
# ----------------------------------------------------------------------

def test_the_changed_set_compares_with_what_the_handle_served(tmp_path):
    """The first load attempt maps an index a writer swept since: the
    retry's changed set is against the cube the handle served, not the
    listing of the attempt that failed."""
    database = database_of(120)
    rows = list(database)
    directory = built(tmp_path / "wh", database, rows)
    store = PartitionedPathStore.open(directory)
    reader = store.cube_store(cache_size=4096)
    served_before = reader._served
    list(reader.cells())
    changes = []
    reader.subscribe(lambda version, changed: changes.append(changed))

    writer = store.cube_store()
    batches = Clones(rows)
    append_records(store, batches.of(min, 12), cube=writer, compact_after=0)
    signature, text = read_meta(directory / "cube")
    append_records(store, batches.of(min, 12), cube=writer, compact_after=0)
    swept = directory / "cube" / json.loads(text)["files"]["index"]
    assert not swept.exists()

    reader._load_meta(signature, text)
    with store.cube_store() as now:
        expected = changed_coords(served_before, now._served)
        same = cube_to_json(reader) == cube_to_json(now)
    assert same, "the reader's cells differ from the committed cube's"
    assert expected and changes == [expected]
    writer.close()
    reader.close()
    store.close()


def test_a_cuboid_whose_surviving_keys_reorder_counts_whole(tmp_path):
    """A cube written by ``put_cuboid`` in reverse key order: a promotion
    re-sorts its cuboids by first record id, so a slice of unchanged
    cells lists them in another order — every key there has changed."""
    database = database_of(120)
    rows = list(database)
    directory = built(
        tmp_path / "wh", database, rows, min_support=4,
        compute_exceptions=False,
    )
    store = PartitionedPathStore.open(directory)
    source = store.cube_store()
    reverse = store.cube_store()
    reverse.create(
        source.path_lattice, source.min_support, source.min_deviation,
        item_levels=source.item_levels,
    )
    reverse.build_stats = source.build_stats
    for item_level in source.item_levels:
        reverse.put_cuboid(
            cell
            for cuboid in source.cuboids if cuboid.item_level == item_level
            for cell in list(cuboid)[::-1]
        )
    reverse.flush()
    source.close()

    wanted = requests(database.schema)
    tenant = CubeTenant.mount("wh", directory, cache_size=4096)
    app = SlicerApp([tenant])
    served(app, wanted)
    before = tenant.cube_store._served[0]
    changes = []
    tenant.cube_store.subscribe(lambda version, changed: changes.append(changed))

    stats = append_records(
        store, Clones(rows).of(min, 8), cube=reverse, compact_after=0
    )
    assert stats["promoted"] > 0
    assert not stale(app, directory, wanted)
    [changed] = changes
    after = tenant.cube_store._served[0]
    reordered = [
        item_level for item_level, entries in after.items()
        if [k for k in entries if k in before.get(item_level, ())]
        != [k for k in before.get(item_level, ()) if k in entries]
    ]
    assert reordered
    for item_level in reordered:
        keys = before[item_level].keys() | after[item_level].keys()
        assert {(item_level, key) for key in keys} <= changed
    reverse.close()
    store.close()
    tenant.close()


def test_a_reload_that_raises_changes_nothing(tmp_path):
    database = database_of(120)
    rows = list(database)
    directory = built(tmp_path / "wh", database, rows)
    wanted = requests(database.schema)
    tenant = CubeTenant.mount("wh", directory, cache_size=4096)
    app = SlicerApp([tenant])
    warm = served(app, wanted)

    store = PartitionedPathStore.open(directory)
    append_records(store, Clones(rows).of(min, 12), compact_after=0)
    meta = directory / "cube" / "cube.json"
    committed = meta.read_text(encoding="utf-8")
    broken = json.loads(committed)
    broken["files"]["index"] = "cells.999999.idx"
    meta.write_text(json.dumps(broken), encoding="utf-8")

    def state():
        stats = tenant.stats()
        return (
            tenant.version,
            stats["invalidations"],
            stats["cell_cache"]["size"],
            stats["response_cache"]["size"],
            tenant.cube_store._served,
        )

    before = state()
    for _ in range(2):  # not remembered as loaded: the next call retries
        with pytest.raises(StoreError, match="cells.999999.idx"):
            tenant.refresh()
        assert state() == before
    # Still the cube it served: a warm answer comes back as it was.
    assert tenant.cached_response(
        ("slice", (), None, None, False, False)
    ) == warm[0][1]

    meta.write_text(committed, encoding="utf-8")
    os.utime(meta, ns=(1, 1))  # a signature no earlier read took
    assert tenant.refresh() is True
    assert not stale(app, directory, wanted)
    store.close()
    tenant.close()


def test_derivation_plans_stay_one_per_coordinate_across_reloads(tmp_path):
    database = database_of(120)
    base = ItemLevel([h.depth for h in database.schema.dimensions])
    directory = built(
        tmp_path / "partial", database, list(database), item_levels=[base],
        compute_exceptions=False,
    )
    tenant = CubeTenant.mount("wh", directory)
    app = SlicerApp([tenant])
    meta = cube_files(directory)["index"].with_name("cube.json")
    sizes = []
    for reload in range(20):
        os.utime(meta, ns=(reload + 1, reload + 1))  # a new signature
        response = call(
            app, "wh", "POST", "query", {"cut": "d0:d0_0", "derive": True}
        )
        assert response.status == 200, response.body
        sizes.append(len(tenant.query._plans))
    assert tenant.invalidations == 20
    assert sizes == [sizes[0]] * 20
    tenant.close()
