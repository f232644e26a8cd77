"""Incremental store append: delta-merge maintenance of a persisted cube.

:func:`append_records` ingests a batch of new path records into a
:class:`~repro.store.pathstore.PartitionedPathStore` and folds them into
the store's *persisted* cube without rebuilding it:

* **Algebraic counters** (Lemma 4.2) — a stored item cell is its one
  ``{joint id: weight}`` vector, the distributive part of the flowgraph
  measure at every path level, so an updated item cell is *stored vector
  + batch vector*: integer addition, each batch member added once, with
  no graph decoded, merged or encoded.  A dirty item cell — one record
  for its ids and its vector — is read, decoded and encoded once;
  untouched cells are never read, let alone rewritten.
* **Iceberg frontier** — promotion candidates (batch keys the cube does
  not hold) are membership-counted through the partition catalog: the
  scan is Bloom-pruned to the partitions that might hold a candidate's
  members (:meth:`select_partitions`), and a batch without a candidate
  reads no partition at all.  Whether a cell reaches δ depends only on
  its records' dimension values, so each chosen partition is read once,
  as its id and dims columns (:class:`~repro.store.binfmt.PartitionColumns`):
  the counts are taken on distinct dims tuples, and paths are built
  only for the rows of the candidates that cross δ.  A *fractional* δ
  resolves against the grown record count, so untouched cells can fall
  below the frontier — they are demoted from the index without any heap
  IO, exactly as a rebuild would drop them.
* **Exceptions** (Lemma 4.3, holistic) — not touched: no record holds
  any, and a cell of a cube with exceptions mines its own from its vector
  at first read, so an appended cube is byte-identical (``cube_to_json``)
  to a from-scratch rebuild over the extended store.
* **Durability** — dirty item cells land in a new append-only segment
  (``cells.delta.G.bin``) plus a new full index (``cells.delta.G.idx``),
  after a new, longer path table when the batch brought a path the cube
  had not seen; no file the committed ``cube.json`` lists is rewritten,
  so a later append is as crash-safe as a first one.  The meta publish
  is the commit point, and what it no longer lists is swept after it.
  Once ``compact_after`` segments pile up, :meth:`CubeStore.compact`
  folds them back into a clean base heap.

This is the only place a batch is folded into a cube, so the promotion /
demotion / ordering rules exist once.  An in-memory
:class:`~repro.core.flowcube.FlowCube` has no append: its
``FlowCube.build`` over the grown database is the reference an appended
store is compared with.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from collections.abc import Iterable
from itertools import compress

from repro.core.flowcube import Cell, CellKey
from repro.core.flowgraph_exceptions import resolve_min_support
from repro.core.lattice import ItemLattice, ItemLevel, roll_up_key
from repro.core.path import Path, PathRecord
from repro.errors import StoreError
from repro.perf import collector
from repro.perf.measure_rollup import AggregationMemo
from repro.store import binfmt
from repro.store.cube_store import (
    CubeStore,
    _new_append_stats,
    entry_n_paths,
)

__all__ = ["append_records"]


def _require_fresh(cube: CubeStore, store) -> dict:
    """The cube's build-stats snapshot, verified against the store.

    A crashed or out-of-band ingest leaves the store ahead of the cube;
    appending on top would bake the divergence into every later batch,
    so the mismatch is refused up front (before this batch's ingest).
    """
    if not cube.is_built:
        raise StoreError(
            f"no cube has been built at {cube.directory} "
            "(run `flowcube-store build` first)"
        )
    stats = cube.build_stats
    if stats is None or "records" not in stats:
        raise StoreError(
            "cube carries no build stats; rebuild it once before appending"
        )
    if int(stats["records"]) != len(store):
        raise StoreError(
            f"cube covers {stats['records']} records but the store holds "
            f"{len(store)}; the cube is stale — rebuild before appending"
        )
    return stats


@collector.paused()
def append_records(
    store,
    records: Iterable[PathRecord],
    *,
    cube: CubeStore | None = None,
    compact_after: int | None = 16,
) -> dict:
    """Ingest *records* and delta-merge them into the store's cube.

    Runs with the cyclic collector paused, like the build
    (:func:`repro.perf.collector.paused`).

    Args:
        store: The :class:`~repro.store.pathstore.PartitionedPathStore`.
        records: New path records; ids must be strictly greater than the
            store's high-water mark (the ingest invariant).
        cube: An open :class:`CubeStore` handle over ``store/cube``, or
            ``None`` to open (and close) one for this call.
        compact_after: Fold delta segments into a clean base heap once
            this many are pending (``0``/``None`` disables).

    Returns:
        Statistics: records/partitions ingested, cells updated /
        created / promoted / demoted, candidates still below δ, pending
        delta segments, and cells compacted (0 unless the threshold
        tripped).

    Raises:
        StoreError: On id collisions, a missing or stale cube, or a
            cube predating build-stats provenance.
    """
    rows = list(records)
    owned_cube = cube is None
    if owned_cube:
        cube = store.cube_store()
    try:
        build_stats = _require_fresh(cube, store)
        if not rows:
            return {
                "ingested": 0,
                "partitions": 0,
                "updated": 0,
                "created": 0,
                "promoted": 0,
                "demoted": 0,
                "still_below_delta": 0,
                "delta_segments": len(cube.delta_segments),
                "compacted": 0,
            }
        written = store.ingest(rows)  # raises before the cube is touched
        result = _merge_batch(store, cube, rows, build_stats)
        result["partitions"] = len(written)
        result["compacted"] = 0
        if compact_after and len(cube.delta_segments) >= compact_after:
            result["compacted"] = cube.compact()
        result["delta_segments"] = len(cube.delta_segments)
        return result
    finally:
        if owned_cube:
            cube.close()


def _merge_batch(store, cube, rows, build_stats) -> dict:
    hierarchies = store.schema.dimensions
    lattice = cube.path_lattice
    n_levels = len(lattice)
    levels = cube.item_levels
    if levels is None:
        # Cubes persisted before the build's item levels were recorded:
        # assume the full lattice (the builder's default).
        levels = list(ItemLattice([h.depth for h in hierarchies]))
    threshold = resolve_min_support(cube.min_support, len(store))
    index = cube._index  # noqa: SLF001 - same-package maintenance path

    # ------------------------------------------------------------------
    # classify the batch per item level (each distinct dims tuple once)
    # ------------------------------------------------------------------
    keys_of: dict[tuple, list[CellKey]] = {}
    batch_groups: list[dict[CellKey, list[PathRecord]]] = [{} for _ in levels]
    for record in rows:
        keys = keys_of.get(record.dims)
        if keys is None:
            keys = keys_of[record.dims] = [
                roll_up_key(record.dims, item_level, hierarchies)
                for item_level in levels
            ]
        for groups, key in zip(batch_groups, keys):
            groups.setdefault(key, []).append(record)
    # Each item level's stored cells, in cuboid order: one index entry
    # per item cell, whatever the path level.
    existing = [index.get(item_level, {}) for item_level in levels]

    # ------------------------------------------------------------------
    # one Bloom-pruned partition sweep, columns first: which candidates
    # cross δ, their members, and (only then) the members' paths
    # ------------------------------------------------------------------
    crossing, paths = _sweep(
        store,
        levels,
        [
            {key for key in groups if key not in entries}
            for groups, entries in zip(batch_groups, existing)
        ],
        threshold,
    )

    # ------------------------------------------------------------------
    # per item level: resolve the frontier, then materialise the dirty
    # item cells in canonical cuboid order
    # ------------------------------------------------------------------
    # A dirty item cell is one joint vector over the cube's own path
    # table: the stored one plus the batch's for an updated cell, the
    # members' for a promoted one — each member counted once, whatever
    # the number of path levels.  Each distinct path goes through the
    # table's one door once; only a path the cube has never seen extends
    # the table (and its file, republished at the flush below).
    dirty: list[Cell] = []
    layout: list[tuple[ItemLevel, list[CellKey]]] = []
    updated_cells = created_cells = promoted_cells = demoted_cells = below = 0
    table = joint_id = None
    joint_of: dict[int, int] = {}

    def add(vector: dict[int, int], members) -> None:
        """Count *members* — ``(record id, path)`` pairs — into *vector*.
        A record's id finds its joint id without re-hashing the path."""
        for record_id, path in members:
            jid = joint_of.get(record_id)
            if jid is None:
                jid = joint_of[record_id] = joint_id(path)
            vector[jid] = vector.get(jid, 0) + 1

    for i, (item_level, groups, entries) in enumerate(
        zip(levels, batch_groups, existing)
    ):
        promoted: dict[CellKey, list[int]] = {}
        for key in groups:
            if key not in entries:
                member_ids = crossing.get((i, key))
                if member_ids is None:
                    below += 1
                else:
                    promoted[key] = member_ids
        survivors: set[CellKey] = set(promoted)
        updated: list[CellKey] = []
        for key, entry in entries.items():
            if entry_n_paths(entry) + len(groups.get(key, ())) >= threshold:
                survivors.add(key)
                if key in groups:
                    updated.append(key)
            else:
                demoted_cells += n_levels
        # Each updated item cell's stored ids and joint vector: one record
        # read and one decode each.
        stored = dict(
            zip(
                updated,
                map(binfmt.decode_cell_parts, cube.item_records(item_level, updated)),
            )
        )
        if promoted:
            # A rebuild lists cells in first-membership order; ids ascend
            # across ingests, so that is ascending first-id order.  The
            # other survivors' first ids come from their records — ids
            # decode without a vector.
            first_ids = {key: ids[0] for key, ids in promoted.items()}
            kept = [k for k in entries if k in survivors and k not in stored]
            for key, (ids, _) in stored.items():
                first_ids[key] = ids[0]
            for key, record in zip(kept, cube.item_records(item_level, kept)):
                first_ids[key] = binfmt.decode_cell_ids(record)[0]
            order = sorted(survivors, key=first_ids.__getitem__)
        else:
            order = [key for key in entries if key in survivors]
        layout.append((item_level, order))
        promoted_cells += len(promoted)

        for key in order:
            if key in stored:
                record_ids, vector = stored[key]
                members = [
                    (record.record_id, record.path) for record in groups[key]
                ]
                record_ids += tuple([record_id for record_id, _ in members])
                updated_cells += n_levels
            elif key in promoted:
                vector = {}
                record_ids = tuple(promoted[key])
                members = [(rid, paths[rid]) for rid in record_ids]
                created_cells += n_levels
            else:
                continue  # untouched: keep the existing entry verbatim
            if table is None:
                table = cube.path_table
                joint_id = AggregationMemo(lattice, table).joint_id
            add(vector, members)
            dirty.extend(
                Cell(
                    key, item_level, path_level, record_ids, vector, table,
                    level_id,
                )
                for level_id, path_level in enumerate(lattice)
            )

    # ------------------------------------------------------------------
    # publish: delta segment -> index -> meta (the commit point)
    # ------------------------------------------------------------------
    if dirty:
        cube.begin_delta()
    if dirty or demoted_cells:
        cube.merge_cells(dirty, layout)

    counters = build_stats.setdefault("append", _new_append_stats())
    counters["batches"] += 1
    counters["records_appended"] += len(rows)
    counters["cells_updated"] += updated_cells
    counters["cells_created"] += created_cells
    counters["cells_promoted"] += promoted_cells
    counters["cells_demoted"] += demoted_cells
    counters["still_below_delta"] += below
    counters["delta_segments"] = len(cube.delta_segments) + (
        1 if dirty else 0
    )
    build_stats["records"] = len(store)
    build_stats["partitions"] = len(store.catalog.partitions)
    build_stats["cells"] = cube.n_cells()
    seed = (
        f"{build_stats.get('version')}:append:{counters['batches']}:"
        f"{build_stats['records']}:{build_stats['cells']}"
    )
    build_stats["version"] = hashlib.sha1(
        seed.encode("utf-8")
    ).hexdigest()[:12]
    cube.flush()

    return {
        "ingested": len(rows),
        "updated": updated_cells,
        "created": created_cells,
        "promoted": promoted_cells,
        "demoted": demoted_cells,
        "still_below_delta": below,
    }


def _sweep(store, levels, candidate_keys, threshold):
    """The promotion candidates that cross δ: their member ids (ascending)
    per ``(level index, key)``, and the members' paths by record id.

    Reads each Bloom-selected partition once, as columns, and counts on
    the distinct dims tuples: a candidate's tuples are, per dimension,
    the ones whose value rolls up to the candidate's concept there,
    intersected across dimensions, and its count is how many rows carry
    them.  No row object is built to decide the frontier; the rows of a
    promoted candidate then get their paths.
    """
    sweep_levels = [i for i, keys in enumerate(candidate_keys) if keys]
    if not sweep_levels:
        return {}, {}
    hierarchies = store.schema.dimensions
    dim_names = store.schema.dimension_names
    chosen: set[int] = set()
    for i in sweep_levels:
        for key in candidate_keys[i]:
            constraints = {
                name: part
                for name, part, depth in zip(dim_names, key, levels[i])
                if depth > 0
            }
            chosen.update(store.select_partitions(**constraints))

    swept = [
        store.load_partition(partition_id, columns=True)
        for partition_id in sorted(chosen)
    ]
    rows_with: Counter[tuple] = Counter()
    for columns in swept:
        rows_with.update(columns.dims)

    # Per dimension, the distinct tuples carrying each value; the tuples
    # under a concept are the union over the values rolling up to it.
    carrying: list[dict[str, set[tuple]]] = [{} for _ in hierarchies]
    for dims in rows_with:
        for by_value, value in zip(carrying, dims):
            by_value.setdefault(value, set()).add(dims)
    under: dict[tuple[int, int, str], set[tuple]] = {}

    def tuples_under(dim: int, level: int, concept: str) -> set[tuple]:
        found = under.get((dim, level, concept))
        if found is None:
            roll_up = hierarchies[dim].ancestor_at_level
            found = under[dim, level, concept] = set().union(
                *(
                    tuples
                    for value, tuples in carrying[dim].items()
                    if roll_up(value, level) == concept
                )
            )
        return found

    promoting: dict[tuple, list[tuple[int, CellKey]]] = {}
    for i in sweep_levels:
        for key in candidate_keys[i]:
            sets = [
                tuples_under(dim, level, concept)
                for dim, (level, concept) in enumerate(zip(levels[i], key))
                if level > 0
            ]
            tuples = set.intersection(*sets) if sets else rows_with.keys()
            if sum(map(rows_with.__getitem__, tuples)) >= threshold:
                for dims in tuples:
                    promoting.setdefault(dims, []).append((i, key))

    members: dict[tuple[int, CellKey], list[int]] = {}
    paths: dict[int, Path] = {}
    for columns in swept:
        dims = columns.dims
        rows = list(
            compress(range(len(columns)), map(promoting.__contains__, dims))
        )
        record_ids = columns.record_ids
        for row, path in zip(rows, columns.paths(rows)):
            record_id = record_ids[row]
            paths[record_id] = path
            for hit in promoting[dims[row]]:
                members.setdefault(hit, []).append(record_id)
    return members, paths
