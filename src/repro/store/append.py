"""Incremental store append: delta-merge maintenance of a persisted cube.

:func:`append_records` ingests a batch of new path records into a
:class:`~repro.store.pathstore.PartitionedPathStore` and folds them into
the store's *persisted* cube without rebuilding it:

* **Algebraic counters** (Lemma 4.2) — a stored cell is its ``{path id:
  weight}`` vector, the distributive part of the flowgraph measure, so an
  updated cell is *stored vector + batch vector*: integer addition, with
  no graph decoded, merged or encoded; untouched cells are never read,
  let alone rewritten.
* **Iceberg frontier** — promotion candidates (batch keys the cube does
  not hold) are membership-counted through the partition catalog: the
  scan is Bloom-pruned to the partitions that might hold a candidate's
  members (:meth:`select_partitions`), and a batch without a candidate
  reads no partition at all.  A *fractional* δ resolves against the
  grown record count, so untouched cells can fall below the frontier —
  they are demoted from the index without any heap IO, exactly as a
  rebuild would drop them.
* **Exceptions** (Lemma 4.3, holistic) — re-mined only for the dirty
  cells, from their vectors over the cube's own path table (whose
  postings serve every dirty cell of a level) and a flowgraph expanded
  from the same vector, through the per-cell kernel and runner the
  builder uses, so an appended cube is byte-identical
  (``cube_to_json``) to a from-scratch rebuild over the extended store.
* **Durability** — dirty cells land in a new append-only segment
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
from collections.abc import Iterable

from repro.core.aggregation import aggregate_path
from repro.core.flowcube import CellKey
from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import (
    resolve_min_support,
    serial_exception_pass,
)
from repro.core.lattice import ItemLattice, ItemLevel, roll_up_key
from repro.core.path import Path, PathRecord
from repro.errors import StoreError
from repro.perf import collector
from repro.perf.exception_kernel import PidCell
from repro.perf.measure_rollup import VectorCell
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
        # The cube was built with exceptions iff the build ran that
        # phase: its dirty cells are re-mined exactly when a rebuild
        # (with the same flags) would mine them.
        mine = "exceptions" in build_stats.get("phase_seconds", {})
        written = store.ingest(rows)  # raises before the cube is touched
        result = _merge_batch(store, cube, rows, build_stats, mine)
        result["partitions"] = len(written)
        result["compacted"] = 0
        if compact_after and len(cube.delta_segments) >= compact_after:
            result["compacted"] = cube.compact()
        result["delta_segments"] = len(cube.delta_segments)
        return result
    finally:
        if owned_cube:
            cube.close()


def _merge_batch(store, cube, rows, build_stats, mine) -> dict:
    schema = store.schema
    hierarchies = schema.dimensions
    lattice = cube.path_lattice
    levels = cube.item_levels
    if levels is None:
        # Cubes persisted before the build's item levels were recorded:
        # assume the full lattice (the builder's default).
        levels = list(ItemLattice([h.depth for h in hierarchies]))
    threshold = resolve_min_support(cube.min_support, len(store))
    index = cube._index  # noqa: SLF001 - same-package maintenance path

    # ------------------------------------------------------------------
    # classify the batch per item level
    # ------------------------------------------------------------------
    batch_groups: list[dict[CellKey, list[PathRecord]]] = []
    for item_level in levels:
        groups: dict[CellKey, list[PathRecord]] = {}
        for record in rows:
            key = roll_up_key(record.dims, item_level, hierarchies)
            groups.setdefault(key, []).append(record)
        batch_groups.append(groups)

    # Existing key order and sizes per item level (identical across the
    # level's path-level cuboids — membership is path-level independent).
    existing_order: list[list[CellKey]] = []
    sizes: list[dict[CellKey, int]] = []
    for item_level in levels:
        order: list[CellKey] = []
        size: dict[CellKey, int] = {}
        for level_id in range(len(lattice)):
            entries = index.get((item_level, level_id))
            if entries:
                order = list(entries)
                size = {
                    key: entry_n_paths(entry)
                    for key, entry in entries.items()
                }
                break
        existing_order.append(order)
        sizes.append(size)

    updated_keys: list[set[CellKey]] = []
    candidate_keys: list[set[CellKey]] = []
    for i in range(len(levels)):
        existing = sizes[i]
        updated_keys.append({k for k in batch_groups[i] if k in existing})
        candidate_keys.append({k for k in batch_groups[i] if k not in existing})

    # ------------------------------------------------------------------
    # one Bloom-pruned partition sweep: who the promotion candidates'
    # members are (the batch's partitions among them), and their paths
    # ------------------------------------------------------------------
    members: dict[tuple[int, CellKey], list[int]] = {}
    paths: dict[int, Path] = {}
    sweep_levels = [i for i in range(len(levels)) if candidate_keys[i]]
    if sweep_levels:
        dim_names = schema.dimension_names
        chosen: set[int] = set()
        for i in sweep_levels:
            for key in candidate_keys[i]:
                constraints = {
                    name: part
                    for name, part, depth in zip(dim_names, key, levels[i])
                    if depth > 0
                }
                chosen.update(store.select_partitions(**constraints))

        # Per distinct dims tuple: the candidates the record belongs to.
        hits_cache: dict[tuple, list] = {}
        for partition_id in sorted(chosen):
            for record in store.load_partition(partition_id):
                hits = hits_cache.get(record.dims)
                if hits is None:
                    hits = hits_cache[record.dims] = []
                    for i in sweep_levels:
                        key = roll_up_key(record.dims, levels[i], hierarchies)
                        if key in candidate_keys[i]:
                            hits.append((i, key))
                if hits:
                    paths[record.record_id] = record.path
                    for hit in hits:
                        members.setdefault(hit, []).append(record.record_id)

    # ------------------------------------------------------------------
    # resolve the frontier per item level
    # ------------------------------------------------------------------
    promoted: list[dict[CellKey, list[int]]] = []
    below = 0
    for i in range(len(levels)):
        crossed: dict[CellKey, list[int]] = {}
        for key in batch_groups[i]:
            if key not in candidate_keys[i]:
                continue
            member_ids = members.get((i, key), ())
            if len(member_ids) >= threshold:
                crossed[key] = list(member_ids)
            else:
                below += 1
        promoted.append(crossed)

    demoted_cells = 0
    final_order: list[list[CellKey]] = []
    for i in range(len(levels)):
        survivors: set[CellKey] = set(promoted[i])
        n_levels_present = sum(
            1
            for level_id in range(len(lattice))
            if index.get((levels[i], level_id))
        )
        for key, n_paths in sizes[i].items():
            if key in updated_keys[i]:
                n_paths += len(batch_groups[i][key])
            if n_paths >= threshold:
                survivors.add(key)
            else:
                demoted_cells += n_levels_present
                updated_keys[i].discard(key)

        if promoted[i]:
            # A rebuild lists cells in first-membership order; ids ascend
            # across ingests, so that is ascending first-id order.  The
            # surviving cells' first ids come from their records — ids
            # decode without a graph.
            first_ids: dict[CellKey, int] = {
                key: ids[0] for key, ids in promoted[i].items()
            }
            if existing_order[i]:
                ref_level = next(
                    level_id
                    for level_id in range(len(lattice))
                    if index.get((levels[i], level_id))
                )
                for key in existing_order[i]:
                    if key in survivors:
                        cell = cube.cell(levels[i], key, lattice[ref_level])
                        first_ids[key] = cell.record_ids[0]
            order = sorted(survivors, key=first_ids.__getitem__)
        else:
            order = [k for k in existing_order[i] if k in survivors]
        final_order.append(order)

    # ------------------------------------------------------------------
    # materialise the dirty cells, in canonical cuboid order
    # ------------------------------------------------------------------
    # A dirty cell is a vector over the cube's own path table: the stored
    # one plus the batch's for an updated cell, the members' for a
    # promoted one.  Each distinct path is aggregated once per path level
    # and interned once; only a path the cube has never seen extends the
    # table (and its file, republished at the flush below).
    dirty: dict[tuple[ItemLevel, int, CellKey], VectorCell] = {}
    layout: list[tuple[ItemLevel, int, list[CellKey]]] = []
    triples: list[tuple[FlowGraph, PidCell, None]] = []
    updated_cells = created_cells = 0
    table = None
    pids_by_path: dict[Path, list[int]] = {}
    pids_of: dict[int, list[int]] = {}

    def add(weights: dict[int, int], members, level_id: int) -> None:
        """Count *members* — ``(record id, path)`` pairs — into *weights*.
        A record's id finds its path's ids without re-hashing the path."""
        for record_id, path in members:
            by_level = pids_of.get(record_id)
            if by_level is None:
                by_level = pids_by_path.get(path)
                if by_level is None:
                    by_level = pids_by_path[path] = [
                        table.intern(level, aggregate_path(path, path_level))
                        for level, path_level in enumerate(lattice)
                    ]
                pids_of[record_id] = by_level
            pid = by_level[level_id]
            weights[pid] = weights.get(pid, 0) + 1

    for i, item_level in enumerate(levels):
        for level_id in range(len(lattice)):
            layout.append((item_level, level_id, final_order[i]))
            path_level = lattice[level_id]
            for key in final_order[i]:
                if key in updated_keys[i]:
                    old = cube.cell(item_level, key, path_level)
                    weights = old.weights
                    members = [
                        (record.record_id, record.path)
                        for record in batch_groups[i][key]
                    ]
                    record_ids = old.record_ids + tuple(
                        [record_id for record_id, _ in members]
                    )
                    updated_cells += 1
                elif key in promoted[i]:
                    weights = {}
                    record_ids = tuple(promoted[i][key])
                    members = [(rid, paths[rid]) for rid in record_ids]
                    created_cells += 1
                else:
                    continue  # untouched: keep the existing entry verbatim
                if table is None:
                    table = cube.path_table
                add(weights, members, level_id)
                cell = dirty[(item_level, level_id, key)] = VectorCell(
                    key, item_level, path_level, record_ids, weights,
                    table.paths[level_id],
                )
                if mine:
                    triples.append(
                        (
                            cell.flowgraph,
                            PidCell(weights, table.postings[level_id]),
                            None,
                        )
                    )

    # ------------------------------------------------------------------
    # re-mine exceptions in the dirty cells only (Lemma 4.3)
    # ------------------------------------------------------------------
    if mine and triples:
        serial_exception_pass(cube.min_support, cube.min_deviation)(triples)

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
    counters["cells_promoted"] += sum(len(p) for p in promoted)
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
        "promoted": sum(len(p) for p in promoted),
        "demoted": demoted_cells,
        "still_below_delta": below,
    }
