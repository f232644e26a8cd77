"""Incremental flowcube maintenance (an extension enabled by Lemma 4.2).

RFID data arrives continuously; rebuilding the cube per batch is wasteful.
Lemma 4.2 says the algebraic part of the measure — the per-node duration
and transition counts — supports additive updates, so appending a batch of
new paths touches only the affected cells' counters.  The holistic part
(exceptions) must be re-mined, but only in the cells the batch touched.

The iceberg frontier can move in *both* directions:

* a key that was below δ may cross it once the batch lands — its cell is
  materialised from scratch (the cube's ``database`` stays the source of
  truth), and inserted in first-seen record order so the updated cube is
  indistinguishable from a rebuild;
* with a *fractional* δ the resolved threshold grows with the database,
  so untouched cells can fall below it — those are demoted (dropped),
  again matching what a rebuild would produce.

Frontier checks group the whole database **once per item level** and
reuse that grouping across every path level sharing it (a cuboid is an
⟨item level, path level⟩ pair), so appends cost one database pass per
item level with promotion candidates instead of the old
O(|cuboids| × |database|) per-key rescan.  Redundancy marks are
invalidated in touched cells (a cell may stop — or start — matching its
parents).

The store-backed counterpart — delta segments over the persisted binary
heap — lives in :mod:`repro.store.append` and follows the same promotion
/ demotion / ordering rules against :class:`~repro.store.CubeStore`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.aggregation import aggregate_path, weight_paths
from repro.core.flowcube import Cell, FlowCube
from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import (
    mine_exceptions_weighted,
    resolve_min_support,
)
from repro.core.lattice import ItemLevel, roll_up_key
from repro.core.path import Path, PathRecord
from repro.errors import CubeError

__all__ = ["append_batch"]


def append_batch(
    cube: FlowCube,
    batch: Sequence[PathRecord],
    recompute_exceptions: bool = True,
) -> dict[str, int]:
    """Fold a batch of new path records into a materialised cube.

    Args:
        cube: The cube to update (its ``database`` is extended in place).
        batch: New records; ids must not collide with existing ones.
        recompute_exceptions: Re-mine (ε, δ) exceptions in touched cells.

    Returns:
        Update statistics: ``{"updated": ..., "created": ...,
        "still_below_delta": ..., "demoted": ...}`` cell counts.

    Raises:
        CubeError: On record-id collisions or schema mismatch.
    """
    if not batch:
        return {
            "updated": 0,
            "created": 0,
            "still_below_delta": 0,
            "demoted": 0,
        }
    database = cube.database
    existing_ids = {record.record_id for record in database}
    for record in batch:
        if record.record_id in existing_ids:
            raise CubeError(f"record id {record.record_id} already in the cube")
        if len(record.dims) != database.schema.n_dimensions:
            raise CubeError(
                f"record {record.record_id} has {len(record.dims)} dimensions, "
                f"schema defines {database.schema.n_dimensions}"
            )

    # Extend the backing database (source of truth for from-scratch cells).
    database._records.extend(batch)  # noqa: SLF001 - cube owns its database
    threshold = resolve_min_support(cube.min_support, len(database))
    hierarchies = database.schema.dimensions

    # Group the batch once per distinct item level; every path level of
    # that item level reuses the grouping.
    batch_groups: dict[ItemLevel, dict[tuple[str, ...], list[PathRecord]]] = {}
    for cuboid in cube.cuboids:
        if cuboid.item_level in batch_groups:
            continue
        groups: dict[tuple[str, ...], list[PathRecord]] = {}
        for record in batch:
            key = roll_up_key(record.dims, cuboid.item_level, hierarchies)
            groups.setdefault(key, []).append(record)
        batch_groups[cuboid.item_level] = groups

    # Full-database groupings, computed lazily — only for item levels
    # with promotion candidates, and at most once each.
    full_groups: dict[ItemLevel, dict[tuple[str, ...], list[int]]] = {}

    def membership(item_level: ItemLevel) -> dict[tuple[str, ...], list[int]]:
        groups = full_groups.get(item_level)
        if groups is None:
            groups = cube._group_records(item_level)  # noqa: SLF001
            full_groups[item_level] = groups
        return groups

    # Aggregated batch paths, memoised per (record, path level).
    agg_cache: dict[tuple[int, object], Path] = {}

    def aggregated(record: PathRecord, path_level) -> Path:
        memo_key = (record.record_id, path_level)
        path = agg_cache.get(memo_key)
        if path is None:
            path = aggregate_path(record.path, path_level)
            agg_cache[memo_key] = path
        return path

    updated = created = below = demoted = 0
    for cuboid in cube.cuboids:
        groups = batch_groups[cuboid.item_level]
        touched: list[Cell] = []
        candidates: list[tuple[tuple[str, ...], list[PathRecord]]] = []
        for key, records in groups.items():
            cell = cuboid.cells.get(key)
            if cell is None:
                candidates.append((key, records))
                continue
            new_paths = tuple(
                aggregated(r, cuboid.path_level) for r in records
            )
            for path in new_paths:
                cell.flowgraph.add_path(path)
            cell.record_ids = cell.record_ids + tuple(
                r.record_id for r in records
            )
            # Fold the batch into the weighted (path, weight) multiset,
            # preserving first-seen order for the existing entries.
            merged: dict = dict(cell.paths)
            for path in new_paths:
                merged[path] = merged.get(path, 0) + 1
            cell.paths = tuple(merged.items())
            cell.redundant = False  # marks are stale for touched cells
            updated += 1
            touched.append(cell)

        promoted_any = False
        if candidates:
            full = membership(cuboid.item_level)
            for key, _records in candidates:
                member_ids = full.get(key, ())
                if len(member_ids) < threshold:
                    below += 1
                    continue
                weighted = weight_paths(
                    aggregate_path(database[rid].path, cuboid.path_level)
                    for rid in member_ids
                )
                graph = FlowGraph()
                for path, weight in weighted:
                    graph.add_path(path, weight)
                cell = Cell(
                    key=key,
                    item_level=cuboid.item_level,
                    path_level=cuboid.path_level,
                    record_ids=tuple(member_ids),
                    flowgraph=graph,
                    paths=weighted,
                )
                cuboid.cells[key] = cell
                created += 1
                promoted_any = True
                touched.append(cell)

        # A rising threshold (fractional δ over a grown database) can
        # drop cells below the frontier — demote them, as a rebuild
        # would.  Touched cells are filtered too: a merge may not keep
        # pace with the threshold.
        for key in [
            key
            for key, cell in cuboid.cells.items()
            if cell.n_paths < threshold
        ]:
            del cuboid.cells[key]
            demoted += 1

        if promoted_any:
            # Restore first-seen record order: a promoted cell slots in
            # where a rebuild would have placed it, not at the end.
            order = membership(cuboid.item_level)
            cuboid.cells = {
                key: cuboid.cells[key]
                for key in order
                if key in cuboid.cells
            }

        if recompute_exceptions:
            for cell in touched:
                if cell.key not in cuboid.cells:
                    continue  # demoted after all
                mine_exceptions_weighted(
                    cell.flowgraph,
                    list(cell.paths),
                    min_support=cube.min_support,
                    min_deviation=cube.min_deviation,
                )
    cube.version += 1
    return {
        "updated": updated,
        "created": created,
        "still_below_delta": below,
        "demoted": demoted,
    }
