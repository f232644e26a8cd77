"""Aggregate-once measure roll-up: how every flowcube is built.

A per-cell build would re-aggregate every record and rebuild every cell's
flowgraph once per (item level × path level) pair.  But an ancestor cell's
path multiset is exactly the disjoint union of its children's — the classic
algebraic roll-up of Gray et al.'s Data Cube, which the paper exploits in
§4.2 by splitting the measure into an algebraic flowgraph part (Lemma 4.2)
and a holistic exception part (Lemma 4.3).  One function, :func:`roll_up`,
does the split end to end for both builds:
:meth:`~repro.core.flowcube.FlowCube.build` hands it the whole database
as one batch, :func:`~repro.store.builder.build_cube` one partition at a
time.

1. **Scan once** (:func:`scan_records`): one pass over the records computes
   cell membership and weighted base paths for the *root* item levels only.
   RFID items move in bulk, so a path database holds far fewer distinct
   paths than records: an :class:`AggregationMemo` aggregates each
   *distinct* path once per path level per build — shared across root
   levels, records and partitions — and identical aggregated paths dedupe
   into ``(path, weight)`` pairs as they are counted.
2. **Paths become ids** (:func:`merge_scan`): partials fold into the
   build's totals in partition order, and this is the single door where an
   aggregated path — a nested ``((location, duration), …)`` tuple whose
   hash is recomputed on every dict probe — is interned into a
   :class:`PathTable` and replaced by a small int.  From here on a cell's
   multiset is ``{path id: weight}``.
3. **Derive ancestors** (:func:`derive_levels`): every other requested item
   level's per-cell data is rolled up from an already-materialised strict
   descendant chosen by :func:`derivation_plan` — record ids concatenate
   and path-id weights add, which is all of Lemma 4.2: the vector is the
   distributive part of the measure and the flowgraph a function of it.
   No record is touched again and no graph is built.
4. **Prune** (:func:`prune_to_iceberg`): sub-iceberg cells, which
   derivation needed, are dropped.
5. **Assemble** (:func:`assemble_cuboid`, per (item level, path level)
   pair): cell construction and the per-cell holistic exception pass.  A
   cell leaves the roll-up as a :class:`VectorCell` — its ``{pid:
   weight}`` over the level's path list — whose flowgraph is expanded
   where one is consumed: by the exception pass (handed a
   :class:`~repro.perf.exception_kernel.PidCell` over the same vector and
   the level's postings, which the table owns too), at its first read in
   an in-memory cube, and never by a store build without exceptions,
   which persists the vector itself.  The query planner derives a cuboid
   nobody materialised with steps 3–5 over the source cells' vectors.

Parity with a per-cell build is exact: counts are integers, distributions
are ratios of identical integers, and exceptions are re-mined per cell from
the weighted paths then canonically sorted, so serialised cubes are
byte-identical to the per-cell oracle the test suite keeps.  Batches fold
in order, which reproduces the single-scan insertion orders exactly (ids
are handed out in first-seen order and never order anything) — so
in-memory and out-of-core builds agree.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from time import perf_counter

from repro.core.aggregation import AggregatedPath, aggregate_path
from repro.core.flowcube import Cell, CellKey, Cuboid
from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import (
    Segment,
    resolve_min_support,
    serial_exception_pass,
)
from repro.core.lattice import (
    ItemLattice,
    ItemLevel,
    PathLattice,
    PathLevel,
    roll_up_key,
)
from repro.core.path import Path
from repro.errors import CubeError
from repro.perf.exception_kernel import PathPostings, PidCell

__all__ = [
    "AggregationMemo",
    "PathTable",
    "LevelData",
    "VectorCell",
    "requested_levels",
    "derivation_plan",
    "scan_records",
    "merge_scan",
    "derive_level",
    "derive_levels",
    "prune_to_iceberg",
    "assemble_cuboid",
    "assemble_cuboids",
    "roll_up",
]

#: One cell's weighted path multiset as :func:`scan_records` returns it:
#: distinct aggregated path -> multiplicity, insertion-ordered (first-seen
#: record order).
ScannedCell = dict[AggregatedPath, int]

#: One cell's weighted path multiset inside the roll-up: path id (into the
#: build's :class:`PathTable`, per path level) -> multiplicity, in the same
#: first-seen order.  An int key hashes to itself; the tuple it stands for
#: re-hashes every nested stage on every probe.
WeightedCell = dict[int, int]


class AggregationMemo:
    """Each distinct path's aggregation at every level of one path lattice.

    Items move in bulk, so records heavily share paths; aggregation depends
    on the path and the level only.  One memo serves one build (every
    partition of a serial scan; one per worker process, rebound with the
    store), so each distinct path is aggregated once per path
    level however many records, root levels or partitions carry it.  It
    holds one reference per distinct path seen — the same order of memory
    as the finest level's multisets.
    """

    def __init__(self, path_lattice: PathLattice) -> None:
        self.path_levels: tuple[PathLevel, ...] = tuple(path_lattice)
        self._by_path: dict[Path, list[AggregatedPath]] = {}

    def aggregated(self, path: Path) -> list[AggregatedPath]:
        """*path* aggregated to each path level, indexed by level id.

        Goes through this module's :func:`aggregate_path` binding, which
        the tests monkeypatch to count calls.
        """
        out = self._by_path.get(path)
        if out is None:
            out = self._by_path[path] = [
                aggregate_path(path, path_level)
                for path_level in self.path_levels
            ]
        return out


class PathTable:
    """The roll-up's id space for aggregated paths, one per path level.

    ``paths[level_id][pid]`` is the aggregated path interned as ``pid`` at
    that level and ``ids[level_id]`` the reverse map.  Ids are dense and
    handed out in first-seen order (:func:`merge_scan`, :meth:`intern`);
    nothing is ever ordered by id, so the insertion orders the parity
    contract rests on are those of the multisets themselves.

    The table owns the id space for both halves of the measure: the
    algebraic roll-up counts ``{pid: weight}`` cells, and the holistic
    pass reads the same cells as bit sets — ``postings[level_id]`` is the
    level's :class:`~repro.perf.exception_kernel.PathPostings`, sharing
    this table's ``paths`` / ``ids`` and indexing a path's stages the
    first time a cell is mined after it was interned (never, with
    exceptions off).  A persisted cube keeps the table's ``paths`` on
    disk (:class:`~repro.store.cube_store.CubeStore`): its cell records
    are vectors over these ids, and an append only ever extends them.
    """

    def __init__(self, n_path_levels: int) -> None:
        self._bind([[] for _ in range(n_path_levels)])

    @classmethod
    def over(cls, levels: list[list[AggregatedPath]]) -> "PathTable":
        """The table whose id space is *levels* — path lists a store
        loaded; they are shared, not copied, so interning extends them."""
        table = cls.__new__(cls)
        table._bind(levels)
        return table

    def _bind(self, levels: list[list[AggregatedPath]]) -> None:
        self.paths = levels
        self.ids: list[dict[AggregatedPath, int]] = [
            {path: pid for pid, path in enumerate(paths)} for paths in levels
        ]
        self.postings: list[PathPostings] = [
            PathPostings(paths, ids)
            for paths, ids in zip(self.paths, self.ids)
        ]

    def intern(self, level_id: int, path: AggregatedPath) -> int:
        """The id of *path* at path level *level_id* (next on first sight)."""
        return self.postings[level_id].intern(path)


@dataclass
class LevelData:
    """Everything the roll-up holds for one item level.

    ``groups`` and ``weighted`` carry *all* keys — including sub-iceberg
    ones — because an ancestor's cells must merge *every* child cell to
    conserve weight.  Nothing here is threshold-aware and nothing is a
    flowgraph: a graph is a function of a cell's vector, computed where
    it is read (:class:`VectorCell`).

    Attributes:
        groups: Cell key -> member record ids.
        weighted: Per path level: cell key -> weighted multiset of path
            ids (``{pid: weight}``, see :class:`PathTable`).
    """

    groups: dict[CellKey, list[int]]
    weighted: list[dict[CellKey, WeightedCell]]


class VectorCell(Cell):
    """A cell held as the distributive part of its measure.

    ``weights`` is the cell's ``{pid: weight}`` and ``level_paths`` the
    path list the ids index (its level of a :class:`PathTable`).  The
    flowgraph — the algebraic part, a function of the vector by Lemma
    4.2 — is expanded at its first read and kept; ``paths`` renders the
    vector as ``(path, weight)`` pairs.  A store persists the vector and
    so never reads ``flowgraph`` for an exception-free build.
    """

    def __init__(
        self,
        key: CellKey,
        item_level: ItemLevel,
        path_level: PathLevel,
        record_ids: tuple[int, ...],
        weights: WeightedCell,
        level_paths: Sequence[AggregatedPath],
    ) -> None:
        self.key = key
        self.item_level = item_level
        self.path_level = path_level
        self.record_ids = record_ids
        self.redundant = False
        self.weights = weights
        self.level_paths = level_paths
        self._graph: FlowGraph | None = None

    @property
    def paths(self):
        level_paths = self.level_paths
        return tuple(
            [(level_paths[pid], weight) for pid, weight in self.weights.items()]
        )

    @property
    def flowgraph(self) -> FlowGraph:
        graph = self._graph
        if graph is None:
            # The routine a stored cell expands with, so a graph reads
            # the same whichever cube — or derivation — holds the vector.
            graph = self._graph = FlowGraph.expand(self.paths)
        return graph

    @property
    def exceptions(self) -> list:
        """The mined exceptions, without expanding a graph to ask: a
        graph nobody read cannot have been mined."""
        return [] if self._graph is None else self._graph.exceptions


def requested_levels(
    item_lattice: ItemLattice, item_levels: Iterable[ItemLevel] | None
) -> list[ItemLevel]:
    """The item levels a build materialises, each once, in request order.

    ``None`` asks for the whole lattice.  A level listed twice is one
    level: its cuboids are built, counted and persisted once.  Raises
    :class:`~repro.errors.CubeError` for a level outside the lattice —
    before a build reads or stages anything.
    """
    if item_levels is None:
        return list(item_lattice)
    levels = list(dict.fromkeys(item_levels))
    for item_level in levels:
        if item_level not in item_lattice:
            raise CubeError(f"item level {item_level!r} outside the lattice")
    return levels


def derivation_plan(
    levels: Iterable[ItemLevel],
) -> list[tuple[ItemLevel, ItemLevel | None]]:
    """Order the requested item levels for bottom-up derivation.

    Returns ``(level, source)`` pairs, deepest levels first.  ``source`` is
    the shallowest already-planned strict descendant — the cheapest level
    whose cells partition this one's records — or ``None`` for a *root*
    level that must be materialised from the records themselves.  With the
    full lattice requested only the base level is a root; arbitrary subsets
    (partial materialisation plans) degrade gracefully to multiple roots.
    """
    ordered = sorted(
        dict.fromkeys(levels), key=lambda lv: (-sum(lv.levels), lv.levels)
    )
    plan: list[tuple[ItemLevel, ItemLevel | None]] = []
    placed: list[ItemLevel] = []
    for level in ordered:
        descendants = [
            p for p in placed if p != level and level.is_higher_or_equal(p)
        ]
        source = (
            min(descendants, key=lambda lv: (sum(lv.levels), lv.levels))
            if descendants
            else None
        )
        plan.append((level, source))
        placed.append(level)
    return plan


def scan_records(
    records: Iterable,
    aggregation: AggregationMemo,
    root_levels: Sequence[ItemLevel],
    hierarchies: Sequence,
) -> tuple[list[dict[CellKey, list[int]]], list[list[dict[CellKey, ScannedCell]]]]:
    """One pass over *records*: membership and weighted paths per root level.

    Each *distinct* path is aggregated once per path level for the life of
    *aggregation* — the memo a build shares across its partitions — and
    the result is shared across all root levels.  Cell keys are memoised
    per distinct ``record.dims``.  The partial is keyed by plain tuples, so
    a worker can pickle it back; :func:`merge_scan` interns it.

    Returns:
        ``(groups, weighted)`` lists indexed like *root_levels*: per-level
        record-id groups and, per path level, the weighted path multisets.
    """
    n_path_levels = len(aggregation.path_levels)
    aggregated_of = aggregation.aggregated
    groups: list[dict[CellKey, list[int]]] = [{} for _ in root_levels]
    weighted: list[list[dict[CellKey, ScannedCell]]] = [
        [{} for _ in range(n_path_levels)] for _ in root_levels
    ]
    keys_cache: dict[tuple, list[CellKey]] = {}
    for record in records:
        keys = keys_cache.get(record.dims)
        if keys is None:
            keys = [
                roll_up_key(record.dims, root_level, hierarchies)
                for root_level in root_levels
            ]
            keys_cache[record.dims] = keys
        aggregated = aggregated_of(record.path)
        for index, key in enumerate(keys):
            groups[index].setdefault(key, []).append(record.record_id)
            per_level = weighted[index]
            for level_id, path in enumerate(aggregated):
                cell = per_level[level_id].setdefault(key, {})
                cell[path] = cell.get(path, 0) + 1
    return groups, weighted


def merge_scan(
    groups: list[dict[CellKey, list[int]]],
    weighted: list[list[dict[CellKey, WeightedCell]]],
    part_groups: list[dict[CellKey, list[int]]],
    part_weighted: list[list[dict[CellKey, ScannedCell]]],
    table: PathTable,
) -> None:
    """Fold one :func:`scan_records` partial into the totals, interning paths.

    Partitions preserve record order, so merging partials in partition
    order reproduces the single-scan first-seen key orders, record-id
    orders, and path insertion orders exactly — the out-of-core roll-up
    build is therefore bit-identical to the in-memory one, which folds its
    one partial through here too.  This is where aggregated paths become
    ids: each is looked up in *table* (interned on first sight) and the
    totals count weights per id.
    """
    for merged, part in zip(groups, part_groups):
        for key, ids in part.items():
            merged.setdefault(key, []).extend(ids)
    for merged_levels, part_levels in zip(weighted, part_weighted):
        for level_id, part_cells in enumerate(part_levels):
            merged_cells = merged_levels[level_id]
            ids = table.ids[level_id]
            paths = table.paths[level_id]
            for key, part_paths in part_cells.items():
                cell = merged_cells.setdefault(key, {})
                for path, weight in part_paths.items():
                    pid = ids.setdefault(path, len(paths))
                    if pid == len(paths):
                        paths.append(path)
                    cell[pid] = cell.get(pid, 0) + weight


def derive_level(
    level: ItemLevel, source: LevelData, hierarchies: Sequence
) -> LevelData:
    """Roll *source*'s per-cell data up to the ancestor *level*.

    Every source key maps to exactly one parent key, so parent cells are
    disjoint unions of child cells: record ids concatenate and path-id
    weights add (Lemma 4.2 on its distributive part).  Iterating source
    keys in their first-seen record order makes each derived dict's key
    order — and each vector's pid order — match what a direct record
    scan at *level* would have produced.  The query planner runs it over
    a materialised cuboid's cells, one path level wide.
    """
    key_map: dict[CellKey, CellKey] = {}
    groups: dict[CellKey, list[int]] = {}
    for child_key, record_ids in source.groups.items():
        parent_key = roll_up_key(child_key, level, hierarchies)
        key_map[child_key] = parent_key
        groups.setdefault(parent_key, []).extend(record_ids)
    weighted: list[dict[CellKey, WeightedCell]] = []
    for source_cells in source.weighted:
        cells: dict[CellKey, WeightedCell] = {}
        for child_key, weights in source_cells.items():
            cell = cells.setdefault(key_map[child_key], {})
            for pid, weight in weights.items():
                cell[pid] = cell.get(pid, 0) + weight
        weighted.append(cells)
    return LevelData(groups=groups, weighted=weighted)


def derive_levels(
    plan: Sequence[tuple[ItemLevel, ItemLevel | None]],
    groups_by_root: list[dict[CellKey, list[int]]],
    weighted_by_root: list[list[dict[CellKey, WeightedCell]]],
    root_levels: Sequence[ItemLevel],
    hierarchies: Sequence,
) -> dict[ItemLevel, LevelData]:
    """Materialise :class:`LevelData` for every planned level, roots first.

    *groups_by_root* / *weighted_by_root* are :func:`merge_scan`'s totals.
    """
    index_of_root = {level: i for i, level in enumerate(root_levels)}
    data: dict[ItemLevel, LevelData] = {}
    for level, source in plan:
        if source is None:
            i = index_of_root[level]
            data[level] = LevelData(
                groups=groups_by_root[i], weighted=weighted_by_root[i]
            )
        else:
            data[level] = derive_level(level, data[source], hierarchies)
    return data


def prune_to_iceberg(
    data: Mapping[ItemLevel, LevelData], threshold: float
) -> None:
    """Drop sub-iceberg cells from every level, in place.

    Derivation needs *all* child cells to conserve ancestor weights, but
    once every level is derived only iceberg-surviving cells are ever
    read again.  The sub-threshold tail is the bulk of the keys on
    realistic workloads, so it is dropped here.  In an in-memory build
    (:meth:`FlowCube.build <repro.core.flowcube.FlowCube.build>`, which
    runs on the default collector) keeping it alive through assembly
    makes the holistic exception pass measurably slower just by inflating
    the heap the cyclic GC has to traverse; a store build pauses that
    collector (:mod:`repro.perf.collector`), and there the prune only
    releases the memory early.  Pruning keeps each dict's insertion order
    (a subset of it), leaving assembly's cell order untouched.
    """
    for level_data in data.values():
        groups = {
            key: record_ids
            for key, record_ids in level_data.groups.items()
            if not len(record_ids) < threshold
        }
        level_data.groups = groups
        level_data.weighted = [
            {key: cells[key] for key in groups}
            for cells in level_data.weighted
        ]


def assemble_cuboid(
    item_level: ItemLevel,
    path_level: PathLevel,
    members: Mapping[CellKey, tuple[int, ...]],
    cells: Mapping[CellKey, WeightedCell],
    paths: Sequence[AggregatedPath],
    postings: PathPostings | None,
    segments_by_cell: Mapping | None,
    exception_pass=None,
) -> Cuboid:
    """One finished cuboid: a :class:`VectorCell` per key of *members*
    (key -> sorted record ids) straight from its ``{pid: weight}`` in
    *cells* over the path list *paths* — no path tuple is touched and no
    graph built without an *exception_pass*: a ``run(batch)`` callable
    over ``(graph, weighted, segments)`` triples whose *graph* is the
    cell's, expanded for the pass, and *weighted* its vector wrapped with
    the level's *postings* (see
    :func:`~repro.core.flowgraph_exceptions.serial_exception_pass`).
    """
    cuboid = Cuboid(item_level, path_level)
    batch = []
    for key, record_ids in members.items():
        weights = cells[key]
        cell = VectorCell(
            key, item_level, path_level, record_ids, weights, paths
        )
        if exception_pass is not None:
            segments = None
            if segments_by_cell is not None:
                segments = segments_by_cell.get((item_level, path_level, key))
            batch.append((cell.flowgraph, PidCell(weights, postings), segments))
        cuboid.cells[key] = cell
    if batch:
        exception_pass(batch)
    return cuboid


def assemble_cuboids(
    levels: Sequence[ItemLevel],
    path_lattice: PathLattice,
    data: Mapping[ItemLevel, LevelData],
    table: PathTable,
    segments_by_cell: Mapping[
        tuple[ItemLevel, PathLevel, CellKey], Sequence[Segment]
    ]
    | None,
    exception_pass=None,
) -> Iterator[Cuboid]:
    """Yield the cuboids of pruned *data* in (item level, path level)
    order, each from :func:`assemble_cuboid` over *table*'s level.

    Membership is path-level independent, so the member-id sort runs
    once per item level and the level's cuboids share each cell's
    ``record_ids`` tuple.
    """
    for item_level in levels:
        level_data = data[item_level]
        members = {
            key: tuple(sorted(ids)) for key, ids in level_data.groups.items()
        }
        for level_id, path_level in enumerate(path_lattice):
            yield assemble_cuboid(
                item_level, path_level, members,
                level_data.weighted[level_id], table.paths[level_id],
                table.postings[level_id], segments_by_cell, exception_pass,
            )


def roll_up(
    batches: Iterable[Sequence],
    table: PathTable,
    levels: Sequence[ItemLevel],
    path_lattice: PathLattice,
    hierarchies: Sequence,
    min_support: float,
    min_deviation: float,
    compute_exceptions: bool,
    segments_by_cell: Mapping[
        tuple[ItemLevel, PathLevel, CellKey], Sequence[Segment]
    ]
    | None,
    stats: object | None = None,
) -> Iterator[Cuboid]:
    """The roll-up build: scan, merge, derive, prune, and yield cuboids.

    Args:
        batches: The database's records in order, in batches — the whole
            database as one, or one partition at a time.  Each batch is
            scanned (:func:`scan_records`, one :class:`AggregationMemo`
            for them all) and folded into the totals (:func:`merge_scan`)
            before the next is drawn.
        table: The :class:`PathTable` the scan interns into.  The caller
            owns it: a store persists it as the cube's path table.
        levels: The item levels to build, from :func:`requested_levels`.
        min_support: δ, fractional (<1) or absolute, resolved against the
            number of records the batches held.
        stats: Optional sink with ``add_phase(name, seconds)``: the scan
            lands in ``aggregate``, the holistic pass in ``exceptions``,
            and derivation plus assembly in ``materialize`` — a phase
            that ends when the last cuboid has been consumed, so it holds
            what the caller does with each cuboid too.

    The remaining arguments are :meth:`FlowCube.build
    <repro.core.flowcube.FlowCube.build>`'s.  Cuboids come out as
    :func:`assemble_cuboids` yields them.
    """
    plan = derivation_plan(levels)
    root_levels = [level for level, source in plan if source is None]

    phase = perf_counter()
    aggregation = AggregationMemo(path_lattice)
    groups_by_root: list[dict[CellKey, list[int]]] = [{} for _ in root_levels]
    weighted_by_root: list[list[dict[CellKey, WeightedCell]]] = [
        [{} for _ in path_lattice] for _ in root_levels
    ]
    n_records = 0
    for batch in batches:
        n_records += len(batch)
        merge_scan(
            groups_by_root, weighted_by_root,
            *scan_records(batch, aggregation, root_levels, hierarchies),
            table,
        )
    batch = None  # the last partition is not held through assembly
    if stats is not None:
        stats.add_phase("aggregate", perf_counter() - phase)

    phase = perf_counter()
    threshold = resolve_min_support(min_support, n_records)
    data = derive_levels(
        plan, groups_by_root, weighted_by_root, root_levels, hierarchies
    )
    prune_to_iceberg(data, threshold)
    del groups_by_root, weighted_by_root
    runner = (
        serial_exception_pass(min_support, min_deviation)
        if compute_exceptions
        else None
    )
    yield from assemble_cuboids(
        levels, path_lattice, data, table, segments_by_cell,
        exception_pass=runner,
    )
    if stats is not None:
        exception_seconds = runner.seconds if runner is not None else 0.0
        if compute_exceptions:
            stats.add_phase("exceptions", exception_seconds)
        stats.add_phase(
            "materialize", perf_counter() - phase - exception_seconds
        )
