"""Aggregate-once measure roll-up: how every flowcube is built.

A per-cell build would re-aggregate every record and rebuild every cell's
flowgraph once per (item level × path level) pair.  But an ancestor cell's
path multiset is exactly the disjoint union of its children's — the classic
algebraic roll-up of Gray et al.'s Data Cube, which the paper exploits in
§4.2 by splitting the measure into an algebraic flowgraph part (Lemma 4.2)
and a holistic exception part (Lemma 4.3).  One function, :func:`roll_up`,
builds the algebraic part for both builds, and leaves the holistic part
to each cell's first read:
:meth:`~repro.core.flowcube.FlowCube.build` hands it the whole database
as one batch, :func:`~repro.store.builder.build_cube` one partition at a
time.

1. **Scan once** (:func:`scan_records`): one pass over the records computes
   cell membership and one weighted vector per cell for the *root* item
   levels only.  RFID items move in bulk, so a path database holds far
   fewer distinct paths than records: an :class:`AggregationMemo` — the
   one door from a raw path to an id — aggregates each *distinct* path
   once per path level per build and interns the tuple of its level
   paths as one *joint id* in the build's :class:`PathTable`.  A record
   is counted once, whatever the number of path levels: a cell is one
   ``{joint id: weight}`` vector.
2. **Fold** (:func:`merge_scan`): partials fold into the build's totals
   in partition order, which keeps every first-seen order of a single
   scan.
3. **Derive ancestors** (:func:`derive_levels`): every other requested item
   level's per-cell data is rolled up from an already-materialised strict
   descendant chosen by :func:`derivation_plan` — record ids concatenate
   and joint-id weights add, which is all of Lemma 4.2: the vector is the
   distributive part of the measure and the flowgraph a function of it.
   No record is touched again and no graph is built.
4. **Prune** (:func:`prune_to_iceberg`): sub-iceberg cells, which
   derivation needed, are dropped.
5. **Assemble** (:func:`assemble_cuboid`, per (item level, path level)
   pair): cell construction, nothing else.  A cell leaves the roll-up as
   a :class:`~repro.core.flowcube.Cell` — its item cell's joint vector,
   shared by the cells at every path level, its level of the table and
   the cube's exception thresholds — whose ``{pid: weight}`` multiset at
   the level is mapped from the vector, and whose flowgraph is expanded
   from that, and its exceptions mined, at its first read: never by a
   build, which persists the joint vector itself.  The query planner
   derives a cuboid nobody materialised with steps 3–5 over the source
   cells' vectors.

Parity with a per-cell build is exact: counts are integers, distributions
are ratios of identical integers, and exceptions are mined per cell from
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
from repro.core.flowgraph_exceptions import resolve_min_support
from repro.core.lattice import (
    ItemLattice,
    ItemLevel,
    PathLattice,
    PathLevel,
    roll_up_key,
)
from repro.core.path import Path
from repro.errors import CubeError

__all__ = [
    "AggregationMemo",
    "PathTable",
    "LevelData",
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

#: One cell's weighted path multiset inside the roll-up: joint path id
#: (into the build's :class:`PathTable`) -> multiplicity, in first-seen
#: record order.  One vector serves the cell at every path level.
WeightedCell = dict[int, int]


class AggregationMemo:
    """The one door from a raw path to its joint id in a :class:`PathTable`.

    Items move in bulk, so records heavily share paths; aggregation depends
    on the path and the level only.  One memo serves one build (every
    partition of its scan), one append or one ``cube_from_json``, so each
    distinct path is aggregated once per path level, however many records,
    root levels or partitions carry it.
    """

    def __init__(self, path_lattice: PathLattice, table: "PathTable") -> None:
        self.path_levels: tuple[PathLevel, ...] = tuple(path_lattice)
        self.table = table
        self._by_path: dict[Path, int] = {}

    def joint_id(self, path: Path) -> int:
        """*path*'s joint id, interning its aggregation at every level on
        first sight.

        Goes through this module's :func:`aggregate_path` binding, which
        the tests monkeypatch to count calls.
        """
        jid = self._by_path.get(path)
        if jid is None:
            jid = self._by_path[path] = self.table.intern_joint(
                [aggregate_path(path, level) for level in self.path_levels]
            )
        return jid


class PathTable:
    """The roll-up's id space: aggregated paths per path level, and the
    *joint* ids a cell's one vector counts.

    ``paths[level_id][pid]`` is the aggregated path interned as ``pid`` at
    that level.  A joint id stands for one distinct tuple of a raw path's
    pids at every level — ``joint[level_id][jid]`` is its pid there — so a
    ``{joint id: weight}`` vector maps onto the multiset at any level
    (:attr:`~repro.core.flowcube.Cell.weights`).  Every lattice composes
    this way: where a coarse level is no function of level 0 (float sums,
    a level 0 that is not the finest), joint ids merely outnumber level-0
    paths.  Ids are dense and handed out in first-seen order
    (:class:`AggregationMemo`); nothing is ever ordered by id, so the
    insertion orders the parity contract rests on are those of the
    multisets themselves.

    The table is the algebraic roll-up's id space only: the holistic
    exception pass mines each cell over its own paths
    (:mod:`repro.perf.exception_kernel`).  The reverse maps — per level
    path → pid, and pid tuple → joint id — are built at a writer's first
    :meth:`intern`, so a reader that only maps vectors builds none.  A
    persisted cube keeps ``paths`` and ``joint`` on disk
    (:class:`~repro.store.cube_store.CubeStore`), and an append only ever
    extends them.
    """

    def __init__(self, n_path_levels: int) -> None:
        self._bind(
            [[] for _ in range(n_path_levels)],
            [[] for _ in range(n_path_levels)],
        )

    @classmethod
    def over(
        cls, levels: list[list[AggregatedPath]], joint: list[list[int]]
    ) -> "PathTable":
        """The table over lists a store loaded — shared, not copied, so
        interning extends them."""
        table = cls.__new__(cls)
        table._bind(levels, joint)
        return table

    def _bind(
        self, levels: list[list[AggregatedPath]], joint: list[list[int]]
    ) -> None:
        self.paths = levels
        self.joint = joint
        self._ids: list[dict[AggregatedPath, int]] | None = None

    def __reduce__(self):
        # A copy carries the id space; its maps are rebuilt on demand.
        return PathTable.over, (self.paths, self.joint)

    def _reverse_maps(self) -> list[dict[AggregatedPath, int]]:
        self._joint_ids = {
            pids: jid for jid, pids in enumerate(zip(*self.joint))
        }
        self._ids = [
            {path: pid for pid, path in enumerate(paths)}
            for paths in self.paths
        ]
        return self._ids

    @property
    def n_joint(self) -> int:
        """How many joint ids the table holds."""
        return len(self.joint[0]) if self.joint else 0

    def intern(self, level_id: int, path: AggregatedPath) -> int:
        """The id of *path* at path level *level_id* (next on first sight)."""
        ids = self._ids
        if ids is None:
            ids = self._reverse_maps()
        paths = self.paths[level_id]
        pid = ids[level_id].setdefault(path, len(paths))
        if pid == len(paths):
            paths.append(path)
        return pid

    def intern_joint(self, level_paths: Sequence[AggregatedPath]) -> int:
        """The joint id of one path aggregated to *level_paths* (one per
        level), interning each and the tuple on first sight."""
        pids = tuple(map(self.intern, range(len(level_paths)), level_paths))
        jid = self._joint_ids.get(pids)
        if jid is None:
            jid = self._joint_ids[pids] = self.n_joint
            for column, pid in zip(self.joint, pids):
                column.append(pid)
        return jid


@dataclass
class LevelData:
    """Everything the roll-up holds for one item level.

    ``groups`` and ``weighted`` carry *all* keys — including sub-iceberg
    ones — because an ancestor's cells must merge *every* child cell to
    conserve weight.  Nothing here is threshold-aware, nothing is per
    path level and nothing is a flowgraph: a level's multiset and its
    graph are functions of a cell's joint vector, computed where they are
    read (:class:`~repro.core.flowcube.Cell`).

    Attributes:
        groups: Cell key -> member record ids.
        weighted: Cell key -> weighted multiset of joint path ids
            (``{jid: weight}``, see :class:`PathTable`).
    """

    groups: dict[CellKey, list[int]]
    weighted: dict[CellKey, WeightedCell]


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
) -> tuple[list[dict[CellKey, list[int]]], list[dict[CellKey, WeightedCell]]]:
    """One pass over *records*: membership and joint vectors per root level.

    Each record's path becomes its joint id through *aggregation* — the
    memo a build shares across its partitions, so each distinct path is
    aggregated and interned once — and is counted once per root level,
    whatever the number of path levels.  Cell keys are memoised per
    distinct ``record.dims``.

    Returns:
        ``(groups, weighted)`` lists indexed like *root_levels*: per-level
        record-id groups and joint vectors.
    """
    joint_id = aggregation.joint_id
    groups: list[dict[CellKey, list[int]]] = [{} for _ in root_levels]
    weighted: list[dict[CellKey, WeightedCell]] = [{} for _ in root_levels]
    keys_cache: dict[tuple, list[CellKey]] = {}
    for record in records:
        keys = keys_cache.get(record.dims)
        if keys is None:
            keys = [
                roll_up_key(record.dims, root_level, hierarchies)
                for root_level in root_levels
            ]
            keys_cache[record.dims] = keys
        jid = joint_id(record.path)
        for key, members, cells in zip(keys, groups, weighted):
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = {}
                members[key] = [record.record_id]
            else:
                members[key].append(record.record_id)
            cell[jid] = cell.get(jid, 0) + 1
    return groups, weighted


def merge_scan(
    groups: list[dict[CellKey, list[int]]],
    weighted: list[dict[CellKey, WeightedCell]],
    part_groups: list[dict[CellKey, list[int]]],
    part_weighted: list[dict[CellKey, WeightedCell]],
) -> None:
    """Fold one :func:`scan_records` partial into the totals.

    Partitions preserve record order, so merging partials in partition
    order reproduces the single-scan first-seen key orders, record-id
    orders, and joint-id insertion orders exactly — the out-of-core
    roll-up build is therefore bit-identical to the in-memory one, which
    folds its one partial through here too.  A key the totals do not
    hold yet adopts the partial's list and vector.
    """
    for merged, part in zip(groups, part_groups):
        for key, ids in part.items():
            held = merged.get(key)
            if held is None:
                merged[key] = ids
            else:
                held.extend(ids)
    for merged, part in zip(weighted, part_weighted):
        for key, part_cell in part.items():
            cell = merged.get(key)
            if cell is None:
                merged[key] = part_cell
                continue
            for jid, weight in part_cell.items():
                cell[jid] = cell.get(jid, 0) + weight


def derive_level(
    level: ItemLevel, source: LevelData, hierarchies: Sequence
) -> LevelData:
    """Roll *source*'s per-cell data up to the ancestor *level*.

    Every source key maps to exactly one parent key, so parent cells are
    disjoint unions of child cells: record ids concatenate and joint-id
    weights add (Lemma 4.2 on its distributive part).  Iterating source
    keys in their first-seen record order makes each derived dict's key
    order match what a direct record scan at *level* would have produced,
    and each parent vector's order is its children's, concatenated — the
    order every path level's multiset is mapped from.  The query planner
    runs it over a materialised cuboid's cells.
    """
    key_map: dict[CellKey, CellKey] = {}
    groups: dict[CellKey, list[int]] = {}
    for child_key, record_ids in source.groups.items():
        parent_key = roll_up_key(child_key, level, hierarchies)
        key_map[child_key] = parent_key
        groups.setdefault(parent_key, []).extend(record_ids)
    cells: dict[CellKey, WeightedCell] = {}
    for child_key, weights in source.weighted.items():
        cell = cells.setdefault(key_map[child_key], {})
        for jid, weight in weights.items():
            cell[jid] = cell.get(jid, 0) + weight
    return LevelData(groups=groups, weighted=cells)


def derive_levels(
    plan: Sequence[tuple[ItemLevel, ItemLevel | None]],
    groups_by_root: list[dict[CellKey, list[int]]],
    weighted_by_root: list[dict[CellKey, WeightedCell]],
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
    realistic workloads, so it is dropped here, and its memory released
    before assembly.  Pruning keeps each dict's insertion order (a subset
    of it), leaving assembly's cell order untouched.
    """
    for level_data in data.values():
        groups = {
            key: record_ids
            for key, record_ids in level_data.groups.items()
            if not len(record_ids) < threshold
        }
        cells = level_data.weighted
        level_data.groups = groups
        level_data.weighted = {key: cells[key] for key in groups}


def assemble_cuboid(
    item_level: ItemLevel,
    path_level: PathLevel,
    members: Mapping[CellKey, tuple[int, ...]],
    cells: Mapping[CellKey, WeightedCell],
    table: PathTable,
    level_id: int,
    mining: tuple[float, float] | None,
) -> Cuboid:
    """One finished cuboid: a :class:`~repro.core.flowcube.Cell` per key
    of *members* (key -> sorted record ids) straight from its joint
    vector in *cells* over *table*, at path level *level_id*, mining
    its exceptions with *mining* — the cube's ``(δ, ε)``, or ``None`` —
    when first read.  No path tuple is touched and no graph built.
    """
    cuboid = Cuboid(item_level, path_level)
    for key, record_ids in members.items():
        cuboid.cells[key] = Cell(
            key, item_level, path_level, record_ids, cells[key], table,
            level_id, mining=mining,
        )
    return cuboid


def assemble_cuboids(
    levels: Sequence[ItemLevel],
    path_lattice: PathLattice,
    data: Mapping[ItemLevel, LevelData],
    table: PathTable,
    mining: tuple[float, float] | None,
) -> Iterator[Cuboid]:
    """Yield the cuboids of pruned *data* in (item level, path level)
    order, each from :func:`assemble_cuboid` over *table*.

    Membership is path-level independent, so the member-id sort runs
    once per item level, and the level's cuboids share each cell's
    ``record_ids`` tuple and joint vector.
    """
    for item_level in levels:
        level_data = data[item_level]
        members = {
            key: tuple(sorted(ids)) for key, ids in level_data.groups.items()
        }
        for level_id, path_level in enumerate(path_lattice):
            yield assemble_cuboid(
                item_level, path_level, members, level_data.weighted, table,
                level_id, mining,
            )


def roll_up(
    batches: Iterable[Sequence],
    table: PathTable,
    levels: Sequence[ItemLevel],
    path_lattice: PathLattice,
    hierarchies: Sequence,
    min_support: float,
    mining: tuple[float, float] | None,
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
        mining: The ``(δ, ε)`` the cells mine their exceptions with at
            first read, or ``None`` for a cube without them.
        stats: Optional sink with ``add_phase(name, seconds)``: the scan
            lands in ``aggregate``, and derivation plus assembly in
            ``materialize`` — a phase that ends when the last cuboid has
            been consumed, so it holds what the caller does with each
            cuboid too.

    Cuboids come out as :func:`assemble_cuboids` yields them.
    """
    plan = derivation_plan(levels)
    root_levels = [level for level, source in plan if source is None]

    phase = perf_counter()
    aggregation = AggregationMemo(path_lattice, table)
    groups_by_root: list[dict[CellKey, list[int]]] = [{} for _ in root_levels]
    weighted_by_root: list[dict[CellKey, WeightedCell]] = [
        {} for _ in root_levels
    ]
    n_records = 0
    for batch in batches:
        n_records += len(batch)
        merge_scan(
            groups_by_root, weighted_by_root,
            *scan_records(batch, aggregation, root_levels, hierarchies),
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
    yield from assemble_cuboids(levels, path_lattice, data, table, mining)
    if stats is not None:
        stats.add_phase("materialize", perf_counter() - phase)
