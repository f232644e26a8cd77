"""Aggregate-once measure engine: lattice roll-up materialisation.

The direct builder (:meth:`repro.core.flowcube.FlowCube.build` with
``engine="direct"``) re-aggregates every record and rebuilds every cell's
flowgraph once per (item level × path level) pair.  But an ancestor cell's
path multiset is exactly the disjoint union of its children's — the classic
algebraic roll-up of Gray et al.'s Data Cube, which the paper exploits in
§4.2 by splitting the measure into an algebraic flowgraph part (Lemma 4.2)
and a holistic exception part (Lemma 4.3).  This engine does the split end
to end:

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
   descendant chosen by :func:`derivation_plan` — record ids concatenate,
   path-id weights add, and iceberg-surviving cells get flowgraphs either
   by :meth:`FlowGraph.merge` of their children's graphs or by expanding
   their merged weighted multiset (equivalent by Lemma 4.2; sub-iceberg
   cells never pay for a graph).  No record is touched again.
4. **Assemble** (:func:`assemble_cuboids`): iceberg filtering, cell
   construction, and the per-cell holistic exception pass, in exactly the
   direct builder's cuboid and cell order.  Ids turn back into tuples for
   ``Cell.paths`` and in :func:`_cell_graph` only — where a cell leaves
   the engine — and every cell shares the table's one tuple object per
   distinct path.  The exception pass is handed the ids themselves: a
   :class:`~repro.perf.exception_kernel.PidCell` over the cell's
   ``{pid: weight}`` and the level's postings, which the table owns too.

Parity with the direct engine is exact: counts are integers, distributions
are ratios of identical integers, and exceptions are re-mined per cell from
the weighted paths then canonically sorted, so serialised cubes are
byte-identical across engines (asserted by the property tests).  The
out-of-core builder (:func:`repro.store.builder.build_cube`) runs
:func:`scan_records` per partition and :func:`merge_scan` folds the
partials in partition order, which reproduces the single-scan insertion
orders exactly (ids are handed out in first-seen order and never order
anything) — so in-memory, serial, and ``jobs=N`` roll-up builds all agree.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from time import perf_counter

from repro.core.aggregation import AggregatedPath, aggregate_path
from repro.core.flowcube import Cell, CellKey, Cuboid
from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import (
    EXCEPTION_KERNELS,
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
    "ENGINES",
    "AggregationMemo",
    "PathTable",
    "LevelData",
    "derivation_plan",
    "scan_records",
    "merge_scan",
    "derive_levels",
    "prune_to_iceberg",
    "assemble_cuboids",
    "build_rollup",
]

#: Measure engines accepted by ``FlowCube.build`` / ``build_cube``.
ENGINES = ("rollup", "direct")

#: One cell's weighted path multiset as :func:`scan_records` returns it:
#: distinct aggregated path -> multiplicity, insertion-ordered (first-seen
#: record order).  Plain tuples, so a partial pickles across the pool.
ScannedCell = dict[AggregatedPath, int]

#: One cell's weighted path multiset inside the engine: path id (into the
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
    exceptions off).
    """

    def __init__(self, n_path_levels: int) -> None:
        self.ids: list[dict[AggregatedPath, int]] = [
            {} for _ in range(n_path_levels)
        ]
        self.paths: list[list[AggregatedPath]] = [
            [] for _ in range(n_path_levels)
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
    """Everything the engine holds for one item level.

    ``groups`` and ``weighted`` carry *all* keys — including sub-iceberg
    ones — because an ancestor's cells must merge *every* child cell to
    conserve weight.  ``graphs`` is the one threshold-aware structure:
    flowgraphs cost real work to build and are only ever read for cells
    that pass the iceberg threshold, so they exist only for those keys —
    an ancestor whose children carry graphs merges them, any other
    materialised cell expands its graph from its weighted multiset.  (On
    the bench workload most keys sit below the threshold; building their
    graphs anyway made the roll-up engine *slower* than the direct
    builder.)

    Attributes:
        groups: Cell key -> member record ids.
        weighted: Per path level: cell key -> weighted multiset of path
            ids (``{pid: weight}``, see :class:`PathTable`).
        graphs: Per path level: cell key -> the cell's flowgraph, for
            keys meeting the iceberg threshold only.
    """

    groups: dict[CellKey, list[int]]
    weighted: list[dict[CellKey, WeightedCell]]
    graphs: list[dict[CellKey, FlowGraph]]


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


def _cell_graph(
    weights: WeightedCell, paths: Sequence[AggregatedPath]
) -> FlowGraph:
    """One cell's flowgraph, expanded from its weighted path-id multiset."""
    graph = FlowGraph()
    for pid, weight in weights.items():
        graph.add_path(paths[pid], weight)
    return graph


def _root_graphs(
    groups: dict[CellKey, list[int]],
    weighted_levels: list[dict[CellKey, WeightedCell]],
    table: PathTable,
    threshold: float,
) -> list[dict[CellKey, FlowGraph]]:
    """Flowgraphs for each root cell at or above the iceberg *threshold*."""
    return [
        {
            key: _cell_graph(weights, paths)
            for key, weights in cells.items()
            if not len(groups[key]) < threshold
        }
        for cells, paths in zip(weighted_levels, table.paths)
    ]


def _derive_level(
    level: ItemLevel,
    source: LevelData,
    hierarchies: Sequence,
    table: PathTable,
    threshold: float,
) -> LevelData:
    """Roll *source*'s per-cell data up to the ancestor *level*.

    Every source key maps to exactly one parent key, so parent cells are
    disjoint unions of child cells: record ids concatenate, path-id
    weights add, and flowgraphs merge (Lemma 4.2).  Iterating source keys
    in their first-seen record order makes each derived dict's key order
    match what a direct record scan at *level* would have produced.

    Flowgraphs are only built for parent keys that pass the iceberg
    *threshold*.  When every child brings a stored graph the parent's is
    :meth:`FlowGraph.merge`-d from them; when some children sit below the
    threshold (and so carry no graph), the parent's graph is expanded
    from its already-merged weighted multiset instead — equivalent by
    Lemma 4.2 and cheaper than first materialising each sub-iceberg
    child's graph only to fold it away.
    """
    key_map: dict[CellKey, CellKey] = {}
    groups: dict[CellKey, list[int]] = {}
    for child_key, record_ids in source.groups.items():
        parent_key = roll_up_key(child_key, level, hierarchies)
        key_map[child_key] = parent_key
        groups.setdefault(parent_key, []).extend(record_ids)
    alive = {
        key for key, record_ids in groups.items()
        if not len(record_ids) < threshold
    }
    weighted: list[dict[CellKey, WeightedCell]] = []
    graphs: list[dict[CellKey, FlowGraph]] = []
    for level_id, paths in enumerate(table.paths):
        cells: dict[CellKey, WeightedCell] = {}
        children: dict[CellKey, list[CellKey]] = {key: [] for key in alive}
        for child_key, weights in source.weighted[level_id].items():
            parent_key = key_map[child_key]
            cell = cells.setdefault(parent_key, {})
            for pid, weight in weights.items():
                cell[pid] = cell.get(pid, 0) + weight
            if parent_key in alive:
                children[parent_key].append(child_key)
        source_graphs = source.graphs[level_id]
        weighted.append(cells)
        graphs.append(
            {
                key: (
                    FlowGraph().merge(
                        source_graphs[child_key] for child_key in child_keys
                    )
                    if all(ck in source_graphs for ck in child_keys)
                    else _cell_graph(cells[key], paths)
                )
                for key, child_keys in children.items()
            }
        )
    return LevelData(groups=groups, weighted=weighted, graphs=graphs)


def derive_levels(
    plan: Sequence[tuple[ItemLevel, ItemLevel | None]],
    groups_by_root: list[dict[CellKey, list[int]]],
    weighted_by_root: list[list[dict[CellKey, WeightedCell]]],
    root_levels: Sequence[ItemLevel],
    hierarchies: Sequence,
    table: PathTable,
    threshold: float,
) -> dict[ItemLevel, LevelData]:
    """Materialise :class:`LevelData` for every planned level, roots first.

    *groups_by_root* / *weighted_by_root* are :func:`merge_scan`'s totals
    and *table* the :class:`PathTable` their path ids index.
    """
    index_of_root = {level: i for i, level in enumerate(root_levels)}
    data: dict[ItemLevel, LevelData] = {}
    for level, source in plan:
        if source is None:
            i = index_of_root[level]
            data[level] = LevelData(
                groups=groups_by_root[i],
                weighted=weighted_by_root[i],
                graphs=_root_graphs(
                    groups_by_root[i], weighted_by_root[i], table, threshold
                ),
            )
        else:
            data[level] = _derive_level(
                level, data[source], hierarchies, table, threshold
            )
    return data


def prune_to_iceberg(
    data: Mapping[ItemLevel, LevelData], threshold: float
) -> None:
    """Drop sub-iceberg cells from every level, in place.

    Derivation needs *all* child cells to conserve ancestor weights, but
    once every level is derived only iceberg-surviving cells are ever
    read again.  The sub-threshold tail is the bulk of the keys on
    realistic workloads, so it is dropped here.  Under the in-memory
    engine (``FlowCube.build(engine="rollup")``, which runs on the
    default collector) keeping it alive through assembly makes the
    holistic exception pass measurably slower just by inflating the heap
    the cyclic GC has to traverse; a store build pauses that collector
    (:mod:`repro.perf.collector`), and there the prune only releases the
    memory early.  Pruning keeps each dict's insertion order (a subset
    of it), leaving assembly's cell order untouched.
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


def assemble_cuboids(
    levels: Sequence[ItemLevel],
    path_lattice: PathLattice,
    data: Mapping[ItemLevel, LevelData],
    table: PathTable,
    threshold: int,
    min_support: float,
    min_deviation: float,
    compute_exceptions: bool,
    segments_by_cell: Mapping[
        tuple[ItemLevel, PathLevel, CellKey], Sequence[Segment]
    ]
    | None,
    kernel: str = "bitmap",
    exception_pass=None,
) -> Iterator[Cuboid]:
    """Yield finished cuboids in the direct builder's (item, path) order.

    Applies the iceberg threshold, builds cells from the derived weighted
    multisets and flowgraphs — path ids turn back into *table*'s tuples
    here, for ``Cell.paths`` — and runs the holistic exception pass per
    cuboid batch through *exception_pass* — a ``run(batch)`` callable over
    ``(graph, weighted, segments)`` triples whose *weighted* is the cell's
    ``{pid: weight}`` itself, wrapped with the level's postings
    (see :func:`~repro.core.flowgraph_exceptions.serial_exception_pass`;
    the out-of-core builder substitutes a pool-fanned runner).  Defaults
    to a fresh serial runner over *kernel*.

    Membership is path-level independent, so the iceberg test and the
    member-id sort run once per item level and the level's cuboids share
    each surviving cell's ``record_ids`` tuple.
    """
    if exception_pass is None and compute_exceptions:
        exception_pass = serial_exception_pass(
            min_support, min_deviation, kernel=kernel
        )
    for item_level in levels:
        level_data = data[item_level]
        members = {
            key: tuple(sorted(record_ids))
            for key, record_ids in level_data.groups.items()
            if not len(record_ids) < threshold  # iceberg condition
        }
        for level_id, path_level in enumerate(path_lattice):
            cuboid = Cuboid(item_level, path_level)
            paths = table.paths[level_id]
            postings = table.postings[level_id]
            cells = level_data.weighted[level_id]
            batch = []
            for key, record_ids in members.items():
                weights = cells[key]
                weighted = tuple(
                    [(paths[pid], weight) for pid, weight in weights.items()]
                )
                graph = level_data.graphs[level_id][key]
                cell = Cell(
                    key=key,
                    item_level=item_level,
                    path_level=path_level,
                    record_ids=record_ids,
                    flowgraph=graph,
                    paths=weighted,
                )
                if compute_exceptions:
                    segments = None
                    if segments_by_cell is not None:
                        segments = segments_by_cell.get(
                            (item_level, path_level, key)
                        )
                    batch.append((graph, PidCell(weights, postings), segments))
                cuboid.cells[key] = cell
            if batch:
                exception_pass(batch)
            yield cuboid


def build_rollup(
    cube_cls,
    database,
    path_lattice: PathLattice | None = None,
    item_levels: Iterable[ItemLevel] | None = None,
    min_support: float = 0.01,
    min_deviation: float = 0.1,
    compute_exceptions: bool = True,
    segments_by_cell: Mapping[
        tuple[ItemLevel, PathLevel, CellKey], Sequence[Segment]
    ]
    | None = None,
    kernel: str = "bitmap",
    stats: object | None = None,
):
    """In-memory roll-up build — ``FlowCube.build(engine="rollup")``'s body.

    Args:
        cube_cls: The :class:`~repro.core.flowcube.FlowCube` class (passed
            in to keep the import lazy on the flowcube side).
        database: The path database.
        kernel: Exception-pass kernel, ``"bitmap"`` or ``"scan"``.
        stats: Optional sink with ``add_phase(name, seconds)``; the record
            scan lands in ``aggregate``, derivation + assembly in
            ``materialize``, and the holistic pass in ``exceptions``.

    The remaining arguments mirror :meth:`FlowCube.build`.
    """
    if kernel not in EXCEPTION_KERNELS:
        raise CubeError(
            f"unknown exception kernel {kernel!r}; expected one of "
            f"{EXCEPTION_KERNELS}"
        )
    schema = database.schema
    item_lattice = ItemLattice([h.depth for h in schema.dimensions])
    if path_lattice is None:
        path_lattice = PathLattice.paper_default(schema.location)
    cube = cube_cls(
        database, item_lattice, path_lattice, min_support, min_deviation
    )
    levels = list(item_levels) if item_levels is not None else list(item_lattice)
    for item_level in levels:
        if item_level not in item_lattice:
            raise CubeError(f"item level {item_level!r} outside the lattice")
    threshold = resolve_min_support(min_support, len(database))
    hierarchies = schema.dimensions
    plan = derivation_plan(levels)
    root_levels = [level for level, source in plan if source is None]

    phase = perf_counter()
    table = PathTable(len(path_lattice))
    groups_by_root: list[dict[CellKey, list[int]]] = [{} for _ in root_levels]
    weighted_by_root: list[list[dict[CellKey, WeightedCell]]] = [
        [{} for _ in path_lattice] for _ in root_levels
    ]
    part_groups, part_weighted = scan_records(
        database, AggregationMemo(path_lattice), root_levels, hierarchies
    )
    merge_scan(
        groups_by_root, weighted_by_root, part_groups, part_weighted, table
    )
    del part_groups, part_weighted
    if stats is not None:
        stats.add_phase("aggregate", perf_counter() - phase)

    phase = perf_counter()
    data = derive_levels(
        plan, groups_by_root, weighted_by_root, root_levels, hierarchies,
        table, threshold,
    )
    prune_to_iceberg(data, threshold)
    del groups_by_root, weighted_by_root
    runner = (
        serial_exception_pass(min_support, min_deviation, kernel=kernel)
        if compute_exceptions
        else None
    )
    for cuboid in assemble_cuboids(
        levels, path_lattice, data, table, threshold, min_support,
        min_deviation, compute_exceptions, segments_by_cell, kernel=kernel,
        exception_pass=runner,
    ):
        cube._cuboids[(cuboid.item_level, cuboid.path_level)] = cuboid  # noqa: SLF001
    if stats is not None:
        exception_seconds = runner.seconds if runner is not None else 0.0
        if compute_exceptions:
            stats.add_phase("exceptions", exception_seconds)
        stats.add_phase(
            "materialize", perf_counter() - phase - exception_seconds
        )
    return cube
