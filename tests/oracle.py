"""The per-cell flowcube builder: the oracle every build is compared to.

Definition 4.1 read literally: every (item level × path level) cuboid
groups the records afresh, re-aggregates each member's path and builds
each cell's flowgraph from scratch, and exceptions are mined with the
path-scanning ``"scan"`` kernel.  It shares nothing with the roll-up
(:mod:`repro.perf.measure_rollup`) — not even the cell class: each cell
is an :class:`OracleCell` holding a graph built path by path with
``FlowGraph.add_path``, never expanded from a vector — so a
``cube_to_json`` match is evidence, not a tautology.

It also keeps the two measure lemmas of Section 4.2 as witnesses the
tests call: :func:`merge_flowgraphs` (Lemma 4.2: a flowgraph over a
union of disjoint path sets is the sum of the parts' node counts) and
:func:`exceptions_are_mergeable` (Lemma 4.3: exceptions are holistic,
so per-part mining can miss a segment frequent only in the union).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from time import perf_counter

from repro.core.aggregation import (
    AggregatedPath,
    WeightedPaths,
    aggregate_path,
    weight_paths,
)
from repro.core.flowcube import CellKey, Cuboid, FlowCube
from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import (
    Segment,
    mine_exceptions_weighted,
    mine_frequent_segments,
    resolve_min_support,
)
from repro.core.lattice import (
    ItemLattice,
    ItemLevel,
    PathLattice,
    PathLevel,
    roll_up_key,
)
from repro.core.path_database import PathDatabase
from repro.errors import CubeError


@dataclass
class OracleCell:
    """A cell that holds its flowgraph outright: the oracle's output.

    It reads like a :class:`~repro.core.flowcube.Cell` — index fields,
    ``record_ids``, ``paths``, ``flowgraph``, ``exceptions`` — so the
    cube code (``cube_to_json``, ``CubeStore.put_cuboid``, the query
    layer) takes it too, and tests build hand-made cells with it.
    """

    key: CellKey
    item_level: ItemLevel
    path_level: PathLevel
    record_ids: tuple[int, ...]
    flowgraph: FlowGraph
    #: The ``(path, weight)`` multiset the graph was built from.
    paths: WeightedPaths = ()
    redundant: bool = False

    @property
    def n_paths(self) -> int:
        return len(self.record_ids)

    @property
    def exceptions(self) -> list:
        return self.flowgraph.exceptions


def direct_cube(
    database: PathDatabase,
    path_lattice: PathLattice | None = None,
    item_levels: Iterable[ItemLevel] | None = None,
    min_support: float = 0.01,
    min_deviation: float = 0.1,
    compute_exceptions: bool = True,
    segments_by_cell: Mapping[
        tuple[ItemLevel, PathLevel, CellKey], Sequence[Segment]
    ]
    | None = None,
    stats: object | None = None,
) -> FlowCube:
    """The cube :meth:`FlowCube.build` must equal, built cell by cell.

    Takes :meth:`FlowCube.build`'s arguments.
    """
    started = perf_counter()
    exception_seconds = 0.0
    schema = database.schema
    item_lattice = ItemLattice([h.depth for h in schema.dimensions])
    if path_lattice is None:
        path_lattice = PathLattice.paper_default(schema.location)
    cube = FlowCube(
        database, item_lattice, path_lattice, min_support, min_deviation
    )
    cube.compute_exceptions = compute_exceptions
    levels = list(item_levels) if item_levels is not None else list(item_lattice)
    threshold = resolve_min_support(min_support, len(database))
    for item_level in levels:
        if item_level not in item_lattice:
            raise CubeError(f"item level {item_level!r} outside the lattice")
        groups = _group_records(database, item_level)
        for path_level in path_lattice:
            cuboid = Cuboid(item_level, path_level)
            for key, record_ids in groups.items():
                if len(record_ids) < threshold:
                    continue  # iceberg condition
                weighted = weight_paths(
                    aggregate_path(database[rid].path, path_level)
                    for rid in record_ids
                )
                graph = FlowGraph()
                for path, weight in weighted:
                    graph.add_path(path, weight)
                cell = OracleCell(
                    key=key,
                    item_level=item_level,
                    path_level=path_level,
                    record_ids=tuple(record_ids),
                    flowgraph=graph,
                    paths=weighted,
                )
                if compute_exceptions:
                    segments = None
                    if segments_by_cell is not None:
                        segments = segments_by_cell.get(
                            (item_level, path_level, key)
                        )
                    mine_started = perf_counter()
                    mine_exceptions_weighted(
                        graph,
                        weighted,
                        min_support=min_support,
                        min_deviation=min_deviation,
                        segments=segments,
                        kernel="scan",
                    )
                    exception_seconds += perf_counter() - mine_started
                cuboid.cells[key] = cell
            cube._cuboids[(item_level, path_level)] = cuboid  # noqa: SLF001
    if stats is not None:
        if compute_exceptions:
            stats.add_phase("exceptions", exception_seconds)
        stats.add_phase(
            "materialize", perf_counter() - started - exception_seconds
        )
    return cube


def _group_records(
    database: PathDatabase, item_level: ItemLevel
) -> dict[CellKey, list[int]]:
    """Group record ids by their dims rolled up to *item_level*."""
    hierarchies = database.schema.dimensions
    groups: dict[CellKey, list[int]] = {}
    for record in database:
        key = roll_up_key(record.dims, item_level, hierarchies)
        groups.setdefault(key, []).append(record.record_id)
    return groups


def merge_flowgraphs(graphs: Iterable[FlowGraph]) -> FlowGraph:
    """Merge flowgraphs over disjoint path sets by summing node counts.

    The merged graph's distributions equal those of a flowgraph built
    directly over the union of the underlying paths (Lemma 4.2).
    Exceptions are *not* merged — they are holistic (Lemma 4.3) and must
    be re-mined.  A new :class:`FlowGraph`; the inputs are left untouched.
    """
    return FlowGraph().merge(graphs)


def exceptions_are_mergeable(
    parts: Sequence[Sequence[AggregatedPath]], min_support: float
) -> bool:
    """Whether per-part frequent segments suffice for the union.

    ``True`` only when every segment frequent in the union is frequent in
    at least one part — in which case part-local mining would have
    surfaced it.  Lemma 4.3 says this fails in general; the tests
    exhibit concrete counterexamples.
    """
    union: list[AggregatedPath] = [path for part in parts for path in part]
    union_frequent = set(mine_frequent_segments(union, min_support))
    part_frequent: set = set()
    for part in parts:
        if part:
            part_frequent |= set(mine_frequent_segments(list(part), min_support))
    return union_frequent <= part_frequent
