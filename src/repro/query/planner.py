"""Merge-based roll-up planner: answer non-materialised coordinates.

The flowcube never materialises its full item lattice — partial
materialisation plans (:mod:`repro.core.materialization`) keep a minimum
interesting layer, an observation layer, and a drill chain between them.
The seed query layer turned every other coordinate into a hard
:class:`~repro.errors.QueryError`.  But the flowgraph measure is algebraic
(Lemma 4.2): an ancestor cell's path multiset is the disjoint union of its
descendants', so — exactly as Gray et al.'s Data Cube derives ROLLUP
answers from the nearest materialised group-by — a missing cuboid can be
*derived* at query time by summing a materialised descendant's path
multisets and expanding one flowgraph from the sum
(:meth:`~repro.core.flowgraph.FlowGraph.expand`).

:func:`plan_derivation` picks the cheapest materialised source: among the
cuboids at the *same path level* whose item level is a strict descendant
of the target, it minimises ``lattice distance × cell count`` — the cell
count comes from the store index (or the in-memory cuboid), so planning
does zero cell-file IO.  :func:`derive_cuboid` / :func:`derive_cell`
execute a plan with the same grouping the build-time roll-up engine uses
(:mod:`repro.perf.measure_rollup`): record ids concatenate and are
sorted, weighted path multisets add, and the iceberg threshold δ is
re-applied to the derived groups.

Exactness contract
------------------
A derived answer always equals a direct build of the target cuboid over
the *records covered by the source's materialised cells*.  When the
source cuboid is unpruned — its cells cover every record, e.g. whenever
the resolved iceberg threshold is 1 — that is the whole database and the
derived cuboid is byte-identical (``cube_to_json``) to a directly built
one.  Under a real iceberg threshold the source may have dropped
sub-threshold children, in which case derived counts are lower bounds;
:attr:`DerivationPlan.exact` reports which regime a plan is in (``None``
when the store cannot tell because the total record count is unknown).
The path level is never re-aggregated: a cell's multiset holds paths
already aggregated to its own path level, so only the item lattice is
derivable — same-path-level sources only.

Exceptions are holistic (Lemma 4.3) and cannot be merged; when asked
for, they are re-mined from the summed multiset, which every source cell
carries — in memory or in a store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flowcube import Cell, CellKey, Cuboid
from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import (
    mine_exceptions_weighted,
    resolve_min_support,
)
from repro.core.lattice import ItemLevel, PathLevel, roll_up_key
from repro.errors import QueryError

__all__ = [
    "DerivationPlan",
    "plan_derivation",
    "derive_cuboid",
    "derive_cell",
]


@dataclass(frozen=True)
class DerivationPlan:
    """A chosen way to answer one non-materialised cuboid coordinate."""

    #: The coordinate being answered.
    item_level: ItemLevel
    path_level: PathLevel
    #: The materialised strict descendant the answer merges from.
    source: ItemLevel
    #: Item-lattice distance from source to target (levels rolled up).
    distance: int
    #: Number of materialised cells in the source cuboid (index count).
    source_cells: int
    #: ``distance × source_cells`` — the planner's minimisation objective.
    cost: int
    #: Resolved iceberg threshold re-applied to the derived groups.
    threshold: int
    #: Whether the derived answer is exactly a direct build of the target
    #: (source unpruned); ``None`` when the total record count is unknown.
    exact: bool | None


def _cuboid_keys(cuboid) -> tuple[CellKey, ...]:
    """A cuboid's cell keys without materialising cells."""
    keys = getattr(cuboid, "keys", None)
    if keys is not None:  # StoredCuboid: straight off the index
        return keys
    return tuple(cuboid.cells)


def _cell_sizes(cube, item_level, path_level) -> dict[CellKey, int]:
    """Per-cell path counts for one cuboid, with zero cell-file IO."""
    sizes = getattr(cube, "cell_sizes", None)
    if sizes is not None:  # CubeStore: n_paths lives in the index
        return sizes(item_level, path_level)
    cuboid = cube.cuboid(item_level, path_level)
    return {cell.key: cell.n_paths for cell in cuboid}


def _total_records(cube, path_level: PathLevel) -> int | None:
    """The database size, or ``None`` when the cube cannot tell.

    An in-memory cube carries its database.  A store does not, but the
    apex cell ``(*, ..., *)`` — when materialised — aggregates every
    record, so its indexed ``n_paths`` is the database size.
    """
    database = getattr(cube, "database", None)
    if database is not None:
        return len(database)
    n_dims = cube.schema.n_dimensions
    apex = ItemLevel([0] * n_dims)
    if cube.has_cuboid(apex, path_level):
        return _cell_sizes(cube, apex, path_level).get(("*",) * n_dims)
    return None


def plan_derivation(
    cube, item_level: ItemLevel, path_level: PathLevel
) -> DerivationPlan | None:
    """The cheapest plan answering ``⟨item_level, path_level⟩``, or ``None``.

    Candidates are the materialised cuboids at the same path level whose
    item level is a strict descendant of the target (their cells partition
    the target's records).  The cost of a candidate is its item-lattice
    distance times its cell count — merging a nearby, small cuboid beats
    re-grouping the base level — and everything is read from the cuboid
    index, so planning itself touches no cell files.
    """
    candidates: list[tuple[int, tuple[int, ...], int, int]] = []
    for cuboid in cube.cuboids:
        if cuboid.path_level != path_level:
            continue
        source = cuboid.item_level
        if source == item_level or not item_level.is_higher_or_equal(source):
            continue
        distance = sum(source.levels) - sum(item_level.levels)
        n_cells = len(cuboid)
        cost = distance * n_cells
        candidates.append((cost, source.levels, distance, n_cells))
    if not candidates:
        return None
    cost, source_levels, distance, n_cells = min(candidates)
    source = ItemLevel(source_levels)
    n_records = _total_records(cube, path_level)
    min_support = cube.min_support if cube.min_support is not None else 1
    covered = sum(_cell_sizes(cube, source, path_level).values())
    if n_records is None:
        threshold = resolve_min_support(min_support, covered)
        exact = None
    else:
        threshold = resolve_min_support(min_support, n_records)
        exact = covered == n_records
    return DerivationPlan(
        item_level=item_level,
        path_level=path_level,
        source=source,
        distance=distance,
        source_cells=n_cells,
        cost=cost,
        threshold=threshold,
        exact=exact,
    )


def _derived_cell(
    cube,
    plan: DerivationPlan,
    parent_key: CellKey,
    children: list[Cell],
    mine_exceptions: bool,
) -> Cell:
    """Sum *children*'s path multisets into the derived cell at
    *parent_key* and expand its one flowgraph (Lemma 4.2)."""
    record_ids: list[int] = []
    summed: dict = {}
    for child in children:
        record_ids.extend(child.record_ids)
        for path, weight in child.paths:
            summed[path] = summed.get(path, 0) + weight
    weighted = tuple(summed.items())
    graph = FlowGraph.expand(weighted)
    if mine_exceptions:
        mine_exceptions_weighted(
            graph,
            weighted,
            min_support=cube.min_support,
            min_deviation=cube.min_deviation,
        )
    return Cell(
        key=parent_key,
        item_level=plan.item_level,
        path_level=plan.path_level,
        record_ids=tuple(sorted(record_ids)),
        flowgraph=graph,
        paths=weighted,
    )


def derive_cuboid(
    cube, plan: DerivationPlan, mine_exceptions: bool = False
) -> Cuboid:
    """Execute *plan*: the whole derived cuboid, in build order.

    Children are grouped by their key rolled up to the target level, in
    source-cuboid order — the same first-seen order a direct build's
    record scan produces when the source is unpruned — and groups below
    the re-applied iceberg threshold are dropped.
    """
    hierarchies = cube.schema.dimensions
    source_cuboid = cube.cuboid(plan.source, plan.path_level)
    groups: dict[CellKey, list[Cell]] = {}
    for child in source_cuboid:
        parent_key = roll_up_key(child.key, plan.item_level, hierarchies)
        groups.setdefault(parent_key, []).append(child)
    derived = Cuboid(plan.item_level, plan.path_level)
    for parent_key, children in groups.items():
        if sum(child.n_paths for child in children) < plan.threshold:
            continue  # iceberg condition, re-applied to the derived group
        derived.cells[parent_key] = _derived_cell(
            cube, plan, parent_key, children, mine_exceptions
        )
    return derived


def derive_cell(
    cube,
    plan: DerivationPlan,
    key: CellKey,
    mine_exceptions: bool = False,
) -> Cell:
    """Execute *plan* for a single cell.

    Source children are selected by rolling their *keys* up first — pure
    index arithmetic — so only the cells that actually merge into *key*
    are ever materialised.
    """
    hierarchies = cube.schema.dimensions
    source_cuboid = cube.cuboid(plan.source, plan.path_level)
    child_keys = [
        child_key
        for child_key in _cuboid_keys(source_cuboid)
        if roll_up_key(child_key, plan.item_level, hierarchies) == key
    ]
    children = [source_cuboid.cell(child_key) for child_key in child_keys]
    if sum(child.n_paths for child in children) < plan.threshold:
        raise QueryError(
            f"derived cell {key!r} is below the iceberg threshold "
            f"(δ={cube.min_support}) or outside the data"
        )
    return _derived_cell(cube, plan, key, children, mine_exceptions)
