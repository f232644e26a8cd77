"""Merge-based roll-up planner: answer non-materialised coordinates.

The flowcube never materialises its full item lattice — partial
materialisation plans (:mod:`repro.core.materialization`) keep a minimum
interesting layer, an observation layer, and a drill chain between them.
The seed query layer turned every other coordinate into a hard
:class:`~repro.errors.QueryError`.  But the flowgraph measure is algebraic
(Lemma 4.2): an ancestor cell's path multiset is the disjoint union of its
descendants', so — exactly as Gray et al.'s Data Cube derives ROLLUP
answers from the nearest materialised group-by — a missing cuboid can be
*derived* at query time by summing a materialised descendant's
``{path id: weight}`` vectors.

:func:`plan_derivation` picks the cheapest materialised source: among the
cuboids at the *same path level* whose item level is a strict descendant
of the target, it minimises ``lattice distance × cell count`` — the cell
count comes from the cuboid index (``cell_sizes``), so planning does zero
cell-file IO.  :func:`derive_cuboid` / :func:`derive_cell` execute a plan
with the build's own roll-up (:mod:`repro.perf.measure_rollup`): the
source cells' record ids and vectors go through ``derive_level``, the
iceberg threshold δ is re-applied, and ``assemble_cuboid`` hands out
vector cells, each expanding its one flowgraph when first read.

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
for, they are re-mined from the summed vector as build and append mine
theirs: by ``serial_exception_pass`` over the cube's path table postings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flowcube import Cell, CellKey, Cuboid
from repro.core.flowgraph_exceptions import (
    resolve_min_support,
    serial_exception_pass,
)
from repro.core.lattice import ItemLevel, PathLevel, roll_up_key
from repro.errors import QueryError
from repro.perf.measure_rollup import (
    LevelData,
    assemble_cuboid,
    derive_level,
    prune_to_iceberg,
)

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
        return cube.cell_sizes(apex, path_level).get(("*",) * n_dims)
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
    covered = sum(cube.cell_sizes(source, path_level).values())
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


def _derive(cube, plan: DerivationPlan, children, mine_exceptions: bool):
    """Roll *children*, cells of the plan's source cuboid, up to the
    plan's coordinate: the build's roll-up, one path level wide."""
    derived = derive_level(
        plan.item_level,
        LevelData(
            groups={child.key: child.record_ids for child in children},
            weighted=[{child.key: child.weights for child in children}],
        ),
        cube.schema.dimensions,
    )
    prune_to_iceberg({plan.item_level: derived}, plan.threshold)
    if mine_exceptions:
        # Read after the children, the cube's current table holds every
        # id they name; its postings are the ones build and append use.
        level_id = cube.path_lattice.index_of(plan.path_level)
        table = cube.path_table
        paths, postings = table.paths[level_id], table.postings[level_id]
        runner = serial_exception_pass(cube.min_support, cube.min_deviation)
    else:
        # Ids are stable within a lineage, but cells read across a reload
        # sit on lists of different lengths: the longest holds every id.
        lists = [child.level_paths for child in children]
        paths, postings, runner = max(lists, key=len, default=()), None, None
    members = {key: tuple(sorted(ids)) for key, ids in derived.groups.items()}
    return assemble_cuboid(
        plan.item_level, plan.path_level, members, derived.weighted[0],
        paths, postings, None, runner,
    )


def derive_cuboid(
    cube, plan: DerivationPlan, mine_exceptions: bool = False
) -> Cuboid:
    """Execute *plan*: the whole derived cuboid, in build order.

    Children roll up in source-cuboid order — the same first-seen order a
    direct build's record scan produces when the source is unpruned — and
    groups below the re-applied iceberg threshold are dropped.  A cell's
    flowgraph is expanded from its summed vector when it is first read.
    """
    source = cube.cuboid(plan.source, plan.path_level)
    return _derive(cube, plan, source.cells_for(source.keys), mine_exceptions)


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
    children = source_cuboid.cells_for(
        child_key
        for child_key in source_cuboid.keys
        if roll_up_key(child_key, plan.item_level, hierarchies) == key
    )
    derived = _derive(cube, plan, children, mine_exceptions)
    if key not in derived:
        raise QueryError(
            f"derived cell {key!r} is below the iceberg threshold "
            f"(δ={cube.min_support}) or outside the data"
        )
    return derived.cell(key)
