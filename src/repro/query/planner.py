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
``{joint id: weight}`` vectors.

:func:`plan_derivation` picks the cheapest materialised source: among the
cuboids at the *same path level* whose item level is a strict descendant
of the target, it minimises ``lattice distance × cell count`` — the cell
count comes from the cuboid index (``cell_sizes``), so planning does zero
cell-file IO.  :func:`derive_cuboid` / :func:`derive_cell` execute a plan
with the build's own roll-up (:mod:`repro.perf.measure_rollup`): the
source cells' record ids and joint vectors go through ``derive_level``, the
iceberg threshold δ is re-applied, and ``assemble_cuboid`` hands out
cells (:class:`~repro.core.flowcube.Cell`), each expanding its one
flowgraph when first read.

Exactness contract
------------------
A derived answer always equals a direct build of the target cuboid over
the *records covered by the source's materialised cells*.  When the
source cuboid is unpruned — its cells cover every record, e.g. whenever
the resolved iceberg threshold is 1 — that is the whole database and the
derived cuboid is byte-identical (``cube_to_json``) to a directly built
one.  Under a real iceberg threshold the source may have dropped
sub-threshold children, in which case derived counts are lower bounds;
:attr:`DerivationPlan.exact` reports which regime a plan is in.  Both
kinds of cube know their record count (``n_records``), which δ resolves
against; a store written cell by cell and never built does not, and
planning over it is a :class:`~repro.errors.QueryError`.
The path level is never re-aggregated: a cell's joint vector maps to
every path level, and an item cuboid is materialised at all of them, so
only the item lattice needs deriving — from a source at the target's
path level.

Exceptions are holistic (Lemma 4.3) and cannot be merged: a derived
cell of a cube with exceptions mines its own from the summed vector at
first read, as a stored or built cell does, so derivation and a direct
build agree on them too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flowcube import Cell, CellKey, Cuboid
from repro.core.flowgraph_exceptions import resolve_min_support
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
    #: (the source's cells cover every record).
    exact: bool


def plan_derivation(
    cube, item_level: ItemLevel, path_level: PathLevel
) -> DerivationPlan | None:
    """The cheapest plan answering ``⟨item_level, path_level⟩``, or ``None``.

    Candidates are the materialised cuboids at the same path level whose
    item level is a strict descendant of the target (their cells partition
    the target's records).  The cost of a candidate is its item-lattice
    distance times its cell count — merging a nearby, small cuboid beats
    re-grouping the base level — and everything is read from the cuboid
    index, so planning itself touches no cell files.  Raises
    :class:`~repro.errors.QueryError` when a plan exists but the cube
    carries no record count to resolve δ against.
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
    n_records = cube.n_records
    if n_records is None:
        raise QueryError(
            "the cube carries no record count (it was written cell by cell "
            "and never built), so a derivation cannot resolve δ; build it"
        )
    min_support = cube.min_support if cube.min_support is not None else 1
    covered = sum(cube.cell_sizes(source, path_level).values())
    return DerivationPlan(
        item_level=item_level,
        path_level=path_level,
        source=source,
        distance=distance,
        source_cells=n_cells,
        cost=cost,
        threshold=resolve_min_support(min_support, n_records),
        exact=covered == n_records,
    )


def _derive(cube, plan: DerivationPlan, children):
    """Roll *children*, cells of the plan's source cuboid, up to the
    plan's coordinate: the build's roll-up over their joint vectors."""
    derived = derive_level(
        plan.item_level,
        LevelData(
            groups={child.key: child.record_ids for child in children},
            weighted={child.key: child.vector for child in children},
        ),
        cube.schema.dimensions,
    )
    prune_to_iceberg({plan.item_level: derived}, plan.threshold)
    members = {key: tuple(sorted(ids)) for key, ids in derived.groups.items()}
    # Read after the children, the cube's current table holds every id
    # they name.
    return assemble_cuboid(
        plan.item_level, plan.path_level, members, derived.weighted,
        cube.path_table, cube.path_lattice.index_of(plan.path_level),
        cube.mining,
    )


def derive_cuboid(cube, plan: DerivationPlan) -> Cuboid:
    """Execute *plan*: the whole derived cuboid, in build order.

    Children roll up in source-cuboid order — the same first-seen order a
    direct build's record scan produces when the source is unpruned — and
    groups below the re-applied iceberg threshold are dropped.  A cell's
    flowgraph is expanded from its summed vector when it is first read.
    """
    source = cube.cuboid(plan.source, plan.path_level)
    return _derive(cube, plan, source.cells_for(source.keys))


def derive_cell(cube, plan: DerivationPlan, key: CellKey) -> Cell:
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
    derived = _derive(cube, plan, children)
    if key not in derived:
        raise QueryError(
            f"derived cell {key!r} is below the iceberg threshold "
            f"(δ={cube.min_support}) or outside the data"
        )
    return derived.cell(key)
