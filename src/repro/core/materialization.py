"""Partial materialisation planning (Section 5, "Partial Materialization").

For high-dimensional path databases the full cuboid lattice is too large
even after iceberg and redundancy compression.  The paper adopts the layer
strategy of Han et al. [11]: materialise

* the **minimum interesting layer** — the most general item level analysts
  ever use,
* the **observation layer** — the level where most analysis happens, and
* a chain of cuboids along a **popular drilling path** between the two.

:class:`MaterializationPlan` captures the chosen item levels (the path
lattice is small — the four Section 6 levels — and is always materialised
in full).  :func:`plan_between_layers` builds the drill chain;
:func:`estimate_cells` supports cost-based layer choice by estimating the
number of iceberg cells of a level from a sample of the database.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.flowcube import FlowCube
from repro.core.lattice import ItemLattice, ItemLevel, PathLattice
from repro.core.path_database import PathDatabase
from repro.errors import CubeError

__all__ = [
    "DERIVABILITY",
    "MaterializationPlan",
    "plan_between_layers",
    "estimate_cells",
    "plan_by_budget",
]

#: :meth:`MaterializationPlan.derivability` verdicts, most to least served.
DERIVABILITY = ("materialised", "derivable", "unreachable")


@dataclass(frozen=True)
class MaterializationPlan:
    """The set of item levels a flowcube build should materialise."""

    item_levels: tuple[ItemLevel, ...]

    def __post_init__(self) -> None:
        if not self.item_levels:
            raise CubeError("a materialisation plan needs at least one level")

    def __iter__(self):
        return iter(self.item_levels)

    def __len__(self) -> int:
        return len(self.item_levels)

    def derivation_source(self, level: ItemLevel) -> ItemLevel | None:
        """The planned level the query-time planner would merge from.

        The shallowest planned *strict descendant* of *level* — the same
        preference order as the build-time
        :func:`~repro.perf.measure_rollup.derivation_plan` and the
        query-time :func:`~repro.query.planner.plan_derivation` (which
        additionally weighs measured cell counts).  ``None`` when no
        planned level can answer *level*.
        """
        descendants = [
            planned
            for planned in self.item_levels
            if planned != level and level.is_higher_or_equal(planned)
        ]
        if not descendants:
            return None
        return min(descendants, key=lambda lv: (sum(lv.levels), lv.levels))

    def derivability(self, level: ItemLevel) -> str:
        """How a query at *level* would be served under this plan.

        One of :data:`DERIVABILITY`: ``"materialised"`` (the level is in
        the plan), ``"derivable"`` (absent, but a planned strict
        descendant exists for the roll-up planner to merge from), or
        ``"unreachable"`` (a query there raises
        :class:`~repro.errors.QueryError` even with derivation enabled).
        """
        if level in self.item_levels:
            return "materialised"
        if self.derivation_source(level) is not None:
            return "derivable"
        return "unreachable"

    def build(
        self,
        database: PathDatabase,
        path_lattice: PathLattice | None = None,
        **kwargs,
    ) -> FlowCube:
        """Materialise a flowcube restricted to the planned levels."""
        return FlowCube.build(
            database,
            path_lattice=path_lattice,
            item_levels=self.item_levels,
            **kwargs,
        )


def plan_between_layers(
    minimum_layer: ItemLevel,
    observation_layer: ItemLevel,
    drill_order: Sequence[int] | None = None,
) -> MaterializationPlan:
    """The [11]-style plan: both layers plus one popular drill path between.

    Args:
        minimum_layer: The most general interesting level (must be
            higher-or-equal to the observation layer on the item lattice).
        observation_layer: The level where most analysis happens.
        drill_order: Priority order of dimension indexes for the drill
            path; dimension ``drill_order[0]`` is specialised first, one
            hierarchy level at a time.  Defaults to left-to-right.

    Returns:
        A plan whose levels form a chain from the minimum layer down to
        the observation layer.
    """
    if not minimum_layer.is_higher_or_equal(observation_layer):
        raise CubeError(
            "the minimum interesting layer must generalise the observation layer"
        )
    order = list(drill_order) if drill_order is not None else list(
        range(len(minimum_layer))
    )
    if sorted(order) != list(range(len(minimum_layer))):
        raise CubeError(f"drill_order {order!r} must permute the dimensions")

    levels: list[ItemLevel] = [minimum_layer]
    current = list(minimum_layer.levels)
    for dim in order:
        while current[dim] < observation_layer[dim]:
            current[dim] += 1
            levels.append(ItemLevel(current))
    return MaterializationPlan(tuple(levels))


def estimate_cells(
    database: PathDatabase,
    level: ItemLevel,
    min_support: float,
    sample_size: int = 2000,
) -> int:
    """Estimate the number of iceberg cells at *level* from a sample.

    Groups the first *sample_size* records by their rolled-up dimensions,
    scales the per-group counts to the full database, and counts groups
    projected to clear the iceberg threshold.  Exact when the sample covers
    the whole database.
    """
    from repro.core.flowgraph_exceptions import resolve_min_support

    hierarchies = database.schema.dimensions
    records = database.records[:sample_size]
    if not records:
        return 0
    scale = len(database) / len(records)
    threshold = resolve_min_support(min_support, len(database))
    counts: dict[tuple[str, ...], int] = {}
    for record in records:
        key = tuple(
            h.ancestor_at_level(v, lv)
            for h, v, lv in zip(hierarchies, record.dims, level)
        )
        counts[key] = counts.get(key, 0) + 1
    return sum(1 for n in counts.values() if n * scale >= threshold)


def plan_by_budget(
    database: PathDatabase,
    max_cells: int,
    min_support: float = 0.01,
    sample_size: int = 2000,
) -> MaterializationPlan:
    """Greedy cost-based plan: add levels (finest first) while the
    estimated total cell count stays within *max_cells*.

    Derivation only rolls up, so the finest (base) level is always
    included: every level of the lattice is then materialised or
    derivable from it, whatever the budget.
    """
    lattice = ItemLattice([h.depth for h in database.schema.dimensions])
    chosen: list[ItemLevel] = []
    total = 0
    for level in reversed(list(lattice)):  # lattice order: most general first
        cost = estimate_cells(database, level, min_support, sample_size)
        if not chosen or total + cost <= max_cells:
            chosen.append(level)
            total += cost
    return MaterializationPlan(tuple(chosen))
