"""The flowcube (Section 4, Definitions 4.1 and 4.5).

A flowcube is a collection of *cuboids*.  A cuboid ``⟨Il, Pl⟩`` groups the
path database's records into cells by their item dimensions rolled up to
item level ``Il``, with the paths of each cell aggregated to path level
``Pl``; the measure of a cell is the flowgraph over those aggregated paths.

Only *iceberg* cells — at least δ paths — are materialised (Definition
4.5); flowgraph exceptions use the same δ together with the deviation
threshold ε.  Redundancy pruning (Definition 4.4) lives in
:mod:`repro.core.redundancy`.

This module provides the direct (semantics-defining) builder.  The
optimised construction paths — the Shared algorithm and the Cubing baseline
— live in :mod:`repro.mining` and produce the same cells; the test-suite
cross-checks them against this builder.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.aggregation import (
    WeightedPaths,
    aggregate_path,
    weight_paths,
)
from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import (
    Segment,
    mine_exceptions_weighted,
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

__all__ = ["CellKey", "Cell", "Cuboid", "FlowCube"]

#: A cell's coordinates: one (possibly rolled-up) value per item dimension.
CellKey = tuple[str, ...]


@dataclass
class Cell:
    """One cell of a cuboid: coordinates, member paths, and the measure.

    ``key`` / ``item_level`` / ``path_level`` / ``n_paths`` /
    ``redundant`` are the *index fields*: selection (slice, dice,
    listings) reads nothing else.  ``record_ids`` and ``flowgraph`` are
    the *measure*; a cube that keeps cells on disk
    (:class:`~repro.store.cube_store.StoredCell`) may defer decoding
    them until first read, so code that only selects must not touch
    them.
    """

    key: CellKey
    item_level: ItemLevel
    path_level: PathLevel
    record_ids: tuple[int, ...]
    flowgraph: FlowGraph
    #: The cell's path multiset in weighted ``(path, weight)`` form — each
    #: distinct aggregated path once, in first-seen record order, with its
    #: multiplicity (kept for exception re-mining and lead-time queries;
    #: drop with :meth:`FlowCube.compact`).
    paths: WeightedPaths = ()
    #: Set by redundancy pruning when the cell's flowgraph is inferable
    #: from its item-lattice parents.
    redundant: bool = False

    @property
    def n_paths(self) -> int:
        """Number of paths aggregated in the cell."""
        return len(self.record_ids)

    @property
    def exceptions(self) -> list:
        """The flowgraph's exceptions (a cell that defers its flowgraph
        may answer without building one)."""
        return self.flowgraph.exceptions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cell({self.key!r}, n={self.n_paths}, redundant={self.redundant})"


@dataclass
class Cuboid:
    """All cells sharing one ``⟨item level, path level⟩`` pair."""

    item_level: ItemLevel
    path_level: PathLevel
    cells: dict[CellKey, Cell] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def __contains__(self, key: CellKey) -> bool:
        return key in self.cells

    def cell(self, key: CellKey) -> Cell:
        """The cell at *key*, raising if not materialised."""
        try:
            return self.cells[key]
        except KeyError:
            raise CubeError(
                f"cell {key!r} is not materialised in cuboid "
                f"{self.item_level.levels!r}"
            ) from None

    def cells_for(self, keys: Iterable[CellKey]) -> list[Cell]:
        """The cells at *keys*, in order (a store batches this read)."""
        return [self.cell(key) for key in keys]


class FlowCube:
    """A materialised iceberg flowcube over a path database.

    Build one with :meth:`FlowCube.build`; query cells through
    :meth:`cuboid` / :meth:`cell` / :meth:`flowgraph_for`, or the richer
    OLAP wrapper in :mod:`repro.query.api`.
    """

    def __init__(
        self,
        database: PathDatabase,
        item_lattice: ItemLattice,
        path_lattice: PathLattice,
        min_support: float,
        min_deviation: float,
    ) -> None:
        self.database = database
        self.item_lattice = item_lattice
        self.path_lattice = path_lattice
        self.min_support = min_support
        self.min_deviation = min_deviation
        self._cuboids: dict[tuple[ItemLevel, PathLevel], Cuboid] = {}
        #: Mutation counter (the ``CubeStore.version`` contract): bumped by
        #: whatever changes cells in place, folded into every query cache key.
        self.version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
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
        engine: str = "rollup",
        stats: object | None = None,
    ) -> "FlowCube":
        """Materialise an iceberg flowcube.

        Args:
            database: The path database.
            path_lattice: Interesting path levels; defaults to the paper's
                four (Section 6.1).
            item_levels: Item levels to materialise; defaults to the whole
                item lattice (partial materialisation plans pass a subset —
                see :mod:`repro.core.materialization`).
            min_support: δ for both the iceberg condition and exceptions;
                a fraction of the database (<1) or an absolute path count.
            min_deviation: ε for exceptions.
            compute_exceptions: Skip the (holistic) exception pass when
                only the algebraic part of the measure is needed.
            segments_by_cell: Pre-mined frequent segments per cell, e.g.
                from :func:`repro.mining.shared.shared_mine` — avoids the
                per-cell local mining pass.
            engine: ``"rollup"`` (default) aggregates each record once per
                path level, derives ancestor cuboids by merging child
                cells (:mod:`repro.perf.measure_rollup`) and mines
                exceptions with the bitmap kernel
                (:mod:`repro.perf.exception_kernel`); ``"direct"`` is the
                semantics-defining per-cell builder with the per-path
                ``"scan"`` exception kernel — the reference the
                cross-check tests validate the roll-up engine against.
                Both produce byte-identical serialised cubes and identical
                exception lists.
            stats: Optional stats sink with an ``add_phase(name, seconds)``
                method (e.g. :class:`repro.mining.stats.MiningStats`); the
                measure construction time lands in its ``materialize``
                bucket and the exception pass in ``exceptions``.
        """
        if engine == "rollup":
            from repro.perf.measure_rollup import build_rollup

            return build_rollup(
                cls,
                database,
                path_lattice=path_lattice,
                item_levels=item_levels,
                min_support=min_support,
                min_deviation=min_deviation,
                compute_exceptions=compute_exceptions,
                segments_by_cell=segments_by_cell,
                stats=stats,
            )
        if engine != "direct":
            raise CubeError(
                f"unknown measure engine {engine!r}; use 'direct' or 'rollup'"
            )
        started = perf_counter()
        exception_seconds = 0.0
        schema = database.schema
        item_lattice = ItemLattice([h.depth for h in schema.dimensions])
        if path_lattice is None:
            path_lattice = PathLattice.paper_default(schema.location)
        cube = cls(
            database, item_lattice, path_lattice, min_support, min_deviation
        )
        levels = list(item_levels) if item_levels is not None else list(item_lattice)
        threshold = resolve_min_support(min_support, len(database))
        for item_level in levels:
            if item_level not in item_lattice:
                raise CubeError(f"item level {item_level!r} outside the lattice")
            groups = cube._group_records(item_level)
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
                    cell = Cell(
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
                cube._cuboids[(item_level, path_level)] = cuboid
        if stats is not None:
            if compute_exceptions:
                stats.add_phase("exceptions", exception_seconds)
            stats.add_phase(
                "materialize", perf_counter() - started - exception_seconds
            )
        return cube

    def _group_records(self, item_level: ItemLevel) -> dict[CellKey, list[int]]:
        """Group record ids by their dims rolled up to *item_level*."""
        hierarchies = self.database.schema.dimensions
        groups: dict[CellKey, list[int]] = {}
        for record in self.database:
            key = roll_up_key(record.dims, item_level, hierarchies)
            groups.setdefault(key, []).append(record.record_id)
        return groups

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def cuboids(self) -> tuple[Cuboid, ...]:
        """All materialised cuboids."""
        return tuple(self._cuboids.values())

    def cuboid(self, item_level: ItemLevel, path_level: PathLevel) -> Cuboid:
        """The cuboid ⟨item_level, path_level⟩, raising if absent."""
        try:
            return self._cuboids[(item_level, path_level)]
        except KeyError:
            raise CubeError(
                f"cuboid ⟨{item_level.levels!r}, ...⟩ is not materialised"
            ) from None

    def has_cuboid(self, item_level: ItemLevel, path_level: PathLevel) -> bool:
        """Whether the cuboid ⟨item_level, path_level⟩ was materialised."""
        return (item_level, path_level) in self._cuboids

    def cell(
        self, item_level: ItemLevel, key: CellKey, path_level: PathLevel
    ) -> Cell:
        """Direct cell lookup."""
        return self.cuboid(item_level, path_level).cell(key)

    def cells(self) -> Iterator[Cell]:
        """Every materialised cell across all cuboids."""
        for cuboid in self._cuboids.values():
            yield from cuboid

    def n_cells(self, include_redundant: bool = True) -> int:
        """Number of materialised cells."""
        return sum(
            1 for cell in self.cells() if include_redundant or not cell.redundant
        )

    # ------------------------------------------------------------------
    # redundancy-aware access
    # ------------------------------------------------------------------
    def parent_cells(self, cell: Cell) -> list[Cell]:
        """The cell's item-lattice parents at the same path level.

        One parent per dimension not already at ``*``: the cell whose key
        rolls that dimension up one hierarchy level (Definition 4.4).
        Parents whose cuboid or cell is not materialised are skipped.
        """
        hierarchies = self.database.schema.dimensions
        parents: list[Cell] = []
        for dim, level in enumerate(cell.item_level):
            if level == 0:
                continue
            raised = list(cell.item_level.levels)
            raised[dim] = level - 1
            parent_level = ItemLevel(raised)
            parent_key = tuple(
                hierarchies[i].ancestor_at_level(value, parent_level[i])
                for i, value in enumerate(cell.key)
            )
            cuboid = self._cuboids.get((parent_level, cell.path_level))
            if cuboid is not None and parent_key in cuboid:
                parents.append(cuboid.cell(parent_key))
        return parents

    def flowgraph_for(
        self, item_level: ItemLevel, key: CellKey, path_level: PathLevel
    ) -> FlowGraph:
        """The cell's flowgraph, inferring from ancestors when redundant.

        A redundant (pruned) cell behaves like its nearest non-redundant
        item-lattice ancestor — the inference rule of Section 4.3.
        """
        cell = self.cell(item_level, key, path_level)
        while cell.redundant:
            parents = [p for p in self.parent_cells(cell) if not p.redundant]
            if not parents:
                parents = self.parent_cells(cell)
            if not parents:
                break  # no ancestor to infer from: fall back to own graph
            cell = max(parents, key=lambda c: c.n_paths)
        return cell.flowgraph

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Drop per-cell aggregated paths to shrink the materialised cube.

        Exceptions and distributions are unaffected; only re-mining with
        different (ε, δ) would need the paths again.
        """
        for cell in self.cells():
            cell.paths = ()

    def describe(self) -> dict[str, object]:
        """Summary statistics (cuboids, cells, redundancy) for reporting."""
        cells = list(self.cells())
        return {
            "cuboids": len(self._cuboids),
            "cells": len(cells),
            "redundant_cells": sum(1 for c in cells if c.redundant),
            "exceptions": sum(len(c.flowgraph.exceptions) for c in cells),
            "paths": len(self.database),
        }
