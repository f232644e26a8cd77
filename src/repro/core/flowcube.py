"""The flowcube (Section 4, Definitions 4.1 and 4.5).

A flowcube is a collection of *cuboids*.  A cuboid ``⟨Il, Pl⟩`` groups the
path database's records into cells by their item dimensions rolled up to
item level ``Il``, with the paths of each cell aggregated to path level
``Pl``; the measure of a cell is the flowgraph over those aggregated paths.

Only *iceberg* cells — at least δ paths — are materialised (Definition
4.5); flowgraph exceptions use the same δ together with the deviation
threshold ε.  Redundancy pruning (Definition 4.4) lives in
:mod:`repro.core.redundancy`.

This module defines the cube's shape and its one builder,
:meth:`FlowCube.build`, which runs the roll-up of
:mod:`repro.perf.measure_rollup` over the whole database and keeps what
it hands out: every cell a
:class:`~repro.perf.measure_rollup.VectorCell` — its ``{pid: weight}``
vector over the cube's :attr:`FlowCube.path_table` — whose flowgraph is
expanded when first read, as a stored cell's is.  The test
suite keeps a per-cell builder — every cuboid re-aggregating every record
— as the oracle every build is compared against, byte for byte.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.aggregation import WeightedPaths
from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import Segment
from repro.core.lattice import ItemLattice, ItemLevel, PathLattice, PathLevel
from repro.core.path_database import PathDatabase, PathSchema
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
    #: multiplicity.  Every cell carries it: the flowgraph is a function
    #: of it (Lemma 4.2), and exceptions are re-mined from it (Lemma 4.3).
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
    #: A stored cuboid's key-catalog masks; none precomputed in memory.
    value_masks = None

    @property
    def keys(self) -> tuple[CellKey, ...]:
        """The cell keys, in cuboid order."""
        return tuple(self.cells)

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
    :meth:`cuboid` / :meth:`cell`, or the richer OLAP wrapper in
    :mod:`repro.query.api`.
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
        #: The ``PathTable`` the cells' vectors are over (set by
        #: :meth:`build` and ``cube_from_json``), as on a ``CubeStore``.
        self.path_table = None
        #: Mutation counter (the ``CubeStore.version`` contract), folded
        #: into every query cache key.  Its only writers are the in-place
        #: cell changes of :mod:`repro.core.redundancy`: ``prune_redundant``
        #: and ``drop_redundant`` bump it when they mark or remove a cell.
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
        stats: object | None = None,
    ) -> "FlowCube":
        """Materialise an iceberg flowcube.

        Each distinct path is aggregated once per path level, ancestor
        cuboids derive by adding their children's path multisets, and
        exceptions are mined with the bitmap kernel
        (:func:`repro.perf.measure_rollup.roll_up`, the roll-up the store
        build runs too).

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
            stats: Optional stats sink with an ``add_phase(name, seconds)``
                method (e.g. :class:`repro.mining.stats.MiningStats`); the
                record scan lands in its ``aggregate`` bucket, the measure
                construction in ``materialize`` and the exception pass in
                ``exceptions``.
        """
        from repro.perf.measure_rollup import (
            PathTable,
            requested_levels,
            roll_up,
        )

        schema = database.schema
        item_lattice = ItemLattice([h.depth for h in schema.dimensions])
        if path_lattice is None:
            path_lattice = PathLattice.paper_default(schema.location)
        cube = cls(
            database, item_lattice, path_lattice, min_support, min_deviation
        )
        cube.path_table = PathTable(len(path_lattice))
        for cuboid in roll_up(
            [database],
            cube.path_table,
            requested_levels(item_lattice, item_levels),
            path_lattice,
            schema.dimensions,
            min_support,
            min_deviation,
            compute_exceptions,
            segments_by_cell,
            stats,
        ):
            cube._cuboids[(cuboid.item_level, cuboid.path_level)] = cuboid
        return cube

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def schema(self) -> PathSchema:
        """The schema of the cube's path database (what a store keeps)."""
        return self.database.schema

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

    def cell_sizes(
        self, item_level: ItemLevel, path_level: PathLevel
    ) -> dict[CellKey, int]:
        """Per-cell ``n_paths`` of one cuboid, touching no measure."""
        return {cell.key: cell.n_paths for cell in self.cuboid(item_level, path_level)}

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

    def describe(self) -> dict[str, object]:
        """Summary statistics (cuboids, cells, redundancy) for reporting."""
        cells = list(self.cells())
        return {
            "cuboids": len(self._cuboids),
            "cells": len(cells),
            "redundant_cells": sum(1 for c in cells if c.redundant),
            "exceptions": sum(len(c.exceptions) for c in cells),
            "paths": len(self.database),
        }
