"""The flowcube (Section 4, Definitions 4.1 and 4.5).

A flowcube is a collection of *cuboids*.  A cuboid ``⟨Il, Pl⟩`` groups the
path database's records into cells by their item dimensions rolled up to
item level ``Il``, with the paths of each cell aggregated to path level
``Pl``; the measure of a cell is the flowgraph over those aggregated paths.

Only *iceberg* cells — at least δ paths — are materialised (Definition
4.5); flowgraph exceptions use the same δ together with the deviation
threshold ε.  Redundancy pruning (Definition 4.4) lives in
:mod:`repro.core.redundancy`.

This module defines the cube's shape, its one cell class and its one
builder.  A :class:`Cell` is its item cell's ``{joint id: weight}``
vector over a path table, mapped to its path level's multiset and
expanded to a flowgraph when first read; the roll-up, an append,
``cube_from_json``, the query planner and a store read all hand out
this class, a store's cells decoding their vector from a heap record on
first touch.  Exceptions are stored nowhere: a cell of a cube built with
them mines its own the first time its graph or ``exceptions`` is read.
:meth:`FlowCube.build` runs the roll-up of
:mod:`repro.perf.measure_rollup` over the whole database and keeps what
it hands out, every vector over the cube's :attr:`FlowCube.path_table`.
The test suite keeps a per-cell builder — every cuboid re-aggregating
every record into a graph of its own — as the oracle every build is
compared against, byte for byte.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.core.aggregation import AggregatedPath, WeightedPath, WeightedPaths
from repro.core.flowgraph import FlowGraph
from repro.core.flowgraph_exceptions import mine_exceptions_weighted
from repro.core.lattice import ItemLattice, ItemLevel, PathLattice, PathLevel
from repro.core.path_database import PathDatabase, PathSchema
from repro.errors import CubeError, StoreError

__all__ = ["CellKey", "Cell", "Cuboid", "FlowCube"]

#: A cell's coordinates: one (possibly rolled-up) value per item dimension.
CellKey = tuple[str, ...]


class Cell:
    """One cell of a cuboid: its coordinates and its path multiset.

    ``key`` / ``item_level`` / ``path_level`` / ``n_paths`` /
    ``redundant`` are the *index fields*: selection (slice, dice,
    listings) reads nothing else.  The measure is algebraic (Lemma 4.2),
    and a cell's paths at every level are functions of its records' raw
    paths, so the cells of one item cell share one ``vector`` — ``{joint
    id: weight}`` over ``table`` (a
    :class:`~repro.perf.measure_rollup.PathTable`).  ``weights`` maps it
    to the cell's level (``level_id``) on first read, keeping each path
    id's first occurrence; ``paths`` renders that as ``(path, weight)``
    pairs, and the flowgraph, expanded once at first read, is a function
    of them.

    ``record_ids`` and ``vector`` are held in hand (the roll-up, an
    append, ``cube_from_json``) or decoded together from a heap *record*
    at the first touch of either through the *loader* of the store that
    read it (:mod:`repro.store.cube_store`), which also reads the path
    table lazily — a cold open reads none.  Every cell expands its graph
    the same way.

    Exceptions are holistic (Lemma 4.3) and a pure function of the
    multiset, so no cell carries them: *mining* is the cube's ``(δ, ε)``
    when it was built with exceptions, and such a cell mines its own —
    :func:`~repro.core.flowgraph_exceptions.mine_exceptions_weighted` over
    the ``(path, weight)`` pairs its graph expands from, in the cell's own
    id space — the first time its flowgraph or ``exceptions`` is read, and
    keeps them on the graph.  With ``None`` (exceptions off) a cell never
    mines: ``exceptions`` reads ``[]``, or what ``cube_from_json``
    attached to its graph.  A damaged record is a
    :class:`~repro.errors.StoreError` at every touch.  ``vector`` is
    shared: whoever adds to one adds into a copy.
    """

    __slots__ = (
        "key",
        "item_level",
        "path_level",
        "level_id",
        "n_paths",
        "redundant",
        "_record_ids",
        "_vector",
        "_table",
        "_weights",
        "_graph",
        "_record",
        "_loader",
        "_mining",
    )

    def __init__(
        self,
        key: CellKey,
        item_level: ItemLevel,
        path_level: PathLevel,
        record_ids: tuple[int, ...] | None = None,
        vector: dict[int, int] | None = None,
        table=None,
        level_id: int = 0,
        redundant: bool = False,
        *,
        n_paths: int | None = None,
        record: bytes | None = None,
        loader=None,
        mining: tuple[float, float] | None = None,
    ) -> None:
        self.key = key
        self.item_level = item_level
        self.path_level = path_level
        self.level_id = level_id
        self.n_paths = len(record_ids) if n_paths is None else n_paths
        self.redundant = redundant
        self._record_ids = record_ids
        self._vector = vector
        self._table = table
        self._weights: dict[int, int] | None = None
        self._graph: FlowGraph | None = None
        self._record = record
        self._loader = loader
        self._mining = mining

    def _decode(self) -> None:
        self._record_ids, self._vector = self._loader.vector(self._record)

    @property
    def record_ids(self) -> tuple[int, ...]:
        """The member record ids, ascending."""
        if self._record_ids is None:
            self._decode()
        return self._record_ids

    @property
    def vector(self) -> dict[int, int]:
        """The item cell's ``{joint id: weight}``, in first-seen order."""
        if self._vector is None:
            self._decode()
        return self._vector

    @property
    def table(self):
        """The path table the vector's joint ids index."""
        table = self._table
        if table is None:
            table = self._table = self._loader.table()
        return table

    @property
    def weights(self) -> dict[int, int]:
        """The ``{path id: weight}`` multiset at the cell's path level,
        mapped from the vector in its order."""
        weights = self._weights
        if weights is None:
            vector = self.vector
            weights = {}
            try:
                pids = map(self.table.joint[self.level_id].__getitem__, vector)
                for pid, weight in zip(pids, vector.values()):
                    weights[pid] = weights.get(pid, 0) + weight
            except IndexError:
                raise StoreError(
                    "corrupt cell payload: a joint id past the path table"
                ) from None
            self._weights = weights
        return weights

    @property
    def level_paths(self) -> Sequence[AggregatedPath]:
        """The path list the level's ids index."""
        return self.table.paths[self.level_id]

    def _pairs(self) -> list[WeightedPath]:
        weights = self.weights
        level_paths = self.level_paths
        try:
            return [
                (level_paths[pid], weight) for pid, weight in weights.items()
            ]
        except IndexError:
            raise StoreError(
                "corrupt cell payload: a path id past the path table"
            ) from None

    @property
    def paths(self) -> WeightedPaths:
        """The multiset as ``(path, weight)`` pairs, in the vector's order."""
        return tuple(self._pairs())

    @property
    def flowgraph(self) -> FlowGraph:
        """The measure's graph, expanded from the vector at first read and
        carrying the cell's exceptions, mined then when the cube has them."""
        graph = self._graph
        if graph is None:
            pairs = self._pairs()
            graph = FlowGraph.expand(pairs)
            if self._mining is not None:
                mine_exceptions_weighted(graph, pairs, *self._mining)
            if self._loader is not None:
                self._loader.counters["cells_decoded"] += 1
            self._graph = graph
        return graph

    @property
    def exceptions(self) -> list:
        """The (ε, δ) exceptions: mined with the graph when the cube has
        them, else ``[]`` — or what was attached to a graph in hand."""
        graph = self._graph
        if graph is None and self._mining is None:
            return []
        return self.flowgraph.exceptions

    def __eq__(self, other: object) -> bool:
        """Field-wise equality with any cell, index fields first (cells
        at different coordinates never decode); flowgraphs, which compare
        by identity, are compared in serialised form."""
        if not isinstance(other, Cell) and not hasattr(other, "record_ids"):
            return NotImplemented
        from repro.core.serialization import flowgraph_to_dict

        return (
            self.key == other.key
            and self.item_level == other.item_level
            and self.path_level == other.path_level
            and self.redundant == other.redundant
            and self.paths == other.paths
            and self.record_ids == other.record_ids
            and (
                self.flowgraph is other.flowgraph
                or flowgraph_to_dict(self.flowgraph)
                == flowgraph_to_dict(other.flowgraph)
            )
        )

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cell({self.key!r}, n={self.n_paths}, redundant={self.redundant})"


@dataclass
class Cuboid:
    """All cells sharing one ``⟨item level, path level⟩`` pair."""

    item_level: ItemLevel
    path_level: PathLevel
    cells: dict[CellKey, Cell] = field(default_factory=dict)

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
        #: Whether the cells mine (ε, δ) exceptions when first read (set
        #: by :meth:`build`; a ``cube_from_json`` cube's graphs carry the
        #: ones it was saved with).
        self.compute_exceptions = False
        self._cuboids: dict[tuple[ItemLevel, PathLevel], Cuboid] = {}
        #: The ``PathTable`` the cells' vectors are over (set by
        #: :meth:`build` and ``cube_from_json``), as on a ``CubeStore``.
        self.path_table = None
        #: Mutation counter (the ``CubeStore.version`` contract), folded
        #: into every query cache key.  Its only writers are the in-place
        #: cell changes of :mod:`repro.core.redundancy`: ``prune_redundant``
        #: and ``drop_redundant`` bump it when they mark or remove a cell.
        self.version = 0

    @property
    def mining(self) -> tuple[float, float] | None:
        """The ``(δ, ε)`` a cell of this cube mines its exceptions with at
        first read, or ``None`` when the cube has none (as on a
        ``CubeStore``)."""
        if not self.compute_exceptions:
            return None
        return self.min_support, self.min_deviation

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
        # Shim: benchmarks/flowbench/gates.py passes Shared's segments;
        # the keyword goes with the [benchmark] PR that stops passing it.
        segments_by_cell: object = None,
        stats: object | None = None,
    ) -> "FlowCube":
        """Materialise an iceberg flowcube.

        Each distinct path is aggregated once per path level and ancestor
        cuboids derive by adding their children's joint vectors
        (:func:`repro.perf.measure_rollup.roll_up`, the roll-up the store
        build runs too).  No graph is built and nothing is mined here: a
        cell expands its graph, and mines its exceptions, when first read.

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
            compute_exceptions: Whether the cells carry the (holistic)
                exceptions, mined per cell at first read, or only the
                algebraic part of the measure.
            segments_by_cell: Accepted and ignored (see
                :func:`~repro.store.builder.build_cube`).
            stats: Optional stats sink with an ``add_phase(name, seconds)``
                method (e.g. :class:`repro.mining.stats.MiningStats`); the
                record scan lands in its ``aggregate`` bucket and the
                measure construction in ``materialize``.
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
        cube.compute_exceptions = compute_exceptions
        cube.path_table = PathTable(len(path_lattice))
        for cuboid in roll_up(
            [database],
            cube.path_table,
            requested_levels(item_lattice, item_levels),
            path_lattice,
            schema.dimensions,
            min_support,
            cube.mining,
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
    def n_records(self) -> int:
        """The records the cube covers (what δ resolves against)."""
        return len(self.database)

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
            "paths": self.n_records,
        }
