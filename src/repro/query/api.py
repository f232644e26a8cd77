"""OLAP queries over a materialised flowcube (Section 4 intro).

:class:`FlowCubeQuery` wraps a :class:`~repro.core.flowcube.FlowCube` with
the classic operations, phrased in flowcube terms:

* **slice/dice** — fix dimension values (at any abstraction level) and get
  the matching cells;
* **roll-up / drill-down** — move a cell's coordinates one step along the
  item lattice, or switch its path abstraction level (the path-lattice
  direction is unique to flowcubes);
* **measure access** — the flowgraph of any coordinates, with redundancy
  inference applied.

Dimension values are given by *name* (``product="outerwear"``); the query
derives the item level from where each named value sits in its hierarchy.

The read path is index-first: slice/dice runs on the bitmap key catalogs
of :mod:`repro.perf.query_kernel` (predicates answered by AND over
per-(dimension, concept) masks before any cell is materialised), answers
are memoised in a :class:`~repro.perf.query_kernel.QueryCache`, and —
when asked to derive — non-materialised coordinates are answered by the
roll-up planner (:mod:`repro.query.planner`) instead of raising.

The keyword operators are the library front-end; ``flowcube-store query``
and the HTTP slicer parse their request into a
:class:`~repro.query.plan.Plan` and run it on one of these objects.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator

from repro.core.flowcube import Cell, CellKey, Cuboid, FlowCube
from repro.core.flowgraph import FlowGraph
from repro.core.lattice import ItemLevel, PathLevel
from repro.core.redundancy import flowgraph_for
from repro.errors import QueryError
from repro.perf.query_kernel import CatalogPool, QueryCache
from repro.query.planner import (
    DerivationPlan,
    derive_cell,
    derive_cuboid,
    plan_derivation,
)

__all__ = ["FlowCubeQuery", "QUERY_KERNELS"]

#: Slice kernels: ``"index"`` answers predicates from bitmap key catalogs
#: before touching cells; ``"scan"`` is the cell-at-a-time reference.
QUERY_KERNELS = ("index", "scan")


class FlowCubeQuery:
    """Fluent OLAP access to a flowcube.

    Works over any cube-shaped object: the in-memory
    :class:`~repro.core.flowcube.FlowCube` or the persistent
    :class:`~repro.store.cube_store.CubeStore` — both provide the same
    ``schema`` / ``cuboids`` / ``cell`` lookup surface.

    Args:
        cube: The flowcube (or cube store) to query.
        kernel: Slice kernel, one of :data:`QUERY_KERNELS`.  The default
            ``"index"`` evaluates key predicates on bitmap catalogs built
            from the cuboid key index, so only matching cells are ever
            materialised; ``"scan"`` re-checks every cell (the seed
            behaviour, kept as the byte-identical reference).
        derive: When true, coordinates whose cuboid was not materialised
            are answered by the roll-up planner — merged from the
            cheapest materialised descendant cuboid — instead of raising
            :class:`~repro.errors.QueryError`.
        cache_size: Capacity of the per-query-object answer cache.
        catalogs: Optional shared :class:`CatalogPool`.  A server keeps
            one pool per tenant so the bitmap key catalogs survive across
            requests (and query objects) instead of being rebuilt; when
            omitted, the query object owns a pool of its own.

    One query object may be shared by concurrent threads (the serving
    layer reuses a single façade per tenant): the answer cache and the
    catalog pool lock internally, the cube's mutation ``version`` is
    folded into every cache key, and the remaining memos (dimension
    indices, derivation plans) are version-independent values where a
    racing double-compute is idempotent.
    """

    def __init__(
        self,
        cube: FlowCube,
        kernel: str = "index",
        derive: bool = False,
        cache_size: int = 128,
        catalogs: CatalogPool | None = None,
    ) -> None:
        if kernel not in QUERY_KERNELS:
            raise QueryError(
                f"unknown query kernel {kernel!r}; expected one of "
                f"{QUERY_KERNELS}"
            )
        self.cube = cube
        self.kernel = kernel
        self.derive = derive
        self._schema = cube.schema
        self._hierarchies = self._schema.dimensions
        self._dims: dict[str, int] = {}
        self._default_path_level: PathLevel | None = None
        #: (item level, path level) -> (cube version, plan): a plan is
        #: recomputed once the cube has mutated since, in place.
        self._plans: dict[tuple, tuple[int, DerivationPlan | None]] = {}
        self._cache = QueryCache(cache_size)
        self._pool = catalogs if catalogs is not None else CatalogPool()

    # ------------------------------------------------------------------
    # coordinate helpers
    # ------------------------------------------------------------------
    def _dim_index(self, name: str) -> int:
        """``schema.dimension_index(name)``, memoised per query object."""
        index = self._dims.get(name)
        if index is None:
            index = self._schema.dimension_index(name)
            self._dims[name] = index
        return index

    def coordinates(self, **dims: str) -> tuple[ItemLevel, tuple[str, ...]]:
        """Resolve named dimension values into (item level, cell key).

        Unmentioned dimensions are ``*``.  Example::

            level, key = q.coordinates(product="outerwear", brand="nike")
        """
        levels = [0] * self._schema.n_dimensions
        key = ["*"] * self._schema.n_dimensions
        for name, value in dims.items():
            index = self._dim_index(name)
            hierarchy = self._hierarchies[index]
            if value not in hierarchy:
                raise QueryError(
                    f"{value!r} is not a {name!r} concept"
                )
            levels[index] = hierarchy.level_of(value)
            key[index] = value
        return ItemLevel(levels), tuple(key)

    def default_path_level(self) -> PathLevel:
        """The most detailed materialised path level (computed once)."""
        if self._default_path_level is None:
            self._default_path_level = max(
                self.cube.path_lattice,
                key=lambda lv: (lv.duration_level, len(lv.view.concepts)),
            )
        return self._default_path_level

    # ------------------------------------------------------------------
    # derivation (roll-up planner)
    # ------------------------------------------------------------------
    def plan_for(
        self, item_level: ItemLevel, path_level: PathLevel | None = None
    ) -> DerivationPlan | None:
        """The planner's choice for a coordinate (memoised), or ``None``."""
        level = path_level or self.default_path_level()
        version = self.cube.version
        memo = self._plans.get((item_level, level))
        if memo is None or memo[0] != version:
            memo = self._plans[item_level, level] = (
                version, plan_derivation(self.cube, item_level, level),
            )
        return memo[1]

    def _require_plan(
        self, item_level: ItemLevel, level: PathLevel
    ) -> DerivationPlan:
        plan = self.plan_for(item_level, level)
        if plan is None:
            raise QueryError(
                f"cuboid for levels {item_level.levels!r} was not "
                "materialised and no materialised descendant cuboid can "
                "derive it"
            )
        return plan

    def _derived_cell(
        self, item_level: ItemLevel, key: CellKey, level: PathLevel
    ) -> Cell:
        cache_key = ("cell", self.cube.version, item_level, key, level)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        plan = self._require_plan(item_level, level)
        cell = derive_cell(self.cube, plan, key)
        self._cache.note_derivation()
        self._cache.put(cache_key, cell)
        return cell

    def derived_cuboid(
        self, item_level: ItemLevel, path_level: PathLevel | None = None
    ) -> Cuboid:
        """The whole cuboid at a non-materialised coordinate, derived.

        Merged from the planner's chosen source with the build-time
        roll-up grouping; memoised per coordinate.  See
        :mod:`repro.query.planner` for the exactness contract.
        """
        level = path_level or self.default_path_level()
        cache_key = ("cuboid", self.cube.version, item_level, level)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        plan = self._require_plan(item_level, level)
        cuboid = derive_cuboid(self.cube, plan)
        self._cache.note_derivation()
        self._cache.put(cache_key, cuboid)
        return cuboid

    def deriving(self) -> "FlowCubeQuery":
        """This façade with ``derive=True`` (itself, if it already is).

        A shallow copy sharing the answer cache, the catalog pool and every
        memo — how a :class:`~repro.query.plan.Plan` that asks to derive
        runs on a façade built without.
        """
        if self.derive:
            return self
        twin = copy.copy(self)
        twin.derive = True
        return twin

    def _cell_at(
        self, item_level: ItemLevel, key: CellKey, level: PathLevel
    ) -> Cell:
        """Cell lookup that falls back to derivation when enabled."""
        if not self.cube.has_cuboid(item_level, level):
            if self.derive:
                return self._derived_cell(item_level, key, level)
            raise QueryError(
                f"cuboid for levels {item_level.levels!r} was not materialised "
                "(adjust the materialisation plan)"
            )
        cuboid = self.cube.cuboid(item_level, level)
        if key not in cuboid:
            raise QueryError(
                f"cell {key!r} is below the iceberg threshold "
                f"(δ={self.cube.min_support}) or outside the data"
            )
        return cuboid.cell(key)

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def cell(self, path_level: PathLevel | None = None, **dims: str) -> Cell:
        """The cell at the named coordinates.

        Raises :class:`~repro.errors.QueryError` when the cell fell below
        the iceberg threshold (it was never materialised).  With
        ``derive=True`` a missing *cuboid* is answered by the roll-up
        planner instead.
        """
        item_level, key = self.coordinates(**dims)
        return self._cell_at(
            item_level, key, path_level or self.default_path_level()
        )

    def flowgraph(
        self, path_level: PathLevel | None = None, **dims: str
    ) -> FlowGraph:
        """The measure at the named coordinates, with redundancy inference."""
        item_level, key = self.coordinates(**dims)
        level = path_level or self.default_path_level()
        if not self.cube.has_cuboid(item_level, level):
            # Derived measures are memoised with their cell, never under
            # the key below: a façade that does not derive shares its
            # cache with a twin that does, and must still refuse.
            return self._cell_at(item_level, key, level).flowgraph
        cache_key = ("flowgraph", self.cube.version, item_level, key, level)
        graph = self._cache.get(cache_key)
        if graph is None:
            graph = flowgraph_for(self.cube, item_level, key, level)
            self._cache.put(cache_key, graph)
        return graph

    def slice(
        self, path_level: PathLevel | None = None, **dims: str
    ) -> Iterator[Cell]:
        """All materialised cells matching the named values.

        A cell matches when, on every named dimension, its value equals the
        given concept or is a descendant of it; other dimensions may hold
        anything at any level.  With the default ``"index"`` kernel the
        predicate is answered from the cuboid key catalogs, so cells that
        do not match are never materialised (no cell-file IO over a
        :class:`~repro.store.cube_store.CubeStore`).
        """
        yield from self.slice_cells(path_level, **dims)

    def slice_cells(
        self, path_level: PathLevel | None = None, **dims: str
    ) -> tuple[Cell, ...]:
        """:meth:`slice` as a fully materialised (and cached) tuple.

        The serving layer prefers this form: the whole answer is computed
        against one consistent cube version and memoised, so concurrent
        requests can never observe a half-built entry.
        """
        level = path_level or self.default_path_level()
        constraints: list[tuple[int, str]] = []
        for name, value in dims.items():
            index = self._dim_index(name)
            if value not in self._hierarchies[index]:
                raise QueryError(f"{value!r} is not a {name!r} concept")
            constraints.append((index, value))
        version = self.cube.version
        cache_key = (
            "slice",
            version,
            level,
            tuple(sorted(constraints)),
            self.kernel,
        )
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        out = tuple(self._slice_cells(level, constraints, version))
        self._cache.put(cache_key, out)
        return out

    def _slice_cells(
        self,
        level: PathLevel,
        constraints: list[tuple[int, str]],
        version: int,
    ) -> Iterator[Cell]:
        for cuboid in self.cube.cuboids:
            if cuboid.path_level != level:
                continue
            if self.kernel == "index":
                # The pool rebuilds a catalog when the cube's version or
                # the cuboid's size changes.  *version* was read before
                # the cuboids, so it is never newer than the cuboid: a
                # catalog of a superseded cube is never filed as current.
                catalog = self._pool.catalog(
                    cuboid, self._hierarchies, version
                )
                yield from cuboid.cells_for(catalog.matching_keys(constraints))
            else:
                for cell in cuboid:
                    if all(
                        self._matches(index, value, cell.key[index])
                        for index, value in constraints
                    ):
                        yield cell

    def _matches(self, dim: int, wanted: str, actual: str) -> bool:
        if actual == "*":
            return wanted == "*"
        hierarchy = self._hierarchies[dim]
        return actual == wanted or hierarchy.is_ancestor(wanted, actual)

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def roll_up(self, cell: Cell, dimension: str) -> Cell:
        """The parent cell with *dimension* one hierarchy level higher."""
        index = self._dim_index(dimension)
        if cell.item_level[index] == 0:
            raise QueryError(f"dimension {dimension!r} is already at '*'")
        hierarchy = self._hierarchies[index]
        levels = list(cell.item_level.levels)
        key = list(cell.key)
        levels[index] -= 1
        key[index] = (
            "*" if levels[index] == 0
            else hierarchy.ancestor_at_level(key[index], levels[index])
        )
        return self._cell_at(ItemLevel(levels), tuple(key), cell.path_level)

    def drill_down(self, cell: Cell, dimension: str) -> list[Cell]:
        """All materialised children with *dimension* one level deeper."""
        index = self._dim_index(dimension)
        hierarchy = self._hierarchies[index]
        if cell.item_level[index] >= hierarchy.depth:
            raise QueryError(f"dimension {dimension!r} is already at leaves")
        levels = list(cell.item_level.levels)
        levels[index] += 1
        child_level = ItemLevel(levels)
        if self.cube.has_cuboid(child_level, cell.path_level):
            cuboid = self.cube.cuboid(child_level, cell.path_level)
        elif self.derive:
            cuboid = self.derived_cuboid(child_level, cell.path_level)
        else:
            raise QueryError(
                f"child cuboid {child_level.levels!r} was not materialised"
            )
        children = (
            hierarchy.concepts_at_level(1)
            if cell.key[index] == "*"
            else hierarchy.children(cell.key[index])
        )
        out = []
        for child_value in children:
            key = list(cell.key)
            key[index] = child_value
            if tuple(key) in cuboid:
                out.append(cuboid.cell(tuple(key)))
        return out

    def change_path_level(self, cell: Cell, path_level: PathLevel) -> Cell:
        """The same item coordinates at another path abstraction level."""
        return self._cell_at(cell.item_level, cell.key, path_level)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, float | int]:
        """The query cache's hit/miss/eviction/derivation counters."""
        return self._cache.stats()
