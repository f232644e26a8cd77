"""Tests for redundancy pruning (Definition 4.4) and inference."""

import pytest

from repro.core import (
    ConceptHierarchy,
    FlowCube,
    ItemLevel,
    Path,
    PathDatabase,
    PathLattice,
    PathRecord,
    PathSchema,
    drop_redundant,
    example_path_database,
    is_redundant,
    prune_redundant,
    tv_similarity,
)
from repro.core.redundancy import flowgraph_for
from repro.query import FlowCubeQuery


def milk_database() -> PathDatabase:
    """Milk behaves identically across fat levels except farm-A's skim.

    Farm-A skim milk takes a different route, so its cell must survive
    redundancy pruning while the others collapse into their parents.
    """
    product = ConceptHierarchy.from_nested(
        "product", {"milk": {"skim": {}, "whole": {}}}
    )
    farm = ConceptHierarchy.flat("farm", ["farmA", "farmB"])
    location = ConceptHierarchy.from_nested(
        "location", {"plant": {}, "store": {}, "lab": {}}
    )
    duration = ConceptHierarchy.flat("duration", [str(i) for i in range(10)])
    schema = PathSchema((product, farm), location, duration)

    normal = [("plant", 1), ("store", 2)]
    weird = [("plant", 1), ("lab", 5), ("store", 2)]
    records = []
    rid = 1
    for product_value in ("skim", "whole"):
        for farm_value in ("farmA", "farmB"):
            route = weird if (product_value, farm_value) == ("skim", "farmA") else normal
            for _ in range(6):
                records.append(
                    PathRecord(rid, (product_value, farm_value), Path(route))
                )
                rid += 1
    return PathDatabase(schema, records)


@pytest.fixture
def milk_cube() -> FlowCube:
    db = milk_database()
    lattice = PathLattice.paper_default(db.schema.location)
    return FlowCube.build(db, path_lattice=lattice, min_support=2,
                          compute_exceptions=False)


class TestIsRedundant:
    def test_conforming_cell_is_redundant(self, milk_cube):
        level = milk_cube.path_lattice[0]
        cell = milk_cube.cell(ItemLevel((2, 1)), ("whole", "farmB"), level)
        assert is_redundant(milk_cube, cell, threshold=0.9, metric=tv_similarity)

    def test_deviant_cell_is_not_redundant(self, milk_cube):
        level = milk_cube.path_lattice[0]
        cell = milk_cube.cell(ItemLevel((2, 1)), ("skim", "farmA"), level)
        assert not is_redundant(milk_cube, cell, threshold=0.9, metric=tv_similarity)

    def test_apex_never_redundant(self, milk_cube):
        level = milk_cube.path_lattice[0]
        apex = milk_cube.cell(ItemLevel((0, 0)), ("*", "*"), level)
        assert not is_redundant(milk_cube, apex, threshold=0.0, metric=tv_similarity)


class TestPrune:
    def test_prune_marks_conforming_cells(self, milk_cube):
        marked = prune_redundant(milk_cube, threshold=0.9, metric=tv_similarity)
        assert marked > 0
        level = milk_cube.path_lattice[0]
        survivor = milk_cube.cell(ItemLevel((2, 1)), ("skim", "farmA"), level)
        assert not survivor.redundant
        pruned = milk_cube.cell(ItemLevel((2, 1)), ("whole", "farmB"), level)
        assert pruned.redundant

    def test_inference_falls_back_to_ancestor(self, milk_cube):
        prune_redundant(milk_cube, threshold=0.9, metric=tv_similarity)
        level = milk_cube.path_lattice[0]
        graph = flowgraph_for(
            milk_cube, ItemLevel((2, 1)), ("whole", "farmB"), level
        )
        # The inferred graph comes from an ancestor, so it aggregates more
        # paths than the pruned cell itself held (6).
        assert graph.n_paths > 6

    def test_drop_redundant_removes_cells(self, milk_cube):
        before = milk_cube.n_cells()
        marked = prune_redundant(milk_cube, threshold=0.9, metric=tv_similarity)
        removed = drop_redundant(milk_cube)
        assert removed == marked
        assert milk_cube.n_cells() == before - removed

    def test_nonredundant_count_matches_describe(self, milk_cube):
        prune_redundant(milk_cube, threshold=0.9, metric=tv_similarity)
        stats = milk_cube.describe()
        assert stats["redundant_cells"] == milk_cube.n_cells() - milk_cube.n_cells(
            include_redundant=False
        )

    def test_threshold_one_marks_nothing(self, milk_cube):
        # φ ∈ [0,1]: with τ = 1 no similarity can strictly exceed it.
        assert prune_redundant(milk_cube, threshold=1.0, metric=tv_similarity) == 0

    def test_prune_is_idempotent(self, milk_cube):
        first = prune_redundant(milk_cube, threshold=0.9, metric=tv_similarity)
        second = prune_redundant(milk_cube, threshold=0.9, metric=tv_similarity)
        assert first > 0 and second == 0


def test_held_query_facade_sees_pruning_and_dropping():
    """Marking and removing cells bump ``FlowCube.version``, which every
    query cache key folds in, so a façade held across either answers
    like a fresh one: a marked cell's flowgraph is its ancestor's, and a
    dropped cell leaves the default slice."""
    cube = FlowCube.build(example_path_database(), min_support=2)
    held = FlowCubeQuery(cube)
    names = cube.database.schema.dimension_names

    def coordinates(cell):
        return {
            name: value
            for name, value, depth in zip(
                names, cell.key, cell.item_level.levels
            )
            if depth > 0
        }

    cells = list(cube.cells())
    for cell in cells:  # warm the façade's cache with every cell's graph
        assert held.flowgraph(cell.path_level, **coordinates(cell)) is (
            cell.flowgraph
        )
    assert len(held.slice_cells(None)) == 16

    assert prune_redundant(cube, threshold=0.3, metric=tv_similarity) == 60
    redundant = [cell for cell in cells if cell.redundant]
    assert len(redundant) == 60
    for cell in redundant:
        dims = coordinates(cell)
        answer = held.flowgraph(cell.path_level, **dims)
        assert answer is not cell.flowgraph
        assert answer is FlowCubeQuery(cube).flowgraph(cell.path_level, **dims)
    assert cube.version == 1

    assert drop_redundant(cube) == 60
    fresh = FlowCubeQuery(cube).slice_cells(None)
    assert len(fresh) == 1
    assert held.slice_cells(None) == fresh
    assert cube.version == 2

    # Nothing marked, nothing removed: the caches stay valid.
    assert prune_redundant(cube, threshold=0.3, metric=tv_similarity) == 0
    assert drop_redundant(cube) == 0
    assert cube.version == 2
