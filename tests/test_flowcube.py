"""Unit + integration tests for flowcube construction (repro.core.flowcube)."""

import pytest

from repro.core import (
    FlowCube,
    ItemLevel,
    PathLattice,
    example_path_database,
)
from repro.core.redundancy import parent_cells
from repro.errors import CubeError


@pytest.fixture(scope="module")
def cube(paper_db_module, paper_lattice_module):
    return FlowCube.build(
        paper_db_module,
        path_lattice=paper_lattice_module,
        min_support=2,
    )


@pytest.fixture(scope="module")
def paper_db_module():
    return example_path_database()


@pytest.fixture(scope="module")
def paper_lattice_module(paper_db_module):
    return PathLattice.paper_default(paper_db_module.schema.location)


class TestBuild:
    def test_cuboid_count(self, cube, paper_db_module, paper_lattice_module):
        # Item lattice: product depth 3, brand depth 1 -> 4*2=8 item levels;
        # times 4 path levels = 32 cuboids.
        assert len(cube.cuboids) == 8 * len(paper_lattice_module)

    def test_iceberg_prunes_rare_cells(self, cube, paper_lattice_module):
        # (shirt, *) holds a single path: below δ=2, not materialised.
        level = ItemLevel((3, 0))
        cuboid = cube.cuboid(level, paper_lattice_module[0])
        assert ("shirt", "*") not in cuboid
        assert ("tennis", "*") in cuboid  # 4 paths

    def test_table2_cells(self, cube, paper_lattice_module):
        # Table 2's aggregation: product at type level, brand at leaf.
        level = ItemLevel((2, 1))
        cuboid = cube.cuboid(level, paper_lattice_module[0])
        assert cuboid.cell(("shoes", "nike")).record_ids == (1, 2, 3)
        assert cuboid.cell(("shoes", "adidas")).record_ids == (7, 8)
        assert cuboid.cell(("outerwear", "nike")).record_ids == (4, 5, 6)

    def test_figure4_flowgraph(self, cube, paper_lattice_module):
        cell = cube.cell(
            ItemLevel((2, 1)), ("outerwear", "nike"), paper_lattice_module[0]
        )
        truck = cell.flowgraph.node(("factory", "truck"))
        dist = truck.transition_distribution()
        assert dist["shelf"] == pytest.approx(2 / 3)
        assert dist["warehouse"] == pytest.approx(1 / 3)

    def test_apex_cell_holds_everything(self, cube, paper_lattice_module):
        apex = cube.cell(ItemLevel((0, 0)), ("*", "*"), paper_lattice_module[0])
        assert apex.n_paths == 8

    def test_missing_cell_raises(self, cube, paper_lattice_module):
        with pytest.raises(CubeError, match="not materialised"):
            cube.cell(ItemLevel((3, 0)), ("shirt", "*"), paper_lattice_module[0])

    def test_missing_cuboid_raises(self, cube, paper_lattice_module):
        with pytest.raises(CubeError):
            cube.cuboid(ItemLevel((9, 9)), paper_lattice_module[0])

    def test_invalid_item_level_rejected(self, paper_db_module):
        with pytest.raises(CubeError, match="outside the lattice"):
            FlowCube.build(
                paper_db_module, item_levels=[ItemLevel((9, 9))], min_support=2
            )

    def test_partial_materialisation(self, paper_db_module, paper_lattice_module):
        partial = FlowCube.build(
            paper_db_module,
            path_lattice=paper_lattice_module,
            item_levels=[ItemLevel((0, 0)), ItemLevel((1, 1))],
            min_support=2,
        )
        assert len(partial.cuboids) == 2 * len(paper_lattice_module)
        assert not partial.has_cuboid(ItemLevel((2, 1)), paper_lattice_module[0])

    def test_exceptions_optional(self, paper_db_module):
        bare = FlowCube.build(paper_db_module, min_support=2,
                              compute_exceptions=False)
        assert all(not c.flowgraph.exceptions for c in bare.cells())


class TestParents:
    def test_parent_cells(self, cube, paper_lattice_module):
        cell = cube.cell(
            ItemLevel((2, 1)), ("outerwear", "nike"), paper_lattice_module[0]
        )
        parents = parent_cells(cube, cell)
        keys = {(p.item_level.levels, p.key) for p in parents}
        assert ((1, 1), ("clothing", "nike")) in keys
        assert ((2, 0), ("outerwear", "*")) in keys

    def test_apex_has_no_parents(self, cube, paper_lattice_module):
        apex = cube.cell(ItemLevel((0, 0)), ("*", "*"), paper_lattice_module[0])
        assert parent_cells(cube, apex) == []


class TestMaintenance:
    def test_describe(self, cube):
        stats = cube.describe()
        assert stats["paths"] == 8
        assert stats["cells"] == cube.n_cells()
        assert stats["cuboids"] == len(cube.cuboids)


class TestSharedSegmentsIntegration:
    def test_build_with_shared_segments_matches_local_mining(
        self, paper_db_module, paper_lattice_module
    ):
        """Exceptions computed from Shared's output match local mining."""
        from repro.mining import shared_mine

        result = shared_mine(
            paper_db_module, path_lattice=paper_lattice_module, min_support=2
        )
        via_shared = FlowCube.build(
            paper_db_module,
            path_lattice=paper_lattice_module,
            min_support=2,
            segments_by_cell=result.segments_by_cell(),
        )
        local = FlowCube.build(
            paper_db_module, path_lattice=paper_lattice_module, min_support=2
        )
        for cell in local.cells():
            other = via_shared.cell(cell.item_level, cell.key, cell.path_level)
            assert set(map(str, other.flowgraph.exceptions)) == set(
                map(str, cell.flowgraph.exceptions)
            ), f"exception mismatch in cell {cell.key}"
