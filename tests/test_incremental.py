"""Tests for incremental flowcube maintenance (repro.core.incremental)."""

import pytest

from repro.core import (
    FlowCube,
    ItemLevel,
    Path,
    PathRecord,
    append_batch,
    example_path_database,
)
from repro.errors import CubeError


@pytest.fixture
def cube():
    return FlowCube.build(example_path_database(), min_support=2)


def new_record(record_id: int, dims=("tennis", "nike"), path=None) -> PathRecord:
    return PathRecord(
        record_id, dims, Path(path or [("factory", 5), ("truck", 1)])
    )


class TestAppendBatch:
    def test_empty_batch_is_noop(self, cube):
        before = cube.describe()
        stats = append_batch(cube, [])
        assert stats == {
            "updated": 0,
            "created": 0,
            "still_below_delta": 0,
            "demoted": 0,
        }
        assert cube.describe() == before

    def test_updated_cell_matches_rebuild(self, cube):
        batch = [new_record(100), new_record(101)]
        append_batch(cube, batch)

        # Rebuild from scratch over the extended database and compare the
        # algebraic measure of a touched cell.
        rebuilt = FlowCube.build(cube.database, min_support=2)
        level = cube.path_lattice[0]
        incremental_cell = cube.cell(ItemLevel((3, 1)), ("tennis", "nike"), level)
        rebuilt_cell = rebuilt.cell(ItemLevel((3, 1)), ("tennis", "nike"), level)
        assert incremental_cell.n_paths == rebuilt_cell.n_paths
        for node in rebuilt_cell.flowgraph.nodes():
            counterpart = incremental_cell.flowgraph.node(node.prefix)
            assert counterpart.duration_counts == node.duration_counts
            assert counterpart.transition_counts == node.transition_counts

    def test_exceptions_recomputed(self, cube):
        batch = [new_record(100 + i) for i in range(4)]
        append_batch(cube, batch)
        rebuilt = FlowCube.build(cube.database, min_support=2)
        level = cube.path_lattice[0]
        a = cube.cell(ItemLevel((3, 1)), ("tennis", "nike"), level)
        b = rebuilt.cell(ItemLevel((3, 1)), ("tennis", "nike"), level)
        assert set(map(str, a.flowgraph.exceptions)) == set(
            map(str, b.flowgraph.exceptions)
        )

    def test_cell_crosses_iceberg_frontier(self, cube):
        # (shirt, *) held 1 path (below δ=2); one more shirt materialises it.
        level = cube.path_lattice[0]
        assert ("shirt", "*") not in cube.cuboid(ItemLevel((3, 0)), level)
        stats = append_batch(
            cube,
            [new_record(200, dims=("shirt", "adidas"))],
        )
        assert stats["created"] > 0
        cell = cube.cell(ItemLevel((3, 0)), ("shirt", "*"), level)
        assert cell.n_paths == 2
        assert set(cell.record_ids) == {4, 200}

    def test_promoted_cell_slots_in_rebuild_order(self, cube):
        # A promoted cell must land where a rebuild would place it
        # (first-seen record order), not be appended at the end.
        append_batch(cube, [new_record(200, dims=("shirt", "adidas"))])
        rebuilt = FlowCube.build(cube.database, min_support=2)
        for cuboid in cube.cuboids:
            counterpart = rebuilt.cuboid(cuboid.item_level, cuboid.path_level)
            assert list(cuboid.cells) == list(counterpart.cells)

    def test_fractional_delta_demotes_untouched_cells(self):
        # With a fractional δ the resolved threshold grows with the
        # database, so a big batch can push untouched cells below it.
        database = example_path_database()
        cube = FlowCube.build(database, min_support=0.25)
        batch = [new_record(600 + i) for i in range(8)]
        stats = append_batch(cube, batch)
        assert stats["demoted"] > 0
        rebuilt = FlowCube.build(cube.database, min_support=0.25)
        for cuboid in cube.cuboids:
            counterpart = rebuilt.cuboid(cuboid.item_level, cuboid.path_level)
            assert list(cuboid.cells) == list(counterpart.cells)

    def test_brand_new_value_below_delta_not_created(self, cube):
        stats = append_batch(cube, [new_record(300, dims=("sandals", "adidas"))])
        assert stats["still_below_delta"] > 0
        level = cube.path_lattice[0]
        assert ("sandals", "adidas") not in cube.cuboid(ItemLevel((3, 1)), level)

    def test_duplicate_id_rejected(self, cube):
        with pytest.raises(CubeError, match="already in the cube"):
            append_batch(cube, [new_record(1)])

    def test_dimension_mismatch_rejected(self, cube):
        bad = PathRecord(400, ("tennis",), Path([("factory", 1)]))
        with pytest.raises(CubeError, match="dimensions"):
            append_batch(cube, [bad])

    def test_redundancy_marks_cleared_on_touched_cells(self, cube):
        from repro.core import prune_redundant, tv_similarity

        prune_redundant(cube, threshold=0.5, metric=tv_similarity)
        level = cube.path_lattice[0]
        target = cube.cell(ItemLevel((3, 1)), ("tennis", "nike"), level)
        if not target.redundant:
            pytest.skip("cell not marked at this threshold")
        append_batch(cube, [new_record(500)])
        assert not target.redundant


def test_held_query_facade_sees_the_appended_batch():
    """A ``FlowCubeQuery`` kept across ``append_batch`` answers fresh.

    ``FlowCube`` used to carry no mutation counter, so every query-side
    cache key folded in a constant and a held façade kept serving the
    pre-append default slice (cells summing to 1,015 paths, not 1,075).
    """
    from repro.core import PathDatabase
    from repro.query import FlowCubeQuery
    from repro.synth import generate_path_database
    from tests.test_serve import CONFIG

    database = generate_path_database(CONFIG)
    records = list(database)
    cube = FlowCube.build(
        PathDatabase(database.schema, records[:60]),
        min_support=2,
        compute_exceptions=False,
    )
    held = FlowCubeQuery(cube)
    before = held.slice_cells(None)
    assert cube.version == 0
    stats = append_batch(cube, records[60:], recompute_exceptions=False)
    assert stats["created"] == 56
    assert cube.version == 1  # the CubeStore.version contract
    fresh = FlowCubeQuery(cube).slice_cells(None)
    after = held.slice_cells(None)
    assert [cell.key for cell in after] == [cell.key for cell in fresh]
    assert sum(cell.n_paths for cell in after) == 1075
    assert len(after) > len(before)
    # An empty batch changes nothing and invalidates nothing.
    append_batch(cube, [])
    assert cube.version == 1
