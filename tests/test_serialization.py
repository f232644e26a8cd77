"""Tests for flowgraph / flowcube JSON serialisation."""

import pytest

from repro.core import (
    FlowCube,
    FlowGraph,
    cube_from_json,
    cube_to_json,
    example_path_database,
    flowgraph_from_dict,
    flowgraph_to_dict,
    mine_exceptions,
)
from repro.errors import CubeError
from tests.oracle import merge_flowgraphs


PATHS = [
    (("f", "1"), ("w", "2")),
    (("f", "1"), ("s", "2")),
    (("f", "9"), ("w", "2")),
] * 5


class TestFlowgraphRoundTrip:
    def test_counts_preserved(self):
        graph = FlowGraph(PATHS)
        restored = flowgraph_from_dict(flowgraph_to_dict(graph))
        assert restored.n_paths == graph.n_paths
        assert {n.prefix for n in restored.nodes()} == {
            n.prefix for n in graph.nodes()
        }
        for node in graph.nodes():
            counterpart = restored.node(node.prefix)
            assert counterpart.count == node.count
            assert counterpart.duration_counts == node.duration_counts
            assert counterpart.transition_counts == node.transition_counts

    def test_exceptions_preserved(self):
        graph = FlowGraph(PATHS)
        mine_exceptions(graph, PATHS, min_support=4, min_deviation=0.15)
        assert graph.exceptions
        restored = flowgraph_from_dict(flowgraph_to_dict(graph))
        assert list(map(str, restored.exceptions)) == list(
            map(str, graph.exceptions)
        )

    def test_restored_graph_still_merges(self):
        """Round-tripped graphs keep the algebraic property."""
        graph = FlowGraph(PATHS)
        restored = flowgraph_from_dict(flowgraph_to_dict(graph))
        merged = merge_flowgraphs([restored, FlowGraph(PATHS)])
        assert merged.n_paths == 2 * graph.n_paths

    def test_children_relinked(self):
        graph = FlowGraph(PATHS)
        restored = flowgraph_from_dict(flowgraph_to_dict(graph))
        root = restored.node(("f",))
        assert set(root.children) == {"w", "s"}


class TestCubeRoundTrip:
    def test_full_round_trip(self):
        db = example_path_database()
        cube = FlowCube.build(db, min_support=2, min_deviation=0.1)
        restored = cube_from_json(cube_to_json(cube), db)

        assert restored.min_support == cube.min_support
        assert len(restored.cuboids) == len(cube.cuboids)
        for cell in cube.cells():
            counterpart = restored.cell(cell.item_level, cell.key, cell.path_level)
            assert counterpart.record_ids == cell.record_ids
            assert counterpart.flowgraph.n_paths == cell.flowgraph.n_paths
            assert set(map(str, counterpart.flowgraph.exceptions)) == set(
                map(str, cell.flowgraph.exceptions)
            )

    def test_redundancy_marks_survive(self):
        from repro.core import prune_redundant, tv_similarity

        db = example_path_database()
        cube = FlowCube.build(db, min_support=2, compute_exceptions=False)
        prune_redundant(cube, threshold=0.5, metric=tv_similarity)
        restored = cube_from_json(cube_to_json(cube), db)
        for cell in cube.cells():
            counterpart = restored.cell(cell.item_level, cell.key, cell.path_level)
            assert counterpart.redundant == cell.redundant

    def test_queries_work_on_restored_cube(self):
        from repro.query import FlowCubeQuery

        db = example_path_database()
        cube = FlowCube.build(db, min_support=2, compute_exceptions=False)
        restored = cube_from_json(cube_to_json(cube), db)
        query = FlowCubeQuery(restored)
        graph = query.flowgraph(product="shoes")
        assert graph.n_paths == 5

    def test_wrong_database_rejected(self):
        from repro.core import PathDatabase

        db = example_path_database()
        cube = FlowCube.build(db, min_support=2, compute_exceptions=False)
        text = cube_to_json(cube)
        truncated = PathDatabase(db.schema, list(db.records)[:3])
        with pytest.raises(CubeError, match="absent from"):
            cube_from_json(text, truncated)
