"""Tests for the OLAP query API, flow analysis, and rendering."""

import pytest

from repro.core import FlowCube, FlowGraph, ItemLevel
from repro.errors import QueryError
from repro.query import (
    FlowCubeQuery,
    compare_flowgraphs,
    duration_outcome_correlation,
    lead_time_deviations,
    render_dot,
    render_text,
    typical_paths,
)


@pytest.fixture(scope="module")
def cube():
    from repro.core import example_path_database

    db = example_path_database()
    return FlowCube.build(db, min_support=2, compute_exceptions=False)


@pytest.fixture(scope="module")
def query(cube):
    return FlowCubeQuery(cube)


class TestCoordinates:
    def test_named_coordinates(self, query):
        level, key = query.coordinates(product="outerwear", brand="nike")
        assert level == ItemLevel((2, 1))
        assert key == ("outerwear", "nike")

    def test_unmentioned_dims_are_star(self, query):
        level, key = query.coordinates(brand="nike")
        assert level == ItemLevel((0, 1))
        assert key == ("*", "nike")

    def test_unknown_value_rejected(self, query):
        with pytest.raises(QueryError, match="not a 'product' concept"):
            query.coordinates(product="socks")

    def test_unknown_dimension_rejected(self, query):
        from repro.errors import PathDatabaseError

        with pytest.raises(PathDatabaseError):
            query.coordinates(color="red")


class TestCellAccess:
    def test_cell_lookup(self, query):
        cell = query.cell(product="outerwear", brand="nike")
        assert cell.record_ids == (4, 5, 6)

    def test_below_iceberg_raises(self, query):
        with pytest.raises(QueryError, match="iceberg"):
            query.cell(product="shirt")

    def test_flowgraph_access(self, query):
        graph = query.flowgraph(product="outerwear", brand="nike")
        assert isinstance(graph, FlowGraph)
        assert graph.n_paths == 3

    def test_default_path_level_is_most_detailed(self, query, cube):
        level = query.default_path_level()
        assert level.duration_level == 1
        assert len(level.view.concepts) == max(
            len(lv.view.concepts) for lv in cube.path_lattice
        )


class TestSlice:
    def test_slice_on_brand(self, query):
        cells = list(query.slice(brand="nike"))
        assert cells
        for cell in cells:
            assert cell.key[1] == "nike"

    def test_slice_matches_descendants(self, query):
        cells = list(query.slice(product="clothing"))
        products = {cell.key[0] for cell in cells}
        # clothing itself plus materialised descendants; never '*'.
        assert "clothing" in products
        assert "*" not in products

    def test_slice_unknown_value(self, query):
        with pytest.raises(QueryError):
            list(query.slice(product="socks"))


class TestNavigation:
    def test_roll_up(self, query):
        cell = query.cell(product="outerwear", brand="nike")
        parent = query.roll_up(cell, "product")
        assert parent.key == ("clothing", "nike")
        top = query.roll_up(parent, "product")
        assert top.key == ("*", "nike")
        with pytest.raises(QueryError, match="already at"):
            query.roll_up(top, "product")

    def test_drill_down(self, query):
        cell = query.cell(product="shoes")
        children = query.drill_down(cell, "product")
        names = {c.key[0] for c in children}
        assert names == {"tennis"}  # sandals has 1 path: below iceberg

    def test_drill_down_from_star(self, query):
        cell = query.cell()  # apex
        children = query.drill_down(cell, "product")
        assert {c.key[0] for c in children} == {"clothing"}

    def test_drill_down_at_leaves_raises(self, query):
        cell = query.cell(product="tennis")
        with pytest.raises(QueryError, match="already at leaves"):
            query.drill_down(cell, "product")

    def test_change_path_level(self, query, cube):
        cell = query.cell(product="shoes")
        other_level = cube.path_lattice[3]
        moved = query.change_path_level(cell, other_level)
        assert moved.path_level == other_level
        assert moved.key == cell.key


class TestAnalysis:
    def test_typical_paths(self, query):
        graph = query.flowgraph()
        paths = typical_paths(graph, top_k=2)
        assert len(paths) == 2
        assert paths[0].probability >= paths[1].probability
        top = paths[0]
        assert top.locations == (
            "factory", "dist center", "truck", "shelf", "checkout",
        )
        assert top.expected_lead_time > 0
        with pytest.raises(QueryError):
            typical_paths(graph, top_k=0)

    def test_lead_time_deviations(self, query):
        cell = query.cell()
        flagged = lead_time_deviations(cell.flowgraph, list(cell.paths),
                                       z_threshold=1.2)
        # Record 7 has a 20-hour shelf stay: the clear outlier.
        assert flagged
        worst_path, z = flagged[0]
        assert abs(z) >= 1.2
        totals = [sum(float(d) for _, d in p) for p, _ in flagged]
        assert max(totals) == 29.0  # path of record 7

    def test_lead_time_requires_numeric_durations(self, query, cube):
        star_level = cube.path_lattice[1]
        cell = query.cell(path_level=star_level)
        with pytest.raises(QueryError, match="numeric duration"):
            lead_time_deviations(cell.flowgraph, list(cell.paths))

    def test_duration_outcome_correlation(self):
        paths = (
            [((("qc"), "9"), (("returns"), "1"))] * 8
            + [(("qc", "9"), ("ship", "1"))] * 2
            + [(("qc", "1"), ("ship", "1"))] * 9
            + [(("qc", "1"), ("returns", "1"))] * 1
        )
        stats = duration_outcome_correlation(
            paths, at_location="qc", long_stay=5, outcome_location="returns"
        )
        assert stats["p_long"] == pytest.approx(0.8)
        assert stats["p_short"] == pytest.approx(0.1)
        assert stats["lift"] == pytest.approx(8.0)

    def test_compare_flowgraphs(self, query):
        current = query.flowgraph(product="shoes")
        baseline = query.flowgraph(product="clothing")
        shifts = compare_flowgraphs(current, baseline, top_k=3)
        assert len(shifts) <= 3
        assert all("prefix" in s for s in shifts)

    def test_compare_identical_graphs_no_shift(self, query):
        graph = query.flowgraph()
        shifts = compare_flowgraphs(graph, graph, top_k=5)
        assert all(
            s["transition_shift"] == 0 and s["duration_shift"] == 0
            for s in shifts
        )


class TestRendering:
    def test_text_contains_structure(self, query):
        graph = query.flowgraph()
        text = render_text(graph)
        assert "factory" in text
        assert "→" in text
        assert "0.62" in text or "0.63" in text  # factory duration 10

    def test_text_shows_exceptions(self, paper_db):
        cube = FlowCube.build(paper_db, min_support=2, min_deviation=0.05)
        graph = FlowCubeQuery(cube).flowgraph()
        if graph.exceptions:
            assert "exceptions" in render_text(graph)

    def test_dot_is_wellformed(self, query):
        dot = render_dot(query.flowgraph(), name="paper")
        assert dot.startswith('digraph "paper"')
        assert dot.rstrip().endswith("}")
        assert '"factory"' in dot
        assert "->" in dot
