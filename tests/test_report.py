"""Tests for the analyst report generator (repro.query.report)."""

import pytest

from repro.core import (
    FlowCube,
    cube_from_json,
    cube_to_json,
    example_path_database,
)
from repro.query import FlowCubeQuery, flow_report
from repro.store import PartitionedPathStore, build_cube


@pytest.fixture(scope="module")
def cube():
    return FlowCube.build(
        example_path_database(), min_support=2, min_deviation=0.1
    )


@pytest.fixture(scope="module")
def query(cube):
    return FlowCubeQuery(cube)


class TestFlowReport:
    def test_sections_present(self, query):
        cell = query.cell()
        text = flow_report(cell)
        assert "[1] Typical paths" in text
        assert "[1b] Lead-time outliers" in text
        assert "[2] Exceptions" in text
        assert "[3]" not in text  # no baseline supplied

    def test_typical_paths_listed(self, query):
        text = flow_report(query.cell())
        assert "factory → dist center → truck → shelf → checkout" in text

    def test_exceptions_listed(self, query):
        cell = query.cell()
        text = flow_report(cell)
        if cell.flowgraph.exceptions:
            assert "exception at" in text
        else:
            assert "none above" in text

    def test_exception_overflow_summarised(self, query):
        cell = query.cell()
        text = flow_report(cell, top_k=1)
        if len(cell.flowgraph.exceptions) > 2:
            assert "more" in text

    def test_baseline_section(self, query):
        cell = query.cell(product="shoes")
        baseline = query.flowgraph(product="clothing")
        text = flow_report(cell, baseline=baseline)
        assert "[3] Largest shifts vs baseline" in text
        assert "Δ" in text

    def test_star_duration_level_skips_outliers(self, query, cube):
        star_level = cube.path_lattice[1]  # durations at '*'
        cell = query.cell(path_level=star_level)
        text = flow_report(cell)
        assert "[1b]" not in text or "unavailable" not in text
        # With '*' durations there is no numeric section at all.
        assert "z=" not in text

    def test_one_report_for_memory_stored_and_restored_cells(
        self, cube, query, tmp_path
    ):
        """Every cell carries its path multiset — a store's, and one
        restored by ``cube_from_json`` — so the outlier section is there
        whichever version of the cell is reported on."""
        database = example_path_database()
        store = PartitionedPathStore.init(tmp_path / "wh", database.schema)
        store.ingest(database)
        stored = build_cube(
            store, min_support=2, min_deviation=0.1, into=store.cube_store()
        )
        restored = cube_from_json(cube_to_json(cube), database)
        text = flow_report(query.cell())
        assert "[1b] Lead-time outliers (|z|" in text
        assert flow_report(FlowCubeQuery(stored).cell()) == text
        assert flow_report(FlowCubeQuery(restored).cell()) == text
        stored.close()
        store.close()
