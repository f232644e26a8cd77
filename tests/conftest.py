"""Shared fixtures: the paper's running example and small synthetic data."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import (
    ConceptHierarchy,
    PathDatabase,
    PathLattice,
    example_path_database,
)
from repro.core.flowcube import Cell
from repro.core.serialization import cube_to_json
from repro.synth import GeneratorConfig, generate_path_database


def cube_files(store_dir) -> dict:
    """The files the committed ``cube.json`` under *store_dir* lists, as
    paths: ``{"index": …, "paths": …, "segments": {slot: …}}``.

    Every cube file but ``cube.json`` is published under a name of its
    own generation, so tests read the names back instead of spelling them.
    """
    cube_dir = Path(store_dir) / "cube"
    files = json.loads((cube_dir / "cube.json").read_text(encoding="utf-8"))[
        "files"
    ]
    return {
        "index": cube_dir / files["index"],
        "paths": cube_dir / files["paths"],
        "segments": {
            int(slot): cube_dir / name
            for slot, name in files["segments"].items()
        },
    }


def item_cell(handle, cell, key=None, redundant=None) -> list:
    """*cell*'s item cell the way ``CubeStore.put_cuboid`` takes it: a
    :class:`~repro.core.flowcube.Cell` at every path level of *handle*'s
    lattice, each over *cell*'s record ids and joint vector, re-keyed to
    *key* when one is given.  *cell*'s level keeps *cell*'s redundancy
    mark — or *redundant*, when given — and exceptions; every other level
    the mark and exceptions *handle* holds for the item cell."""
    cells = []
    for level_id, level in enumerate(handle.path_lattice):
        held = (
            cell if level == cell.path_level
            else handle.cell(cell.item_level, cell.key, level)
        )
        mark = held.redundant
        if held is cell and redundant is not None:
            mark = redundant
        rekeyed = Cell(
            cell.key if key is None else key, cell.item_level, level,
            cell.record_ids, cell.vector, cell.table, level_id, mark,
        )
        if held.exceptions:
            rekeyed.flowgraph.exceptions = held.exceptions
        cells.append(rekeyed)
    return cells


def stored_cube_json(cube) -> str:
    """``cube_to_json`` modulo empty cuboids — what a store is compared by.

    A store holds only cuboids that hold a cell; the in-memory build
    materialises every lattice cuboid, so it also keeps one whose item
    level has no frequent cell.  Everything else — cuboid order,
    cells, measures, thresholds — must match byte for byte (DESIGN §5
    "Parity contract"; ``benchmarks/flowbench/gates.py::cube_bytes`` is
    the same rule).
    """
    payload = json.loads(cube_to_json(cube))
    payload["cuboids"] = [c for c in payload["cuboids"] if c["cells"]]
    return json.dumps(payload)


def exception_lists(cube) -> list:
    """Every cell's key and exception list, in cube order — what a build
    is compared by next to its ``cube_to_json``."""
    return [(cell.key, cell.flowgraph.exceptions) for cell in cube.cells()]


@pytest.fixture(scope="session")
def paper_db() -> PathDatabase:
    """The eight-path database of Table 1."""
    return example_path_database()


@pytest.fixture(scope="session")
def paper_lattice(paper_db) -> PathLattice:
    """The four path abstraction levels of Section 6."""
    return PathLattice.paper_default(paper_db.schema.location)


@pytest.fixture(scope="session")
def product_hierarchy(paper_db) -> ConceptHierarchy:
    """The Figure 2 product hierarchy."""
    return paper_db.schema.dimensions[0]


@pytest.fixture(scope="session")
def location_hierarchy(paper_db) -> ConceptHierarchy:
    """The Figure 5 location hierarchy."""
    return paper_db.schema.location


@pytest.fixture(scope="session")
def small_synth_db() -> PathDatabase:
    """A small deterministic synthetic database (300 paths, 3 dims)."""
    config = GeneratorConfig(
        n_paths=300,
        n_dims=3,
        dim_fanouts=(3, 3, 4),
        n_sequences=12,
        max_path_length=6,
        seed=11,
    )
    return generate_path_database(config)


@pytest.fixture(scope="session")
def tiny_synth_db() -> PathDatabase:
    """A tiny synthetic database for the slower cross-checks (80 paths)."""
    config = GeneratorConfig(
        n_paths=80,
        n_dims=2,
        dim_fanouts=(2, 2, 3),
        n_sequences=6,
        max_path_length=5,
        seed=3,
    )
    return generate_path_database(config)
