"""FlowCube: RFID flowcubes for multi-dimensional commodity-flow analysis.

A faithful, laptop-scale reproduction of Gonzalez, Han & Li,
"FlowCube: Constructing RFID FlowCubes for Multi-Dimensional Analysis of
Commodity Flows" (VLDB 2006).

Quickstart::

    from repro import FlowCube, example_path_database

    db = example_path_database()
    cube = FlowCube.build(db, min_support=2)
    cell = cube.cell(...)

Subpackages:

* :mod:`repro.core` — path model, hierarchies, lattices, flowgraphs,
  the flowcube itself.
* :mod:`repro.encoding` — Section 5's item/stage encodings and the
  transaction-database transform.
* :mod:`repro.mining` — Apriori, BUC, and the paper's Shared / Basic /
  Cubing algorithms.
* :mod:`repro.synth` — the Section 6.1 synthetic path generator.
* :mod:`repro.warehouse` — raw RFID reading simulation and cleaning (§2).
* :mod:`repro.query` — OLAP queries, flow analysis, rendering.
* :mod:`repro.bench` — the Section 6 experiment harness (figures 6–11).
"""

from repro.core import (
    ConceptHierarchy,
    FlowCube,
    FlowGraph,
    ItemLevel,
    LocationView,
    Path,
    PathDatabase,
    PathLattice,
    PathLevel,
    PathRecord,
    PathSchema,
    Stage,
    example_path_database,
)
from repro.errors import FlowCubeError

__version__ = "1.0.0"

__all__ = [
    "ConceptHierarchy",
    "FlowCube",
    "FlowCubeError",
    "FlowGraph",
    "ItemLevel",
    "LocationView",
    "Path",
    "PathDatabase",
    "PathLattice",
    "PathLevel",
    "PathRecord",
    "PathSchema",
    "Stage",
    "__version__",
    "example_path_database",
]
