"""Core data model: paths, hierarchies, lattices, flowgraphs, the flowcube."""

from repro.core.aggregation import (
    DURATION_ANY_LABEL,
    AggregatedPath,
    AggregatedStage,
    aggregate_locations,
    aggregate_path,
)
from repro.core.flowcube import Cell, CellKey, Cuboid, FlowCube
from repro.core.flowgraph import TERMINATE, FlowGraph, FlowGraphNode
from repro.core.flowgraph_exceptions import (
    FlowException,
    Segment,
    mine_exceptions,
    mine_frequent_segments,
    resolve_min_support,
)
from repro.core.hierarchy import ANY, ConceptHierarchy, HierarchyNode
from repro.core.lattice import (
    DURATION_ANY,
    DURATION_VALUE,
    ItemLattice,
    ItemLevel,
    LocationView,
    PathLattice,
    PathLevel,
)
from repro.core.materialization import (
    MaterializationPlan,
    plan_between_layers,
    plan_by_budget,
)
from repro.core.path import Path, PathRecord
from repro.core.path_database import (
    PathDatabase,
    PathSchema,
    example_path_database,
)
from repro.core.redundancy import drop_redundant, is_redundant, prune_redundant
from repro.core.serialization import (
    cube_from_json,
    cube_to_json,
    flowgraph_from_dict,
    flowgraph_to_dict,
)
from repro.core.similarity import (
    kl_divergence,
    kl_similarity,
    path_distribution_similarity,
    total_variation,
    tv_similarity,
)
from repro.core.stage import RawReading, Stage, StageRecord

__all__ = [
    "ANY",
    "DURATION_ANY",
    "DURATION_ANY_LABEL",
    "DURATION_VALUE",
    "TERMINATE",
    "AggregatedPath",
    "AggregatedStage",
    "Cell",
    "CellKey",
    "ConceptHierarchy",
    "Cuboid",
    "FlowCube",
    "FlowException",
    "FlowGraph",
    "FlowGraphNode",
    "HierarchyNode",
    "ItemLattice",
    "ItemLevel",
    "LocationView",
    "MaterializationPlan",
    "Path",
    "PathDatabase",
    "PathLattice",
    "PathLevel",
    "PathRecord",
    "PathSchema",
    "RawReading",
    "Segment",
    "Stage",
    "StageRecord",
    "aggregate_locations",
    "aggregate_path",
    "cube_from_json",
    "cube_to_json",
    "drop_redundant",
    "flowgraph_from_dict",
    "flowgraph_to_dict",
    "example_path_database",
    "is_redundant",
    "kl_divergence",
    "kl_similarity",
    "mine_exceptions",
    "mine_frequent_segments",
    "path_distribution_similarity",
    "plan_between_layers",
    "plan_by_budget",
    "prune_redundant",
    "resolve_min_support",
    "total_variation",
    "tv_similarity",
]
