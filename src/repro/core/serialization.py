"""JSON (de)serialisation of flowgraphs and flowcubes.

A data-warehouse artifact is only useful if it can be persisted and shipped
to the analysts' tools.  This module provides a stable, human-inspectable
JSON format:

* :func:`flowgraph_to_dict` / :func:`flowgraph_from_dict` — raw counts (so
  round-tripped graphs keep merging algebraically) plus exceptions;
* :func:`cube_to_json` / :func:`cube_from_json` — cells with coordinates
  and measures; a loaded cell is a :class:`~repro.core.flowcube.Cell`
  like a built one, its vector rebuilt from its records.  The cube
  format stores the path lattice structurally (view concepts + duration
  level) and rebinds it against the schema's location hierarchy on load;
  the path database itself is serialised separately via
  :meth:`~repro.core.path_database.PathDatabase.to_csv`.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.core.flowcube import Cell, Cuboid, FlowCube
from repro.core.flowgraph import FlowGraph
from repro.core.hierarchy import ConceptHierarchy
from repro.core.flowgraph_exceptions import FlowException
from repro.core.lattice import ItemLattice, ItemLevel, LocationView, PathLattice, PathLevel
from repro.core.path_database import PathDatabase
from repro.errors import CubeError

__all__ = [
    "exceptions_from_dicts",
    "exceptions_to_dicts",
    "flowgraph_to_dict",
    "flowgraph_from_dict",
    "cube_to_json",
    "cube_from_json",
    "path_level_to_dict",
    "path_level_from_dict",
]


def flowgraph_to_dict(graph: FlowGraph) -> dict:
    """Serialise a flowgraph (raw counts + exceptions) to plain data.

    Nodes are emitted in canonical (prefix-sorted) order, and every mapping
    — duration/transition tallies, exception baselines and conditionals —
    with sorted keys, so that serialise→deserialise→serialise is
    byte-identical *and* independent of the order counts were accumulated
    in.  The cube store relies on the former to deduplicate and diff
    persisted cells; the parity tests rely on the latter (the roll-up
    folds counts in merge order, not record order).
    """
    return {
        "n_paths": graph.n_paths,
        "nodes": [
            {
                "prefix": list(node.prefix),
                "count": node.count,
                "durations": _sorted_mapping(node.duration_counts),
                "transitions": _sorted_mapping(node.transition_counts),
            }
            for node in graph.canonical_nodes()
        ],
        "exceptions": exceptions_to_dicts(graph.exceptions),
    }


def exceptions_to_dicts(exceptions) -> list[dict]:
    """Plain-dict form of a flowgraph's exception list (sorted mappings).

    Shared by :func:`flowgraph_to_dict` and the slicer's ``/exceptions``
    report.
    """
    return [
        {
            "node_prefix": list(exc.node_prefix),
            "condition": [
                {"prefix": list(prefix), "duration": duration}
                for prefix, duration in exc.condition
            ],
            "kind": exc.kind,
            "support": exc.support,
            "baseline": _sorted_mapping(exc.baseline),
            "conditional": _sorted_mapping(exc.conditional),
            "deviation": exc.deviation,
        }
        for exc in exceptions
    ]


def _sorted_mapping(mapping) -> dict:
    """A plain dict with the keys in sorted order (canonical JSON form)."""
    return {key: mapping[key] for key in sorted(mapping)}


def flowgraph_from_dict(data: dict) -> FlowGraph:
    """Inverse of :func:`flowgraph_to_dict`."""
    graph = FlowGraph()
    graph.n_paths = int(data["n_paths"])
    # Nodes arrive shortest-prefix first, so parents always exist.
    for node_data in sorted(data["nodes"], key=lambda n: len(n["prefix"])):
        prefix = tuple(node_data["prefix"])
        from repro.core.flowgraph import FlowGraphNode

        node = FlowGraphNode(prefix)
        node.count = int(node_data["count"])
        node.duration_counts.update(node_data["durations"])
        node.transition_counts.update(node_data["transitions"])
        graph._index[prefix] = node  # noqa: SLF001 - same-package rebuild
        if len(prefix) == 1:
            graph._roots[prefix[0]] = node  # noqa: SLF001
        else:
            graph._index[prefix[:-1]].children[prefix[-1]] = node  # noqa: SLF001
    graph.exceptions = exceptions_from_dicts(data.get("exceptions", []))
    return graph


def exceptions_from_dicts(data: list[dict]) -> list[FlowException]:
    """Rebuild :class:`FlowException` objects from their plain-dict form.

    Shared by :func:`flowgraph_from_dict` and :func:`cube_from_json`.
    """
    return [
        FlowException(
            node_prefix=tuple(exc["node_prefix"]),
            condition=tuple(
                (tuple(c["prefix"]), c["duration"]) for c in exc["condition"]
            ),
            kind=exc["kind"],
            support=int(exc["support"]),
            baseline=dict(exc["baseline"]),
            conditional=dict(exc["conditional"]),
            deviation=float(exc["deviation"]),
        )
        for exc in data
    ]


def path_level_to_dict(level: PathLevel) -> dict:
    """Structural form of a path level: view concepts + duration level."""
    return {
        "view": sorted(level.view.concepts),
        "duration_level": level.duration_level,
    }


def path_level_from_dict(data: dict, location: "ConceptHierarchy") -> PathLevel:
    """Rebind a :func:`path_level_to_dict` payload against *location*."""
    return PathLevel(
        LocationView(location, data["view"]), int(data["duration_level"])
    )


def cube_to_json(cube: FlowCube) -> str:
    """Serialise a materialised flowcube (without its path database)."""
    payload = {
        "min_support": cube.min_support,
        "min_deviation": cube.min_deviation,
        "exceptions": cube.compute_exceptions,
        "path_lattice": [
            path_level_to_dict(level) for level in cube.path_lattice
        ],
        "cuboids": [
            {
                "item_level": list(cuboid.item_level.levels),
                "path_level": cube.path_lattice.index_of(cuboid.path_level),
                "cells": [
                    {
                        "key": list(cell.key),
                        "record_ids": list(cell.record_ids),
                        "redundant": cell.redundant,
                        "flowgraph": flowgraph_to_dict(cell.flowgraph),
                    }
                    for cell in cuboid
                ],
            }
            for cuboid in cube.cuboids
        ],
    }
    return json.dumps(payload)


def cube_from_json(text: str, database: PathDatabase) -> FlowCube:
    """Rebuild a flowcube against its path database.

    The database must be the one (or an equal copy of the one) the cube was
    built from; cell ``record_ids`` index into it.  Each cell comes back
    as a build hands it out: a :class:`~repro.core.flowcube.Cell` whose
    joint vector over the cube's ``path_table`` — one per item cell — is
    rebuilt from its records, with its saved exceptions attached to its
    graph.  The restored cube's ``compute_exceptions`` is the JSON's
    ``"exceptions"`` (off in a JSON written before the field), so the
    cells the query planner derives from it mine theirs as the saved
    cube's did.
    """
    from repro.perf.measure_rollup import AggregationMemo, PathTable

    payload = json.loads(text)
    records = {record.record_id: record for record in database}
    location = database.schema.location
    path_lattice = PathLattice(
        path_level_from_dict(level, location)
        for level in payload["path_lattice"]
    )
    cube = FlowCube(
        database=database,
        item_lattice=ItemLattice([h.depth for h in database.schema.dimensions]),
        path_lattice=path_lattice,
        min_support=payload["min_support"],
        min_deviation=payload["min_deviation"],
    )
    cube.compute_exceptions = bool(payload.get("exceptions", False))
    table = cube.path_table = PathTable(len(path_lattice))
    joint_id = AggregationMemo(path_lattice, table).joint_id
    #: One joint vector per item cell, shared by its cells at every level.
    vectors: dict[tuple, dict[int, int]] = {}
    for cuboid_data in payload["cuboids"]:
        item_level = ItemLevel(cuboid_data["item_level"])
        level_id = int(cuboid_data["path_level"])
        path_level = path_lattice[level_id]
        cuboid = Cuboid(item_level, path_level)
        for cell_data in cuboid_data["cells"]:
            key = tuple(cell_data["key"])
            record_ids = tuple(int(i) for i in cell_data["record_ids"])
            missing = [i for i in record_ids if i not in records]
            if missing:
                raise CubeError(
                    f"cube references record ids {missing!r} absent from "
                    "the supplied database"
                )
            vector = vectors.get((item_level, key, record_ids))
            if vector is None:
                vector = vectors[item_level, key, record_ids] = dict(
                    Counter(joint_id(records[rid].path) for rid in record_ids)
                )
            cell = cuboid.cells[key] = Cell(
                key, item_level, path_level, record_ids, vector, table,
                level_id, bool(cell_data["redundant"]),
            )
            exceptions = cell_data["flowgraph"].get("exceptions")
            if exceptions:
                cell.flowgraph.exceptions = exceptions_from_dicts(exceptions)
        cube._cuboids[(item_level, path_level)] = cuboid  # noqa: SLF001
    return cube
