"""Redundancy pruning — non-redundant flowcubes (Section 4.3, Def. 4.4).

A cell's flowgraph ``G`` is *redundant* when, for **every** item-lattice
parent cell ``p_i`` (same path level) with flowgraph ``G_i``, the similarity
``φ(G, G_i) > τ``: the cell behaves like all of its generalisations and can
be inferred from them, so materialising it adds nothing.

Pruning sweeps the item lattice from the most specific levels upward so a
cell is always compared against parents that themselves survived or were
marked — matching the paper's low-to-high traversal.  Cells are *marked*
(``cell.redundant = True``) rather than deleted, so inference
(:func:`flowgraph_for`) and audit queries keep working;
:func:`drop_redundant` performs the physical compression.

:func:`parent_cells` and :func:`flowgraph_for` take any cube — an
in-memory :class:`~repro.core.flowcube.FlowCube` or a
:class:`~repro.store.cube_store.CubeStore` — through its ``schema`` and
``cell`` alone.
"""

from __future__ import annotations

from repro.core.flowcube import Cell, CellKey, FlowCube
from repro.core.flowgraph import FlowGraph
from repro.core.lattice import ItemLevel, PathLevel
from repro.core.similarity import SimilarityMetric, kl_similarity
from repro.errors import CubeError

__all__ = [
    "drop_redundant",
    "flowgraph_for",
    "is_redundant",
    "parent_cells",
    "prune_redundant",
]


def parent_cells(cube, cell: Cell) -> list[Cell]:
    """The cell's item-lattice parents at the same path level.

    One parent per dimension not already at ``*``: the cell whose key
    rolls that dimension up one hierarchy level (Definition 4.4).
    Parents whose cuboid or cell is not materialised are skipped.
    """
    hierarchies = cube.schema.dimensions
    parents: list[Cell] = []
    for dim, level in enumerate(cell.item_level):
        if level == 0:
            continue
        raised = list(cell.item_level.levels)
        raised[dim] = level - 1
        parent_level = ItemLevel(raised)
        parent_key = tuple(
            hierarchies[i].ancestor_at_level(value, parent_level[i])
            for i, value in enumerate(cell.key)
        )
        try:
            parent = cube.cell(parent_level, parent_key, cell.path_level)
        except CubeError:
            continue  # not materialised: nothing to infer from there
        parents.append(parent)
    return parents


def flowgraph_for(
    cube, item_level: ItemLevel, key: CellKey, path_level: PathLevel
) -> FlowGraph:
    """The cell's flowgraph, inferring from ancestors when redundant.

    A redundant (pruned) cell behaves like its nearest non-redundant
    item-lattice ancestor — the inference rule of Section 4.3.
    """
    cell = cube.cell(item_level, key, path_level)
    while cell.redundant:
        parents = [p for p in parent_cells(cube, cell) if not p.redundant]
        if not parents:
            parents = parent_cells(cube, cell)
        if not parents:
            break  # no ancestor to infer from: fall back to own graph
        cell = max(parents, key=lambda c: c.n_paths)
    return cell.flowgraph


def is_redundant(
    cube: FlowCube,
    cell: Cell,
    threshold: float,
    metric: SimilarityMetric = kl_similarity,
) -> bool:
    """Definition 4.4 for a single cell.

    A cell with no materialised parents (the apex cuboid, or parents lost
    to the iceberg condition) is never redundant — there is nothing to
    infer it from.
    """
    parents = parent_cells(cube, cell)
    if not parents:
        return False
    return all(
        metric(cell.flowgraph, parent.flowgraph) > threshold for parent in parents
    )


def prune_redundant(
    cube: FlowCube,
    threshold: float = 0.95,
    metric: SimilarityMetric = kl_similarity,
) -> int:
    """Mark every redundant cell in *cube*; returns how many were marked.

    Args:
        cube: A materialised flowcube.
        threshold: τ — similarity above which a cell matches a parent.
        metric: φ — any :data:`~repro.core.similarity.SimilarityMetric`.

    Cells are visited most-specific-first within each path level, so a
    redundant chain (2% milk ≈ milk ≈ dairy) collapses all the way up to
    the most general member that still differs from *its* parents.
    Marking any cell bumps ``cube.version``, so a held query façade
    stops answering from its pre-pruning cache.
    """
    marked = 0
    cells = sorted(
        cube.cells(), key=lambda c: -sum(c.item_level.levels)
    )
    for cell in cells:
        if cell.redundant:
            continue
        if is_redundant(cube, cell, threshold, metric):
            cell.redundant = True
            marked += 1
    if marked:
        cube.version += 1
    return marked


def drop_redundant(cube: FlowCube) -> int:
    """Physically remove marked cells from their cuboids; returns the count.

    After dropping, :func:`flowgraph_for` can no longer serve the
    removed coordinates — run it only on cubes whose consumers query
    surviving cells (e.g. for space measurements).
    Removing any cell bumps ``cube.version``, as :func:`prune_redundant`
    does.
    """
    removed = 0
    for cuboid in cube.cuboids:
        doomed = [key for key, cell in cuboid.cells.items() if cell.redundant]
        for key in doomed:
            del cuboid.cells[key]
            removed += 1
    if removed:
        cube.version += 1
    return removed
