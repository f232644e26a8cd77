"""Redundancy pruning — non-redundant flowcubes (Section 4.3, Def. 4.4).

A cell's flowgraph ``G`` is *redundant* when, for **every** item-lattice
parent cell ``p_i`` (same path level) with flowgraph ``G_i``, the similarity
``φ(G, G_i) > τ``: the cell behaves like all of its generalisations and can
be inferred from them, so materialising it adds nothing.

Pruning sweeps the item lattice from the most specific levels upward so a
cell is always compared against parents that themselves survived or were
marked — matching the paper's low-to-high traversal.  Cells are *marked*
(``cell.redundant = True``) rather than deleted, so inference
(:meth:`repro.core.flowcube.FlowCube.flowgraph_for`) and audit queries keep
working; :func:`drop_redundant` performs the physical compression.
"""

from __future__ import annotations

from repro.core.flowcube import Cell, FlowCube
from repro.core.similarity import SimilarityMetric, kl_similarity

__all__ = ["is_redundant", "prune_redundant", "drop_redundant"]


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
    parents = cube.parent_cells(cell)
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

    After dropping, :meth:`~repro.core.flowcube.FlowCube.flowgraph_for`
    can no longer serve the removed coordinates — run it only on cubes
    whose consumers query surviving cells (e.g. for space measurements).
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
