"""Analyst-facing flow reports — the intro's three questions, packaged.

:func:`flow_report` renders, for one cell of a flowcube:

1. the most typical paths with expected durations and lead times, plus
   the lead-time outliers (question 1);
2. the recorded (ε, δ) exceptions — the duration↔outcome correlations of
   question 2 are exactly the duration-conditioned exceptions;
3. optionally, the largest distribution shifts against a baseline
   flowgraph, e.g. last year's cube for the same coordinates
   (question 3).

Everything is plain text so reports drop into terminals, logs, and diffs.
"""

from __future__ import annotations

import io

from repro.core.flowcube import Cell
from repro.core.flowgraph import FlowGraph
from repro.query.analysis import (
    compare_flowgraphs,
    lead_time_deviations,
    typical_paths,
)

__all__ = ["flow_report"]


def flow_report(
    cell: Cell,
    baseline: FlowGraph | None = None,
    top_k: int = 3,
    z_threshold: float = 2.5,
) -> str:
    """A complete flow-analysis report for one flowcube cell.

    Args:
        cell: The cell to report on (its aggregated ``paths`` feed the
            outlier section).
        baseline: Optional historic flowgraph to contrast against.
        top_k: Typical paths / shifts to show.
        z_threshold: Outlier cut for lead times.
    """
    out = io.StringIO()
    key = ", ".join(cell.key)
    out.write(f"Flow report for cell ({key})\n")
    out.write(f"  paths aggregated: {cell.n_paths}\n")

    out.write("\n[1] Typical paths\n")
    for route in typical_paths(cell.flowgraph, top_k=top_k):
        locations = " → ".join(route.locations)
        out.write(
            f"  p={route.probability:.2f}  "
            f"lead≈{route.expected_lead_time:.1f}  {locations}\n"
        )

    # cell.paths holds weighted (path, weight) pairs.
    paths = list(cell.paths)
    numeric = all(
        duration == "*" or _is_number(duration)
        for path, _ in paths
        for _, duration in path
    ) and any(duration != "*" for path, _ in paths for _, duration in path)
    if numeric:
        out.write(f"\n[1b] Lead-time outliers (|z| ≥ {z_threshold:g})\n")
        outliers = lead_time_deviations(
            cell.flowgraph, paths, z_threshold=z_threshold
        )
        if not outliers:
            out.write("  none\n")
        for path, z in outliers[:top_k]:
            total = sum(float(d) for _, d in path)
            route = " → ".join(location for location, _ in path)
            out.write(f"  z={z:+.1f}  total={total:g}  {route}\n")

    out.write("\n[2] Exceptions (conditional distribution shifts)\n")
    if not cell.flowgraph.exceptions:
        out.write("  none above ε at this δ\n")
    for exception in cell.flowgraph.exceptions[: top_k * 2]:
        out.write(f"  {exception}\n")
    remaining = len(cell.flowgraph.exceptions) - top_k * 2
    if remaining > 0:
        out.write(f"  … and {remaining} more\n")

    if baseline is not None:
        out.write("\n[3] Largest shifts vs baseline\n")
        for shift in compare_flowgraphs(cell.flowgraph, baseline, top_k=top_k):
            prefix = " → ".join(shift["prefix"])  # type: ignore[arg-type]
            out.write(
                f"  {prefix}: transitions Δ{shift['transition_shift']:.2f}, "
                f"durations Δ{shift['duration_shift']:.2f}"
            )
            if shift["note"]:
                out.write(f"  ({shift['note']})")
            out.write("\n")
    return out.getvalue()


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
