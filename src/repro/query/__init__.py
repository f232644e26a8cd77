"""OLAP querying, flow analysis, and rendering over flowcubes.

:class:`FlowCubeQuery` holds the operators; a :class:`Plan` is one parsed
request for any of them (what the CLI and the HTTP slicer build and run).
"""

from repro.query.analysis import (
    TypicalPath,
    compare_flowgraphs,
    duration_outcome_correlation,
    lead_time_deviations,
    typical_paths,
)
from repro.query.api import QUERY_KERNELS, FlowCubeQuery
from repro.query.plan import Plan
from repro.query.planner import (
    DerivationPlan,
    derive_cell,
    derive_cuboid,
    plan_derivation,
)
from repro.query.render import render_dot, render_text
from repro.query.report import flow_report

__all__ = [
    "QUERY_KERNELS",
    "DerivationPlan",
    "FlowCubeQuery",
    "Plan",
    "TypicalPath",
    "compare_flowgraphs",
    "derive_cell",
    "derive_cuboid",
    "duration_outcome_correlation",
    "flow_report",
    "lead_time_deviations",
    "plan_derivation",
    "render_dot",
    "render_text",
    "typical_paths",
]
