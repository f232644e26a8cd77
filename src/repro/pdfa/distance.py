"""PDFA distances and the PDFA-based flowgraph similarity φ (Section 4.3).

Two automata are compared on the distributions they induce:

* :func:`string_distribution_distance` — total variation over the union
  of strings each automaton generates with probability above a floor
  (exact on acyclic automata, a tight truncation otherwise);
* :func:`pdfa_similarity` — ``1 - distance``, in ``[0, 1]``;
* :func:`flowgraph_pdfa_similarity` — the paper's optional φ: induce a
  PDFA from each flowgraph's cell paths with ALERGIA and compare.  It is
  pluggable anywhere a
  :data:`~repro.core.similarity.SimilarityMetric` is accepted
  (:func:`repro.core.redundancy.prune_redundant` in particular).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.aggregation import AggregatedPath
from repro.core.flowgraph import FlowGraph
from repro.pdfa.alergia import alergia
from repro.pdfa.automaton import PDFA

__all__ = [
    "string_distribution_distance",
    "pdfa_similarity",
    "flowgraph_to_pdfa",
    "flowgraph_pdfa_similarity",
]


def string_distribution_distance(
    a: PDFA, b: PDFA, min_probability: float = 1e-4
) -> float:
    """Truncated total-variation distance between two PDFA distributions.

    Strings carrying less than *min_probability* in **both** automata are
    ignored; the result is within ``min_probability * |support|`` of the
    true total variation and exactly it for acyclic automata whose mass
    sits above the floor.
    """
    dist_a = dict(a.enumerate_strings(min_probability))
    dist_b = dict(b.enumerate_strings(min_probability))
    strings = set(dist_a) | set(dist_b)
    return 0.5 * sum(
        abs(dist_a.get(s, 0.0) - dist_b.get(s, 0.0)) for s in strings
    )


def pdfa_similarity(a: PDFA, b: PDFA, min_probability: float = 1e-4) -> float:
    """``1 -`` :func:`string_distribution_distance`, clamped to [0, 1]."""
    return max(
        0.0, 1.0 - string_distribution_distance(a, b, min_probability)
    )


def flowgraph_to_pdfa(
    paths: Sequence[AggregatedPath], alpha: float = 0.99
) -> PDFA:
    """Induce a PDFA from a cell's aggregated paths (locations only).

    Durations are marginalised out — the PDFA view models the location
    process, like :func:`repro.core.similarity.path_distribution_similarity`.

    The default ``alpha`` is deliberately strict (ALERGIA's Hoeffding
    bound shrinks as alpha → 1): when the PDFA feeds a *distance*, false
    merges on the small samples of a flowcube cell distort the induced
    distribution, and distribution fidelity matters more than aggressive
    generalisation.  Pass the classic 0.05 for induction experiments.
    """
    strings = [tuple(location for location, _ in path) for path in paths]
    return alergia(strings=strings, alpha=alpha)


def flowgraph_pdfa_similarity(
    g1: FlowGraph, g2: FlowGraph, alpha: float = 0.99
) -> float:
    """The PDFA-based φ: ALERGIA on each graph's route distribution.

    Flowgraphs carry their route distribution explicitly
    (:meth:`~repro.core.flowgraph.FlowGraph.enumerate_paths`), so the
    training strings are reconstructed from it with their observed
    multiplicities — φ reads the two graphs and nothing else of their
    cells.
    """
    return pdfa_similarity(
        _pdfa_from_flowgraph(g1, alpha), _pdfa_from_flowgraph(g2, alpha)
    )


def _pdfa_from_flowgraph(graph: FlowGraph, alpha: float) -> PDFA:
    pdfa = PDFA()
    for locations, probability in graph.enumerate_paths():
        count = round(probability * graph.n_paths)
        if count > 0:
            pdfa.add_string(locations, count)
    return alergia(pta=pdfa, alpha=alpha)
