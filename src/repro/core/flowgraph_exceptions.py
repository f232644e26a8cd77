"""Flowgraph exceptions (Section 3, Definition 3.1's ``X`` component).

An *exception* records that, conditioned on a frequent path prefix (a set of
``(location prefix, duration)`` constraints with support ≥ δ), a node's
transition or duration distribution deviates by more than ε from its
unconditional distribution.  The paper's two motivating examples:

* *transition*: "the truck→warehouse probability is 33% in general but 50%
  when the item stayed only 1 hour at the truck" — the condition includes
  the node's own duration;
* *duration*: "items spend 2 hours at the distribution center with
  probability 80%, but 100% if they spent 5 hours at the factory" — the
  condition constrains an ancestor stage.

Exceptions are a *holistic* measure (Lemma 4.3): they require the frequent
path segments of the cell.  :func:`mine_exceptions` accepts those segments
from the Shared algorithm's output, or mines them locally with the built-in
level-wise miner (:func:`mine_frequent_segments`) when none are supplied.
A cube stores none of this: a cell built with exceptions mines its own,
locally, the first time it is read, through
:func:`mine_exceptions_weighted` over its own ``(path, weight)`` pairs.

Two interchangeable kernels implement the pass (``kernel=`` on the
``mine_exceptions*`` entry points): ``"bitmap"`` (the default) indexes each
of the cell's distinct paths once into big-int bit sets over the cell's own
path ids and answers every support and conditional count with an AND +
weighted popcount (:mod:`repro.perf.exception_kernel`);
``"scan"`` is the direct per-path implementation in this module, and the
one that probes pre-mined segments.  Both produce identical exception
lists — same supports, distributions, and canonical order — enforced by
the parity property tests.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.aggregation import (
    DURATION_ANY_LABEL,
    AggregatedPath,
    WeightedPath,
    total_weight,
)
from repro.core.flowgraph import FlowGraph

__all__ = [
    "EXCEPTION_KERNELS",
    "SegmentConstraint",
    "Segment",
    "FlowException",
    "resolve_min_support",
    "exception_sort_key",
    "mine_frequent_segments",
    "mine_frequent_segments_weighted",
    "mine_exceptions",
    "mine_exceptions_weighted",
]

#: Interchangeable exception-pass implementations; first entry is the default.
EXCEPTION_KERNELS = ("bitmap", "scan")

#: One constraint: the stage at this location prefix had this duration label.
SegmentConstraint = tuple[tuple[str, ...], str]

#: A path segment: constraints with nested prefixes, shortest first.
Segment = tuple[SegmentConstraint, ...]


@dataclass(frozen=True)
class FlowException:
    """A recorded deviation from a node's unconditional distribution.

    Attributes:
        node_prefix: The node whose distribution deviates.
        condition: The frequent segment being conditioned on.
        kind: ``"transition"`` or ``"duration"``.
        support: Number of cell paths satisfying the condition (and, for
            duration exceptions, reaching the node).
        baseline: The node's unconditional distribution.
        conditional: The distribution under the condition.
        deviation: Largest absolute probability change across outcomes.
    """

    node_prefix: tuple[str, ...]
    condition: Segment
    kind: str
    support: int
    baseline: dict[str, float]
    conditional: dict[str, float]
    deviation: float

    def __str__(self) -> str:
        condition = ", ".join(
            f"({'→'.join(p)}={d})" for p, d in self.condition
        )
        return (
            f"{self.kind} exception at {'→'.join(self.node_prefix)} "
            f"given [{condition}] (Δ={self.deviation:.2f}, n={self.support})"
        )


def resolve_min_support(min_support: float, n_paths: int) -> int:
    """Turn a δ given as a fraction (<1) or absolute count into a count.

    A fractional δ of 0.01 over 250 paths resolves to ``ceil(2.5) = 3``;
    absolute values pass through (floored at 1).
    """
    if min_support <= 0:
        return 1
    if min_support < 1:
        return max(1, math.ceil(min_support * n_paths))
    return int(min_support)


def _stage_items(path: AggregatedPath) -> list[SegmentConstraint]:
    """The exact-duration stage constraints a path satisfies."""
    items: list[SegmentConstraint] = []
    prefix: tuple[str, ...] = ()
    for location, duration in path:
        prefix = prefix + (location,)
        items.append((prefix, duration))
    return items


def _satisfies(path: AggregatedPath, segment: Segment) -> bool:
    """Whether *path* meets every constraint of *segment*."""
    locations = tuple(location for location, _ in path)
    return _satisfies_locations(path, locations, segment)


def _satisfies_locations(
    path: AggregatedPath, locations: tuple[str, ...], segment: Segment
) -> bool:
    """:func:`_satisfies` with the path's location tuple precomputed."""
    n = len(path)
    for constraint_prefix, duration in segment:
        index = len(constraint_prefix) - 1
        if index >= n:
            return False
        if locations[: index + 1] != constraint_prefix:
            return False
        if duration != DURATION_ANY_LABEL and path[index][1] != duration:
            return False
    return True


def mine_frequent_segments(
    paths: Sequence[AggregatedPath],
    min_support: float,
    max_length: int = 4,
) -> dict[Segment, int]:
    """Level-wise mining of frequent path segments within one cell.

    Items are exact-duration stage constraints; candidate itemsets only ever
    join constraints with *nested* prefixes, because the stages of a single
    path form a chain of prefixes — the unlinkable-stage pruning of
    Section 5 specialised to one cell.

    Args:
        paths: The cell's aggregated paths.
        min_support: δ — fraction of the cell (<1) or absolute count.
        max_length: Longest segment to mine (bounds the level-wise loop).

    Returns:
        Mapping segment → absolute support, for all segments with
        support ≥ δ.
    """
    return mine_frequent_segments_weighted(
        [(p, 1) for p in paths], min_support, max_length=max_length
    )


def mine_frequent_segments_weighted(
    weighted: Sequence[WeightedPath],
    min_support: float,
    max_length: int = 4,
) -> dict[Segment, int]:
    """:func:`mine_frequent_segments` over ``(path, weight)`` pairs.

    Each distinct path is examined once and contributes its weight to every
    support count — exactly the supports of the expanded multiset, at the
    cost of the *deduplicated* path set (the form cells store after the
    weighted-dedupe of PR 3).
    """
    threshold = resolve_min_support(min_support, total_weight(weighted))
    transactions = [
        (frozenset(_stage_items(path)), weight) for path, weight in weighted
    ]

    counts: Counter[SegmentConstraint] = Counter()
    for transaction, weight in transactions:
        for item in transaction:
            counts[item] += weight
    frequent: dict[Segment, int] = {
        (item,): n for item, n in counts.items() if n >= threshold
    }
    result = dict(frequent)
    # Each candidate's item frozenset is its parent's set plus the appended
    # constraint; carrying the sets level to level replaces the per-level
    # frozenset(c) rebuild with one set union per candidate.
    item_sets: dict[Segment, frozenset[SegmentConstraint]] = {
        segment: frozenset(segment) for segment in frequent
    }

    length = 1
    while frequent and length < max_length:
        candidates = _join_segments(list(frequent))
        if not candidates:
            break
        support: Counter[Segment] = Counter()
        candidate_sets = [
            (c, item_sets[c[:-1]] | {c[-1]}) for c in candidates
        ]
        for transaction, weight in transactions:
            for candidate, item_set in candidate_sets:
                if item_set <= transaction:
                    support[candidate] += weight
        frequent = {c: n for c, n in support.items() if n >= threshold}
        result.update(frequent)
        item_sets = {c: s for c, s in candidate_sets if c in frequent}
        length += 1
    return result


def _join_segments(segments: list[Segment]) -> list[Segment]:
    """Apriori join of equal-length segments sharing all but the last item."""
    by_prefix: dict[Segment, list[SegmentConstraint]] = {}
    for segment in segments:
        by_prefix.setdefault(segment[:-1], []).append(segment[-1])
    out: list[Segment] = []
    seen: set[Segment] = set()
    frequent_set = set(segments)
    for head, tails in by_prefix.items():
        tails.sort(key=lambda c: (len(c[0]), c[0], c[1]))
        n_head = len(head)
        for i, a in enumerate(tails):
            for b in tails[i + 1 :]:
                if a[0] == b[0]:
                    continue  # same stage, two durations: unsatisfiable
                if not _nested(a[0], b[0]):
                    continue  # unlinkable stages
                # Prefixes within a candidate are nested and pairwise
                # distinct, so their lengths are strictly distinct, and
                # a segment's canonical (len, duration) order is its
                # length order alone.  Every head item sorts below its
                # segment's last item, and the tails are length-sorted,
                # so head + (a, b) IS the canonical order — no sort.
                candidate = head + (a, b)
                if candidate in seen:
                    continue
                seen.add(candidate)
                # Dropping a gives head + (b,) and dropping b gives
                # head + (a,) — the two joined parents, frequent by
                # construction; only the head drops need checking.
                if all(
                    _drop(candidate, j) in frequent_set
                    for j in range(n_head)
                ):
                    out.append(candidate)
    return out


def _nested(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    return longer[: len(shorter)] == shorter


def _drop(segment: Segment, index: int) -> Segment:
    return segment[:index] + segment[index + 1 :]


def exception_sort_key(exception: FlowException):
    """Canonical total order over one cell's exceptions.

    ``(node_prefix, kind, condition)`` is unique within a mining run (one
    transition exception per segment, one duration exception per child
    node per segment), so sorting by it gives every build — per-cell,
    roll-up, out-of-core — the same exception list regardless of the order
    in which segments were enumerated.  Serialisation relies on this for
    byte-identical cubes across builds.
    """
    return (exception.node_prefix, exception.kind, exception.condition)


def mine_exceptions(
    graph: FlowGraph,
    paths: Sequence[AggregatedPath],
    min_support: float,
    min_deviation: float,
    segments: Iterable[Segment] | None = None,
    max_segment_length: int = 4,
    kernel: str = "bitmap",
) -> list[FlowException]:
    """Find all (ε, δ) exceptions of *graph* over the cell's *paths*.

    Args:
        graph: The cell's flowgraph (distributions already counted).
        paths: The aggregated paths the graph was built from.
        min_support: δ — fraction (<1) or absolute count.
        min_deviation: ε — minimum absolute probability change to record.
        segments: Frequent segments from a shared mining run, probed by
            the scan kernel; mined locally when omitted.
        max_segment_length: Bound for the local miner.
        kernel: ``"bitmap"`` (AND+popcount over tid-sets, the default) or
            ``"scan"`` (per-path re-scan) — identical results.

    The exceptions are also attached to ``graph.exceptions``, in the
    canonical :func:`exception_sort_key` order.
    """
    return mine_exceptions_weighted(
        graph,
        [(p, 1) for p in paths],
        min_support,
        min_deviation,
        segments=segments,
        max_segment_length=max_segment_length,
        kernel=kernel,
    )


def mine_exceptions_weighted(
    graph: FlowGraph,
    weighted: Sequence[WeightedPath],
    min_support: float,
    min_deviation: float,
    segments: Iterable[Segment] | None = None,
    max_segment_length: int = 4,
    kernel: str = "bitmap",
) -> list[FlowException]:
    """:func:`mine_exceptions` over the cell's ``(path, weight)`` pairs.

    Every support and every conditional count weighs each distinct path by
    its multiplicity, so the exceptions — supports, distributions, and
    deviations — are exactly those of the expanded path multiset while the
    holistic pass touches each distinct path once.  The bitmap kernel
    mines the cell's own segments over the cell's own path ids; pre-mined
    *segments* are probed by the scan kernel, whatever *kernel* says.
    """
    if kernel not in EXCEPTION_KERNELS:
        raise ValueError(
            f"unknown exception kernel {kernel!r}; expected one of "
            f"{EXCEPTION_KERNELS}"
        )
    if kernel == "bitmap" and segments is None:
        from repro.perf.exception_kernel import (
            intern_pairs,
            mine_exceptions_bitmap,
        )

        weights, postings = intern_pairs(weighted)
        return mine_exceptions_bitmap(
            graph,
            weights,
            postings,
            min_support,
            min_deviation,
            max_segment_length=max_segment_length,
        )
    threshold = resolve_min_support(min_support, total_weight(weighted))
    if segments is None:
        segments = mine_frequent_segments_weighted(
            weighted, min_support, max_length=max_segment_length
        )
    prepared = [
        (path, weight, tuple(location for location, _ in path))
        for path, weight in weighted
    ]
    exceptions: list[FlowException] = []
    for segment in segments:
        if not segment:
            continue
        ordered = tuple(sorted(segment, key=lambda c: len(c[0])))
        deepest_prefix = ordered[-1][0]
        if not graph.has_node(deepest_prefix):
            continue
        satisfying = [
            (path, weight)
            for path, weight, locations in prepared
            if _satisfies_locations(path, locations, ordered)
        ]
        if total_weight(satisfying) < threshold:
            continue
        exceptions.extend(
            _transition_exception(graph, ordered, deepest_prefix, satisfying,
                                  min_deviation)
        )
        exceptions.extend(
            _duration_exceptions(graph, ordered, deepest_prefix, satisfying,
                                 threshold, min_deviation)
        )
    exceptions.sort(key=exception_sort_key)
    graph.exceptions = exceptions
    return exceptions


def _transition_exception(
    graph: FlowGraph,
    segment: Segment,
    node_prefix: tuple[str, ...],
    satisfying: list[WeightedPath],
    min_deviation: float,
) -> list[FlowException]:
    """Conditional next-location distribution at the deepest node."""
    from repro.core.flowgraph import TERMINATE

    node = graph.node(node_prefix)
    baseline = node.transition_distribution()
    counts: Counter[str] = Counter()
    depth = len(node_prefix)
    for path, weight in satisfying:
        if len(path) > depth:
            counts[path[depth][0]] += weight
        else:
            counts[TERMINATE] += weight
    conditional = _normalise(counts)
    deviation = _max_deviation(baseline, conditional)
    if deviation > min_deviation:
        return [
            FlowException(
                node_prefix=node_prefix,
                condition=segment,
                kind="transition",
                support=total_weight(satisfying),
                baseline=baseline,
                conditional=conditional,
                deviation=deviation,
            )
        ]
    return []


def _duration_exceptions(
    graph: FlowGraph,
    segment: Segment,
    node_prefix: tuple[str, ...],
    satisfying: list[WeightedPath],
    threshold: int,
    min_deviation: float,
) -> list[FlowException]:
    """Conditional duration distributions at the children of the node."""
    node = graph.node(node_prefix)
    out: list[FlowException] = []
    depth = len(node_prefix)
    for location, child in node.children.items():
        counts: Counter[str] = Counter()
        for path, weight in satisfying:
            if len(path) > depth and path[depth][0] == location:
                counts[path[depth][1]] += weight
        support = sum(counts.values())
        if support < threshold:
            continue
        baseline = child.duration_distribution()
        conditional = _normalise(counts)
        deviation = _max_deviation(baseline, conditional)
        if deviation > min_deviation:
            out.append(
                FlowException(
                    node_prefix=child.prefix,
                    condition=segment,
                    kind="duration",
                    support=support,
                    baseline=baseline,
                    conditional=conditional,
                    deviation=deviation,
                )
            )
    return out


def _normalise(counts: Counter[str]) -> dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {}
    return {key: n / total for key, n in counts.items()}


def _max_deviation(baseline: dict[str, float], conditional: dict[str, float]) -> float:
    keys = set(baseline) | set(conditional)
    if not keys:
        return 0.0
    return max(
        abs(baseline.get(k, 0.0) - conditional.get(k, 0.0)) for k in keys
    )

