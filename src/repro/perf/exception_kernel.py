"""Bitmap kernel for the holistic exception pass (Lemma 4.3).

The scan implementation in :mod:`repro.core.flowgraph_exceptions` pays a
Python loop per (segment × path) pair twice over: the level-wise segment
miner subset-tests every candidate against every transaction, and the
exception pass re-walks every weighted path per frequent segment to count
conditional outcomes.  Both are counting problems over the *same* small
universe — the cell's distinct aggregated paths — which is exactly the
shape the miners' bitmap kernel (:mod:`repro.perf.bitmap`) solves with
big-int tid-sets.

Exceptions are holistic: no cell's pass can reuse another's, so the bit
space is the cell's own.  Bit *pid* of every mask is the cell's *pid*-th
distinct path, in first-seen order:

* :class:`PathPostings` — the cell's distinct paths, each stage walked
  once, as the four mask families that cover the whole pass:

  * **exact stage constraints** ``(location prefix, duration)`` — the
    Apriori alphabet, in first-seen order;
  * **location prefixes** — what a ``*``-duration constraint matches;
  * **per-(depth, next location) / per-(depth, duration) outcomes** — the
    conditional counts of transition/duration exceptions;
  * **cumulative path-length masks** — the ``TERMINATE`` outcome.

* :class:`CellExceptionIndex` — the cell's weights over those bits: its
  mask, its per-weight class masks (multiplicities are grouped, so every
  count is an AND followed by a weighted popcount —
  :meth:`CellExceptionIndex.count`: one ``weight * bit_count()`` term per
  distinct multiplicity, collapsing to a single term when all weights are
  equal) and its total.

There is one door: ``mine_exceptions_weighted(graph, [(path, weight),
…])`` with the default ``kernel="bitmap"`` hands its pairs to
:func:`intern_pairs`, which sums the weights of a repeated path and
builds the cell's postings, then runs :func:`mine_exceptions_bitmap`.  A
cell of a cube with exceptions mines through it at the first read of its
graph (:attr:`~repro.core.flowcube.Cell.flowgraph`), as does the test
suite's oracle under ``kernel="scan"``.

:func:`mine_segments_bitmap` reruns the level-wise miner on tid-sets: a
candidate is a frequent segment extended by one frequent 1-constraint
whose location prefix strictly extends the chain, and its mask is the
parent segment's mask AND the appended constraint's mask (memoised along
the lattice), which deletes the candidates × transactions subset-check
loop.  Candidates the scan miner's full Apriori subset prune would have
dropped are supersets of infrequent segments, so they fail the support
threshold here and the mined dictionaries agree exactly.  The mined masks
are then reused verbatim by :func:`mine_exceptions_bitmap`, where each
conditional count in the transition/duration pass is one more
AND+popcount.

Parity with the scan kernel is exact and non-negotiable: supports and
conditional counts are identical integers (same candidate universe, same
thresholds via ``resolve_min_support``), so the
derived float distributions, deviations, and the canonically-sorted
exception lists are identical — and serialised cubes stay byte-identical
(property-tested in ``tests/test_exception_kernel.py``).  Nothing here
outlives the call that mined: the postings and the index go with it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.aggregation import (
    DURATION_ANY_LABEL,
    AggregatedPath,
    WeightedPath,
)
from repro.core.flowgraph import TERMINATE, FlowGraph
from repro.core.flowgraph_exceptions import (
    FlowException,
    Segment,
    SegmentConstraint,
    exception_sort_key,
    resolve_min_support,
)

__all__ = [
    "PathPostings",
    "CellExceptionIndex",
    "intern_pairs",
    "cell_index",
    "mine_segments_bitmap",
    "mine_exceptions_bitmap",
]


class PathPostings:
    """One cell's distinct paths as big-int bitmaps over their ids.

    Bit *pid* of every mask is ``paths[pid]`` of the *paths* it is built
    from; each path's stages are walked once, here.

    Attributes:
        exact: Exact stage constraint → mask of paths satisfying it, in
            first-seen order (the Apriori alphabet).
        prefixes: Location prefix → mask of paths whose own location
            chain starts with it — what a ``*``-duration constraint tests.
        transitions: Stage depth → {next location → mask of paths whose
            stage at that depth is the location}.
        durations: Stage depth → {duration label → mask of paths with
            that label at the depth}.
        star_mixed: Whether some prefix carries ``*`` on one path and a
            concrete duration on another.  The segment miners count a
            ``*``-duration stage as an exact item, but the exception pass
            treats the constraint as a wildcard (``_satisfies``); the two
            agree unless the paths mix, and then a mined mask cannot stand
            in for the wildcard one.
    """

    __slots__ = (
        "exact",
        "prefixes",
        "transitions",
        "durations",
        "star_mixed",
        "_terminate",
    )

    def __init__(self, paths: Sequence[AggregatedPath]) -> None:
        exact: dict[SegmentConstraint, int] = {}
        prefixes: dict[tuple[str, ...], int] = {}
        transitions: dict[int, dict[str, int]] = {}
        durations: dict[int, dict[str, int]] = {}
        lengths: dict[int, int] = {}
        for pid, path in enumerate(paths):
            bit = 1 << pid
            prefix: tuple[str, ...] = ()
            for depth, (location, duration) in enumerate(path):
                prefix += (location,)
                constraint = (prefix, duration)
                exact[constraint] = exact.get(constraint, 0) | bit
                prefixes[prefix] = prefixes.get(prefix, 0) | bit
                at_depth = transitions.setdefault(depth, {})
                at_depth[location] = at_depth.get(location, 0) | bit
                labels = durations.setdefault(depth, {})
                labels[duration] = labels.get(duration, 0) | bit
            lengths[len(path)] = lengths.get(len(path), 0) | bit
        self.exact = exact
        self.prefixes = prefixes
        self.transitions = transitions
        self.durations = durations
        self.star_mixed = any(
            prefixes[prefix] != mask
            for (prefix, duration), mask in exact.items()
            if duration == DURATION_ANY_LABEL
        )
        # terminate[d] = paths of length <= d: a path "terminates at" the
        # node of depth d exactly when it has no stage at index d.
        terminate: list[int] = []
        cumulative = 0
        for depth in range(max(lengths, default=0) + 1):
            cumulative |= lengths.get(depth, 0)
            terminate.append(cumulative)
        self._terminate = terminate

    def terminate_mask(self, depth: int) -> int:
        """Mask of paths with no stage at index *depth*."""
        terminate = self._terminate
        return terminate[depth] if depth < len(terminate) else terminate[-1]

    def constraint_mask(self, constraint: SegmentConstraint) -> int:
        """Mask of paths satisfying one stage constraint.

        Mirrors ``_satisfies`` exactly: a ``*`` duration matches any label
        at the stage (the location-prefix mask), anything else needs the
        exact ``(prefix, duration)`` stage, and a constraint deeper than
        the path never matches (such paths simply carry no bit).
        """
        prefix, duration = constraint
        if duration == DURATION_ANY_LABEL:
            return self.prefixes.get(prefix, 0)
        return self.exact.get(constraint, 0)


class CellExceptionIndex:
    """One cell's weights over its :class:`PathPostings`.

    Every question the exception pass asks — segment support, conditional
    transition counts, conditional duration counts — becomes an AND of
    masks plus a weighted popcount.

    Attributes:
        mask: The cell's paths.
        total: Sum of all weights (the cell's path count).

    Counting never walks the weights — paths are grouped by multiplicity
    into per-weight class masks, so a weighted popcount is a handful of
    ``weight * (mask & class).bit_count()`` terms.
    """

    __slots__ = ("mask", "total", "_uniform", "_classes")

    def __init__(self, weights: dict[int, int]) -> None:
        classes: dict[int, int] = {}
        for pid, weight in weights.items():
            classes[weight] = classes.get(weight, 0) | (1 << pid)
        mask = 0
        for class_mask in classes.values():
            mask |= class_mask
        self.mask = mask
        self.total = sum(weights.values())
        self._uniform = next(iter(classes)) if len(classes) == 1 else (
            1 if not classes else None
        )
        self._classes = list(classes.items())

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def count(self, mask: int) -> int:
        """Weighted popcount: total multiplicity of the mask's paths.

        *mask* must lie inside the cell (see :meth:`segment_mask`).
        """
        if not mask:
            return 0
        uniform = self._uniform
        if uniform is not None:
            return uniform * mask.bit_count()
        total = 0
        for weight, class_mask in self._classes:
            hit = mask & class_mask
            if hit:
                total += weight * hit.bit_count()
        return total

    def segment_mask(self, postings: PathPostings, segment: Segment) -> int:
        """Mask of the cell's paths satisfying every constraint of *segment*."""
        constraint_mask = postings.constraint_mask
        mask = self.mask
        for constraint in segment:
            if not mask:
                break
            mask &= constraint_mask(constraint)
        return mask


def intern_pairs(
    weighted: Sequence[WeightedPath],
) -> tuple[dict[int, int], PathPostings]:
    """One cell's ``(path, weight)`` pairs as a ``{pid: weight}`` vector
    over the postings of its distinct paths, the weights of a repeated
    path (legal for the public ``mine_exceptions`` entry points) summed."""
    weights: dict[AggregatedPath, int] = {}
    for path, weight in weighted:
        weights[path] = weights.get(path, 0) + weight
    return dict(enumerate(weights.values())), PathPostings(list(weights))


def cell_index(weights: dict[int, int]) -> CellExceptionIndex:
    """The index of the cell ``{pid: weight}``."""
    return CellExceptionIndex(weights)


def mine_segments_bitmap(
    postings: PathPostings,
    index: CellExceptionIndex,
    min_support: float,
    max_length: int = 4,
) -> tuple[dict[Segment, int], dict[Segment, int]]:
    """Bitmap twin of ``mine_frequent_segments_weighted`` over one index.

    *index* is :func:`cell_index` of the cell's weights over *postings*.

    Same thresholds, same frequent segments, but both candidate generation
    and counting exploit the chain structure.  A segment is a chain of
    nested prefixes with strictly increasing lengths, so every frequent
    ``(k+1)``-segment is its drop-last parent (frequent at level *k*)
    extended by one frequent constraint whose prefix strictly extends the
    chain's deepest prefix — each candidate is generated exactly once from
    its unique parent, replacing the pairwise Apriori join (tail sorting,
    nesting checks, subset probes) with a per-prefix extension table.  A
    candidate's mask is its parent's memoised mask AND the appended
    constraint's exact mask; candidates the full subset prune would have
    dropped simply fail the ≥ δ count (any superset of an infrequent set
    is infrequent), so the mined result is identical to the scan miner's.

    Returns:
        ``(segment → support, segment → tid mask)``; the masks cover every
        frequent segment so the exception pass reuses them directly, and
        the segments are already in canonical (prefix-length) order.
    """
    threshold = resolve_min_support(min_support, index.total)
    cell_mask = index.mask
    # Inline the weighted popcount (see ``CellExceptionIndex.count``):
    # the candidate loops below are the hottest counting site in the
    # kernel, and a per-candidate method call costs as much as the AND.
    uniform = index._uniform
    classes = index._classes
    result: dict[Segment, int] = {}
    masks: dict[Segment, int] = {}
    frequent_items: list[tuple[SegmentConstraint, int]] = []
    for item, item_mask in postings.exact.items():
        mask = item_mask & cell_mask
        if uniform is not None:
            support = uniform * mask.bit_count()
        else:
            support = 0
            for weight, class_mask in classes:
                hit = mask & class_mask
                if hit:
                    support += weight * hit.bit_count()
        if support >= threshold:
            segment = (item,)
            result[segment] = support
            masks[segment] = mask
            frequent_items.append((item, mask))
    # extensions[p] = frequent constraints whose prefix strictly extends p.
    extensions: dict[tuple[str, ...], list[tuple[SegmentConstraint, int]]] = {}
    for item, item_mask in frequent_items:
        prefix = item[0]
        for cut in range(1, len(prefix)):
            extensions.setdefault(prefix[:cut], []).append((item, item_mask))
    frontier: list[Segment] = list(result)
    length = 1
    while frontier and length < max_length:
        next_frontier: list[Segment] = []
        for segment in frontier:
            grow = extensions.get(segment[-1][0])
            if not grow:
                continue
            segment_mask = masks[segment]
            for item, item_mask in grow:
                mask = segment_mask & item_mask
                if not mask:
                    continue
                if uniform is not None:
                    support = uniform * mask.bit_count()
                else:
                    support = 0
                    for weight, class_mask in classes:
                        hit = mask & class_mask
                        if hit:
                            support += weight * hit.bit_count()
                if support >= threshold:
                    candidate = segment + (item,)
                    result[candidate] = support
                    masks[candidate] = mask
                    next_frontier.append(candidate)
        frontier = next_frontier
        length += 1
    return result, masks


def mine_exceptions_bitmap(
    graph: FlowGraph,
    weights: dict[int, int],
    postings: PathPostings,
    min_support: float,
    min_deviation: float,
    max_segment_length: int = 4,
) -> list[FlowException]:
    """``mine_exceptions_weighted``'s body under ``kernel="bitmap"``, over
    the cell ``{pid: weight}`` in *postings*' id space.

    Semantics and output are exactly the scan kernel's over locally-mined
    segments — including attaching the sorted list to ``graph.exceptions``.
    """
    index = cell_index(weights)
    supports, masks = mine_segments_bitmap(
        postings, index, min_support, max_length=max_segment_length
    )
    threshold = resolve_min_support(min_support, index.total)
    count = index.count
    # When every path has the same multiplicity, a weighted popcount is
    # just ``uniform * bit_count()`` — inline it in the hot loops to skip
    # the method dispatch on every AND.
    uniform = index._uniform
    star_mixed = postings.star_mixed
    exceptions: list[FlowException] = []
    #: deepest prefix -> per-node invariants, or None for absent nodes.
    node_cache: dict[tuple[str, ...], tuple | None] = {}
    #: (deepest prefix, tid mask) -> probe templates.  Segments that pin
    #: the same node with the same satisfying path set produce the same
    #: supports, deviations, and conditionals — only their ``condition``
    #: differs — and duplicate probes dominate dense lattices, so the
    #: counting work is done once per distinct (node, mask) pair.
    probe_cache: dict[tuple[tuple[str, ...], int], list] = {}
    # Mined segments are already canonical (sorted by prefix length) with
    # known ≥-threshold supports and memoised masks.
    for segment, support in supports.items():
        deepest_prefix = segment[-1][0]
        at_node = node_cache.get(deepest_prefix, _MISSING)
        if at_node is _MISSING:
            at_node = _node_invariants(graph, postings, deepest_prefix)
            node_cache[deepest_prefix] = at_node
        if at_node is None:
            continue  # the graph has no such node
        if star_mixed and any(
            duration == DURATION_ANY_LABEL for _, duration in segment
        ):
            # The mined mask counted "*" as an exact stage; the pass
            # treats it as a wildcard.  The wildcard mask is a superset of
            # the exact one, so the segment stays frequent — just recount
            # through the prefix masks.
            mask = index.segment_mask(postings, segment)
            support = count(mask)
        else:
            mask = masks[segment]
        probe_key = (deepest_prefix, mask)
        templates = probe_cache.get(probe_key)
        if templates is None:
            templates = _probe_node(
                deepest_prefix, at_node, mask, support, threshold,
                uniform, count, min_deviation,
            )
            probe_cache[probe_key] = templates
        for prefix, kind, probe_support, baseline, conditional, dev in templates:
            exceptions.append(
                FlowException(
                    node_prefix=prefix,
                    condition=segment,
                    kind=kind,
                    support=probe_support,
                    baseline=baseline,
                    conditional=conditional,
                    deviation=dev,
                )
            )
    exceptions.sort(key=exception_sort_key)
    graph.exceptions = exceptions
    return exceptions


_MISSING = object()


def _probe_node(
    node_prefix: tuple[str, ...],
    at_node: tuple,
    mask: int,
    support: int,
    threshold: int,
    uniform: int | None,
    count,
    min_deviation: float,
) -> list[tuple]:
    """All exceptions one (node, mask) pair yields, minus the condition.

    Returns ``(node_prefix, kind, support, baseline, conditional,
    deviation)`` templates — everything a :class:`FlowException` needs
    except the triggering segment, which the caller stamps on.  Cached per
    ``(deepest prefix, mask)``: distinct segments routinely select the
    same path set at the same node, and the probe is a pure function of
    that pair.
    """
    (_, transition_baseline, transition_items, ended_mask,
     label_items, children) = at_node
    templates: list[tuple] = []

    # --- transition exception at the deepest node ----------------------
    counts: dict[str, int] = {}
    if uniform is not None:
        for location, location_mask in transition_items:
            hits = mask & location_mask
            if hits:
                counts[location] = uniform * hits.bit_count()
        ended = mask & ended_mask
        if ended:
            counts[TERMINATE] = uniform * ended.bit_count()
    else:
        for location, location_mask in transition_items:
            hits = mask & location_mask
            if hits:
                counts[location] = count(hits)
        ended = mask & ended_mask
        if ended:
            counts[TERMINATE] = count(ended)
    # Every masked path either continues to some location at this depth
    # or terminates here, so the counts partition the mask and sum
    # exactly to the segment's support.
    deviation, conditional = _deviate(
        transition_baseline, counts, support, min_deviation
    )
    if conditional is not None:
        templates.append((
            node_prefix, "transition", support,
            transition_baseline, conditional, deviation,
        ))

    # --- duration exceptions at the node's children --------------------
    for location, location_mask, child_prefix, child_baseline in children:
        child_mask = mask & location_mask
        if not child_mask:
            continue
        child_support = (
            uniform * child_mask.bit_count()
            if uniform is not None
            else count(child_mask)
        )
        if child_support < threshold:
            continue
        counts = {}
        if uniform is not None:
            for label, label_mask in label_items:
                hits = child_mask & label_mask
                if hits:
                    counts[label] = uniform * hits.bit_count()
        else:
            for label, label_mask in label_items:
                hits = child_mask & label_mask
                if hits:
                    counts[label] = count(hits)
        # Every path through the child has exactly one duration label
        # there, so the counts sum to the child's support.
        deviation, conditional = _deviate(
            child_baseline, counts, child_support, min_deviation
        )
        if conditional is not None:
            templates.append((
                child_prefix, "duration", child_support,
                child_baseline, conditional, deviation,
            ))
    return templates


def _node_invariants(
    graph: FlowGraph, postings: PathPostings, prefix: tuple[str, ...]
) -> tuple | None:
    """Everything about one deepest node that is segment-independent.

    Many segments share a deepest node; its baselines, outcome mask lists,
    and child table only depend on the node, so they are computed once per
    cell and reused across those segments.  Returns ``None`` when the
    graph has no node at *prefix*.
    """
    if not graph.has_node(prefix):
        return None
    node = graph.node(prefix)
    depth = len(prefix)
    at_depth = postings.transitions.get(depth, {})
    children = [
        (
            location,
            at_depth.get(location, 0),
            child.prefix,
            child.duration_distribution(),
        )
        for location, child in node.children.items()
    ]
    return (
        node,
        node.transition_distribution(),
        list(at_depth.items()),
        postings.terminate_mask(depth),
        list(postings.durations.get(depth, {}).items()),
        children,
    )


def _deviate(
    baseline: dict[str, float],
    counts: dict[str, int],
    total: int,
    min_deviation: float,
) -> tuple[float, dict[str, float] | None]:
    """Fused ``_normalise`` + ``_max_deviation`` with a lazy conditional.

    Returns ``(deviation, conditional)`` where *conditional* is the
    normalised distribution when ``deviation > min_deviation`` and
    ``None`` otherwise — most probes don't deviate, so the float dict is
    only materialised for actual exceptions.  *total* is the caller's
    already-counted mask support (the counts partition the mask, so it
    equals their sum), and the divisions are the same ``n / total`` the
    scan kernel performs, so emitted values are bit-identical.
    """
    deviation = 0.0
    if total == 0:
        for probability in baseline.values():
            magnitude = abs(probability)
            if magnitude > deviation:
                deviation = magnitude
        if deviation > min_deviation:
            return deviation, {}
        return deviation, None
    get = baseline.get
    for key, n in counts.items():
        magnitude = abs(get(key, 0.0) - n / total)
        if magnitude > deviation:
            deviation = magnitude
    if len(counts) != len(baseline):
        # The masked paths are a subset of the cell's paths, so every
        # counted outcome appears in the baseline: equal sizes mean equal
        # key sets and the absent-outcome sweep has nothing to add.
        for key, probability in baseline.items():
            if key not in counts:
                magnitude = abs(probability)
                if magnitude > deviation:
                    deviation = magnitude
    if deviation > min_deviation:
        return deviation, {key: n / total for key, n in counts.items()}
    return deviation, None
