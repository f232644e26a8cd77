"""Bitmap kernel for the holistic exception pass (Lemma 4.3).

The scan implementation in :mod:`repro.core.flowgraph_exceptions` pays a
Python loop per (segment × path) pair twice over: the level-wise segment
miner subset-tests every candidate against every transaction, and the
exception pass re-walks every weighted path per frequent segment to count
conditional outcomes.  Both are counting problems over the *same* small
universe — distinct aggregated paths — which is exactly the shape the PR 2
bitmap kernel (:mod:`repro.perf.bitmap`) solves with big-int tid-sets.

The bit space is the path-id space of the roll-up
(:class:`~repro.perf.measure_rollup.PathTable`): bit *pid* of every mask
is the path interned as *pid* at its path level.  Items move in bulk, so a
level holds far fewer distinct paths than its cells hold between them, and
the stage walk is paid once per path, not once per cell:

* :class:`PathPostings` — **level-wide**, built once per path level (and
  extended when more pids are interned).  It owns the stage interner and
  the four mask families that cover the whole pass:

  * **exact stage constraints** ``(location prefix, duration)`` — the
    Apriori alphabet, interned to dense ids with the PR 2
    :class:`~repro.perf.interning.ItemInterner`; ``rows[pid]`` is the
    path's item-id row;
  * **location prefixes** — what a ``*``-duration constraint matches;
  * **per-(depth, next location) / per-(depth, duration) outcomes** — the
    conditional counts of transition/duration exceptions;
  * **cumulative path-length masks** — the ``TERMINATE`` outcome.

* :class:`CellExceptionIndex` — **per cell**, a view over the postings:
  the cell's mask, its per-weight class masks (multiplicities are grouped,
  so every count is an AND followed by a weighted popcount —
  :meth:`CellExceptionIndex.count`: one ``weight * bit_count()`` term per
  distinct multiplicity, collapsing to a single term when all weights are
  equal), its total, and its mining / result caches.  Indexing a cell is
  one ``classes[w] |= 1 << pid`` per distinct path.  A level-wide mask is
  AND-ed with the cell mask once, at a segment's first constraint; every
  mask derived from it stays inside the cell.

There are two doors and one kernel.  A cell of a cube with exceptions,
at the first read of its graph, hands the pass its ``{pid: weight}``
vector (:attr:`~repro.core.flowcube.Cell.weights`) with its level's
postings, which every cell over one path table shares (a serving
handle's across threads).  Plain ``mine_exceptions_weighted(graph,
[(path, weight), …])`` comes through the tuple door of
:func:`intern_pairs`, which interns its pairs into a private postings,
and runs the same code.

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
(property-tested in ``tests/test_exception_kernel.py``).

Views are shared across the cells of one exception pass through the
pass's fingerprint map, keyed by ``frozenset({pid: weight}.items())``
(int pairs, not nested tuples): cells with identical multisets reuse one
view, its mined segment masks and its whole exception list.  The map
goes with the pass, so a long-lived path table — a serving handle's —
keeps no view.  A view
holds no reference back, so a path table and everything indexed under
it is freed by reference count — the write side pauses the cyclic
collector (:mod:`repro.perf.collector`) and must not need it.
"""

from __future__ import annotations

import threading
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
from repro.perf.interning import ItemInterner

__all__ = [
    "PathPostings",
    "CellExceptionIndex",
    "intern_pairs",
    "cell_index",
    "mine_segments_bitmap",
    "mine_exceptions_bitmap",
]


class PathPostings:
    """One path level's distinct paths as big-int bitmaps over path ids.

    Bit *pid* of every mask is ``paths[pid]``.  *paths* and *ids* are the
    level's id space — a :class:`~repro.perf.measure_rollup.PathTable`
    shares its own lists and dicts in, so ids it hands out are indexed
    here the next time a cell asks (:meth:`index`); left out, the postings
    own a private id space (the tuple door).  Masks only ever gain bits,
    so a view taken before an extension stays valid.

    Attributes:
        paths: Path id → aggregated path.
        ids: The reverse map (see :meth:`intern`).
        interner: Exact stage constraint → dense id (the Apriori alphabet).
        rows: Per indexed pid, the item ids of the path's stages.
        exact: Per interned constraint id, the mask of paths satisfying it.
        prefixes: Location prefix → mask of paths whose own location
            chain starts with it — what a ``*``-duration constraint tests.
        transitions: Stage depth → {next location → mask of paths whose
            stage at that depth is the location}.
        durations: Stage depth → {duration label → mask of paths with
            that label at the depth}.
        star_mixed: Paths carrying a concrete duration at a prefix where
            some path of the level carries ``*`` (see
            :class:`CellExceptionIndex`).
        indexes: Fingerprint → shared :class:`CellExceptionIndex` of a
            private postings (the tuple door, which its caller's cache
            scopes); ``None`` for a table's, whose views an exception
            pass's map holds (:meth:`index`).

    Threads may mine against one postings: :meth:`index` grows it under
    a lock, and a mask only gains bits no earlier view holds.
    """

    __slots__ = (
        "paths",
        "ids",
        "interner",
        "rows",
        "exact",
        "prefixes",
        "transitions",
        "durations",
        "star_mixed",
        "indexes",
        "_lock",
        "_star_prefixes",
        "_lengths",
        "_terminate",
    )

    def __init__(
        self,
        paths: list[AggregatedPath] | None = None,
        ids: dict[AggregatedPath, int] | None = None,
    ) -> None:
        self.paths = [] if paths is None else paths
        self.ids = {} if ids is None else ids
        self.interner = ItemInterner()
        self.rows: list[list[int]] = []
        self.exact: list[int] = []
        self.prefixes: dict[tuple[str, ...], int] = {}
        self.transitions: dict[int, dict[str, int]] = {}
        self.durations: dict[int, dict[str, int]] = {}
        self.star_mixed = 0
        self.indexes: dict[frozenset, CellExceptionIndex] | None = (
            {} if paths is None else None
        )
        self._lock = threading.Lock()
        self._star_prefixes: set[tuple[str, ...]] = set()
        self._lengths: dict[int, int] = {}
        self._terminate: list[int] = [0]

    def intern(self, path: AggregatedPath) -> int:
        """*path*'s id, handing out the next dense one on first sight."""
        paths = self.paths
        pid = self.ids.setdefault(path, len(paths))
        if pid == len(paths):
            paths.append(path)
        return pid

    def index(
        self, weights: dict[int, int], views: dict | None = None
    ) -> CellExceptionIndex:
        """The view of the cell ``{pid: weight}``, shared by fingerprint
        through *views* (a pass's map) or :attr:`indexes`, else fresh.

        Cells store each distinct path once, so the frozenset of the
        multiset's items determines it exactly, and every count the pass
        derives is invariant to their order.
        """
        if views is None:
            views = self.indexes
        with self._lock:
            if len(self.rows) < len(self.paths):
                self._index_new_paths()
            if views is None:
                return CellExceptionIndex(self, weights)
            key = frozenset(weights.items())
            index = views.get(key)
            if index is None:
                index = views[key] = CellExceptionIndex(self, weights)
            return index

    def _index_new_paths(self) -> None:
        """Walk the stages of every path interned since the last call."""
        paths = self.paths
        rows = self.rows
        intern = self.interner.intern
        exact = self.exact
        prefixes = self.prefixes
        transitions = self.transitions
        durations = self.durations
        star_prefixes = self._star_prefixes
        lengths = self._lengths
        for pid in range(len(rows), len(paths)):
            bit = 1 << pid
            row: list[int] = []
            prefix: tuple[str, ...] = ()
            for depth, (location, duration) in enumerate(paths[pid]):
                prefix += (location,)
                item_id = intern((prefix, duration))
                row.append(item_id)
                if item_id < len(exact):
                    exact[item_id] |= bit
                else:
                    exact.append(bit)
                if duration == DURATION_ANY_LABEL:
                    if prefix not in star_prefixes:
                        # The first "*" here: every path already through
                        # the prefix carries a concrete duration at it.
                        star_prefixes.add(prefix)
                        self.star_mixed |= prefixes.get(prefix, 0)
                elif star_prefixes and prefix in star_prefixes:
                    self.star_mixed |= bit
                prefixes[prefix] = prefixes.get(prefix, 0) | bit
                at_depth = transitions.setdefault(depth, {})
                at_depth[location] = at_depth.get(location, 0) | bit
                labels = durations.setdefault(depth, {})
                labels[duration] = labels.get(duration, 0) | bit
            rows.append(row)
            lengths[len(row)] = lengths.get(len(row), 0) | bit
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
        interner = self.interner
        if constraint in interner:
            return self.exact[interner.id_of(constraint)]
        return 0


class CellExceptionIndex:
    """One cell as a view over its level's :class:`PathPostings`.

    Built once per distinct multiset; every question the exception pass
    asks — segment support, conditional transition counts, conditional
    duration counts — becomes an AND of masks plus a weighted popcount.

    The view keeps no reference to *postings* (they cache it, and a
    back-edge would leave a build's whole path table to the cyclic
    collector); whoever counts against the level-wide masks — the pass
    has them in hand — passes them in.

    Attributes:
        weights: The cell's ``{pid: weight}``.
        mask: The cell's paths.  Level-wide masks are AND-ed with it
            once, at a segment's first constraint.
        total: Sum of all weights (the cell's path count).
        mining_cache: ``(min_support, max_length)`` → mined
            ``(segments, masks)`` pair (see :func:`mine_segments_bitmap`).
        result_cache: ``(min_support, min_deviation, max_length)`` → the
            finished exception tuple.

    Counting never walks the weights — paths are grouped by multiplicity
    into per-weight class masks, so a weighted popcount is a handful of
    ``weight * (mask & class).bit_count()`` terms.
    """

    __slots__ = (
        "weights",
        "mask",
        "total",
        "_uniform",
        "_classes",
        "_star_mixed",
        "mining_cache",
        "result_cache",
    )

    def __init__(self, postings: PathPostings, weights: dict[int, int]) -> None:
        classes: dict[int, int] = {}
        for pid, weight in weights.items():
            classes[weight] = classes.get(weight, 0) | (1 << pid)
        mask = 0
        for class_mask in classes.values():
            mask |= class_mask
        self.weights = weights
        self.mask = mask
        self.total = sum(weights.values())
        self._uniform = next(iter(classes)) if len(classes) == 1 else (
            1 if not classes else None
        )
        self._classes = list(classes.items())
        # The segment miners count a "*"-duration stage as an exact item,
        # but the exception pass treats the constraint as a wildcard
        # (``_satisfies``).  The two agree unless the multiset mixes "*"
        # with concrete durations at the same prefix — flag that case so
        # the pass knows when a mined mask can't stand in for the
        # wildcard one.  The level-wide mask may flag a cell whose own
        # paths never carry the "*" (the flagged branch recounts through
        # the wildcard masks, which is always right); it cannot miss one,
        # because both of a mixing cell's paths are indexed by now.
        self._star_mixed = bool(postings.star_mixed & mask)
        self.mining_cache: dict = {}
        self.result_cache: dict = {}

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
    weighted: Sequence[WeightedPath], cache: dict | None = None
) -> tuple[dict[int, int], PathPostings]:
    """``(path, weight)`` pairs as a ``{pid: weight}`` vector over a
    private postings — kept in *cache* when the caller shares one across
    cells, so a path's stages are walked once however many cells carry
    it — with the weights of a repeated path (legal for the public
    ``mine_exceptions`` entry points) summed."""
    if cache is None:
        postings = PathPostings()
    else:
        postings = cache.get("postings")
        if postings is None:
            postings = cache["postings"] = PathPostings()
    intern = postings.intern
    weights: dict[int, int] = {}
    for path, weight in weighted:
        pid = intern(path)
        weights[pid] = weights.get(pid, 0) + weight
    return weights, postings


def cell_index(
    weights: dict[int, int], postings: PathPostings, views: dict | None = None
) -> CellExceptionIndex:
    """The index of the cell ``{pid: weight}``: a view over *postings*,
    shared through *views* (see :meth:`PathPostings.index`)."""
    return postings.index(weights, views)


def mine_segments_bitmap(
    postings: PathPostings,
    index: CellExceptionIndex,
    min_support: float,
    max_length: int = 4,
) -> tuple[dict[Segment, int], dict[Segment, int]]:
    """Bitmap twin of ``mine_frequent_segments_weighted`` over one index.

    *index* is a view over *postings* (``postings.index(weights)``).

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
    cache_key = (min_support, max_length)
    cached = index.mining_cache.get(cache_key)
    if cached is not None:
        return cached
    threshold = resolve_min_support(min_support, index.total)
    exact = postings.exact
    items = postings.interner.items
    rows = postings.rows
    cell_mask = index.mask
    # Inline the weighted popcount (see ``CellExceptionIndex.count``):
    # the candidate loops below are the hottest counting site in the
    # kernel, and a per-candidate method call costs as much as the AND.
    uniform = index._uniform
    classes = index._classes
    result: dict[Segment, int] = {}
    masks: dict[Segment, int] = {}
    frequent_items: list[tuple[SegmentConstraint, int]] = []
    # The cell's alphabet: the items of its own paths, not the level's.
    for item_id in sorted(set().union(*[rows[pid] for pid in index.weights])):
        item = items[item_id]
        mask = exact[item_id] & cell_mask
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
            frequent_items.append((item, item_id))
    # extensions[p] = frequent constraints whose prefix strictly extends p.
    extensions: dict[tuple[str, ...], list[tuple[SegmentConstraint, int]]] = {}
    for item, item_id in frequent_items:
        prefix = item[0]
        for cut in range(1, len(prefix)):
            extensions.setdefault(prefix[:cut], []).append((item, item_id))
    frontier: list[Segment] = list(result)
    length = 1
    while frontier and length < max_length:
        next_frontier: list[Segment] = []
        for segment in frontier:
            grow = extensions.get(segment[-1][0])
            if not grow:
                continue
            segment_mask = masks[segment]
            for item, item_id in grow:
                mask = segment_mask & exact[item_id]
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
    index.mining_cache[cache_key] = (result, masks)
    return result, masks


def mine_exceptions_bitmap(
    graph: FlowGraph,
    weights: dict[int, int],
    postings: PathPostings,
    min_support: float,
    min_deviation: float,
    max_segment_length: int = 4,
    views: dict | None = None,
) -> list[FlowException]:
    """``mine_exceptions_weighted``'s body under ``kernel="bitmap"``, over
    the cell ``{pid: weight}`` in *postings*' id space, its view shared
    through *views* (see :meth:`PathPostings.index`).

    Semantics and output are exactly the scan kernel's over locally-mined
    segments — including attaching the sorted list to ``graph.exceptions``.
    The finished exception list is memoised on the cell's index per
    ``(δ, ε, max length)``: the exceptions are a pure function of the
    path multiset (the graph's distributions are derived from the same
    multiset), so cells sharing an index — through one exception pass,
    or through a shared ``index_cache`` at the tuple door — share the
    result outright.
    """
    index = cell_index(weights, postings, views)
    result_key = (min_support, min_deviation, max_segment_length)
    cached = index.result_cache.get(result_key)
    if cached is not None:
        exceptions = list(cached)
        graph.exceptions = exceptions
        return exceptions
    supports, masks = mine_segments_bitmap(
        postings, index, min_support, max_length=max_segment_length
    )
    threshold = resolve_min_support(min_support, index.total)
    count = index.count
    # When every path has the same multiplicity, a weighted popcount is
    # just ``uniform * bit_count()`` — inline it in the hot loops to skip
    # the method dispatch on every AND.
    uniform = index._uniform
    star_mixed = index._star_mixed
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
    index.result_cache[result_key] = tuple(exceptions)
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
