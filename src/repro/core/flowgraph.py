"""Flowgraphs (Section 3, Definition 3.1).

A flowgraph is a tree-shaped probabilistic workflow built over a collection
of (aggregated) paths:

* nodes correspond to unique *location prefixes* — all common path prefixes
  share a branch,
* each node carries a multinomial **duration distribution** over the
  duration labels observed at the node,
* each node carries a multinomial **transition distribution** over the next
  locations, including an explicit **termination** outcome, and
* the graph carries a set of **exceptions**: frequent path prefixes whose
  conditional distributions deviate from the node's unconditional ones
  (computed in :mod:`repro.core.flowgraph_exceptions`).

Construction is a single pass over the paths (steps 1–2 of Section 3); the
counts are kept raw so flowgraphs over disjoint path sets merge additively —
the algebraic-measure property of Lemma 4.2 (:meth:`FlowGraph.merge`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.aggregation import AggregatedPath
from repro.errors import CubeError

__all__ = ["TERMINATE", "FlowGraphNode", "FlowGraph"]

#: Sentinel outcome in a transition distribution: the path ends here.
TERMINATE = "<terminate>"


class FlowGraphNode:
    """One node of a flowgraph: a unique location prefix.

    Attributes:
        prefix: Location sequence from the start of the path to this node.
        count: Number of paths that reach this node.
        duration_counts: Observed duration labels at this node.
        transition_counts: Next-location counts; :data:`TERMINATE` counts
            paths ending at this node.
        children: Child nodes keyed by their location.
    """

    __slots__ = (
        "prefix",
        "count",
        "duration_counts",
        "transition_counts",
        "children",
    )

    def __init__(self, prefix: tuple[str, ...]) -> None:
        self.prefix = prefix
        self.count = 0
        # Plain dicts, not Counters: nodes are created by the hundred per
        # cell and Counter construction dominated graph-build profiles.
        self.duration_counts: dict[str, int] = {}
        self.transition_counts: dict[str, int] = {}
        self.children: dict[str, FlowGraphNode] = {}

    @property
    def location(self) -> str:
        """The location this node represents (last element of the prefix)."""
        return self.prefix[-1]

    @property
    def termination_count(self) -> int:
        """Number of paths that terminate at this node."""
        return self.transition_counts.get(TERMINATE, 0)

    def duration_distribution(self) -> dict[str, float]:
        """Probability of each duration label at this node."""
        total = sum(self.duration_counts.values())
        if total == 0:
            return {}
        return {label: n / total for label, n in self.duration_counts.items()}

    def transition_distribution(self) -> dict[str, float]:
        """Probability of each next location (and of terminating)."""
        total = sum(self.transition_counts.values())
        if total == 0:
            return {}
        return {target: n / total for target, n in self.transition_counts.items()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlowGraphNode({'→'.join(self.prefix)!r}, count={self.count})"


class FlowGraph:
    """A flowgraph over a collection of aggregated paths.

    Args:
        paths: The aggregated paths to summarise.  Pass none to start an
            empty graph and feed it incrementally with :meth:`add_path`.
    """

    def __init__(self, paths: Iterable[AggregatedPath] = ()) -> None:
        self._roots: dict[str, FlowGraphNode] = {}
        self._index: dict[tuple[str, ...], FlowGraphNode] = {}
        self.n_paths = 0
        #: Exceptions attached by :mod:`repro.core.flowgraph_exceptions`.
        self.exceptions: list = []
        for path in paths:
            self.add_path(path)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_path(self, path: AggregatedPath, weight: int = 1) -> None:
        """Fold one aggregated path into the counts.

        Args:
            path: Sequence of ``(location, duration label)`` stages.
            weight: Multiplicity (lets callers fold pre-grouped paths).
        """
        if not path:
            raise CubeError("cannot add an empty path to a flowgraph")
        self.n_paths += weight
        # Walk the tree by location (strings cache their hash); a prefix
        # tuple is only built — and hashed into ``_index`` — for a node
        # this call creates.
        parent: FlowGraphNode | None = None
        siblings = self._roots
        for location, duration in path:
            node = siblings.get(location)
            if node is None:
                prefix = (
                    (location,) if parent is None
                    else parent.prefix + (location,)
                )
                node = FlowGraphNode(prefix)
                self._index[prefix] = node
                siblings[location] = node
            node.count += weight
            counts = node.duration_counts
            counts[duration] = counts.get(duration, 0) + weight
            if parent is not None:
                counts = parent.transition_counts
                counts[location] = counts.get(location, 0) + weight
            parent = node
            siblings = node.children
        assert parent is not None
        counts = parent.transition_counts
        counts[TERMINATE] = counts.get(TERMINATE, 0) + weight

    def merge(self, others: Iterable["FlowGraph"]) -> "FlowGraph":
        """Fold other flowgraphs over *disjoint* path sets into this one.

        The flowgraph is an algebraic measure (Lemma 4.2): the graph of a
        union of disjoint path sets is obtained by summing each node's
        ``count`` and duration/transition tallies — all integers, so the
        merge is exact and the operation is associative and commutative.
        The roll-up engine (:mod:`repro.perf.measure_rollup`) derives every
        ancestor cell's flowgraph this way instead of re-aggregating paths.

        Exceptions are holistic (Lemma 4.3) and are *not* merged; re-mine
        them over the merged cell's paths.

        Each graph is walked in prefix order, so a node's parent is always
        merged before it: a prefix this graph lacks is created in one step
        under its (already present) parent with *copies* of the child's
        tallies, never aliasing them.

        Returns:
            ``self`` (mutated in place), for chaining.
        """
        index = self._index
        roots = self._roots
        new = FlowGraphNode.__new__
        for other in others:
            self.n_paths += other.n_paths
            for prefix, node in sorted(other._index.items()):
                target = index.get(prefix)
                if target is None:
                    target = new(FlowGraphNode)
                    target.prefix = prefix
                    target.count = node.count
                    target.duration_counts = node.duration_counts.copy()
                    target.transition_counts = node.transition_counts.copy()
                    target.children = {}
                    index[prefix] = target
                    if len(prefix) == 1:
                        roots[prefix[0]] = target
                    else:
                        index[prefix[:-1]].children[prefix[-1]] = target
                else:
                    target.count += node.count
                    counts = target.duration_counts
                    for key, n in node.duration_counts.items():
                        counts[key] = counts.get(key, 0) + n
                    counts = target.transition_counts
                    for key, n in node.transition_counts.items():
                        counts[key] = counts.get(key, 0) + n
        return self

    @classmethod
    def expand(cls, weighted: Iterable[tuple[AggregatedPath, int]]) -> "FlowGraph":
        """The flowgraph of a whole weighted multiset, in one pass.

        Counts equal folding the ``(path, weight)`` pairs one by one with
        :meth:`add_path`; it is cheaper because a multiset shares
        prefixes: the walk touches one tally per stage (the duration),
        and everything implied is filled in per *node* afterwards — a
        node's ``count`` is the sum of its duration tally, a transition
        count the child's ``count``.  Roots, children and tallies come
        out in key order — the order the serialised form lists them in —
        so the graph reads (and renders probability ties) the same
        whatever order the multiset is in.  This is how a store expands
        a cell from its persisted vector.
        """
        graph = cls()
        roots = graph._roots
        index = graph._index
        new = FlowGraphNode.__new__
        n_paths = 0
        for path, weight in weighted:
            if not path:
                raise CubeError("cannot add an empty path to a flowgraph")
            n_paths += weight
            node = None
            siblings = roots
            for location, duration in path:
                child = siblings.get(location)
                if child is None:
                    child = siblings[location] = new(FlowGraphNode)
                    child.prefix = prefix = (
                        (location,) if node is None
                        else node.prefix + (location,)
                    )
                    child.count = 0
                    child.duration_counts = {duration: weight}
                    child.children = {}
                    index[prefix] = child
                else:
                    counts = child.duration_counts
                    counts[duration] = counts.get(duration, 0) + weight
                node = child
                siblings = node.children
            node.count += weight  # until the pass below: paths ending here
        graph.n_paths = n_paths
        if len(roots) > 1:
            graph._roots = dict(sorted(roots.items()))
        # Children were created after their parents: walking the nodes
        # backwards, every child's count is final before its parent reads
        # it.  Most nodes have one duration label and at most one child.
        for node in reversed(index.values()):
            ended = node.count
            durations = node.duration_counts
            if len(durations) == 1:
                (node.count,) = durations.values()
            else:
                node.count = sum(durations.values())
                node.duration_counts = dict(sorted(durations.items()))
            children = node.children
            if not children:
                node.transition_counts = {TERMINATE: ended}
                continue
            transitions = {
                location: child.count for location, child in children.items()
            }
            if ended:
                transitions[TERMINATE] = ended
            if len(transitions) > 1:
                transitions = dict(sorted(transitions.items()))
                if len(children) > 1:
                    node.children = dict(sorted(children.items()))
            node.transition_counts = transitions
        return graph

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def roots(self) -> tuple[FlowGraphNode, ...]:
        """Nodes whose prefix has length 1 (the start locations)."""
        return tuple(self._roots.values())

    def node(self, prefix: Iterable[str]) -> FlowGraphNode:
        """The node for a location *prefix*, raising if absent."""
        key = tuple(prefix)
        try:
            return self._index[key]
        except KeyError:
            raise CubeError(f"no flowgraph node with prefix {key!r}") from None

    def has_node(self, prefix: Iterable[str]) -> bool:
        """Whether a node exists for the location *prefix*."""
        return tuple(prefix) in self._index

    def nodes(self) -> Iterator[FlowGraphNode]:
        """All nodes, shortest prefixes first (BFS-compatible order)."""
        return iter(sorted(self._index.values(), key=lambda n: n.prefix))

    def canonical_nodes(self) -> list[FlowGraphNode]:
        """All nodes by ``(len(prefix), prefix)``: the serialisation order.

        Level by level, so every node follows its parent; both
        :func:`~repro.core.serialization.flowgraph_to_dict` and the
        binary cell codec write nodes in this order.
        """
        return sorted(
            self._index.values(), key=lambda n: (len(n.prefix), n.prefix)
        )

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlowGraph(paths={self.n_paths}, nodes={len(self._index)})"

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def path_probability(self, path: AggregatedPath) -> float:
        """Probability the model assigns to a complete aggregated path.

        The product of the start probability, each duration probability,
        each transition probability, and the final termination probability.
        Returns 0.0 as soon as any step is unseen.
        """
        if not path:
            return 0.0
        probability = 1.0
        first_location = path[0][0]
        root = self._roots.get(first_location)
        if root is None or self.n_paths == 0:
            return 0.0
        probability *= root.count / self.n_paths
        prefix: tuple[str, ...] = ()
        previous: FlowGraphNode | None = None
        for location, duration in path:
            prefix = prefix + (location,)
            node = self._index.get(prefix)
            if node is None:
                return 0.0
            if previous is not None:
                transition = previous.transition_distribution().get(location, 0.0)
                probability *= transition
            duration_probability = node.duration_distribution().get(duration, 0.0)
            probability *= duration_probability
            previous = node
        assert previous is not None
        probability *= previous.transition_distribution().get(TERMINATE, 0.0)
        return probability

    def enumerate_paths(self) -> Iterator[tuple[tuple[str, ...], float]]:
        """Yield every (location sequence, completion probability) pair.

        The completion probability multiplies start, transition, and
        termination probabilities (durations marginalised out); the values
        over all yielded sequences sum to 1.
        """
        if self.n_paths == 0:
            return
        stack: list[tuple[FlowGraphNode, float]] = [
            (root, root.count / self.n_paths) for root in self.roots
        ]
        while stack:
            node, probability = stack.pop()
            transitions = node.transition_distribution()
            for target, p in transitions.items():
                if target == TERMINATE:
                    yield node.prefix, probability * p
                else:
                    stack.append((node.children[target], probability * p))

    def expected_remaining_duration(self, prefix: Iterable[str]) -> float:
        """Expected total duration from (and including) the node at *prefix*.

        Duration labels must be numeric at this path level; the ``*`` label
        contributes zero.  Useful for lead-time analysis (intro question 1).
        """
        node = self.node(prefix)
        return self._expected_duration(node)

    def _expected_duration(self, node: FlowGraphNode) -> float:
        own = 0.0
        for label, probability in node.duration_distribution().items():
            if label != "*":
                own += float(label) * probability
        downstream = 0.0
        for target, probability in node.transition_distribution().items():
            if target != TERMINATE:
                downstream += probability * self._expected_duration(
                    node.children[target]
                )
        return own + downstream
