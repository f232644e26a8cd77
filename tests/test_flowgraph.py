"""Unit tests for flowgraphs (repro.core.flowgraph) — incl. Figure 3 data."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DURATION_VALUE,
    FlowGraph,
    LocationView,
    PathLevel,
    TERMINATE,
    aggregate_path,
    flowgraph_to_dict,
)
from repro.core.flowgraph import FlowGraphNode
from repro.core.serialization import flowgraph_from_dict
from repro.errors import CubeError
from repro.store.binfmt import decode_cell_parts, encode_cell_payload


@pytest.fixture
def paper_graph(paper_db, location_hierarchy) -> FlowGraph:
    """Flowgraph over all eight Table 1 paths at the leaf view (Figure 3)."""
    level = PathLevel(LocationView.leaf_view(location_hierarchy), DURATION_VALUE)
    return FlowGraph(aggregate_path(r.path, level) for r in paper_db)


class TestFigure3:
    def test_factory_duration_distribution(self, paper_graph):
        # Figure 3 annotates factory: 5 with 0.38, 10 with 0.62.
        dist = paper_graph.node(("factory",)).duration_distribution()
        assert dist["5"] == pytest.approx(3 / 8)
        assert dist["10"] == pytest.approx(5 / 8)

    def test_factory_transition_distribution(self, paper_graph):
        # Figure 3: factory -> dist center 0.65 (5/8), -> truck 0.35 (3/8).
        dist = paper_graph.node(("factory",)).transition_distribution()
        assert dist["dist center"] == pytest.approx(5 / 8)
        assert dist["truck"] == pytest.approx(3 / 8)
        assert TERMINATE not in dist

    def test_truck_branch_probabilities(self, paper_graph):
        # Figure 3: factory->truck->shelf 0.67, ->warehouse 0.33.
        dist = paper_graph.node(("factory", "truck")).transition_distribution()
        assert dist["shelf"] == pytest.approx(2 / 3)
        assert dist["warehouse"] == pytest.approx(1 / 3)

    def test_checkout_terminates(self, paper_graph):
        node = paper_graph.node(
            ("factory", "dist center", "truck", "shelf", "checkout")
        )
        assert node.transition_distribution() == {TERMINATE: 1.0}

    def test_node_counts(self, paper_graph):
        assert paper_graph.n_paths == 8
        assert paper_graph.node(("factory",)).count == 8
        assert paper_graph.node(("factory", "dist center")).count == 5


class TestConstruction:
    def test_empty_path_rejected(self):
        with pytest.raises(CubeError, match="empty path"):
            FlowGraph().add_path(())

    def test_weighted_add(self):
        graph = FlowGraph()
        graph.add_path((("a", "1"), ("b", "2")), weight=3)
        assert graph.n_paths == 3
        assert graph.node(("a",)).count == 3
        assert graph.node(("a",)).transition_counts["b"] == 3

    def test_multiple_roots(self):
        graph = FlowGraph([(("a", "1"),), (("b", "1"),)])
        assert {root.location for root in graph.roots} == {"a", "b"}

    def test_common_prefixes_share_branch(self):
        graph = FlowGraph(
            [
                (("f", "1"), ("t", "1")),
                (("f", "2"), ("t", "2"), ("s", "1")),
            ]
        )
        assert len(graph) == 3  # f, f/t, f/t/s — prefixes shared
        assert graph.node(("f",)).count == 2

    def test_missing_node_raises(self, paper_graph):
        with pytest.raises(CubeError, match="no flowgraph node"):
            paper_graph.node(("moon",))
        assert not paper_graph.has_node(("moon",))

    def test_nodes_sorted_shortest_first(self, paper_graph):
        prefixes = [n.prefix for n in paper_graph.nodes()]
        assert prefixes == sorted(prefixes)


class TestDerived:
    def test_path_probability_of_seen_path(self):
        graph = FlowGraph(
            [
                (("a", "1"), ("b", "1")),
                (("a", "1"), ("c", "1")),
            ]
        )
        p = graph.path_probability((("a", "1"), ("b", "1")))
        # start 1.0 * dur(a=1)=1.0 * trans(a->b)=0.5 * dur(b=1)=1.0 * term=1.0
        assert p == pytest.approx(0.5)

    def test_path_probability_of_unseen_path_is_zero(self, paper_graph):
        assert paper_graph.path_probability((("shelf", "1"),)) == 0.0
        assert paper_graph.path_probability(()) == 0.0

    def test_enumerate_paths_sums_to_one(self, paper_graph):
        total = sum(p for _, p in paper_graph.enumerate_paths())
        assert total == pytest.approx(1.0)

    def test_enumerate_paths_matches_data(self, paper_graph):
        routes = dict(paper_graph.enumerate_paths())
        key = ("factory", "dist center", "truck", "shelf", "checkout")
        assert routes[key] == pytest.approx(3 / 8)

    def test_expected_remaining_duration(self):
        graph = FlowGraph(
            [
                (("a", "2"), ("b", "4")),
                (("a", "2"), ("b", "6")),
            ]
        )
        # a contributes 2; b's expectation is 5.
        assert graph.expected_remaining_duration(("a",)) == pytest.approx(7.0)

    def test_expected_duration_ignores_star(self):
        graph = FlowGraph([(("a", "*"),)])
        assert graph.expected_remaining_duration(("a",)) == 0.0


# ----------------------------------------------------------------------
# merge (Lemma 4.2) against the previous implementation, kept as oracle
# ----------------------------------------------------------------------

def _oracle_merge(graph: FlowGraph, others) -> FlowGraph:
    """``FlowGraph.merge`` as it was before the one-step node creation:
    children walked through a key sort, missing prefixes grown link by
    link, tallies added entry by entry."""
    index, roots = graph._index, graph._roots  # noqa: SLF001

    def grow_chain(prefix):
        node = None
        for end in range(1, len(prefix) + 1):
            partial = prefix[:end]
            existing = index.get(partial)
            if existing is None:
                existing = FlowGraphNode(partial)
                index[partial] = existing
                if end == 1:
                    roots[partial[0]] = existing
                else:
                    index[partial[:-1]].children[partial[-1]] = existing
            node = existing
        return node

    for other in others:
        graph.n_paths += other.n_paths
        for node in sorted(other._index.values(), key=lambda n: n.prefix):  # noqa: SLF001
            target = index.get(node.prefix)
            if target is None:
                target = grow_chain(node.prefix)
            target.count += node.count
            for counts, additions in (
                (target.duration_counts, node.duration_counts),
                (target.transition_counts, node.transition_counts),
            ):
                if counts:
                    for key, n in additions.items():
                        counts[key] = counts.get(key, 0) + n
                else:
                    counts.update(additions)
    return graph


def _shape(graph: FlowGraph) -> dict:
    """Content *and* every iteration order a caller can observe."""
    return {
        "dict": flowgraph_to_dict(graph),
        "nodes": [n.prefix for n in graph.nodes()],
        "index": list(graph._index),  # noqa: SLF001
        "roots": [root.prefix for root in graph.roots],
        "children": {n.prefix: list(n.children) for n in graph.nodes()},
        "tallies": {
            n.prefix: (list(n.duration_counts.items()),
                       list(n.transition_counts.items()))
            for n in graph.nodes()
        },
        "paths": list(graph.enumerate_paths()),
    }


_STAGE = st.tuples(st.sampled_from("abcd"), st.sampled_from("123"))
_PATHS = st.lists(
    st.lists(_STAGE, min_size=1, max_size=4).map(tuple), max_size=12
)


@given(_PATHS, st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=150, deadline=None)
def test_merge_is_indistinguishable_from_the_oracle(paths, ways, data):
    parts = [[] for _ in range(ways)]
    for path in paths:  # a disjoint split of the path multiset
        parts[data.draw(st.integers(0, ways - 1))].append(path)
    children = [FlowGraph(part) for part in parts]
    before = [_shape(child) for child in children]

    merged = FlowGraph().merge(children)
    assert _shape(merged) == _shape(_oracle_merge(FlowGraph(), children))
    assert flowgraph_to_dict(merged) == flowgraph_to_dict(FlowGraph(paths))

    # Into a non-empty graph: the first part is the target, not a child.
    target = FlowGraph(parts[0]).merge(children[1:])
    assert _shape(target) == _shape(
        _oracle_merge(FlowGraph(parts[0]), children[1:])
    )

    # Copied tallies are never shared: growing the merged graphs leaves
    # every child exactly as it was.
    for graph in (merged, target):
        for path in paths:
            graph.add_path(path, 5)
    assert [_shape(child) for child in children] == before


def test_merge_of_nothing_changes_nothing(paper_graph):
    before = _shape(paper_graph)
    assert paper_graph.merge([]) is paper_graph
    assert paper_graph.merge(iter(())) is paper_graph
    assert paper_graph.merge([FlowGraph()]) is paper_graph
    assert _shape(paper_graph) == before
    assert len(FlowGraph().merge([])) == 0


# ----------------------------------------------------------------------
# add_path's tree walk against the previous prefix-indexed walk
# ----------------------------------------------------------------------

def _oracle_add_path(graph: FlowGraph, path, weight: int = 1) -> None:
    """``FlowGraph.add_path`` as it was: every stage builds ``prefix +
    (location,)`` and finds its node through ``_index``."""
    index, roots = graph._index, graph._roots  # noqa: SLF001
    graph.n_paths += weight
    parent = None
    prefix = ()
    for location, duration in path:
        prefix = prefix + (location,)
        node = index.get(prefix)
        if node is None:
            node = FlowGraphNode(prefix)
            index[prefix] = node
            if parent is None:
                roots[location] = node
            else:
                parent.children[location] = node
        node.count += weight
        counts = node.duration_counts
        counts[duration] = counts.get(duration, 0) + weight
        if parent is not None:
            counts = parent.transition_counts
            counts[location] = counts.get(location, 0) + weight
        parent = node
    counts = parent.transition_counts
    counts[TERMINATE] = counts.get(TERMINATE, 0) + weight


def _assert_links_agree(graph: FlowGraph) -> None:
    """``_index``, ``roots`` and ``children`` describe one and the same tree."""
    index = graph._index  # noqa: SLF001
    reached = {}
    stack = [(root.prefix[0], root, ()) for root in graph.roots]
    while stack:
        location, node, parent_prefix = stack.pop()
        assert node.prefix == parent_prefix + (location,)
        assert index[node.prefix] is node
        reached[node.prefix] = node
        stack.extend(
            (child_location, child, node.prefix)
            for child_location, child in node.children.items()
        )
    assert reached.keys() == index.keys()


def _decoded(paths) -> FlowGraph:
    """The graph of *paths* through the FCHEAP08 cell codec, as a store
    hands it out: expanded from the stored ``(id, weight)`` vector."""
    table = list(dict.fromkeys(paths))
    vector = [(pid, paths.count(path)) for pid, path in enumerate(table)]
    _, stored = decode_cell_parts(encode_cell_payload((1, 2), vector))
    return FlowGraph.expand(
        (table[pid], weight) for pid, weight in stored.items()
    )


#: Ways a graph comes into being before ``add_path`` grows it further.
_ORIGINS = {
    "built": FlowGraph,
    "merged": lambda paths: FlowGraph().merge(
        [FlowGraph(paths[::2]), FlowGraph(paths[1::2])]
    ),
    "decoded": _decoded,
    "from_dict": lambda paths: flowgraph_from_dict(
        flowgraph_to_dict(FlowGraph(paths))
    ),
}


def test_add_path_revisiting_a_location():
    # A→B→A: the second A is a different node (prefix A/B/A), found under
    # B's children, not the root A.
    path = (("a", "1"), ("b", "2"), ("a", "3"))
    graph = FlowGraph()
    graph.add_path(path, 2)
    graph.add_path((("a", "1"), ("b", "1")))
    graph.add_path(path)
    oracle = FlowGraph()
    for args in ((path, 2), ((("a", "1"), ("b", "1")), 1), (path, 1)):
        _oracle_add_path(oracle, *args)
    assert _shape(graph) == _shape(oracle)
    _assert_links_agree(graph)
    assert [n.prefix for n in graph.nodes()] == [
        ("a",), ("a", "b"), ("a", "b", "a"),
    ]
    assert graph.node(("a",)).count == 4
    assert graph.node(("a", "b", "a")).count == 3
    assert graph.node(("a", "b", "a")) is not graph.node(("a",))
    assert graph.node(("a",)).duration_counts == {"1": 4}
    assert graph.node(("a", "b", "a")).duration_counts == {"3": 3}


@pytest.mark.parametrize("origin", sorted(_ORIGINS))
@given(_PATHS, _PATHS, st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_add_path_matches_the_prefix_walk(origin, seed_paths, more, weight):
    make = _ORIGINS[origin]
    graph, oracle = make(seed_paths), make(seed_paths)
    for path in more:
        graph.add_path(path, weight)
        _oracle_add_path(oracle, path, weight)
    assert _shape(graph) == _shape(oracle)
    assert flowgraph_to_dict(graph) == flowgraph_to_dict(oracle)
    _assert_links_agree(graph)
