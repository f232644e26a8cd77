"""Property-based tests (hypothesis) on the core invariants.

Covered invariants:

* hierarchy codes are a faithful, prefix-consistent encoding;
* path aggregation is idempotent-ish (aggregating twice at the same level
  equals once) and never lengthens a path;
* flowgraph distributions are proper probability distributions and node
  counts are flow-consistent (parent transition counts = child counts);
* building a flowgraph from parts and merging equals building once
  (Lemma 4.2);
* Apriori's two counting modes agree on random databases, statistics
  included;
* support is anti-monotone in the mined results;
* shared and cubing find the same cells/segments on random path databases.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    FlowGraph,
    LocationView,
    Path,
    PathLevel,
    TERMINATE,
    aggregate_path,
)
from repro.core.hierarchy import ConceptHierarchy
from repro.mining import MiningStats, apriori
from tests.oracle import merge_flowgraphs

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

LOCATIONS = ["f", "d", "t", "w", "s", "c"]

stage = st.tuples(
    st.sampled_from(LOCATIONS), st.integers(min_value=0, max_value=5)
)
raw_path = st.lists(stage, min_size=1, max_size=6)

agg_stage = st.tuples(
    st.sampled_from(LOCATIONS),
    st.sampled_from(["1", "2", "3", "*"]),
)
agg_path = st.lists(agg_stage, min_size=1, max_size=5).map(tuple)
agg_paths = st.lists(agg_path, min_size=1, max_size=30)

transactions = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=12), min_size=0, max_size=8),
    min_size=0,
    max_size=25,
)


def flat_hierarchy() -> ConceptHierarchy:
    return ConceptHierarchy.from_edges(
        "location",
        [("transport", "d"), ("transport", "t"), ("transport", "w"),
         ("site", "f"), ("site", "s"), ("site", "c")],
    )


HIER = flat_hierarchy()
LEAF_LEVEL = PathLevel(LocationView.leaf_view(HIER), 1)
COARSE_LEVEL = PathLevel(LocationView.level_view(HIER, 1), 0)


# ----------------------------------------------------------------------
# hierarchy properties
# ----------------------------------------------------------------------

@given(st.sampled_from(list(HIER)))
def test_code_roundtrip(concept):
    assert HIER.concept_for_code(HIER.code_of(concept)) == concept


@given(st.sampled_from(HIER.leaves), st.integers(min_value=0, max_value=2))
def test_ancestor_level_is_exact_or_self(leaf, level):
    ancestor = HIER.ancestor_at_level(leaf, level)
    assert HIER.level_of(ancestor) == min(level, HIER.level_of(leaf))
    assert HIER.is_ancestor(ancestor, leaf, strict=False)


# ----------------------------------------------------------------------
# aggregation properties
# ----------------------------------------------------------------------

@given(raw_path)
def test_aggregation_never_lengthens(stages):
    path = Path(stages)
    for level in (LEAF_LEVEL, COARSE_LEVEL):
        aggregated = aggregate_path(path, level)
        assert 1 <= len(aggregated) <= len(path)


@given(raw_path)
def test_aggregation_merges_all_repeats(stages):
    path = Path(stages)
    aggregated = aggregate_path(path, COARSE_LEVEL)
    locations = [loc for loc, _ in aggregated]
    assert all(a != b for a, b in zip(locations, locations[1:]))


@given(raw_path)
def test_coarse_is_aggregation_of_fine(stages):
    """Rolling the fine aggregation up equals aggregating directly."""
    path = Path(stages)
    fine = aggregate_path(path, LEAF_LEVEL)
    direct = aggregate_path(path, COARSE_LEVEL)
    # Re-aggregate the fine view's locations through the coarse view.
    relifted: list[str] = []
    for location, _ in fine:
        mapped = COARSE_LEVEL.view.aggregate(location)
        if not relifted or relifted[-1] != mapped:
            relifted.append(mapped)
    assert relifted == [loc for loc, _ in direct]


# ----------------------------------------------------------------------
# flowgraph properties
# ----------------------------------------------------------------------

@given(agg_paths)
def test_flowgraph_distributions_are_probabilities(paths):
    graph = FlowGraph(paths)
    for node in graph.nodes():
        durations = node.duration_distribution()
        transitions = node.transition_distribution()
        assert math.isclose(sum(durations.values()), 1.0)
        assert math.isclose(sum(transitions.values()), 1.0)
        assert all(p >= 0 for p in durations.values())
        assert all(p >= 0 for p in transitions.values())


@given(agg_paths)
def test_flowgraph_flow_conservation(paths):
    """A node's transition counts equal its children's path counts."""
    graph = FlowGraph(paths)
    for node in graph.nodes():
        assert sum(node.transition_counts.values()) == node.count
        for target, count in node.transition_counts.items():
            if target != TERMINATE:
                assert graph.node(node.prefix + (target,)).count == count
    assert sum(root.count for root in graph.roots) == graph.n_paths


@given(agg_paths)
def test_flowgraph_path_enumeration_sums_to_one(paths):
    graph = FlowGraph(paths)
    total = sum(p for _, p in graph.enumerate_paths())
    assert math.isclose(total, 1.0, rel_tol=1e-9)


@given(agg_paths, st.integers(min_value=1, max_value=5))
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_merge_equals_direct_build(paths, split_at):
    split = min(split_at, len(paths))
    merged = merge_flowgraphs(
        [FlowGraph(paths[:split]), FlowGraph(paths[split:])]
    )
    direct = FlowGraph(paths)
    assert merged.n_paths == direct.n_paths
    assert {n.prefix for n in merged.nodes()} == {n.prefix for n in direct.nodes()}
    for node in direct.nodes():
        counterpart = merged.node(node.prefix)
        assert counterpart.duration_counts == node.duration_counts
        assert counterpart.transition_counts == node.transition_counts


# ----------------------------------------------------------------------
# mining properties
# ----------------------------------------------------------------------

@given(transactions, st.integers(min_value=1, max_value=5))
def test_apriori_counting_modes_agree(db, threshold):
    scan_stats, bitmap_stats = MiningStats(), MiningStats()
    scan = apriori(db, threshold, counting="scan", stats=scan_stats)
    bitmap = apriori(db, threshold, counting="bitmap", stats=bitmap_stats)
    assert scan == bitmap
    assert scan_stats.counters_equal(bitmap_stats)


@given(transactions, st.integers(min_value=1, max_value=5))
def test_support_is_antimonotone(db, threshold):
    result = apriori(db, threshold)
    for itemset, support in result.items():
        for item in itemset:
            subset = itemset - {item}
            if subset:
                assert result[subset] >= support


@given(transactions, st.integers(min_value=1, max_value=5))
def test_supports_are_exact(db, threshold):
    result = apriori(db, threshold)
    for itemset, support in result.items():
        actual = sum(1 for t in db if itemset <= t)
        assert actual == support


# ----------------------------------------------------------------------
# miner agreement on random path databases
# ----------------------------------------------------------------------

@st.composite
def path_databases(draw):
    from repro.synth import GeneratorConfig, generate_path_database

    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_sequences = draw(st.integers(min_value=4, max_value=8))
    n_paths = draw(st.integers(min_value=20, max_value=50))
    config = GeneratorConfig(
        n_paths=n_paths,
        n_dims=2,
        dim_fanouts=(2, 2, 2),
        n_location_groups=3,
        locations_per_group=2,
        n_sequences=n_sequences,
        max_path_length=4,
        max_duration=3,
        seed=seed,
    )
    return generate_path_database(config)


@given(path_databases(), st.integers(min_value=5, max_value=10))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_shared_and_cubing_agree_on_random_databases(db, threshold):
    from repro.mining import cubing_mine, shared_mine

    shared = shared_mine(db, min_support=threshold)
    cubing = cubing_mine(db, min_support=threshold)
    assert shared.frequent_cells() == cubing.frequent_cells()
    assert shared.frequent_segments() == cubing.frequent_segments()
