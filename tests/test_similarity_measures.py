"""Unit tests for similarity metrics and measure algebra (Lemmas 4.2/4.3)."""

import pytest

from repro.core import (
    FlowGraph,
    kl_divergence,
    kl_similarity,
    path_distribution_similarity,
    total_variation,
    tv_similarity,
)
from tests.oracle import exceptions_are_mergeable, merge_flowgraphs


def graph_of(*paths, repeat=1):
    expanded = []
    for path in paths:
        expanded.extend([path] * repeat)
    return FlowGraph(expanded)


A = (("f", "1"), ("w", "2"))
B = (("f", "1"), ("s", "2"))
C = (("x", "3"),)


class TestDistributionDistances:
    def test_kl_zero_for_identical(self):
        p = {"a": 0.5, "b": 0.5}
        assert kl_divergence(p, dict(p)) == pytest.approx(0.0, abs=1e-9)

    def test_kl_positive_for_different(self):
        assert kl_divergence({"a": 1.0}, {"b": 1.0}) > 1.0

    def test_kl_finite_on_disjoint_support(self):
        assert kl_divergence({"a": 1.0}, {"b": 1.0}) < float("inf")

    def test_kl_empty(self):
        assert kl_divergence({}, {}) == 0.0

    def test_total_variation_bounds(self):
        assert total_variation({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)
        assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
        assert total_variation({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)


class TestFlowgraphSimilarity:
    @pytest.mark.parametrize(
        "metric", [kl_similarity, tv_similarity, path_distribution_similarity]
    )
    def test_identical_graphs_score_near_one(self, metric):
        g1 = graph_of(A, B, repeat=10)
        g2 = graph_of(A, B, repeat=10)
        assert metric(g1, g2) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize(
        "metric", [kl_similarity, tv_similarity, path_distribution_similarity]
    )
    def test_disjoint_graphs_score_near_zero(self, metric):
        g1 = graph_of(A, repeat=10)
        g2 = graph_of(C, repeat=10)
        assert metric(g1, g2) < 0.2

    @pytest.mark.parametrize("metric", [kl_similarity, tv_similarity])
    def test_similarity_decreases_with_divergence(self, metric):
        base = graph_of(A, A, A, B)          # 75/25 split
        close = graph_of(A, A, A, B)
        far = graph_of(A, B, B, B)           # 25/75 split
        assert metric(base, close) > metric(base, far)

    @pytest.mark.parametrize("metric", [kl_similarity, tv_similarity])
    def test_symmetric_enough(self, metric):
        g1 = graph_of(A, A, B)
        g2 = graph_of(A, B, B)
        assert metric(g1, g2) == pytest.approx(metric(g2, g1), abs=1e-9)


class TestAlgebraicMerge:
    def test_merge_equals_direct_build(self):
        part1 = [A, A, B]
        part2 = [A, C, C]
        merged = merge_flowgraphs([FlowGraph(part1), FlowGraph(part2)])
        direct = FlowGraph(part1 + part2)
        assert merged.n_paths == direct.n_paths
        assert {n.prefix for n in merged.nodes()} == {
            n.prefix for n in direct.nodes()
        }
        for node in direct.nodes():
            other = merged.node(node.prefix)
            assert other.count == node.count
            assert other.duration_counts == node.duration_counts
            assert other.transition_counts == node.transition_counts

    def test_merge_is_nondestructive(self):
        g1 = FlowGraph([A])
        g2 = FlowGraph([B])
        merge_flowgraphs([g1, g2])
        assert g1.n_paths == 1 and g2.n_paths == 1

    def test_merge_of_nothing(self):
        merged = merge_flowgraphs([])
        assert merged.n_paths == 0
        assert len(merged) == 0

    def test_merged_children_linked(self):
        merged = merge_flowgraphs([FlowGraph([A]), FlowGraph([B])])
        factory = merged.node(("f",))
        assert set(factory.children) == {"w", "s"}


class TestHolisticLemma:
    def test_exceptions_not_mergeable_counterexample(self):
        """Lemma 4.3: union-frequent segments can be part-infrequent.

        The segment (f,1) appears twice in each part (infrequent at δ=3)
        but four times in the union (frequent).
        """
        part1 = [A, A, C, C, C]
        part2 = [A, A, C, C, C]
        assert not exceptions_are_mergeable([part1, part2], min_support=3)

    def test_mergeable_when_parts_agree(self):
        part1 = [A, A, A]
        part2 = [A, A, A]
        assert exceptions_are_mergeable([part1, part2], min_support=3)
