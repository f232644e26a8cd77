"""Tests for PDFA induction and PDFA-based flowgraph similarity."""

import pytest

from repro.core import FlowGraph
from repro.errors import FlowCubeError
from repro.pdfa import (
    PDFA,
    alergia,
    flowgraph_pdfa_similarity,
    flowgraph_to_pdfa,
    hoeffding_compatible,
    pdfa_similarity,
    prefix_tree_acceptor,
    string_distribution_distance,
)

AB_STRINGS = [("a", "b")] * 6 + [("a", "c")] * 4
LOOP_STRINGS = (
    [("x",)] * 8 + [("x", "x")] * 4 + [("x", "x", "x")] * 2 + [("x", "x", "x", "x")]
)


class TestAutomaton:
    def test_pta_counts(self):
        pta = prefix_tree_acceptor(AB_STRINGS)
        assert pta.state_counts[pta.start] == 10
        dist = pta.out_distribution(pta.start)
        assert dist["a"] == pytest.approx(1.0)

    def test_string_probability_matches_empirical(self):
        pta = prefix_tree_acceptor(AB_STRINGS)
        assert pta.string_probability(("a", "b")) == pytest.approx(0.6)
        assert pta.string_probability(("a", "c")) == pytest.approx(0.4)
        assert pta.string_probability(("a",)) == 0.0
        assert pta.string_probability(("z",)) == 0.0

    def test_enumerate_strings_is_the_distribution(self):
        pta = prefix_tree_acceptor(AB_STRINGS)
        dist = dict(pta.enumerate_strings(1e-9))
        assert dist == {
            ("a", "b"): pytest.approx(0.6),
            ("a", "c"): pytest.approx(0.4),
        }

    def test_enumerate_requires_positive_floor(self):
        pta = prefix_tree_acceptor(AB_STRINGS)
        with pytest.raises(FlowCubeError):
            list(pta.enumerate_strings(0))

    def test_weighted_add(self):
        pdfa = PDFA()
        pdfa.add_string(("a",), count=5)
        assert pdfa.termination_counts[pdfa.delta[0]["a"]] == 5

    def test_states_reachability(self):
        pta = prefix_tree_acceptor(AB_STRINGS)
        assert pta.n_states() == 4  # start, a, ab, ac


class TestHoeffding:
    def test_identical_frequencies_compatible(self):
        assert hoeffding_compatible(5, 10, 50, 100, alpha=0.05)

    def test_clear_difference_incompatible(self):
        assert not hoeffding_compatible(0, 1000, 1000, 1000, alpha=0.05)

    def test_small_samples_forgiving(self):
        # With 2 observations each, even opposite frequencies pass.
        assert hoeffding_compatible(0, 2, 2, 2, alpha=0.05)

    def test_zero_samples_compatible(self):
        assert hoeffding_compatible(0, 0, 7, 10, alpha=0.05)


class TestAlergia:
    def test_validates_arguments(self):
        with pytest.raises(FlowCubeError):
            alergia()
        with pytest.raises(FlowCubeError):
            alergia(strings=[("a",)], pta=PDFA())
        with pytest.raises(FlowCubeError):
            alergia(strings=[("a",)], alpha=2.0)

    def test_merging_reduces_states(self):
        pta_size = prefix_tree_acceptor(LOOP_STRINGS).n_states()
        merged = alergia(strings=LOOP_STRINGS, alpha=0.05)
        assert merged.n_states() < pta_size

    def test_loop_structure_recovered(self):
        """A geometric self-loop process should collapse to few states."""
        merged = alergia(strings=LOOP_STRINGS, alpha=0.05)
        assert merged.n_states() <= 3

    def test_merged_model_still_generates_training_strings(self):
        """Aggressive merging fits a loop model: it may redistribute mass
        (the geometric fit differs from the empirical frequencies) but
        every training string keeps positive probability, and longer
        strings never become more likely than shorter ones here."""
        merged = alergia(strings=LOOP_STRINGS, alpha=0.05)
        p1 = merged.string_probability(("x",))
        p2 = merged.string_probability(("x", "x"))
        p3 = merged.string_probability(("x", "x", "x"))
        assert p1 > 0 and p2 > 0 and p3 > 0
        assert p1 >= p2 >= p3

    def test_strict_alpha_preserves_distribution(self):
        """With a strict bound (alpha → 1) small-sample states don't
        merge and the empirical distribution survives exactly."""
        merged = alergia(strings=AB_STRINGS, alpha=0.99)
        assert merged.string_probability(("a", "b")) == pytest.approx(0.6)
        assert merged.string_probability(("a", "c")) == pytest.approx(0.4)

    def test_distinct_behaviours_not_merged(self):
        # 'a' always continues with 'b'; 'z' always terminates: the states
        # after the first symbol must stay distinct.
        strings = [("a", "b")] * 30 + [("z",)] * 30
        merged = alergia(strings=strings, alpha=0.05)
        assert merged.string_probability(("a", "b")) == pytest.approx(0.5)
        assert merged.string_probability(("z",)) == pytest.approx(0.5)
        assert merged.string_probability(("a",)) == pytest.approx(0.0)

    def test_total_mass_preserved(self):
        merged = alergia(strings=LOOP_STRINGS, alpha=0.05)
        total = sum(p for _, p in merged.enumerate_strings(1e-7))
        assert total == pytest.approx(1.0, abs=0.01)


class TestDistance:
    def test_identical_distance_zero(self):
        a = prefix_tree_acceptor(AB_STRINGS)
        b = prefix_tree_acceptor(AB_STRINGS)
        assert string_distribution_distance(a, b) == pytest.approx(0.0)
        assert pdfa_similarity(a, b) == pytest.approx(1.0)

    def test_disjoint_distance_one(self):
        a = prefix_tree_acceptor([("a",)] * 5)
        b = prefix_tree_acceptor([("b",)] * 5)
        assert string_distribution_distance(a, b) == pytest.approx(1.0)
        assert pdfa_similarity(a, b) == pytest.approx(0.0)

    def test_partial_overlap(self):
        a = prefix_tree_acceptor([("a",)] * 5 + [("b",)] * 5)
        b = prefix_tree_acceptor([("a",)] * 10)
        assert string_distribution_distance(a, b) == pytest.approx(0.5)


class TestFlowgraphBridge:
    PATHS_A = [(("f", "1"), ("w", "2"))] * 6 + [(("f", "1"), ("s", "2"))] * 4
    PATHS_B = [(("f", "1"), ("w", "2"))] * 4 + [(("f", "1"), ("s", "2"))] * 6

    def test_flowgraph_to_pdfa_matches_route_distribution(self):
        pdfa = flowgraph_to_pdfa(self.PATHS_A)
        assert pdfa.string_probability(("f", "w")) == pytest.approx(0.6)

    def test_identical_graphs_similar(self):
        g1 = FlowGraph(self.PATHS_A)
        g2 = FlowGraph(list(self.PATHS_A))
        assert flowgraph_pdfa_similarity(g1, g2) == pytest.approx(1.0)

    def test_shifted_graphs_less_similar(self):
        g1 = FlowGraph(self.PATHS_A)
        g2 = FlowGraph(self.PATHS_B)
        similarity = flowgraph_pdfa_similarity(g1, g2)
        assert 0.5 < similarity < 1.0

    def test_usable_as_redundancy_metric(self, paper_db):
        from repro.core import FlowCube, prune_redundant

        cube = FlowCube.build(paper_db, min_support=2, compute_exceptions=False)
        marked = prune_redundant(
            cube, threshold=0.95, metric=flowgraph_pdfa_similarity
        )
        assert marked >= 0  # runs end to end as a drop-in φ
