"""Tests for the generic miner: Apriori (both counting modes) and its
counting primitives, including the tid-set counter Basic runs on."""

import pytest

from repro.errors import MiningError
from repro.mining import MiningStats, apriori
from repro.mining.apriori import (
    count_candidates,
    count_candidates_tidset,
    generate_candidates,
    tid_lists,
)

T = [
    frozenset("abc"),
    frozenset("abd"),
    frozenset("ab"),
    frozenset("cd"),
    frozenset("acd"),
]


class TestApriori:
    def test_known_supports(self):
        result = apriori(T, min_support=2)
        assert result[frozenset("a")] == 4
        assert result[frozenset("ab")] == 3
        assert result[frozenset("cd")] == 2
        assert frozenset("abc") not in result  # support 1

    def test_scan_and_bitmap_agree(self):
        scan = apriori(T, min_support=2, counting="scan")
        bitmap = apriori(T, min_support=2, counting="bitmap")
        assert scan == bitmap

    def test_max_length(self):
        result = apriori(T, min_support=1, max_length=1)
        assert all(len(s) == 1 for s in result)

    def test_pair_filter_blocks_joins(self):
        result = apriori(T, min_support=2, pair_filter=lambda a, b: False)
        assert all(len(s) == 1 for s in result)

    def test_stats_collection(self):
        stats = MiningStats()
        apriori(T, min_support=2, stats=stats)
        assert stats.candidates_per_length[1] == 4  # a, b, c, d
        assert stats.frequent_per_length[1] == 4
        assert stats.total_candidates >= stats.total_frequent

    def test_unknown_counting_rejected(self):
        """A typed mining error — "tidset" is no longer a counting mode."""
        for counting in ("magic", "tidset"):
            with pytest.raises(MiningError, match="counting"):
                apriori(T, min_support=1, counting=counting)

    def test_empty_database(self):
        assert apriori([], min_support=1) == {}

    def test_threshold_above_everything(self):
        assert apriori(T, min_support=99) == {}


class TestCandidateGeneration:
    def test_join_produces_sorted_supersets(self):
        frequent = [("a",), ("b",), ("c",)]
        candidates = generate_candidates(frequent, key=lambda x: x)
        assert set(candidates) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_subset_pruning(self):
        # With ("b","c") missing, the join of ("a","b") and ("a","c")
        # produces ("a","b","c") but the subset check rejects it.
        frequent = [("a", "b"), ("a", "c")]
        candidates = generate_candidates(frequent, key=lambda x: x)
        assert ("a", "b", "c") not in candidates
        frequent = [("a", "b"), ("a", "c"), ("b", "c")]
        candidates = generate_candidates(frequent, key=lambda x: x)
        assert candidates == [("a", "b", "c")]

    def test_subset_prune_counts(self):
        stats = MiningStats()
        frequent = [("a", "b"), ("a", "c")]  # (b,c) not frequent
        candidates = generate_candidates(frequent, stats=stats, key=lambda x: x)
        assert candidates == []
        assert stats.pruned["subset"] == 1


class TestCounting:
    def test_scan_counting(self):
        support = count_candidates(T, [("a", "b"), ("c", "d")])
        assert support[("a", "b")] == 3
        assert support[("c", "d")] == 2

    def test_tidset_counting_matches(self):
        item_tids = tid_lists(T)
        parents = {("a",): item_tids["a"], ("b",): item_tids["b"],
                   ("c",): item_tids["c"], ("d",): item_tids["d"]}
        tids = count_candidates_tidset([("a", "b"), ("c", "d")], parents)
        assert len(tids[("a", "b")]) == 3
        assert len(tids[("c", "d")]) == 2

    def test_tid_lists(self):
        tids = tid_lists(T)
        assert tids["a"] == {0, 1, 2, 4}
        assert tids["d"] == {1, 3, 4}

