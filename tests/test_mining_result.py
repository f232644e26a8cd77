"""Tests for FlowMiningResult decoding and MiningStats bookkeeping."""

import pytest

from repro.core import ItemLevel
from repro.encoding import DimItem, StageItem
from repro.mining import FlowMiningResult, MiningStats, item_sort_key, shared_mine


class TestItemSortKey:
    def test_dims_before_stages(self):
        dim = DimItem(0, "1")
        stage = StageItem(0, ("f",), "1")
        assert item_sort_key(dim) < item_sort_key(stage)

    def test_total_order_on_mixed_alphabet(self):
        items = [
            StageItem(1, ("f",), "*"),
            DimItem(1, "2"),
            StageItem(0, ("f", "d"), "2"),
            DimItem(0, "12"),
            StageItem(0, ("f",), "1"),
            DimItem(0, "1"),
        ]
        ordered = sorted(items, key=item_sort_key)
        assert ordered[0] == DimItem(0, "1")
        assert isinstance(ordered[-1], StageItem)
        # Sorting twice is stable and identical.
        assert sorted(items, key=item_sort_key) == ordered


class TestDecoding:
    @pytest.fixture(scope="class")
    def result(self, paper_db):
        return shared_mine(paper_db, min_support=2)

    def test_segments_by_cell_keys(self, result, paper_lattice):
        packaged = result.segments_by_cell()
        for (item_level, path_level, key), segments in packaged.items():
            assert isinstance(item_level, ItemLevel)
            assert path_level in list(paper_lattice)
            assert len(key) == 2
            assert segments

    def test_apex_cell_support_is_database_size(self, result, paper_db):
        cells = result.frequent_cells()
        apex = (ItemLevel((0, 0)), ("*", "*"))
        assert cells[apex] == len(paper_db)

    def test_malformed_cell_itemsets_skipped(self, paper_db, paper_lattice):
        """Itemsets with two items on one dimension decode to no cell."""
        stats = MiningStats()
        supports = {
            frozenset([DimItem(0, "1"), DimItem(0, "12")]): 5,
        }
        result = FlowMiningResult(
            supports, 2, 8, paper_db.schema, paper_lattice, stats
        )
        cells = result.frequent_cells()
        assert len(cells) == 1  # only the implicit apex

    def test_cross_level_stage_itemsets_skipped(self, paper_db, paper_lattice):
        supports = {
            frozenset(
                [StageItem(0, ("factory",), "10"), StageItem(1, ("factory",), "*")]
            ): 5,
        }
        result = FlowMiningResult(
            supports, 2, 8, paper_db.schema, paper_lattice, MiningStats()
        )
        assert result.frequent_segments() == {}

    def test_non_nested_stage_itemsets_skipped(self, paper_db, paper_lattice):
        supports = {
            frozenset(
                [
                    StageItem(0, ("factory", "truck"), "1"),
                    StageItem(0, ("factory", "dist center"), "2"),
                ]
            ): 5,
        }
        result = FlowMiningResult(
            supports, 2, 8, paper_db.schema, paper_lattice, MiningStats()
        )
        assert result.frequent_segments() == {}


class TestMiningStats:
    def test_merge_accumulates(self):
        a = MiningStats()
        a.candidates_per_length[2] = 10
        a.scans = 2
        b = MiningStats()
        b.candidates_per_length[2] = 5
        b.candidates_per_length[3] = 7
        b.scans = 1
        b.pruned["subset"] = 4
        a.merge(b)
        assert a.candidates_per_length == {2: 15, 3: 7}
        assert a.scans == 3
        assert a.pruned["subset"] == 4

    def test_max_length_empty(self):
        assert MiningStats().max_length == 0

    def test_totals(self):
        stats = MiningStats()
        stats.candidates_per_length.update({1: 3, 2: 4})
        stats.frequent_per_length.update({1: 2})
        assert stats.total_candidates == 7
        assert stats.total_frequent == 2
