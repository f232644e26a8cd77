"""Tests for the three flowcube miners: Shared, Basic, Cubing (and BUC).

The central correctness property: all three find exactly the same frequent
cells and frequent path segments; they differ only in *how* (and how fast).
"""

import importlib.util
import inspect

import pytest

import repro.mining
from repro.core import FlowCube, ItemLevel, PathLattice
from repro.encoding import DimItem, StageItem, TransactionDatabase
from repro.mining import (
    MiningStats,
    basic_mine,
    buc_iceberg_cells,
    cubing_mine,
    shared_mine,
    shared_pair_filter,
    top_path_level_id,
)
from repro.mining.shared import precount_prune
from repro.perf.bitmap import count_candidates_masks
from repro.synth import GeneratorConfig, generate_path_database


@pytest.fixture(scope="module")
def shared_result(request):
    from repro.core import example_path_database

    return shared_mine(example_path_database(), min_support=3)


class TestSharedOnPaperExample:
    def test_table4_length1_supports(self, shared_result, product_hierarchy):
        """Table 4's length-1 rows, with supports recomputed from Table 1.

        Table 4 as printed is partially inconsistent with Table 1 (it lists
        {121} tennis at support 5, but tennis appears in records 1, 2, 7, 8
        only); we assert the values derivable from Table 1: tennis 4,
        shoes 5 (matching the printed {12*}: 5), (f,10) 5, (f,*) 8.
        See EXPERIMENTS.md for the full reconciliation.
        """
        supports = shared_result.supports
        tennis = DimItem(0, product_hierarchy.code_of("tennis"))
        shoes = DimItem(0, product_hierarchy.code_of("shoes"))
        assert supports[frozenset([tennis])] == 4
        assert supports[frozenset([shoes])] == 5
        assert supports[frozenset([StageItem(0, ("factory",), "10")])] == 5
        assert supports[frozenset([StageItem(1, ("factory",), "*")])] == 8

    def test_table4_length2_supports(self, shared_result, product_hierarchy):
        """Table 4's length-2 rows, recomputed from Table 1.

        {(f,5)(fd,2)}: 3 matches the printed table (records 2, 7, 8);
        {12*,211} shoes∧nike: 3 matches; nike∧(f,10) is 5 from Table 1
        (records 1, 3, 4, 5, 6) where the printed table says 4.
        """
        supports = shared_result.supports
        nike = DimItem(1, "1")
        f10 = StageItem(0, ("factory",), "10")
        assert supports[frozenset([nike, f10])] == 5
        shoes = DimItem(0, product_hierarchy.code_of("shoes"))
        assert supports[frozenset([shoes, nike])] == 3
        f5 = StageItem(0, ("factory",), "5")
        fd2 = StageItem(0, ("factory", "dist center"), "2")
        assert supports[frozenset([f5, fd2])] == 3
        f_star = StageItem(1, ("factory",), "*")
        fd_star = StageItem(1, ("factory", "dist center"), "*")
        assert supports[frozenset([f_star, fd_star])] == 5

    def test_frequent_cells_decoded(self, shared_result):
        cells = shared_result.frequent_cells()
        assert cells[(ItemLevel((3, 0)), ("tennis", "*"))] == 4
        assert cells[(ItemLevel((2, 1)), ("shoes", "nike"))] == 3
        assert cells[(ItemLevel((0, 0)), ("*", "*"))] == 8

    def test_no_apex_items_counted(self, shared_result):
        for itemset in shared_result.supports:
            for item in itemset:
                if isinstance(item, DimItem):
                    assert item.code != "*"

    def test_no_ancestor_pairs_in_itemsets(self, shared_result):
        """Pruning rule 4: an itemset never holds an item and its ancestor."""
        for itemset in shared_result.supports:
            dims = [i for i in itemset if isinstance(i, DimItem)]
            for a in dims:
                for b in dims:
                    if a is not b:
                        assert not a.is_ancestor_of(b)
            stages = [i for i in itemset if isinstance(i, StageItem)]
            assert len({s.level_id for s in stages}) <= 1

    def test_stage_itemsets_are_nested_chains(self, shared_result):
        for itemset in shared_result.supports:
            stages = sorted(
                (i for i in itemset if isinstance(i, StageItem)),
                key=lambda s: len(s.prefix),
            )
            for a, b in zip(stages, stages[1:]):
                assert b.prefix[: len(a.prefix)] == a.prefix


class TestPairFilter:
    def test_same_dimension_rejected(self):
        assert not shared_pair_filter(DimItem(0, "1"), DimItem(0, "12"))
        assert shared_pair_filter(DimItem(0, "1"), DimItem(1, "1"))

    def test_stage_rules_delegated(self):
        a = StageItem(0, ("f",), "1")
        b = StageItem(0, ("f", "d"), "2")
        unrelated = StageItem(0, ("x",), "1")
        assert shared_pair_filter(a, b)
        assert not shared_pair_filter(b, unrelated)

    def test_mixed_kinds_allowed(self):
        assert shared_pair_filter(DimItem(0, "1"), StageItem(0, ("f",), "1"))


class TestTopPathLevel:
    def test_paper_lattice_has_top(self, paper_lattice):
        top = top_path_level_id(paper_lattice)
        assert top is not None
        level = paper_lattice[top]
        assert all(level.is_higher_or_equal(other) for other in paper_lattice)

    def test_lattice_without_top(self, location_hierarchy):
        from repro.core import (
            DURATION_ANY,
            DURATION_VALUE,
            LocationView,
            PathLevel,
        )

        fine = LocationView.leaf_view(location_hierarchy)
        coarse = LocationView.level_view(location_hierarchy, 1)
        incomparable = PathLattice(
            [PathLevel(fine, DURATION_ANY), PathLevel(coarse, DURATION_VALUE)]
        )
        assert top_path_level_id(incomparable) is None


class TestAgreement:
    """Shared ≡ Cubing ≡ Basic (restricted to well-formed itemsets)."""

    @pytest.mark.parametrize("min_support", [2, 3, 5])
    def test_shared_equals_cubing_on_paper_example(self, paper_db, min_support):
        shared = shared_mine(paper_db, min_support=min_support)
        cubing = cubing_mine(paper_db, min_support=min_support)
        assert shared.frequent_cells() == cubing.frequent_cells()
        assert shared.frequent_segments() == cubing.frequent_segments()

    def test_shared_equals_cubing_on_synthetic(self, tiny_synth_db):
        shared = shared_mine(tiny_synth_db, min_support=0.05)
        cubing = cubing_mine(tiny_synth_db, min_support=0.05)
        assert shared.frequent_cells() == cubing.frequent_cells()
        assert shared.frequent_segments() == cubing.frequent_segments()

    def test_basic_is_superset_of_shared(self, paper_db):
        shared = shared_mine(paper_db, min_support=3)
        basic = basic_mine(paper_db, min_support=3)
        missing = [
            s for s in shared.supports
            if basic.supports.get(s) != shared.supports[s]
        ]
        assert missing == []
        assert len(basic.supports) > len(shared.supports)

    def test_basic_decodes_to_same_cells_and_segments(self, paper_db):
        shared = shared_mine(paper_db, min_support=3)
        basic = basic_mine(paper_db, min_support=3)
        assert shared.frequent_cells() == basic.frequent_cells()
        assert shared.frequent_segments() == basic.frequent_segments()

    def test_precounting_changes_nothing(self, tiny_synth_db):
        with_precount = shared_mine(
            tiny_synth_db, min_support=0.05, precount_lengths=(2,)
        )
        without = shared_mine(tiny_synth_db, min_support=0.05, precount_lengths=())
        assert with_precount.supports == without.supports


class TestStats:
    def test_shared_prunes_more_than_basic_counts(self, paper_db):
        shared = shared_mine(paper_db, min_support=3)
        basic = basic_mine(paper_db, min_support=3)
        assert shared.stats.total_candidates < basic.stats.total_candidates
        assert shared.stats.max_length <= basic.stats.max_length

    def test_pruning_counters_populated(self, paper_db):
        shared = shared_mine(paper_db, min_support=3)
        assert shared.stats.pruned["unlinkable"] > 0

    def test_basic_truncation_flagged(self, small_synth_db):
        result = basic_mine(small_synth_db, min_support=0.01, candidate_limit=10)
        assert result.stats.pruned["truncated"] > 0

    def test_stats_rows(self, paper_db):
        shared = shared_mine(paper_db, min_support=3)
        rows = shared.stats.as_rows()
        assert rows[0][0] == 1
        assert all(candidates >= frequent for _, candidates, frequent in rows)


class TestBUC:
    def test_cells_match_direct_grouping(self, paper_db):
        cells = {
            (level, key): set(ids)
            for level, key, ids in buc_iceberg_cells(paper_db, min_support=2)
        }
        assert cells[(ItemLevel((0, 0)), ("*", "*"))] == set(range(1, 9))
        assert cells[(ItemLevel((2, 1)), ("shoes", "nike"))] == {1, 2, 3}
        assert (ItemLevel((3, 0)), ("shirt", "*")) not in cells

    def test_no_duplicate_cells(self, small_synth_db):
        seen = set()
        for level, key, _ in buc_iceberg_cells(small_synth_db, min_support=0.02):
            assert (level, key) not in seen
            seen.add((level, key))

    def test_threshold_above_database_yields_nothing(self, paper_db):
        assert list(buc_iceberg_cells(paper_db, min_support=9)) == []

    def test_iceberg_counts_respect_threshold(self, small_synth_db):
        for _, _, ids in buc_iceberg_cells(small_synth_db, min_support=0.03):
            assert len(ids) >= 9  # ceil(0.03 * 300)


class TestCubingOptions:
    def test_max_length_bounds_total_pattern(self, paper_db):
        bounded = cubing_mine(paper_db, min_support=3, max_length=2)
        assert all(len(s) <= 2 for s in bounded.supports)

    def test_transaction_db_reuse(self, paper_db, paper_lattice):
        tdb = TransactionDatabase(paper_db, paper_lattice)
        fresh = shared_mine(paper_db, path_lattice=paper_lattice, min_support=3)
        reused = shared_mine(
            paper_db,
            path_lattice=paper_lattice,
            min_support=3,
            transaction_db=tdb,
        )
        assert fresh.supports == reused.supports


# Every counter of a Shared and a Cubing run, pinned.  The tid-set
# kernels, FP-growth and Star-Cubing returned these same counters and
# supports when they were recorded, so the constants stand in for those
# parity arms: a change to a join, a pruning rule or the counting that
# alters any count fails here.
#: name -> (min_support, n_supports, Shared counters, Cubing counters);
#: counters are (candidates_per_length, frequent_per_length, pruned,
#: scans, precounted_patterns).
PINNED = {
    "table1": (3, 326, (
        {1: 54, 2: 113, 3: 98, 4: 73, 5: 39, 6: 13, 7: 2},
        {1: 22, 2: 79, 3: 98, 4: 73, 5: 39, 6: 13, 7: 2},
        {"subset": 23, "unlinkable": 546}, 7, 19,
    ), (
        {1: 287, 2: 128, 3: 71, 4: 31, 5: 6},
        {1: 107, 2: 103, 3: 71, 4: 31, 5: 6},
        {"unlinkable": 540}, 38, 0,
    )),
    "synth3": (0.05, 3300, (
        {1: 234, 2: 3365, 3: 1671, 4: 900, 5: 486, 6: 130, 7: 12},
        {1: 117, 2: 644, 3: 1019, 4: 892, 5: 486, 6: 130, 7: 12},
        {"subset": 1530, "unlinkable": 11930}, 7, 26,
    ), (
        {1: 6822, 2: 2169, 3: 782, 4: 279, 5: 40},
        {1: 1027, 2: 1097, 3: 766, 4: 279, 5: 40},
        {"subset": 28, "unlinkable": 11500}, 374, 0,
    )),
    "synth7": (0.05, 3393, (
        {1: 212, 2: 3322, 3: 1594, 4: 936, 5: 532, 6: 162, 7: 20},
        {1: 111, 2: 635, 3: 1014, 4: 919, 5: 532, 6: 162, 7: 20},
        {"subset": 1275, "unlinkable": 10528}, 7, 26,
    ), (
        {1: 6289, 2: 2265, 3: 796, 4: 282, 5: 40},
        {1: 1054, 2: 1139, 3: 787, 4: 282, 5: 40},
        {"subset": 16, "unlinkable": 10100}, 381, 0,
    )),
}


def _pinned_database(name, paper_db):
    if name == "table1":
        return paper_db
    return generate_path_database(GeneratorConfig(
        n_paths=80,
        n_dims=2,
        dim_fanouts=(2, 2, 3),
        n_sequences=6,
        max_path_length=5,
        seed=int(name.removeprefix("synth")),
    ))


def _counters(stats: MiningStats) -> tuple:
    return (
        stats.candidates_per_length,
        stats.frequent_per_length,
        stats.pruned,
        stats.scans,
        stats.precounted_patterns,
    )


class TestPinnedCounters:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_shared_counters(self, name, paper_db):
        min_support, n_supports, expected, _ = PINNED[name]
        database = _pinned_database(name, paper_db)
        result = shared_mine(database, min_support=min_support)
        assert len(result.supports) == n_supports
        assert _counters(result.stats) == expected

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_cubing_counters(self, name, paper_db):
        min_support, n_supports, _, expected = PINNED[name]
        database = _pinned_database(name, paper_db)
        result = cubing_mine(database, min_support=min_support)
        assert len(result.supports) == n_supports
        assert _counters(result.stats) == expected


def test_one_arm_per_miner():
    """The miners' switches are gone; only the harness-bound names stay."""
    parameters = inspect.signature(cubing_mine).parameters
    for name in ("miner", "cuber", "kernel"):
        assert name not in parameters
    assert "kernel" not in inspect.signature(shared_mine).parameters
    assert "kernel" not in inspect.signature(FlowCube.build).parameters
    for module in ("repro.mining.fptree", "repro.mining.starcubing"):
        assert importlib.util.find_spec(module) is None
    exported = set(dir(repro.mining)) | set(repro.mining.__all__)
    assert not {"FPTree", "fp_growth"} & exported
    assert not [name for name in exported if name.startswith("star_")]
    for kept in (precount_prune, count_candidates_masks):
        assert "benchmarks/flowbench/tracing.py" in inspect.getcomments(kept)
