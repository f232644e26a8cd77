"""Tests for Section 5 encodings (repro.encoding)."""

import pytest

from repro.encoding import (
    DimItem,
    StageItem,
    TransactionDatabase,
    aggregate_prefix,
    decode_dim_item,
    encode_dimension_value,
    is_stage_ancestor,
    render_dim_item,
    render_stage_item,
    stages_linkable,
)
from repro.errors import EncodingError

SHORT = {
    "factory": "f",
    "dist center": "d",
    "truck": "t",
    "warehouse": "w",
    "shelf": "s",
    "checkout": "c",
    "backroom": "b",
    "transportation": "T",
    "store": "S",
}


class TestDimItem:
    def test_encode_jacket(self, product_hierarchy):
        item = encode_dimension_value(0, "jacket", product_hierarchy)
        assert item.level == 3
        assert decode_dim_item(item, product_hierarchy) == "jacket"

    def test_render_matches_paper_style(self, product_hierarchy):
        item = encode_dimension_value(0, "outerwear", product_hierarchy)
        text = render_dim_item(item, product_hierarchy)
        assert text.startswith("1")  # dimension digit
        assert text.endswith("*")  # padded below its level

    def test_ancestors(self, product_hierarchy):
        item = encode_dimension_value(0, "jacket", product_hierarchy)
        ancestors = item.ancestors()
        assert [a.level for a in ancestors] == [2, 1]
        assert decode_dim_item(ancestors[0], product_hierarchy) == "outerwear"

    def test_is_ancestor_of(self, product_hierarchy):
        jacket = encode_dimension_value(0, "jacket", product_hierarchy)
        outerwear = encode_dimension_value(0, "outerwear", product_hierarchy)
        assert outerwear.is_ancestor_of(jacket)
        assert not jacket.is_ancestor_of(outerwear)
        other_dim = DimItem(1, outerwear.code)
        assert not other_dim.is_ancestor_of(jacket)

    def test_apex_not_encodable(self, product_hierarchy):
        with pytest.raises(EncodingError):
            encode_dimension_value(0, "*", product_hierarchy)
        with pytest.raises(EncodingError):
            DimItem(0, "")

    def test_apex_pseudo_item_level(self):
        assert DimItem(0, "*").level == 0


class TestStageItem:
    def test_render(self):
        item = StageItem(0, ("factory", "dist center", "truck"), "1")
        assert render_stage_item(item, SHORT) == "(fdt,1)"

    def test_render_default_letters(self):
        item = StageItem(0, ("alpha", "beta"), "2")
        assert render_stage_item(item) == "(ab,2)"

    def test_empty_prefix_rejected(self):
        with pytest.raises(EncodingError):
            StageItem(0, (), "1")

    def test_position_and_location(self):
        item = StageItem(0, ("f", "d"), "2")
        assert item.position == 2
        assert item.location == "d"


class TestLinkability:
    def test_nested_prefixes_link(self):
        a = StageItem(0, ("f",), "1")
        b = StageItem(0, ("f", "d"), "2")
        assert stages_linkable(a, b)
        assert stages_linkable(b, a)

    def test_unrelated_prefixes_do_not_link(self):
        # The paper's example: (fd,2) and (fts,5) can never co-occur.
        a = StageItem(0, ("f", "d"), "2")
        b = StageItem(0, ("f", "t", "s"), "5")
        assert not stages_linkable(a, b)

    def test_same_stage_different_durations_do_not_link(self):
        a = StageItem(0, ("f",), "1")
        b = StageItem(0, ("f",), "2")
        assert not stages_linkable(a, b)

    def test_different_levels_do_not_link(self):
        a = StageItem(0, ("f",), "1")
        b = StageItem(1, ("f", "d"), "2")
        assert not stages_linkable(a, b)


class TestStageAncestor:
    def test_duration_star_is_ancestor(self, paper_db, paper_lattice):
        # Level 0: leaf view + durations; level 1: leaf view + '*'.
        concrete = StageItem(0, ("factory",), "10")
        star = StageItem(1, ("factory",), "*")
        assert is_stage_ancestor(star, concrete, paper_lattice)
        assert not is_stage_ancestor(concrete, star, paper_lattice)

    def test_coarse_view_is_ancestor(self, paper_lattice):
        # Level 3: coarse view + '*'; (f,d,t) aggregates to (f,T).
        fine = StageItem(0, ("factory", "dist center", "truck"), "1")
        coarse = StageItem(3, ("factory", "transportation"), "*")
        assert is_stage_ancestor(coarse, fine, paper_lattice)

    def test_concrete_duration_across_views_not_implied(self, paper_lattice):
        # Merging changes durations, so a concrete-duration coarse stage is
        # NOT a guaranteed ancestor.
        fine = StageItem(0, ("factory", "dist center", "truck"), "1")
        coarse = StageItem(2, ("factory", "transportation"), "1")
        assert not is_stage_ancestor(coarse, fine, paper_lattice)

    def test_aggregate_prefix_merges(self, paper_lattice):
        coarse_level = paper_lattice[3]
        assert aggregate_prefix(
            ("factory", "dist center", "truck"), coarse_level
        ) == ("factory", "transportation")


class TestTransactionDatabase:
    def test_table3_rendering(self, paper_db, paper_lattice):
        tdb = TransactionDatabase(paper_db, paper_lattice)
        rendered = tdb.render_transaction(tdb.transactions[0], SHORT)
        assert rendered == [
            "1121",
            "21",
            "(f,10)",
            "(fd,2)",
            "(fdt,1)",
            "(fdts,5)",
            "(fdtsc,0)",
        ]

    def test_closure_contains_all_levels(self, paper_db, paper_lattice):
        tdb = TransactionDatabase(paper_db, paper_lattice)
        items = tdb.transactions[0].items
        dims = {i for i in items if isinstance(i, DimItem)}
        # product contributes 3 levels, brand 1.
        assert {i.level for i in dims if i.dim == 0} == {1, 2, 3}
        stage_levels = {i.level_id for i in items if isinstance(i, StageItem)}
        assert stage_levels == {0, 1, 2, 3}

    def test_top_level_items_excluded_by_default(self, paper_db, paper_lattice):
        tdb = TransactionDatabase(paper_db, paper_lattice)
        assert not any(
            isinstance(i, DimItem) and i.code == "*"
            for t in tdb for i in t.items
        )

    def test_top_level_items_for_basic(self, paper_db, paper_lattice):
        tdb = TransactionDatabase(paper_db, paper_lattice, include_top_level=True)
        apex_items = {
            i for t in tdb for i in t.items
            if isinstance(i, DimItem) and i.code == "*"
        }
        assert apex_items == {DimItem(0, "*"), DimItem(1, "*")}

    def test_describe(self, paper_db, paper_lattice):
        tdb = TransactionDatabase(paper_db, paper_lattice)
        stats = tdb.describe()
        assert stats["transactions"] == 8
        assert stats["path_levels"] == 4
        assert stats["distinct_items"] > 0

    def test_transaction_membership(self, paper_db, paper_lattice):
        tdb = TransactionDatabase(paper_db, paper_lattice)
        transaction = tdb.transactions[0]
        some_item = next(iter(transaction.items))
        assert some_item in transaction
        assert len(transaction) == len(transaction.items)
