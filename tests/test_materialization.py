"""Tests for partial materialisation planning (repro.core.materialization)."""

import pytest

from repro.core import (
    ItemLevel,
    MaterializationPlan,
    plan_between_layers,
    plan_by_budget,
)
from repro.core.lattice import ItemLattice
from repro.core.materialization import estimate_cells
from repro.errors import CubeError


class TestPlanBetweenLayers:
    def test_chain_connects_layers(self):
        plan = plan_between_layers(ItemLevel((1, 0)), ItemLevel((3, 1)))
        assert plan.item_levels[0] == ItemLevel((1, 0))
        assert plan.item_levels[-1] == ItemLevel((3, 1))
        # Steps are single-level specialisations.
        for a, b in zip(plan.item_levels, plan.item_levels[1:]):
            assert sum(b.levels) - sum(a.levels) == 1
            assert a.is_higher_or_equal(b)

    def test_drill_order_respected(self):
        plan = plan_between_layers(
            ItemLevel((0, 0)), ItemLevel((1, 1)), drill_order=[1, 0]
        )
        assert plan.item_levels == (
            ItemLevel((0, 0)),
            ItemLevel((0, 1)),
            ItemLevel((1, 1)),
        )

    def test_equal_layers_single_level(self):
        plan = plan_between_layers(ItemLevel((1, 1)), ItemLevel((1, 1)))
        assert plan.item_levels == (ItemLevel((1, 1)),)

    def test_rejects_inverted_layers(self):
        with pytest.raises(CubeError, match="generalise"):
            plan_between_layers(ItemLevel((2, 0)), ItemLevel((1, 0)))

    def test_rejects_bad_drill_order(self):
        with pytest.raises(CubeError, match="permute"):
            plan_between_layers(
                ItemLevel((0, 0)), ItemLevel((1, 1)), drill_order=[0, 0]
            )

    def test_empty_plan_rejected(self):
        with pytest.raises(CubeError):
            MaterializationPlan(())


class TestEstimation:
    def test_estimate_exact_on_full_sample(self, paper_db):
        estimate = estimate_cells(
            paper_db, ItemLevel((2, 1)), min_support=2, sample_size=100
        )
        # Table 2: shoes/nike (3), shoes/adidas (2), outerwear/nike (3)
        # clear δ=2; (outerwear-like singletons don't).
        assert estimate == 3

    def test_estimate_empty_database(self, paper_db):
        from repro.core import PathDatabase

        empty = PathDatabase(paper_db.schema, [])
        assert estimate_cells(empty, ItemLevel((1, 1)), 0.01) == 0


class TestBudgetPlan:
    def test_budget_limits_levels(self, small_synth_db):
        tight = plan_by_budget(small_synth_db, max_cells=5, min_support=0.02)
        loose = plan_by_budget(small_synth_db, max_cells=10_000, min_support=0.02)
        assert len(tight) <= len(loose)
        # The base level always present: derivation only rolls up.
        depths = [h.depth for h in small_synth_db.schema.dimensions]
        assert ItemLevel(depths) in tight.item_levels

    @pytest.mark.parametrize("slack", [0, 1, 50, 1_000, 100_000])
    def test_no_level_is_unreachable_within_a_base_budget(
        self, small_synth_db, slack
    ):
        """Any budget the base level fits in leaves every lattice level
        materialised or derivable (most general first, the base level
        would come last and a tight budget would leave it unreachable)."""
        depths = [h.depth for h in small_synth_db.schema.dimensions]
        base = estimate_cells(small_synth_db, ItemLevel(depths), 0.02)
        plan = plan_by_budget(
            small_synth_db, max_cells=base + slack, min_support=0.02
        )
        verdicts = [
            plan.derivability(level)
            for level in ItemLattice(depths)
        ]
        assert "unreachable" not in verdicts
        assert verdicts.count("materialised") == len(plan)

    def test_plan_builds_cube(self, paper_db):
        plan = plan_between_layers(ItemLevel((1, 0)), ItemLevel((2, 1)))
        cube = plan.build(paper_db, min_support=2, compute_exceptions=False)
        materialised_levels = {c.item_level for c in cube.cuboids}
        assert materialised_levels == set(plan.item_levels)

    def test_plan_iterates(self):
        plan = plan_between_layers(ItemLevel((0, 0)), ItemLevel((1, 0)))
        assert list(plan) == [ItemLevel((0, 0)), ItemLevel((1, 0))]
        assert len(plan) == 2
