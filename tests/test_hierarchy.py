"""Unit tests for concept hierarchies (repro.core.hierarchy)."""

import pytest

from repro.core import example_path_database
from repro.core.hierarchy import ANY, ConceptHierarchy
from repro.core.lattice import ItemLattice, ItemLevel, roll_up_key
from repro.errors import HierarchyError, LevelError, UnknownConceptError
from repro.synth import GeneratorConfig, generate_path_database


@pytest.fixture
def tree() -> ConceptHierarchy:
    return ConceptHierarchy.from_nested(
        "product",
        {
            "clothing": {
                "outerwear": {"shirt": {}, "jacket": {}},
                "shoes": {"tennis": {}, "sandals": {}},
            }
        },
    )


class TestConstruction:
    def test_from_edges_adds_apex(self):
        h = ConceptHierarchy.from_edges("x", [("a", "b"), ("a", "c")])
        assert h.parent("a") == ANY
        assert h.level_of("a") == 1

    def test_flat_hierarchy(self):
        h = ConceptHierarchy.flat("brand", ["nike", "adidas"])
        assert h.depth == 1
        assert set(h.leaves) == {"nike", "adidas"}

    def test_rejects_two_parents(self):
        with pytest.raises(HierarchyError, match="two parents"):
            ConceptHierarchy.from_edges("x", [("a", "c"), ("b", "c")])

    def test_rejects_cycle(self):
        with pytest.raises(HierarchyError):
            ConceptHierarchy.from_edges("x", [("a", "b"), ("b", "a")])

    def test_rejects_empty(self):
        with pytest.raises(HierarchyError, match="no edges"):
            ConceptHierarchy.from_edges("x", [])

    def test_rejects_apex_as_child(self):
        with pytest.raises(HierarchyError):
            ConceptHierarchy.from_edges("x", [("a", ANY)])

    def test_many_siblings_encoded(self):
        values = [f"v{i}" for i in range(40)]
        h = ConceptHierarchy.flat("wide", values)
        codes = {h.code_of(v) for v in values}
        assert len(codes) == 40  # all distinct single characters


class TestNavigation:
    def test_levels(self, tree):
        assert tree.level_of(ANY) == 0
        assert tree.level_of("clothing") == 1
        assert tree.level_of("outerwear") == 2
        assert tree.level_of("jacket") == 3
        assert tree.depth == 3

    def test_parent_chain(self, tree):
        assert tree.parent("jacket") == "outerwear"
        assert tree.parent(ANY) is None
        assert tree.ancestors("jacket") == ("outerwear", "clothing", ANY)
        assert tree.ancestors("jacket", include_self=True)[0] == "jacket"

    def test_children(self, tree):
        assert set(tree.children("outerwear")) == {"shirt", "jacket"}
        assert tree.children("jacket") == ()

    def test_descendants(self, tree):
        descendants = tree.descendants("outerwear")
        assert set(descendants) == {"shirt", "jacket"}
        assert "outerwear" in tree.descendants("outerwear", include_self=True)

    def test_leaves(self, tree):
        assert set(tree.leaves) == {"shirt", "jacket", "tennis", "sandals"}

    def test_concepts_at_level(self, tree):
        assert set(tree.concepts_at_level(2)) == {"outerwear", "shoes"}
        with pytest.raises(LevelError):
            tree.concepts_at_level(9)

    def test_unknown_concept(self, tree):
        with pytest.raises(UnknownConceptError):
            tree.level_of("socks")


class TestRollup:
    def test_ancestor_at_level(self, tree):
        assert tree.ancestor_at_level("jacket", 2) == "outerwear"
        assert tree.ancestor_at_level("jacket", 1) == "clothing"
        assert tree.ancestor_at_level("jacket", 0) == ANY

    def test_ancestor_at_own_or_deeper_level_is_identity(self, tree):
        assert tree.ancestor_at_level("jacket", 3) == "jacket"
        assert tree.ancestor_at_level("outerwear", 3) == "outerwear"

    def test_negative_level_rejected(self, tree):
        with pytest.raises(LevelError):
            tree.ancestor_at_level("jacket", -1)

    def test_is_ancestor(self, tree):
        assert tree.is_ancestor("clothing", "jacket")
        assert tree.is_ancestor(ANY, "jacket")
        assert not tree.is_ancestor("jacket", "clothing")
        assert not tree.is_ancestor("shoes", "jacket")
        assert not tree.is_ancestor("jacket", "jacket")
        assert tree.is_ancestor("jacket", "jacket", strict=False)


class TestEncoding:
    def test_codes_are_prefix_consistent(self, tree):
        for leaf in tree.leaves:
            code = tree.code_of(leaf)
            parent_code = tree.code_of(tree.parent(leaf))
            assert code.startswith(parent_code)
            assert len(code) == len(parent_code) + 1

    def test_round_trip(self, tree):
        for concept in tree:
            assert tree.concept_for_code(tree.code_of(concept)) == concept

    def test_padded_code(self, tree):
        assert len(tree.padded_code("clothing")) == tree.depth
        assert tree.padded_code("clothing").endswith("**")

    def test_unknown_code(self, tree):
        with pytest.raises(UnknownConceptError):
            tree.concept_for_code("999")


# ----------------------------------------------------------------------
# the precomputed roll-up table against a walk up the parent links
# ----------------------------------------------------------------------

def walked_ancestor(hierarchy: ConceptHierarchy, concept: str, level: int) -> str:
    """The reference roll-up: climb ``parent`` links until *level*."""
    while hierarchy.level_of(concept) > level:
        concept = hierarchy.parent(concept)
    return concept


def lookup_hierarchies() -> list[ConceptHierarchy]:
    """Every hierarchy of the paper's example and of a synth schema."""
    out = []
    for schema in (
        example_path_database().schema,
        generate_path_database(
            GeneratorConfig(n_paths=20, n_dims=3, dim_fanouts=(2, 3, 2), seed=3)
        ).schema,
    ):
        out += [*schema.dimensions, schema.location, schema.duration]
    return out


@pytest.mark.parametrize(
    "hierarchy", lookup_hierarchies(), ids=lambda h: f"{h.name}-{len(h)}"
)
def test_the_ancestry_table_equals_a_walk_up_the_parents(hierarchy):
    for concept in hierarchy:
        for level in range(hierarchy.depth + 2):
            expected = walked_ancestor(hierarchy, concept, level)
            assert hierarchy.ancestor_at_level(concept, level) == expected
            assert roll_up_key((concept,), ItemLevel([level]), (hierarchy,)) == (
                expected,
            )


def test_roll_up_key_equals_the_per_dimension_walk():
    database = generate_path_database(
        GeneratorConfig(n_paths=40, n_dims=3, dim_fanouts=(2, 3, 2), seed=3)
    )
    hierarchies = database.schema.dimensions
    for item_level in ItemLattice([h.depth for h in hierarchies]):
        for record in database:
            assert roll_up_key(record.dims, item_level, hierarchies) == tuple(
                walked_ancestor(h, value, level)
                for h, value, level in zip(hierarchies, record.dims, item_level)
            )


def test_table_lookups_keep_the_walks_errors(tree):
    with pytest.raises(UnknownConceptError):
        tree.ancestor_at_level("socks", 1)
    with pytest.raises(UnknownConceptError):
        tree.ancestor_at_level("socks", -1)  # the concept is checked first
    with pytest.raises(LevelError):
        tree.ancestor_at_level("jacket", -1)
    with pytest.raises(LevelError):
        roll_up_key(("jacket",), (-1,), (tree,))
    with pytest.raises(UnknownConceptError):
        roll_up_key(("jacket", "socks"), ItemLevel([1, 1]), (tree, tree))
    assert roll_up_key(("jacket", "shoes"), ItemLevel([2, 9]), (tree, tree)) == (
        "outerwear",
        "shoes",
    )
