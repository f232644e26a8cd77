"""Item and path abstraction lattices (Section 4.1).

*Item lattice.*  An :class:`ItemLevel` is the tuple ``(l1, ..., lm)`` of
abstraction levels, one per path-independent dimension.  Level 0 is the apex
``*`` ("any value"); deeper is more specific.  ``n1 ⪯ n2`` (``n1`` is *higher*
/ more general) when every component of ``n1`` is ≤ the matching component of
``n2``.

*Path lattice.*  A :class:`PathLevel` is the pair ``(location view, duration
level)``.  The location view ``⟨v1, ..., vk⟩`` is a *cut* through the location
concept hierarchy: an antichain of concepts that jointly covers every leaf
location, e.g. the transportation manager's view
``⟨dist center, truck, warehouse, factory, store⟩`` of Figure 5.  Aggregating
a path maps each stage location to its unique covering view concept and then
merges consecutive equal concepts (:mod:`repro.core.aggregation`).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import attrgetter, getitem

from repro.core.hierarchy import ConceptHierarchy
from repro.errors import LevelError

__all__ = [
    "ItemLevel",
    "ItemLattice",
    "roll_up_key",
    "LocationView",
    "PathLevel",
    "PathLattice",
    "DURATION_ANY",
    "DURATION_VALUE",
]

#: Duration abstraction level "any duration" (the ``*`` level).
DURATION_ANY = 0
#: Duration abstraction level "the value as stored in the path database".
DURATION_VALUE = 1


@dataclass(frozen=True, order=True)
class ItemLevel:
    """Abstraction levels of the path-independent dimensions, ``(l1...lm)``."""

    levels: tuple[int, ...]

    def __init__(self, levels: Iterable[int]) -> None:
        object.__setattr__(self, "levels", tuple(int(v) for v in levels))
        if any(v < 0 for v in self.levels):
            raise LevelError(f"negative item level in {self.levels!r}")

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, index: int) -> int:
        return self.levels[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.levels)

    def is_higher_or_equal(self, other: "ItemLevel") -> bool:
        """``self ⪯ other``: self is at-or-above *other* in every dimension."""
        if len(self.levels) != len(other.levels):
            raise LevelError("cannot compare item levels of different arity")
        return all(a <= b for a, b in zip(self.levels, other.levels))

    def parents(self) -> tuple["ItemLevel", ...]:
        """Immediate generalisations: one dimension rolled up one level."""
        out = []
        for i, level in enumerate(self.levels):
            if level > 0:
                raised = list(self.levels)
                raised[i] = level - 1
                out.append(ItemLevel(raised))
        return tuple(out)

    def children_within(self, max_levels: Sequence[int]) -> tuple["ItemLevel", ...]:
        """Immediate specialisations bounded by the hierarchy depths."""
        out = []
        for i, level in enumerate(self.levels):
            if level < max_levels[i]:
                lowered = list(self.levels)
                lowered[i] = level + 1
                out.append(ItemLevel(lowered))
        return tuple(out)


_ANCESTRY = attrgetter("ancestry")


def roll_up_key(
    dims: Sequence[str], item_level: ItemLevel, hierarchies: Sequence
) -> tuple[str, ...]:
    """The cell key of *dims* (leaf values or a deeper key) at *item_level*.

    Per dimension, one lookup in the hierarchy's precomputed
    :attr:`~repro.core.hierarchy.ConceptHierarchy.ancestry`, mapped over
    the dims in C.  A level past a hierarchy's depth, an unknown concept
    or a negative level takes ``ancestor_at_level`` per dimension, so
    results and errors are exactly its.
    """
    levels = (
        item_level.levels
        if isinstance(item_level, ItemLevel)
        else ItemLevel(item_level).levels  # rejects a negative level
    )
    try:
        return tuple(
            map(getitem, map(getitem, map(_ANCESTRY, hierarchies), dims), levels)
        )
    except (KeyError, IndexError):
        return tuple(
            hierarchy.ancestor_at_level(value, level)
            for hierarchy, value, level in zip(hierarchies, dims, levels)
        )


class ItemLattice:
    """The lattice of all :class:`ItemLevel` tuples for a schema.

    Args:
        depths: Maximum level per dimension (the depth of each dimension's
            concept hierarchy).
    """

    def __init__(self, depths: Sequence[int]) -> None:
        self.depths = tuple(int(d) for d in depths)
        if any(d < 1 for d in self.depths):
            raise LevelError("every dimension hierarchy must have depth >= 1")

    @property
    def apex(self) -> ItemLevel:
        """The all-``*`` level (every dimension fully generalised)."""
        return ItemLevel([0] * len(self.depths))

    @property
    def base(self) -> ItemLevel:
        """The most specific level (every dimension at its leaves)."""
        return ItemLevel(self.depths)

    def __contains__(self, level: ItemLevel) -> bool:
        return len(level) == len(self.depths) and all(
            0 <= v <= d for v, d in zip(level, self.depths)
        )

    def __iter__(self) -> Iterator[ItemLevel]:
        """Every item level, most general first (by total depth)."""
        ranges = [range(d + 1) for d in self.depths]
        levels = [ItemLevel(combo) for combo in itertools.product(*ranges)]
        levels.sort(key=lambda lv: (sum(lv.levels), lv.levels))
        return iter(levels)

    def __len__(self) -> int:
        size = 1
        for d in self.depths:
            size *= d + 1
        return size

    def parents(self, level: ItemLevel) -> tuple[ItemLevel, ...]:
        """Immediate generalisations of *level* that lie in this lattice."""
        if level not in self:
            raise LevelError(f"{level!r} is not in this lattice")
        return level.parents()


@dataclass(frozen=True)
class LocationView:
    """An antichain cut through the location hierarchy.

    The view concepts jointly cover every leaf location; each concrete
    location aggregates to the unique view concept on its root path.
    """

    concepts: frozenset[str]

    def __init__(
        self, hierarchy: ConceptHierarchy, concepts: Iterable[str]
    ) -> None:
        chosen = frozenset(concepts)
        object.__setattr__(self, "concepts", chosen)
        object.__setattr__(self, "_hierarchy", hierarchy)
        self._validate(hierarchy)
        # Precompute leaf -> view concept for O(1) aggregation.
        mapping: dict[str, str] = {}
        for concept in chosen:
            for leaf in hierarchy.descendants(concept, include_self=True):
                if not hierarchy.children(leaf):
                    mapping[leaf] = concept
        object.__setattr__(self, "_leaf_map", mapping)

    def _validate(self, hierarchy: ConceptHierarchy) -> None:
        for concept in self.concepts:
            hierarchy.node(concept)  # raises UnknownConceptError
        for a in self.concepts:
            for b in self.concepts:
                if a != b and hierarchy.is_ancestor(a, b):
                    raise LevelError(
                        f"location view is not an antichain: {a!r} subsumes {b!r}"
                    )
        uncovered = [
            leaf
            for leaf in hierarchy.leaves
            if not any(
                hierarchy.is_ancestor(c, leaf, strict=False) for c in self.concepts
            )
        ]
        if uncovered:
            raise LevelError(
                f"location view does not cover leaves {sorted(uncovered)!r}"
            )

    @classmethod
    def leaf_view(cls, hierarchy: ConceptHierarchy) -> "LocationView":
        """The most detailed view: every leaf location kept distinct."""
        return cls(hierarchy, hierarchy.leaves)

    @classmethod
    def level_view(cls, hierarchy: ConceptHierarchy, level: int) -> "LocationView":
        """The uniform view that rolls every location up to *level*.

        Leaves shallower than *level* are kept as themselves.
        """
        concepts = {
            hierarchy.ancestor_at_level(leaf, level) for leaf in hierarchy.leaves
        }
        return cls(hierarchy, concepts)

    def aggregate(self, location: str) -> str:
        """Map a concrete *location* to its view concept."""
        mapped = self._leaf_map.get(location)  # type: ignore[attr-defined]
        if mapped is not None:
            return mapped
        # Non-leaf input (already partially aggregated): climb to the view.
        hierarchy: ConceptHierarchy = self._hierarchy  # type: ignore[attr-defined]
        for concept in (location, *hierarchy.ancestors(location)):
            if concept in self.concepts:
                return concept
        raise LevelError(f"location {location!r} is below no view concept")

    def is_higher_or_equal(self, other: "LocationView") -> bool:
        """``self ⪯ other``: every concept of *other* aggregates into self."""
        hierarchy: ConceptHierarchy = self._hierarchy  # type: ignore[attr-defined]
        return all(
            any(
                hierarchy.is_ancestor(mine, theirs, strict=False)
                for mine in self.concepts
            )
            for theirs in other.concepts
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LocationView) and self.concepts == other.concepts

    def __hash__(self) -> int:
        return hash(self.concepts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LocationView({sorted(self.concepts)!r})"


@dataclass(frozen=True)
class PathLevel:
    """A path abstraction level: ``(location view, duration level)``.

    ``duration_level`` is :data:`DURATION_ANY` (durations dropped to ``*``)
    or :data:`DURATION_VALUE` (kept at the database granularity); deeper
    duration hierarchies plug in by using larger integers and a custom
    discretiser in :mod:`repro.core.aggregation`.
    """

    view: LocationView
    duration_level: int

    def __post_init__(self) -> None:
        if self.duration_level < 0:
            raise LevelError(f"negative duration level {self.duration_level}")

    def is_higher_or_equal(self, other: "PathLevel") -> bool:
        """``self ⪯ other`` on the path lattice."""
        return (
            self.duration_level <= other.duration_level
            and self.view.is_higher_or_equal(other.view)
        )


class PathLattice:
    """A finite set of interesting :class:`PathLevel` values.

    The flowcube never materialises the full (exponential) path lattice; the
    materialisation plan names the levels worth computing.  The experiments
    of Section 6 use four: locations at the database level and one level
    higher, crossed with durations at the database level and ``*``.
    """

    def __init__(self, levels: Iterable[PathLevel]) -> None:
        self.levels = tuple(levels)
        if not self.levels:
            raise LevelError("a path lattice needs at least one level")

    @classmethod
    def paper_default(cls, hierarchy: ConceptHierarchy) -> "PathLattice":
        """The four levels used throughout Section 6."""
        detailed = LocationView.leaf_view(hierarchy)
        coarse = LocationView.level_view(hierarchy, max(hierarchy.depth - 1, 1))
        views = [detailed] if detailed == coarse else [detailed, coarse]
        return cls(
            PathLevel(view, duration_level)
            for view in views
            for duration_level in (DURATION_VALUE, DURATION_ANY)
        )

    def __iter__(self) -> Iterator[PathLevel]:
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, index: int) -> PathLevel:
        return self.levels[index]

    def index_of(self, level: PathLevel) -> int:
        """Position of *level* in the lattice (used as a compact level id)."""
        for i, candidate in enumerate(self.levels):
            if candidate == level:
                return i
        raise LevelError(f"{level!r} is not one of the interesting path levels")
