"""Concept hierarchies (Section 4.1 of the paper).

A *concept hierarchy* is a tree whose nodes are concepts and whose edges are
is-a relationships.  The most general concept ``*`` sits at the apex (level
0); more specific concepts live at deeper levels.  Every dimension of the
flowcube — path-independent item dimensions such as *product* or *brand*, the
stage *location* dimension, and the stage *duration* dimension — carries one.

The class supports the operations the rest of the library needs:

* ``level_of`` / ``ancestor_at_level`` — roll a concept up the tree,
* ``parent`` / ``children`` / ``ancestors`` — tree navigation,
* ``code_of`` / ``concept_for_code`` — the digit-string encoding of Section 5
  ("jacket" → ``"112"``: dimension digit, then one digit per tree level),
* ``is_ancestor`` — the pruning tests of Section 5 need fast subsumption.

Hierarchies are immutable after construction; building happens through
:meth:`ConceptHierarchy.from_edges` or :meth:`ConceptHierarchy.from_nested`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.errors import HierarchyError, LevelError, UnknownConceptError

__all__ = ["ANY", "ConceptHierarchy", "HierarchyNode"]

#: Name of the apex concept present in every hierarchy ("any value").
ANY = "*"


@dataclass(frozen=True)
class HierarchyNode:
    """One concept in a hierarchy.

    Attributes:
        name: Concept name, unique within its hierarchy.
        level: Depth in the tree; the apex ``*`` is level 0.
        parent: Name of the parent concept, or ``None`` for the apex.
        children: Names of the child concepts, in insertion order.
        code: Digit-path from the apex (empty for the apex itself).  The
            *i*-th character is the sibling index (1-based) chosen at depth
            *i*; this is exactly the per-dimension part of the Section 5
            encoding where "jacket" becomes ``12`` under
            clothing→outerwear→jacket with the category digit omitted.
    """

    name: str
    level: int
    parent: str | None
    children: tuple[str, ...]
    code: str


class ConceptHierarchy:
    """An immutable is-a tree over the values of one dimension.

    Args:
        name: Dimension name this hierarchy describes (``"product"`` ...).
        nodes: Mapping concept name → :class:`HierarchyNode`.  Must contain
            the apex ``*`` at level 0 and be a single connected tree.

    Most callers should use the :meth:`from_edges` or :meth:`from_nested`
    constructors rather than building the node mapping by hand.
    """

    def __init__(self, name: str, nodes: Mapping[str, HierarchyNode]) -> None:
        if ANY not in nodes:
            raise HierarchyError(f"hierarchy {name!r} is missing the apex {ANY!r}")
        self.name = name
        self._nodes: dict[str, HierarchyNode] = dict(nodes)
        self._by_code: dict[str, str] = {n.code: n.name for n in self._nodes.values()}
        self._depth = max(n.level for n in self._nodes.values())
        self._leaves = tuple(
            n.name for n in self._nodes.values() if not n.children and n.name != ANY
        )
        self._validate()
        #: Concept → its ancestor at each level ``0..depth`` (the concept
        #: itself from its own level down).  The tree is immutable, so
        #: every roll-up is answered once, here; callers must not mutate
        #: it.
        self.ancestry: dict[str, tuple[str, ...]] = {
            name: self._chain(node) for name, node in self._nodes.items()
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, name: str, edges: Iterable[tuple[str, str]]
    ) -> "ConceptHierarchy":
        """Build a hierarchy from ``(parent, child)`` pairs.

        The apex ``*`` is added automatically as the parent of every node
        that never appears as a child.  Sibling order follows first mention.

        Raises:
            HierarchyError: on cycles, duplicate parents, or empty input.
        """
        parent_of: dict[str, str] = {}
        children_of: dict[str, list[str]] = {ANY: []}
        for parent, child in edges:
            if child == ANY:
                raise HierarchyError(f"{ANY!r} cannot be a child concept")
            if child in parent_of and parent_of[child] != parent:
                raise HierarchyError(
                    f"concept {child!r} has two parents: "
                    f"{parent_of[child]!r} and {parent!r}"
                )
            parent_of[child] = parent
            children_of.setdefault(parent, [])
            if child not in children_of[parent]:
                children_of[parent].append(child)
            children_of.setdefault(child, [])
        if not parent_of:
            raise HierarchyError(f"hierarchy {name!r} has no edges")
        roots = [c for c in children_of if c != ANY and c not in parent_of]
        for root in roots:
            parent_of[root] = ANY
            children_of[ANY].append(root)
        return cls._from_tree(name, parent_of, children_of)

    @classmethod
    def from_nested(cls, name: str, tree: Mapping[str, object]) -> "ConceptHierarchy":
        """Build a hierarchy from a nested mapping.

        Example::

            ConceptHierarchy.from_nested("location", {
                "transportation": {"dist center": {}, "truck": {}},
                "store": {"shelf": {}, "checkout": {}},
            })

        Leaf concepts are written as empty mappings (or any non-mapping).
        """
        edges: list[tuple[str, str]] = []

        def walk(parent: str, subtree: Mapping[str, object]) -> None:
            for child, grandchildren in subtree.items():
                edges.append((parent, child))
                if isinstance(grandchildren, Mapping):
                    walk(child, grandchildren)

        walk(ANY, tree)
        return cls.from_edges(name, edges)

    @classmethod
    def flat(cls, name: str, values: Sequence[str]) -> "ConceptHierarchy":
        """A two-level hierarchy: ``*`` over the given leaf values."""
        return cls.from_edges(name, [(ANY, v) for v in values])

    @classmethod
    def _from_tree(
        cls,
        name: str,
        parent_of: Mapping[str, str],
        children_of: Mapping[str, list[str]],
    ) -> "ConceptHierarchy":
        nodes: dict[str, HierarchyNode] = {}

        def build(concept: str, level: int, code: str, seen: set[str]) -> None:
            if concept in seen:
                raise HierarchyError(f"cycle detected at concept {concept!r}")
            seen.add(concept)
            kids = tuple(children_of.get(concept, ()))
            nodes[concept] = HierarchyNode(
                name=concept,
                level=level,
                parent=parent_of.get(concept) if concept != ANY else None,
                children=kids,
                code=code,
            )
            for i, kid in enumerate(kids, start=1):
                build(kid, level + 1, code + _digit(i), seen)
            seen.discard(concept)

        build(ANY, 0, "", set())
        missing = set(parent_of) - set(nodes)
        if missing:
            raise HierarchyError(
                f"concepts unreachable from {ANY!r}: {sorted(missing)!r}"
            )
        return cls(name, nodes)

    def _validate(self) -> None:
        for node in self._nodes.values():
            if node.name == ANY:
                if node.level != 0 or node.parent is not None:
                    raise HierarchyError(f"apex {ANY!r} must be level 0 with no parent")
                continue
            parent = self._nodes.get(node.parent or "")
            if parent is None:
                raise HierarchyError(f"concept {node.name!r} has unknown parent")
            if node.level != parent.level + 1:
                raise HierarchyError(
                    f"concept {node.name!r} level {node.level} inconsistent with "
                    f"parent level {parent.level}"
                )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __contains__(self, concept: str) -> bool:
        return concept in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ConceptHierarchy({self.name!r}, depth={self.depth}, "
            f"concepts={len(self._nodes)})"
        )

    def node(self, concept: str) -> HierarchyNode:
        """Return the node for *concept*, raising if absent."""
        try:
            return self._nodes[concept]
        except KeyError:
            raise UnknownConceptError(concept, self.name) from None

    @property
    def depth(self) -> int:
        """Deepest level in the tree (the apex is level 0)."""
        return self._depth

    @property
    def leaves(self) -> tuple[str, ...]:
        """All most-specific concepts, in code order."""
        return self._leaves

    def concepts_at_level(self, level: int) -> tuple[str, ...]:
        """All concepts residing exactly at *level*."""
        if not 0 <= level <= self._depth:
            raise LevelError(
                f"level {level} out of range 0..{self._depth} for {self.name!r}"
            )
        return tuple(n.name for n in self._nodes.values() if n.level == level)

    def level_of(self, concept: str) -> int:
        """Tree depth of *concept* (0 for the apex)."""
        return self.node(concept).level

    def parent(self, concept: str) -> str | None:
        """Immediate parent concept, or ``None`` for the apex."""
        return self.node(concept).parent

    def children(self, concept: str) -> tuple[str, ...]:
        """Immediate child concepts."""
        return self.node(concept).children

    def ancestors(self, concept: str, include_self: bool = False) -> tuple[str, ...]:
        """Ancestors of *concept* ordered from its parent up to ``*``."""
        chain: list[str] = [concept] if include_self else []
        current = self.node(concept).parent
        while current is not None:
            chain.append(current)
            current = self._nodes[current].parent
        return tuple(chain)

    def descendants(self, concept: str, include_self: bool = False) -> tuple[str, ...]:
        """All concepts below *concept*, pre-order."""
        out: list[str] = [concept] if include_self else []
        stack = list(reversed(self.node(concept).children))
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(reversed(self._nodes[current].children))
        return tuple(out)

    def _chain(self, node: HierarchyNode) -> tuple[str, ...]:
        chain = [node.name] * (self._depth - node.level + 1)
        while node.parent is not None:
            node = self._nodes[node.parent]
            chain.append(node.name)
        return tuple(reversed(chain))

    def ancestor_at_level(self, concept: str, level: int) -> str:
        """Roll *concept* up to *level*: one lookup in :attr:`ancestry`,
        not a walk up the parents.

        Returns *concept* unchanged when it already resides at or above the
        requested level (rolling up never specialises).

        Raises:
            UnknownConceptError: *concept* is not in the hierarchy.
            LevelError: *level* is negative.
        """
        try:
            chain = self.ancestry[concept]
        except KeyError:
            raise UnknownConceptError(concept, self.name) from None
        if level < 0:
            raise LevelError(f"level must be >= 0, got {level}")
        return chain[min(level, self._depth)]

    def is_ancestor(self, ancestor: str, concept: str, strict: bool = True) -> bool:
        """True when *ancestor* subsumes *concept* in the is-a tree."""
        anc = self.node(ancestor)
        cur = self.node(concept)
        if not strict and anc.name == cur.name:
            return True
        # Codes are digit-paths from the apex: ancestry == strict code prefix.
        return len(anc.code) < len(cur.code) and cur.code.startswith(anc.code)

    # ------------------------------------------------------------------
    # Section 5 encoding
    # ------------------------------------------------------------------
    def code_of(self, concept: str) -> str:
        """The digit-path code of *concept* (empty string for the apex)."""
        return self.node(concept).code

    def concept_for_code(self, code: str) -> str:
        """Inverse of :meth:`code_of`."""
        try:
            return self._by_code[code]
        except KeyError:
            raise UnknownConceptError(f"<code {code!r}>", self.name) from None

    def padded_code(self, concept: str, fill: str = "*") -> str:
        """Code of *concept* padded with *fill* out to the hierarchy depth.

        This reproduces the paper's fixed-width encodings where ``12*`` means
        "outerwear, any item".
        """
        code = self.code_of(concept)
        return code + fill * (self._depth - len(code))


def _digit(index: int) -> str:
    """Encode a 1-based sibling index as a single code character.

    Indexes above 9 continue through the alphabet so wide hierarchies still
    receive fixed-width, prefix-comparable codes.
    """
    if index < 10:
        return str(index)
    offset = index - 10
    if offset < 52:
        alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        return alphabet[offset]
    raise HierarchyError(f"more than 61 siblings are not supported (got {index})")
