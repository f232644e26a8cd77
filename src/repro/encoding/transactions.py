"""Path database → transaction database (Section 5, Table 3).

Each path record becomes one transaction whose items are

* the record's dimension values encoded as :class:`DimItem` at **every**
  hierarchy level (the ancestor closure — this is what lets a single scan
  count "jacket" and "outerwear" simultaneously), except the pruned
  top-of-hierarchy ``*`` items (rule 3; kept when ``include_top_level`` is
  set, as the Basic baseline does), and

* the record's path aggregated to **every** interesting path abstraction
  level, each stage encoded as a prefix :class:`StageItem` (shared counting
  across the path lattice).

The resulting transactions are exactly the multi-level search space: an
itemset over them corresponds to a (cell, path segment) pair at specific
item/path abstraction levels.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.aggregation import aggregate_path
from repro.core.lattice import PathLattice
from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase, PathSchema
from repro.encoding.item_encoding import DimItem, render_dim_item
from repro.encoding.stage_encoding import StageItem, render_stage_item

__all__ = ["EncodingMemo", "Item", "Transaction", "TransactionDatabase"]

#: The mining alphabet: dimension items and stage items, mixed.
Item = DimItem | StageItem


class EncodingMemo:
    """Shared ancestor-closure caches, reusable across partitions.

    A :class:`TransactionDatabase` memoises the per-dimension-value and
    per-path item closures it builds — but only within itself.  A build
    that encodes one partition after another (the store miner's encode
    pass) re-derives identical closures for every partition, since
    partitions of one store draw from the same small vocabulary.
    Passing the same memo to each database hoists the caches to the
    scan: each distinct dimension value and discretised path is encoded
    once per build, and the *identical* item objects flow into every
    partition's transactions (identity also speeds up the hash-heavy
    set work downstream).

    The closures depend on the encoding configuration, so a memo pins
    the ``(include_top_level, path lattice)`` of the first database that
    uses it and rejects a mismatching reuse.
    """

    __slots__ = ("dim_closures", "stage_closures", "_config")

    def __init__(self) -> None:
        self.dim_closures: dict[tuple[int, object], tuple[DimItem, ...]] = {}
        self.stage_closures: dict[tuple, frozenset[StageItem]] = {}
        self._config: tuple | None = None

    def bind(
        self, path_lattice: PathLattice, include_top_level: bool
    ) -> None:
        """Pin (or validate) the memo's encoding configuration."""
        config = (bool(include_top_level), tuple(path_lattice))
        if self._config is None:
            self._config = config
        elif self._config != config:
            raise ValueError(
                "encoding memo is bound to a different configuration "
                "(path lattice / include_top_level); use a fresh memo"
            )


@dataclass(frozen=True)
class Transaction:
    """One encoded path record: its id plus the item closure."""

    tid: int
    items: frozenset[Item]

    def __contains__(self, item: Item) -> bool:
        return item in self.items

    def __len__(self) -> int:
        return len(self.items)


class TransactionDatabase:
    """The transformed database D' that Shared/Basic scan.

    Args:
        database: Source path database.
        path_lattice: The interesting path abstraction levels; every level
            contributes stage items to every transaction.
        include_top_level: Keep the ``1**``-style apex dimension items
            (always true in every transaction).  Off for Shared (pruning
            rule 3), on for the Basic baseline.
        memo: Optional :class:`EncodingMemo` shared with other databases
            of the same store (one scan encoding many partitions); the
            closure caches live in the memo instead of this instance.
    """

    def __init__(
        self,
        database: PathDatabase,
        path_lattice: PathLattice,
        include_top_level: bool = False,
        memo: EncodingMemo | None = None,
    ) -> None:
        self.schema: PathSchema = database.schema
        self.path_lattice = path_lattice
        self.include_top_level = include_top_level
        # Encoding memos: records massively share dimension values and —
        # for discretised durations — whole paths, so the ancestor-closure
        # item objects are built once per distinct value/path and reused
        # (identical item objects also hash-dedupe faster downstream).
        # A shared memo widens the reuse from one partition to the scan.
        if memo is not None:
            memo.bind(path_lattice, include_top_level)
            self._dim_closures = memo.dim_closures
            self._stage_closures = memo.stage_closures
        else:
            self._dim_closures = {}
            self._stage_closures = {}
        self._interned = None
        self.transactions: list[Transaction] = [
            self._encode(record) for record in database
        ]

    def _encode(self, record: PathRecord) -> Transaction:
        items: set[Item] = set()
        for dim, (hierarchy, value) in enumerate(
            zip(self.schema.dimensions, record.dims)
        ):
            closure = self._dim_closures.get((dim, value))
            if closure is None:
                code = hierarchy.code_of(value)
                start = 0 if self.include_top_level else 1
                closure = tuple(
                    # Represent the apex with a level-0 pseudo-code: the
                    # Basic baseline counts it like any other item.
                    DimItem(dim, "*") if length == 0 else DimItem(dim, code[:length])
                    for length in range(start, len(code) + 1)
                )
                self._dim_closures[(dim, value)] = closure
            items.update(closure)
        stage_items = self._stage_closures.get(record.path.stages)
        if stage_items is None:
            stages: set[StageItem] = set()
            for level_id, level in enumerate(self.path_lattice):
                prefix: tuple[str, ...] = ()
                for location, duration in aggregate_path(record.path, level):
                    prefix = prefix + (location,)
                    stages.add(StageItem(level_id, prefix, duration))
            stage_items = frozenset(stages)
            self._stage_closures[record.path.stages] = stage_items
        return Transaction(record.record_id, frozenset(items) | stage_items)

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def interned(self):
        """This database as dense-id ``array('i')`` rows.

        Builds a :class:`~repro.perf.interning.InternedTransactions` whose
        alphabet is interned in :attr:`Item.sort_key` order, so id order
        coincides with the miners' canonical item order.  Row index is the
        transaction's position (the tid the bitmap kernel packs into
        masks), not :attr:`Transaction.tid`.

        The result is cached: the interned form is a pure function of the
        (immutable) transactions, and callers that reuse one encoded
        database across runs — a δ sweep, the benchmark harness — should
        pay the interning pass once.  Note the bitmap miner *extends* the
        cached interner with projection-only items past the base
        alphabet; those extra ids never enter rows or masks, so reuse
        stays sound.
        """
        if self._interned is None:
            from repro.perf.interning import InternedTransactions

            self._interned = InternedTransactions.from_transactions(
                [t.items for t in self.transactions],
                sort_key=lambda item: item.sort_key,
            )
        return self._interned

    # ------------------------------------------------------------------
    # rendering (Table 3 reproduction, debugging)
    # ------------------------------------------------------------------
    def render_transaction(
        self,
        transaction: Transaction,
        short_names: dict[str, str] | None = None,
        base_level_only: bool = True,
    ) -> list[str]:
        """Paper-style item strings for one transaction, sorted.

        With *base_level_only* (the Table 3 view) only the most specific
        dimension items and the stage items of path level 0 are shown;
        otherwise the full closure is rendered.
        """
        rendered: list[tuple[int, str]] = []
        max_code = {
            item.dim: max(
                len(i.code)
                for i in transaction.items
                if isinstance(i, DimItem) and i.dim == item.dim and i.code != "*"
            )
            for item in transaction.items
            if isinstance(item, DimItem) and item.code != "*"
        }
        for item in transaction.items:
            if isinstance(item, DimItem):
                if item.code == "*":
                    if base_level_only:
                        continue
                    rendered.append((item.dim, f"{item.dim + 1}*"))
                    continue
                if base_level_only and len(item.code) != max_code[item.dim]:
                    continue
                hierarchy = self.schema.dimensions[item.dim]
                rendered.append((item.dim, render_dim_item(item, hierarchy)))
            else:
                if base_level_only and item.level_id != 0:
                    continue
                key = 1_000 + item.level_id * 100 + item.position
                rendered.append((key, render_stage_item(item, short_names)))
        rendered.sort()
        return [text for _, text in rendered]

    def describe(self) -> dict[str, object]:
        """Alphabet and size statistics (used by the benchmark harness)."""
        alphabet: set[Item] = set()
        total_items = 0
        for transaction in self.transactions:
            alphabet |= transaction.items
            total_items += len(transaction.items)
        return {
            "transactions": len(self.transactions),
            "distinct_items": len(alphabet),
            "avg_items_per_transaction": (
                total_items / len(self.transactions) if self.transactions else 0.0
            ),
            "path_levels": len(self.path_lattice),
        }
