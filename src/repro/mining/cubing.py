"""The Cubing baseline (Section 5.2, Algorithm 2).

Cubing splits the problem the natural-but-slower way:

1. compute the iceberg cube over the path-independent dimensions with BUC,
   carrying record-id lists as the cell measure, then
2. for each frequent cell, read its transactions back and run Apriori
   (:func:`~repro.mining.apriori.apriori`, bitmap counting) over the
   *stage items only*.

What it cannot do — and what makes Shared win on dense paths (Figures 6
and 10) — is prune the path lattice globally: a stage infrequent at the
top abstraction level is re-generated and re-counted as a candidate inside
every single frequent cell.
"""

from __future__ import annotations

import time

from repro.core.flowgraph_exceptions import resolve_min_support
from repro.core.lattice import PathLattice
from repro.core.path_database import PathDatabase
from repro.encoding.item_encoding import DimItem, encode_dimension_value
from repro.encoding.stage_encoding import StageItem, stages_linkable
from repro.encoding.transactions import TransactionDatabase
from repro.mining.apriori import apriori
from repro.mining.buc import buc_iceberg_cells
from repro.mining.result import FlowMiningResult, item_sort_key
from repro.mining.stats import MiningStats

__all__ = ["cubing_mine"]


def cubing_mine(
    database: PathDatabase,
    path_lattice: PathLattice | None = None,
    min_support: float = 0.01,
    max_length: int | None = None,
    transaction_db: TransactionDatabase | None = None,
) -> FlowMiningResult:
    """Run Algorithm 2 over *database*.

    Args:
        database: The path database.
        path_lattice: Interesting path levels (defaults to the paper's 4).
        min_support: δ, fractional (<1) or absolute.
        max_length: Bound on the *total* pattern length (cell + segment),
            matching the other miners' semantics.
        transaction_db: Reuse an encoded database (Shared-style encoding,
            without top-level items).

    Returns:
        A :class:`~repro.mining.result.FlowMiningResult` with the same
        frequent cells and segments as :func:`repro.mining.shared.shared_mine`
        (the test-suite cross-checks the two).
    """
    stats = MiningStats()
    started = time.perf_counter()
    if path_lattice is None:
        path_lattice = PathLattice.paper_default(database.schema.location)
    if transaction_db is None:
        transaction_db = TransactionDatabase(
            database, path_lattice, include_top_level=False
        )
    threshold = resolve_min_support(min_support, len(database))
    # Stage-item transactions, addressable by record id (the tid lists the
    # BUC cells carry refer back to these).
    stage_items_by_tid: dict[int, frozenset] = {
        t.tid: frozenset(i for i in t.items if isinstance(i, StageItem))
        for t in transaction_db.transactions
    }
    hierarchies = database.schema.dimensions

    supports: dict[frozenset, int] = {}
    for item_level, key, record_ids in buc_iceberg_cells(database, min_support):
        cell_items = _cell_itemset(item_level, key, hierarchies)
        if cell_items:
            supports[frozenset(cell_items)] = len(record_ids)
        cell_budget = (
            None if max_length is None else max_length - len(cell_items)
        )
        if cell_budget is not None and cell_budget < 1:
            continue
        cell_transactions = [stage_items_by_tid[tid] for tid in record_ids]
        cell_stats = MiningStats()
        segments = apriori(
            cell_transactions,
            threshold,
            max_length=cell_budget,
            pair_filter=stages_linkable,
            stats=cell_stats,
            key=item_sort_key,
        )
        stats.merge(cell_stats)
        for segment_items, support in segments.items():
            supports[frozenset(cell_items) | segment_items] = support

    stats.elapsed_seconds = time.perf_counter() - started
    return FlowMiningResult(
        supports=supports,
        threshold=threshold,
        n_transactions=len(database),
        schema=database.schema,
        path_lattice=path_lattice,
        stats=stats,
    )


def _cell_itemset(item_level, key, hierarchies) -> list[DimItem]:
    """Encode a BUC cell's coordinates as dimension items (``*`` omitted)."""
    items: list[DimItem] = []
    for dim, (level, value) in enumerate(zip(item_level, key)):
        if level == 0:
            continue
        items.append(encode_dimension_value(dim, value, hierarchies[dim]))
    return items
