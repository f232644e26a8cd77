"""Frequent-pattern mining: Apriori, BUC, Shared/Basic/Cubing."""

from repro.mining.apriori import apriori, count_candidates, generate_candidates
from repro.mining.basic import basic_mine
from repro.mining.buc import IcebergCell, buc_iceberg_cells
from repro.mining.cubing import cubing_mine
from repro.mining.result import FlowMiningResult, item_sort_key
from repro.mining.shared import (
    mine_interned,
    shared_mine,
    shared_pair_filter,
    top_path_level_id,
)
from repro.mining.stats import MiningStats

__all__ = [
    "FlowMiningResult",
    "IcebergCell",
    "MiningStats",
    "apriori",
    "basic_mine",
    "buc_iceberg_cells",
    "count_candidates",
    "cubing_mine",
    "generate_candidates",
    "item_sort_key",
    "mine_interned",
    "shared_mine",
    "shared_pair_filter",
    "top_path_level_id",
]
