"""Frequent-pattern mining: Apriori, FP-growth, BUC, Shared/Basic/Cubing."""

from repro.mining.apriori import apriori, count_candidates, generate_candidates
from repro.mining.basic import basic_mine
from repro.mining.buc import IcebergCell, buc_iceberg_cells
from repro.mining.cubing import cubing_mine
from repro.mining.fptree import FPTree, fp_growth
from repro.mining.result import FlowMiningResult, item_sort_key
from repro.mining.shared import (
    mine_interned,
    shared_mine,
    shared_pair_filter,
    top_path_level_id,
)
from repro.mining.starcubing import star_iceberg_cells, star_table
from repro.mining.stats import MiningStats

__all__ = [
    "FPTree",
    "FlowMiningResult",
    "IcebergCell",
    "MiningStats",
    "apriori",
    "basic_mine",
    "buc_iceberg_cells",
    "count_candidates",
    "cubing_mine",
    "fp_growth",
    "generate_candidates",
    "item_sort_key",
    "mine_interned",
    "shared_mine",
    "shared_pair_filter",
    "star_iceberg_cells",
    "star_table",
    "top_path_level_id",
]
