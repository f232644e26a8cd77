"""Performance kernels for the mining stack.

The miners in :mod:`repro.mining` speak rich frozen-dataclass items
(:class:`~repro.encoding.item_encoding.DimItem`,
:class:`~repro.encoding.stage_encoding.StageItem`); counting over them
directly hashes dataclasses and intersects ``set`` tid-lists (the Basic
baseline still does).  This package provides the compact representations
Shared's and Cubing's counting runs on:

* :mod:`repro.perf.interning` — a dense integer id per distinct item,
  assigned once per encoded transaction database, turning transactions
  into sorted ``array('i')`` rows and candidate itemsets into int tuples;
* :mod:`repro.perf.bitmap` — vertical bitmap tid-sets: each item's
  tid-list packed into one Python big int, so a candidate's support is
  ``(mask_a & mask_b).bit_count()`` instead of a set intersection;
* :mod:`repro.perf.measure_rollup` — the aggregate-once roll-up both
  builds run (:func:`~repro.perf.measure_rollup.roll_up`): one record
  scan materialises the base item levels' weighted paths (each distinct
  path aggregated once, then interned to an int id), every ancestor
  cuboid's cells derive by adding child cells' path-id vectors along the
  item lattice;
* :mod:`repro.perf.exception_kernel` — the holistic pass itself as
  AND+popcount over one cell's own path ids: postings over the cell's
  distinct paths (bit *pid* ⇔ its *pid*-th path), each stage walked once,
  and a ``{pid: weight}`` index over them answering segment supports and
  every conditional transition/duration count — nothing shared with the
  roll-up's id space or with another cell;
* :mod:`repro.perf.query_kernel` — the read path's counterpart: per-cuboid
  key catalogs packing cell ordinals into (dimension, concept) bitmaps
  with hierarchy descendant-closure masks, so slice/dice predicates are
  AND + iterate-set-bits over the index with no cell IO for non-matching
  cells, plus the LRU query cache with hit/miss/derivation counters.

The kernels are exact.  The references they are tested against are
``counting="scan"`` on :func:`~repro.mining.apriori.apriori`,
``kernel="scan"`` on
:func:`~repro.core.flowgraph_exceptions.mine_exceptions_weighted` and
:class:`~repro.query.api.FlowCubeQuery`, and the test suite's own
per-cell builder (scan exception kernel) for the roll-up; the suite
asserts identical supports, identical statistics, and byte-identical
serialised cubes against them.  The miners' results are pinned as
constants.  Neither build has a switch: both run the roll-up and the
bitmap kernels only.
"""

from repro.perf.bitmap import (
    count_candidates_bitmap,
    count_candidates_masks,
    item_masks,
)
from repro.perf.exception_kernel import (
    CellExceptionIndex,
    PathPostings,
    cell_index,
    mine_exceptions_bitmap,
    mine_segments_bitmap,
)
from repro.perf.interning import InternedTransactions, ItemInterner
from repro.perf.measure_rollup import derivation_plan
from repro.perf.query_kernel import (
    CatalogPool,
    CuboidKeyCatalog,
    QueryCache,
    iter_set_bits,
    load_query_stats,
    merge_query_stats,
)

__all__ = [
    "CellExceptionIndex",
    "CatalogPool",
    "CuboidKeyCatalog",
    "InternedTransactions",
    "ItemInterner",
    "PathPostings",
    "QueryCache",
    "cell_index",
    "count_candidates_bitmap",
    "count_candidates_masks",
    "derivation_plan",
    "item_masks",
    "iter_set_bits",
    "load_query_stats",
    "merge_query_stats",
    "mine_exceptions_bitmap",
    "mine_segments_bitmap",
]
