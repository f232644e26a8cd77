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
* :mod:`repro.perf.measure_rollup` — the aggregate-once measure engine:
  one record scan materialises the base item levels' weighted paths
  (each distinct path aggregated once, then interned to an int id), and
  every ancestor cuboid's cells derive by merging child cells along the
  item lattice (``FlowGraph.merge``), with the holistic exception pass
  re-run per cell over the same ids;
* :mod:`repro.perf.exception_kernel` — the holistic pass itself as
  AND+popcount over the roll-up's path ids: per-path-level postings
  (bit *pid* ⇔ path *pid*) built once per level, a cell a ``{pid: weight}``
  view over them answering segment supports and every conditional
  transition/duration count, with views shared across cells by
  path-multiset fingerprint;
* :mod:`repro.perf.query_kernel` — the read path's counterpart: per-cuboid
  key catalogs packing cell ordinals into (dimension, concept) bitmaps
  with hierarchy descendant-closure masks, so slice/dice predicates are
  AND + iterate-set-bits over the index with no cell IO for non-matching
  cells, plus the LRU query cache with hit/miss/derivation counters.

The kernels are exact.  The references they are tested against are
``counting="scan"`` on :func:`~repro.mining.apriori.apriori`,
``kernel="scan"`` on
:func:`~repro.core.flowgraph_exceptions.mine_exceptions_weighted` and
:class:`~repro.query.api.FlowCubeQuery`, and ``engine="direct"`` on
:meth:`FlowCube.build <repro.core.flowcube.FlowCube.build>` (per-cell
build, scan exception kernel); the test suite asserts identical supports,
identical statistics, and byte-identical serialised cubes against them.
The miners' results are pinned as constants.  :mod:`repro.store` has no
switch: it runs the roll-up engine and the bitmap kernels only.
"""

from repro.perf.bitmap import (
    count_candidates_bitmap,
    count_candidates_masks,
    item_masks,
)
from repro.perf.exception_kernel import (
    CellExceptionIndex,
    PathPostings,
    PidCell,
    cell_index,
    mine_exceptions_bitmap,
    mine_segments_bitmap,
    pid_cell,
)
from repro.perf.interning import InternedTransactions, ItemInterner
from repro.perf.measure_rollup import ENGINES, build_rollup, derivation_plan
from repro.perf.query_kernel import (
    CatalogPool,
    CuboidKeyCatalog,
    QueryCache,
    iter_set_bits,
    load_query_stats,
    merge_query_stats,
)

__all__ = [
    "ENGINES",
    "CellExceptionIndex",
    "CatalogPool",
    "CuboidKeyCatalog",
    "InternedTransactions",
    "ItemInterner",
    "PathPostings",
    "PidCell",
    "QueryCache",
    "build_rollup",
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
    "pid_cell",
]
