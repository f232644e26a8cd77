"""Persistent partitioned FlowCube storage (the warehouse-scale layer).

The in-memory pipeline assumes the path database fits in RAM; this package
removes that assumption end to end:

* :class:`~repro.store.pathstore.PartitionedPathStore` — the path database
  as size-bounded partition files (columnar binary by default, CSV as
  the portable interchange format — see :mod:`repro.store.binfmt`)
  under a JSON catalog (:class:`~repro.store.catalog.Catalog`) with
  schema fingerprints and Bloom-style partition summaries
  (:class:`~repro.store.partition.BloomSummary`);
* :func:`~repro.store.builder.build_cube` /
  :func:`~repro.store.builder.shared_mine_store` — out-of-core cube
  construction and Algorithm 1, one partition decoded at a time, with
  the cube's ``jobs=N`` passes running on a persistent
  :class:`~repro.perf.pool.WorkerPool` (re-exported here) that callers
  can keep across builds;
* :class:`~repro.store.cube_store.CubeStore` — the materialised cube
  persisted cell by cell (packed mmap'd heap or one JSON file per
  cell), lazily rebuilt behind a bounded
  :class:`~repro.store.cache.LRUCache`;
* ``flowcube-store`` (:mod:`repro.store.cli`) — init / ingest / build /
  query / stats / migrate.
"""

from repro.perf.pool import PoolStats, WorkerPool, resolve_jobs
from repro.store.append import append_records
from repro.store.binfmt import DEFAULT_STORE_FORMAT, STORE_FORMATS
from repro.store.builder import (
    STORE_KERNELS,
    BuildStats,
    build_cube,
    shared_mine_store,
)
from repro.store.cache import LRUCache
from repro.store.catalog import (
    Catalog,
    schema_fingerprint,
    schema_from_dict,
    schema_to_dict,
)
from repro.store.cube_store import CELL_FORMATS, CubeStore, StoredCuboid
from repro.store.partition import BloomSummary, PartitionMeta
from repro.store.pathstore import PartitionedPathStore

__all__ = [
    "CELL_FORMATS",
    "DEFAULT_STORE_FORMAT",
    "STORE_FORMATS",
    "STORE_KERNELS",
    "BloomSummary",
    "BuildStats",
    "Catalog",
    "CubeStore",
    "LRUCache",
    "PartitionMeta",
    "PartitionedPathStore",
    "PoolStats",
    "StoredCuboid",
    "WorkerPool",
    "append_records",
    "build_cube",
    "resolve_jobs",
    "schema_fingerprint",
    "schema_from_dict",
    "schema_to_dict",
    "shared_mine_store",
]
