"""Persistent partitioned FlowCube storage (the warehouse-scale layer).

The in-memory pipeline assumes the path database fits in RAM; this package
removes that assumption end to end:

* :class:`~repro.store.pathstore.PartitionedPathStore` — the path database
  as size-bounded columnar partition files (see
  :mod:`repro.store.binfmt`) under a JSON catalog (:class:`~repro.store.catalog.Catalog`) with
  schema fingerprints and Bloom-style partition summaries
  (:class:`~repro.store.partition.BloomSummary`);
* :func:`~repro.store.builder.build_cube` /
  :func:`~repro.store.builder.shared_mine_store` — out-of-core cube
  construction and Algorithm 1, one partition decoded at a time, in
  the calling process;
* :class:`~repro.store.cube_store.CubeStore` — the materialised cube
  persisted cell by cell in a packed mmap'd heap, lazily decoded
  behind a bounded
  :class:`~repro.store.cache.LRUCache`;
* ``flowcube-store`` (:mod:`repro.store.cli`) — init / ingest / build /
  append / compact / query / stats / serve.

The store builds one way (roll-up scan, bitmap exception kernel) and
reads and writes one layout; the reference implementations the tests
compare it against live in :mod:`repro.core` and :mod:`repro.query`.
"""

from repro.store.append import append_records
from repro.store.builder import BuildStats, build_cube, shared_mine_store
from repro.store.cache import LRUCache
from repro.store.catalog import (
    Catalog,
    schema_fingerprint,
    schema_from_dict,
    schema_to_dict,
)
from repro.store.cube_store import CubeStore, StoredCuboid
from repro.store.partition import BloomSummary, PartitionMeta
from repro.store.pathstore import PartitionedPathStore

__all__ = [
    "BloomSummary",
    "BuildStats",
    "Catalog",
    "CubeStore",
    "LRUCache",
    "PartitionMeta",
    "PartitionedPathStore",
    "StoredCuboid",
    "append_records",
    "build_cube",
    "schema_fingerprint",
    "schema_from_dict",
    "schema_to_dict",
    "shared_mine_store",
]
