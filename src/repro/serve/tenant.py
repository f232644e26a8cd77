"""Per-cube serving state: one tenant mounts one persisted flowcube.

A :class:`CubeTenant` owns everything one cube needs to be served
concurrently and repeatedly:

* a :class:`~repro.store.cube_store.CubeStore` read handle (cell reads
  behind its locked LRU cache; measures decode on first touch);
* one long-lived :class:`~repro.query.api.FlowCubeQuery` façade and query
  cache (``derive`` travels in each request's plan, not in the façade),
  drawing bitmap key catalogs from one
  :class:`~repro.perf.query_kernel.CatalogPool`, so no request ever
  rebuilds an index another request already paid for;
* a response cache holding final rendered JSON *bytes* keyed by the
  canonical request, so a warm hit skips querying and serialisation
  entirely;
* invalidation wiring: every cache key folds in the store's version
  counter, and the tenant subscribes to it.  An in-process mutation
  (``put_cuboid``/``flush``), a rebuild or a compaction drops every cached
  response; a reload after another process's append carries each
  ``slice`` / ``exceptions`` response whose cut selects none of the
  item cells the append changed over to the new version
  (:data:`~repro.query.plan.CUT_BOUND`) and drops the rest.
  :meth:`refresh` ``stat``\\ s the on-disk meta file so writes by *other*
  processes (the CLI under a running server) are noticed per request.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from pathlib import Path as FsPath

from repro.errors import StoreError
from repro.perf.query_kernel import (
    CatalogPool,
    CuboidKeyCatalog,
    QueryCache,
    merge_query_stats,
)
from repro.query.api import FlowCubeQuery
from repro.query.plan import CUT_BOUND
from repro.store.pathstore import PartitionedPathStore

__all__ = ["CubeTenant"]


class CubeTenant:
    """One named cube mounted in the slicer.

    Args:
        name: Tenant name — the ``{name}`` segment of every cube route.
        store: The partitioned path store whose ``cube/`` directory holds
            the built flowcube.
        cache_size: Capacity of the cell cache and of the query cache.
        response_cache_size: Capacity of the rendered-response cache.
    """

    def __init__(
        self,
        name: str,
        store: PartitionedPathStore,
        cache_size: int = 256,
        response_cache_size: int = 512,
    ) -> None:
        self.name = name
        self.store = store
        self.cube_store = store.cube_store(cache_size=cache_size)
        if not self.cube_store.is_built:
            raise StoreError(
                f"no cube has been built at {store.directory} "
                "(run `flowcube-store build` first)"
            )
        self.catalogs = CatalogPool()
        self.query = FlowCubeQuery(
            self.cube_store,
            cache_size=cache_size,
            catalogs=self.catalogs,
        )
        self._responses = QueryCache(response_cache_size)
        self.invalidations = 0
        #: Cached responses the invalidations so far carried over / dropped.
        self.responses_kept = 0
        self.responses_dropped = 0
        self.cube_store.subscribe(self._invalidated)

    @classmethod
    def mount(
        cls, name: str, directory: FsPath | str, cache_size: int = 256
    ) -> "CubeTenant":
        """Open the store at *directory* and mount it as *name*."""
        return cls(
            name, PartitionedPathStore.open(directory), cache_size=cache_size
        )

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def _invalidated(self, version: int, changed: frozenset | None) -> None:
        """Re-key to *version* every cached response the change leaves
        standing and drop the others — all of them when *changed* is
        ``None``."""
        if changed is None:
            kept, dropped = self._responses.rekey(lambda key: None)
        else:
            kept, dropped = self._responses.rekey(self._carry(version, changed))
        self.invalidations += 1
        self.responses_kept += kept
        self.responses_dropped += dropped

    def _carry(
        self, version: int, changed: frozenset
    ) -> Callable[[tuple], tuple | None]:
        """``response key -> its key at version``, or ``None`` to drop it.

        A response stands when its plan is :data:`CUT_BOUND` and its cut
        selects none of the changed item cells — one
        :class:`CuboidKeyCatalog` over their keys, matched the way a slice
        matches a cuboid's.  An item cell changes at every path level at
        once, so the one catalog serves every level.
        """
        schema = self.cube_store.schema
        catalog = CuboidKeyCatalog(
            [key for _, key in changed], schema.dimensions
        )

        def carry(key: tuple) -> tuple | None:
            # A response key is (version, *Plan.key): op, dims, path_level, ...
            stored, op, dims = key[:3]
            if stored != version - 1 or op not in CUT_BOUND:
                return None
            if catalog.match_mask(
                (schema.dimension_index(name), value) for name, value in dims
            ):
                return None
            return (version, *key[1:])

        return carry

    def refresh(self) -> bool:
        """Notice another process's write (one ``stat``); True when reloaded."""
        return self.cube_store.maybe_reload()

    def close(self) -> None:
        """Unmount: flush counters, then release every file handle/map.

        After closing, the cube store's maps (heap segments, cell index;
        the path table is unmapped once read) are dropped, so the store
        directory can be deleted or rebuilt without this process pinning
        stale inodes.  The tenant must not serve requests afterwards.
        """
        try:
            self.cube_store.unsubscribe(self._invalidated)
        except ValueError:
            pass  # already unsubscribed (double close)
        self.flush_stats()
        self._responses.clear()
        self.cube_store.close()
        self.store.close()

    @property
    def version(self) -> int:
        """The store's mutation counter (folds into response-cache keys)."""
        return self.cube_store.version

    # ------------------------------------------------------------------
    # response cache
    # ------------------------------------------------------------------
    def cached_response(self, key: tuple) -> bytes | None:
        """Rendered response bytes for a canonical request key, if warm."""
        return self._responses.get((self.version,) + key)

    def store_response(self, key: tuple, body: bytes, version: int) -> None:
        """Cache rendered bytes under the store version they were built at.

        *version* must be the mutation counter the caller observed
        **before** rendering *body*.  Keying with the counter read at
        store time instead would race concurrent writers: a body rendered
        from pre-mutation cells could land under the post-mutation key
        (the writer bumps and clears between the render and the put) and
        be served as current from then on.
        """
        self._responses.put((version,) + key, body)

    def etag(self, key: tuple) -> str:
        """A strong validator for the response a canonical key denotes.

        Pure function of (sha1 build version, store mutation counter,
        request key) — the same triple that makes cached bytes valid — so
        an ``If-None-Match`` revalidation can be answered 304 without
        querying or rendering anything, even on a cold response cache.
        """
        seed = f"{self.cube_store.build_version}:{self.version}:{key!r}"
        digest = hashlib.sha1(seed.encode("utf-8")).hexdigest()[:20]
        return f'"{digest}"'

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """The ``/cubes/{name}`` payload: shape, thresholds, provenance."""
        cube = self.cube_store
        out: dict[str, object] = {
            "name": self.name,
            "store": str(self.store.directory),
            "records": len(self.store),
            "cuboids": len(cube.cuboids),
            "cells": cube.n_cells(),
            "min_support": cube.min_support,
            "min_deviation": cube.min_deviation,
            "path_levels": (
                len(cube.path_lattice) if cube.path_lattice is not None else 0
            ),
            "version": cube.build_version,
        }
        if cube.build_stats is not None:
            out["build_stats"] = cube.build_stats
        return out

    def stats(self) -> dict[str, object]:
        """Every cache layer's counters, for ``/stats``."""
        return {
            "version": self.cube_store.build_version,
            "store_version": self.version,
            "invalidations": self.invalidations,
            "responses_kept": self.responses_kept,
            "responses_dropped": self.responses_dropped,
            "query_cache": self.query.cache_stats(),
            "cell_cache": self.cube_store.cache_stats(),
            "io": self.cube_store.io_counters(),
            "catalog_pool": self.catalogs.stats(),
            "response_cache": self._responses.stats(),
        }

    def flush_stats(self) -> None:
        """Persist this tenant's query-cache counters for the CLI.

        Folds the façade's counters into the cube's ``query_stats.json``
        (the same file ``flowcube-store query`` accumulates into), so
        ``flowcube-store stats`` reports serving behaviour after the
        server exits.  The merge is atomic and lock-guarded, so CLI
        invocations running concurrently cannot interleave.
        """
        stats = self.query.cache_stats()
        if stats["hits"] or stats["misses"] or stats["derivations"]:
            merge_query_stats(self.cube_store.directory, stats)
