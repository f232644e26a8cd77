"""Persistent-store overhead: in-memory vs out-of-core construction.

Six questions the store and perf layers have to answer honestly:

* what does the interned bitmap counting kernel buy over the item-space
  tid-set kernel on the same Shared mining run (warm, on a shared
  encoded transaction database, and cold end-to-end);
* what does the bitmap exception kernel buy over the path-scanning
  exception pass on full with-exceptions builds, given that both emit
  identical exception lists and byte-identical cubes;
* what does out-of-core construction cost over ``FlowCube.build`` as the
  same database is split into 1 / 4 / 16 partitions (wall time + peak
  traced allocation, which is where out-of-core should win);
* what store mining costs over the in-memory miner, and how parallel
  partition scans (``jobs``) move cube construction relative to the
  in-memory baseline;
* what does the aggregate-once roll-up measure engine buy over the
  direct per-item-level builder (in memory and out-of-core, across
  worker-pool sizes), given that both produce byte-identical cubes;
* what hit rate does the cube-store LRU cache reach once a query
  workload re-reads cells it has already materialised;
* what the binary storage backend buys over the JSON layout on the same
  data: cold cube open (store handle plus key catalogs for every
  cuboid, zero cell bytes read), cold index-first slice, the miner's
  encode pass decoding partitions, and bytes on disk — with the two
  formats' cubes asserted byte-identical under ``cube_to_json``, a
  legacy ``FCHEAP01`` (JSON-in-heap) row for the generation headline,
  and a zero-copy tripwire that *fails the run* if a cold open ever
  reads heap bytes or decodes catalog masks again;
* what incremental maintenance buys over reconstruction: a skewed 10%
  batch delta-merged into a prebuilt binary store (touched cells only,
  written as append-only delta segments) vs a full out-of-core rebuild
  of the grown database — with the appended cube asserted byte-identical
  to the rebuild before *and* after compaction, the base ``cells.bin``
  asserted untouched, and a cold open with pending deltas asserted
  zero-copy (the run fails on any violation);
* what the bitmap query kernel buys on the serving path: a cold slice
  over the cube store with the index-first kernel (predicates answered
  from the key catalog, only matching cells read) vs the seed full scan,
  a warm slice served from the query cache, and a roll-up answered by
  the derivation planner vs read from a materialised cuboid — with the
  derived answer checked byte-identical to a direct build.

``python benchmarks/bench_store.py`` runs the full sweep and writes
``BENCH_store.json`` at the repository root plus the measure-engine
section alone as ``BENCH_flowgraph.json`` and the query sweep as
``BENCH_query.json``; ``--quick`` runs a CI-smoke-sized subset of the
same paths in well under a minute.  The pytest entries below are
CI-sized spot checks.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

from benchmarks.conftest import run_once
from repro.core import FlowCube
from repro.core.lattice import ItemLevel, PathLattice
from repro.core.serialization import cube_to_json
from repro.encoding.transactions import TransactionDatabase
from repro.mining import shared_mine
from repro.perf.query_kernel import CuboidKeyCatalog
from repro.query import FlowCubeQuery, derive_cuboid, plan_derivation
from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase
from repro.store import (
    BuildStats,
    PartitionedPathStore,
    WorkerPool,
    append_records,
    build_cube,
    shared_mine_store,
)
from repro.synth import GeneratorConfig, generate_path_database, scaled_config

#: Sweep configuration: one database, three partitionings of it.
CONFIG = GeneratorConfig(
    n_paths=320,
    n_dims=3,
    dim_fanouts=(3, 4),
    n_sequences=12,
    max_path_length=5,
    max_duration=4,
    seed=11,
)
PARTITION_COUNTS = (1, 4, 16)
MIN_SUPPORT = 0.05
CACHE_SIZE = 64
JOBS_SWEEP = (1, 2, 4)
REPEATS = 3
#: Partitions of the 10k-path storage-format and append points.
SCALE_PARTITIONS = 8
#: Database size for the full-run storage-format comparison point.
FORMATS_SCALE_PATHS = 10_000


def _timed(fn):
    """(wall seconds, peak traced bytes, result) of one call.

    Wall time and peak allocation come from *separate* runs: timing under
    tracemalloc inflates the wall clock several-fold, and a forked worker
    pool would inherit the (parent-side unreadable) tracing into every
    worker process.  The untraced run is timed; a second, traced run
    supplies the peak.
    """
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak, result


def _best(fn, repeats: int):
    """(best wall seconds over *repeats* untraced runs, last result)."""
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _make_store(directory: Path, database, n_partitions: int):
    partition_size = math.ceil(len(database) / n_partitions)
    store = PartitionedPathStore.init(
        directory, database.schema, partition_size=partition_size
    )
    store.ingest(database)
    return store


def _kernel_section(database, repeats: int) -> dict:
    """Bitmap vs tid-set kernel on the same in-memory Shared run.

    The *warm* rows share one encoded :class:`TransactionDatabase` (the
    documented reuse path for δ sweeps: encoding and interning are paid
    once); the *end-to-end* rows re-encode from the path database on
    every run.  Both kernels must agree on every support and every
    counter — the speedup is only meaningful if the work is identical.
    """
    lattice = PathLattice.paper_default(database.schema.location)
    tdb = TransactionDatabase(database, lattice)
    tdb.interned()  # the warm basis shares the interned form too

    warm: dict[str, float] = {}
    cold: dict[str, float] = {}
    results = {}
    for kernel in ("tidset", "bitmap"):
        warm[kernel], results[kernel] = _best(
            lambda k=kernel: shared_mine(
                database, min_support=MIN_SUPPORT, transaction_db=tdb, kernel=k
            ),
            repeats,
        )
        cold[kernel], _ = _best(
            lambda k=kernel: shared_mine(
                database, min_support=MIN_SUPPORT, kernel=k
            ),
            repeats,
        )
    bitmap, tidset = results["bitmap"], results["tidset"]
    assert bitmap.supports == tidset.supports
    assert bitmap.stats.counters_equal(tidset.stats)
    return {
        "min_support": MIN_SUPPORT,
        "n_patterns": len(bitmap.supports),
        "shared_transaction_db": {
            "tidset_seconds": round(warm["tidset"], 4),
            "bitmap_seconds": round(warm["bitmap"], 4),
            "speedup": round(warm["tidset"] / warm["bitmap"], 2),
        },
        "end_to_end": {
            "tidset_seconds": round(cold["tidset"], 4),
            "bitmap_seconds": round(cold["bitmap"], 4),
            "speedup": round(cold["tidset"] / cold["bitmap"], 2),
        },
        "bitmap_phase_seconds": {
            phase: round(seconds, 4)
            for phase, seconds in sorted(bitmap.stats.phase_seconds.items())
        },
        "kernels_identical": True,
    }


def _sweep_pool(jobs: int) -> tuple[WorkerPool | None, float]:
    """(started pool or None for serial, spawn seconds paid once).

    The sweep's steady-state rows all reuse this one pool, so fork cost
    appears exactly once per sweep point — reported as
    ``pool_spawn_seconds`` next to, never inside, the build timings.
    """
    if jobs <= 1:
        return None, 0.0
    pool = WorkerPool(jobs)
    pool.start()
    return pool, pool.stats.spawn_seconds


def _jobs_section(store, database, repeats: int, jobs_sweep) -> dict:
    """Store mining once, cube construction across worker-pool sizes.

    Mining runs in-process whatever ``jobs`` says, so it gets one row.
    Every ``jobs > 1`` sweep point forks its persistent pool once and
    reuses it across all repeats of both timed builds, so the rows
    measure steady-state builds; the one-time fork cost is the separate
    ``pool_spawn_seconds`` column.
    """
    mine_baseline, _ = _best(
        lambda: shared_mine(database, min_support=MIN_SUPPORT), repeats
    )
    build_baseline, _ = _best(
        lambda: FlowCube.build(
            database, min_support=MIN_SUPPORT, compute_exceptions=False
        ),
        repeats,
    )
    mine_seconds, _ = _best(
        lambda: shared_mine_store(store, min_support=MIN_SUPPORT), repeats
    )
    building = []
    for jobs in jobs_sweep:
        pool, spawn_seconds = _sweep_pool(jobs)
        try:
            seconds, _ = _best(
                lambda: build_cube(
                    store,
                    min_support=MIN_SUPPORT,
                    compute_exceptions=False,
                    jobs=jobs,
                    pool=pool,
                ),
                repeats,
            )
            # With exceptions, the per-cell holistic pass fans out across
            # the same worker pool (bitmap kernel), so the jobs sweep shows
            # how it scales alongside the partition scans.
            exc_seconds, _ = _best(
                lambda: build_cube(
                    store, min_support=MIN_SUPPORT, jobs=jobs, pool=pool
                ),
                repeats,
            )
            building.append(
                {
                    "jobs": jobs,
                    "seconds": round(seconds, 4),
                    "pool_spawn_seconds": round(spawn_seconds, 4),
                    "vs_in_memory": round(seconds / build_baseline, 2),
                    "with_exceptions_seconds": round(exc_seconds, 4),
                }
            )
        finally:
            if pool is not None:
                pool.close()
    return {
        "n_partitions": len(store.catalog.partitions),
        "shared_mine": {
            "in_memory_seconds": round(mine_baseline, 4),
            "store_seconds": round(mine_seconds, 4),
            "vs_in_memory": round(mine_seconds / mine_baseline, 2),
        },
        "build_cube": {
            "in_memory_seconds": round(build_baseline, 4),
            "sweep": building,
        },
    }


def _engine_section(store, database, repeats: int, jobs_sweep) -> dict:
    """Direct vs roll-up measure engine on identical (byte-for-byte) cubes.

    The direct builder re-aggregates every record's path once per
    (item level × path level); the roll-up engine aggregates once per
    path level and derives ancestor cuboids by merging child cells
    (Lemma 4.2).  The sweep times both in memory and out-of-core across
    worker-pool sizes.  Exceptions are holistic either way, so the
    headline rows skip them (like the other build rows in this file) and
    the with-exceptions rows pit the bitmap exception kernel against the
    path-scanning pass (plus the direct engine) on full builds — all
    three byte-identical, with identical per-cell exception lists.
    """
    engines = ("direct", "rollup")
    cubes = {}
    in_memory: dict[str, float] = {}
    for engine in engines:
        in_memory[engine], cubes[engine] = _best(
            lambda e=engine: FlowCube.build(
                database, min_support=MIN_SUPPORT, compute_exceptions=False, engine=e
            ),
            repeats,
        )
    assert cube_to_json(cubes["direct"]) == cube_to_json(cubes["rollup"])
    section: dict = {
        "n_item_levels": len(list(cubes["rollup"].item_lattice)),
        "n_path_levels": len(cubes["rollup"].path_lattice),
        "byte_identical": True,
        "in_memory": {
            "direct_seconds": round(in_memory["direct"], 4),
            "rollup_seconds": round(in_memory["rollup"], 4),
            "speedup": round(in_memory["direct"] / in_memory["rollup"], 2),
        },
    }
    # The exception-kernel ratio is a headline number, so this block runs
    # in quick mode too (with >= 2 repeats, like the mining kernels).
    exc_repeats = max(repeats, 2)
    exc_seconds: dict[str, float] = {}
    exc_cubes = {}
    for kernel in ("scan", "bitmap"):
        exc_seconds[kernel], exc_cubes[kernel] = _best(
            lambda k=kernel: FlowCube.build(
                database, min_support=MIN_SUPPORT, kernel=k
            ),
            exc_repeats,
        )
    direct_exc_seconds, direct_exc_cube = _best(
        lambda: FlowCube.build(
            database, min_support=MIN_SUPPORT, engine="direct"
        ),
        exc_repeats,
    )
    reference = cube_to_json(exc_cubes["bitmap"])
    assert cube_to_json(exc_cubes["scan"]) == reference
    assert cube_to_json(direct_exc_cube) == reference
    scan_cells = list(exc_cubes["scan"].cells())
    bitmap_cells = list(exc_cubes["bitmap"].cells())
    assert len(scan_cells) == len(bitmap_cells)
    assert all(
        a.flowgraph.exceptions == b.flowgraph.exceptions
        for a, b in zip(scan_cells, bitmap_cells)
    )
    section["in_memory_with_exceptions"] = {
        "scan_kernel_seconds": round(exc_seconds["scan"], 4),
        "bitmap_kernel_seconds": round(exc_seconds["bitmap"], 4),
        "direct_seconds": round(direct_exc_seconds, 4),
        "speedup": round(exc_seconds["scan"] / exc_seconds["bitmap"], 2),
        "engine_speedup": round(
            direct_exc_seconds / exc_seconds["bitmap"], 2
        ),
        "kernels_identical": True,
    }
    sweep = []
    for jobs in jobs_sweep:
        row: dict = {"jobs": jobs}
        pool, spawn_seconds = _sweep_pool(jobs)
        try:
            for engine in engines:
                seconds, _ = _best(
                    lambda e=engine: build_cube(
                        store,
                        min_support=MIN_SUPPORT,
                        compute_exceptions=False,
                        jobs=jobs,
                        engine=e,
                        pool=pool,
                    ),
                    repeats,
                )
                row[f"{engine}_seconds"] = round(seconds, 4)
        finally:
            if pool is not None:
                pool.close()
        row["pool_spawn_seconds"] = round(spawn_seconds, 4)
        row["speedup"] = round(row["direct_seconds"] / row["rollup_seconds"], 2)
        sweep.append(row)
    section["build_cube"] = {
        "n_partitions": len(store.catalog.partitions),
        "sweep": sweep,
    }
    return section


def _cache_hit_rate(store: PartitionedPathStore) -> dict:
    """Build into the cube store, then replay a repeated query workload."""
    build_cube(
        store,
        min_support=MIN_SUPPORT,
        compute_exceptions=False,
        into=store.cube_store(),
    )
    served = store.cube_store(cache_size=CACHE_SIZE)
    query = FlowCubeQuery(served)
    lattice = served.path_lattice
    for _ in range(3):  # repeated workload: apex + every path level
        for level in lattice:
            query.flowgraph(level)
    return served.cache_stats()


def _derived_byte_identical(database) -> bool:
    """Derived roll-up vs direct build, byte-for-byte (unpruned source).

    The planner's exactness contract: with the resolved iceberg threshold
    at 1 the source cuboid covers every record, so merging its cells
    (Lemma 4.2) must reproduce a direct build of the target cuboids
    exactly — same cells, same order, same serialisation.
    """
    base = ItemLevel([h.depth for h in database.schema.dimensions])
    source_cube = FlowCube.build(
        database, item_levels=[base], min_support=1, compute_exceptions=False
    )
    target = ItemLevel([1] + [0] * (len(base) - 1))
    direct = FlowCube.build(
        database, item_levels=[target], min_support=1, compute_exceptions=False
    )
    shell = FlowCube(
        database,
        direct.item_lattice,
        direct.path_lattice,
        direct.min_support,
        direct.min_deviation,
    )
    for path_level in source_cube.path_lattice:
        plan = plan_derivation(source_cube, target, path_level)
        cuboid = derive_cuboid(source_cube, plan)
        shell._cuboids[(target, path_level)] = cuboid
    return cube_to_json(shell) == cube_to_json(direct)


def _query_section(store: PartitionedPathStore, database, repeats: int) -> dict:
    """The serving path: index vs scan slice, cached repeats, derivation.

    *Cold* rows open a fresh :class:`CubeStore` handle per run, so every
    cell the kernel touches is a JSON file read — exactly what separates
    index-first slicing (reads = matches) from the seed full scan (reads
    = every cell at the path level).  The *warm* row repeats the slice on
    one query object, which the query cache answers without touching the
    store at all.
    """
    h0 = database.schema.dimensions[0]
    value = sorted(h0.concepts_at_level(1))[0]
    leaf = sorted(h0.concepts_at_level(h0.depth))[0]
    slice_repeats = max(repeats, 3)
    rows = []
    cold_index_lvl1 = None
    for dims in ({"d0": value}, {"d0": leaf}):
        cold: dict[str, float] = {}
        cells: dict[str, list] = {}
        for kernel in ("scan", "index"):
            best = math.inf
            for _ in range(slice_repeats):
                # A fresh handle per run keeps the cell reads cold; the
                # handle open itself (meta + key index) is identical for
                # both kernels and not what the sweep measures.
                query = FlowCubeQuery(
                    store.cube_store(cache_size=CACHE_SIZE), kernel=kernel
                )
                start = time.perf_counter()
                result = [
                    (c.item_level, c.key) for c in query.slice(**dims)
                ]
                best = min(best, time.perf_counter() - start)
            cold[kernel], cells[kernel] = best, result
        assert cells["index"] == cells["scan"]  # same cells, same order
        if cold_index_lvl1 is None:
            cold_index_lvl1 = cold["index"]
        rows.append(
            {
                "constraint": dims,
                "n_matching_cells": len(cells["index"]),
                "scan_seconds": round(cold["scan"], 4),
                "index_seconds": round(cold["index"], 4),
                "speedup": round(cold["scan"] / cold["index"], 2),
            }
        )

    served = FlowCubeQuery(store.cube_store(cache_size=CACHE_SIZE))
    list(served.slice(d0=value))  # populate the query cache
    warm_seconds, _ = _best(
        lambda: list(served.slice(d0=value)), max(repeats, 2)
    )

    # Roll-up serving: a materialised cuboid read vs the planner merging
    # the same answer out of a partially built store that only kept the
    # dim-0 observation layer (the base level is fully iceberg-pruned at
    # this δ, so the drill-path leaf level is the realistic source).
    materialised_seconds, _ = _best(
        lambda: FlowCubeQuery(
            store.cube_store(cache_size=CACHE_SIZE)
        ).flowgraph(d0=value),
        repeats,
    )
    n_dims = len(database.schema.dimensions)
    observation = ItemLevel(
        [database.schema.dimensions[0].depth] + [0] * (n_dims - 1)
    )
    with tempfile.TemporaryDirectory() as tmp:
        partial = _make_store(Path(tmp) / "wh", database, 4)
        build_cube(
            partial,
            item_levels=[observation],
            min_support=MIN_SUPPORT,
            compute_exceptions=False,
            into=partial.cube_store(),
        )
        derived_seconds, _ = _best(
            lambda: FlowCubeQuery(
                partial.cube_store(cache_size=CACHE_SIZE), derive=True
            ).flowgraph(d0=value),
            repeats,
        )
    return {
        "cold_slice": {
            "sweep": rows,
            # Headline: the reads the index kernel avoids scale with the
            # slice's selectivity, so the leaf-level constraint shows the
            # index-first effect in full.
            "speedup": max(row["speedup"] for row in rows),
            "kernels_identical": True,
        },
        "warm_slice": {
            "seconds": round(warm_seconds, 4),
            "vs_cold_index": round(warm_seconds / cold_index_lvl1, 4),
            "cache_stats": served.cache_stats(),
        },
        "rollup": {
            "materialised_seconds": round(materialised_seconds, 4),
            "derived_seconds": round(derived_seconds, 4),
            "derived_vs_materialised": round(
                derived_seconds / materialised_seconds, 2
            ),
            "derived_byte_identical": _derived_byte_identical(database),
        },
    }


def _disk_bytes(directory: Path) -> int:
    """Total bytes of every file under *directory* (0 when absent)."""
    if not directory.exists():
        return 0
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _zero_copy_tripwire(store, hierarchies, value) -> dict:
    """The zero-copy contract, enforced: the run fails on a regress.

    A fresh binary handle must read **zero** cell-heap bytes and decode
    **zero** catalog masks through open plus a :class:`CuboidKeyCatalog`
    for every cuboid — the masks stay lazy byte spans over the mmap'd
    ``cells.idx``.  An index-first slice must then stream mask bits
    (the counting hook) and pay heap bytes only for materialised cells.
    """
    served = store.cube_store(cache_size=CACHE_SIZE)
    for cuboid in served.cuboids:
        CuboidKeyCatalog(cuboid.keys, hierarchies, cuboid.value_masks)
    opened = served.io_counters()
    if opened["heap_bytes_read"] or opened["mask_bits_decoded"]:
        raise AssertionError(f"cold open is no longer zero-copy: {opened}")
    cells = list(FlowCubeQuery(served, kernel="index").slice(d0=value))
    sliced = served.io_counters()
    if not cells or not sliced["mask_bits_decoded"]:
        raise AssertionError(
            f"index-first slice did not stream catalog masks: {sliced}"
        )
    if not sliced["heap_bytes_read"]:
        raise AssertionError(
            f"slice materialised cells without heap reads: {sliced}"
        )
    served.close()
    return {
        "cold_open_heap_bytes": opened["heap_bytes_read"],
        "cold_open_mask_bits": opened["mask_bits_decoded"],
        "slice_mask_bits": sliced["mask_bits_decoded"],
        "slice_heap_bytes": sliced["heap_bytes_read"],
        "n_matching_cells": len(cells),
    }


def _formats_section(
    database,
    n_partitions: int,
    repeats: int,
    min_support: float,
    build_min_support: float | None = None,
) -> dict:
    """Binary vs JSON storage backends over identical data.

    One store per format over the same database, then the four numbers
    the backend exists for:

    * ``cold_open_seconds`` — a fresh :class:`CubeStore` handle plus a
      :class:`CuboidKeyCatalog` for every cuboid, i.e. everything a
      server needs before it can answer an index-first query, with zero
      cell bytes read (the binary path parses the mmap'd ``cells.idx``;
      the JSON path parses the inline cell list out of ``cube.json``);
    * ``cold_slice_seconds`` — a fresh handle plus one index-first
      slice, so the per-cell read path (heap ``pread`` vs one JSON file
      per cell) is measured on cells that are actually materialised;
    * ``encode_pass_seconds`` — the ``encode`` phase of a store mine
      (partition read + encode + intern), which is where partition
      decode speed lands during a build (bulk ``frombytes`` arenas vs
      CSV parsing);
    * bytes on disk for the partition files and the cube directory.

    The two cubes must render byte-identically under ``cube_to_json`` —
    the formats differ in layout, never in content.

    *build_min_support* (default: *min_support*) sets the cube build's
    iceberg threshold separately from mining's, so the scale point can
    pair a realistic mining δ with a cell-heavy cube — cold open scales
    with cell count, mining with pattern count.
    """
    if build_min_support is None:
        build_min_support = min_support
    hierarchies = database.schema.dimensions
    value = sorted(hierarchies[0].concepts_at_level(1))[0]
    open_repeats = max(repeats, 3)
    rows: dict[str, dict] = {}
    rendered: dict[str, str] = {}
    n_cells = 0
    with tempfile.TemporaryDirectory() as tmp:
        for store_format in ("json", "binary"):
            directory = Path(tmp) / store_format
            partition_size = math.ceil(len(database) / n_partitions)
            store = PartitionedPathStore.init(
                directory,
                database.schema,
                partition_size=partition_size,
                store_format=store_format,
            )
            store.ingest(database)
            read_seconds, _ = _best(store.load_all, repeats)

            # The fastest run's phase breakdown is reported.
            mine_seconds, best_stats = math.inf, None
            for _ in range(repeats):
                start = time.perf_counter()
                mined = shared_mine_store(store, min_support=min_support)
                elapsed = time.perf_counter() - start
                if elapsed < mine_seconds:
                    mine_seconds, best_stats = elapsed, mined.stats

            build_seconds, built = _best(
                lambda: build_cube(
                    store,
                    min_support=build_min_support,
                    compute_exceptions=False,
                    into=store.cube_store(),
                ),
                1,
            )
            n_cells = built.n_cells()

            def cold_open():
                served = store.cube_store(cache_size=CACHE_SIZE)
                for cuboid in served.cuboids:
                    # Same construction the serving CatalogPool does:
                    # binary cubes hand over precomputed masks, JSON
                    # cubes fall back to the per-cell index pass.
                    CuboidKeyCatalog(
                        cuboid.keys, hierarchies, cuboid.value_masks
                    )
                return served

            open_seconds, served = _best(cold_open, open_repeats)
            assert served.cell_format == store_format

            def cold_slice():
                query = FlowCubeQuery(
                    store.cube_store(cache_size=CACHE_SIZE), kernel="index"
                )
                return [
                    (c.item_level, c.key) for c in query.slice(d0=value)
                ]

            slice_seconds, matched = _best(cold_slice, open_repeats)
            rendered[store_format] = cube_to_json(served)
            rows[store_format] = {
                "partition_read_seconds": round(read_seconds, 4),
                "mine_seconds": round(mine_seconds, 4),
                "encode_pass_seconds": round(
                    best_stats.phase_seconds.get("encode", 0.0), 4
                ),
                "build_seconds": round(build_seconds, 4),
                "cold_open_seconds": round(open_seconds, 5),
                "cold_slice_seconds": round(slice_seconds, 5),
                "n_matching_cells": len(matched),
                "partitions_bytes": _disk_bytes(directory / "partitions"),
                "cube_bytes": _disk_bytes(directory / "cube"),
            }
            if store_format == "binary":
                rows[store_format]["zero_copy"] = _zero_copy_tripwire(
                    store, hierarchies, value
                )

        # The previous heap generation (FCHEAP01: JSON payloads inside
        # the heap) on a copy of the same binary store.  Open and mask
        # streaming are identical — only the per-cell payload decode
        # differs — so this row isolates what the FCHEAP02 codec buys.
        legacy_dir = Path(tmp) / "binary-fcheap01"
        shutil.copytree(Path(tmp) / "binary", legacy_dir)
        legacy_store = PartitionedPathStore.open(legacy_dir)
        legacy_store.cube_store().convert("binary", generation=1)

        def legacy_cold_open():
            served = legacy_store.cube_store(cache_size=CACHE_SIZE)
            for cuboid in served.cuboids:
                CuboidKeyCatalog(cuboid.keys, hierarchies, cuboid.value_masks)
            return served

        legacy_open_seconds, legacy_served = _best(
            legacy_cold_open, open_repeats
        )

        def legacy_cold_slice():
            query = FlowCubeQuery(
                legacy_store.cube_store(cache_size=CACHE_SIZE),
                kernel="index",
            )
            return [(c.item_level, c.key) for c in query.slice(d0=value)]

        legacy_slice_seconds, legacy_matched = _best(
            legacy_cold_slice, open_repeats
        )
        assert cube_to_json(legacy_served) == rendered["binary"]
        assert len(legacy_matched) == rows["binary"]["n_matching_cells"]
        legacy_row = {
            "cold_open_seconds": round(legacy_open_seconds, 5),
            "cold_slice_seconds": round(legacy_slice_seconds, 5),
            "cube_bytes": _disk_bytes(legacy_dir / "cube"),
        }
        legacy_store.close()
    assert rendered["binary"] == rendered["json"]
    json_row, binary_row = rows["json"], rows["binary"]
    return {
        "n_paths": len(database),
        "n_partitions": n_partitions,
        "min_support": min_support,
        "build_min_support": build_min_support,
        "n_cells": n_cells,
        "json": json_row,
        "binary": binary_row,
        "binary_fcheap01": legacy_row,
        "byte_identical": True,
        "binary_speedup": {
            "cold_open": round(
                json_row["cold_open_seconds"]
                / binary_row["cold_open_seconds"],
                2,
            ),
            "cold_slice": round(
                json_row["cold_slice_seconds"]
                / binary_row["cold_slice_seconds"],
                2,
            ),
            "encode_pass": round(
                json_row["encode_pass_seconds"]
                / binary_row["encode_pass_seconds"],
                2,
            ),
            "partition_read": round(
                json_row["partition_read_seconds"]
                / binary_row["partition_read_seconds"],
                2,
            ),
            "partitions_bytes": round(
                json_row["partitions_bytes"]
                / binary_row["partitions_bytes"],
                2,
            ),
            "cube_bytes": round(
                json_row["cube_bytes"] / binary_row["cube_bytes"], 2
            ),
            "cold_slice_vs_fcheap01": round(
                legacy_row["cold_slice_seconds"]
                / binary_row["cold_slice_seconds"],
                2,
            ),
            "cube_bytes_vs_fcheap01": round(
                legacy_row["cube_bytes"] / binary_row["cube_bytes"], 2
            ),
        },
    }


#: Iceberg threshold for the append sweep: absolute, so the frontier does
#: not churn as the database grows and the rows isolate maintenance cost.
APPEND_MIN_SUPPORT = 2
APPEND_FRACTION = 0.1


def _skewed_batch(database, fraction: float) -> list[PathRecord]:
    """A *fraction*-sized batch skewed into one level-1 group per dim.

    A uniformly random batch touches nearly every cell, which measures a
    rebuild in disguise; a realistic maintenance batch (one day of one
    product family moving through one region) dirties a small corner of
    the cube.  Records are cloned from the base database — filtered to
    the first level-1 concept of every dimension — with fresh ids above
    the store's high-water mark.
    """
    hierarchies = database.schema.dimensions
    targets = tuple(
        sorted(h.concepts_at_level(1))[0] for h in hierarchies
    )
    matches = [
        record
        for record in database
        if all(
            h.ancestor_at_level(value, 1) == target
            for h, value, target in zip(hierarchies, record.dims, targets)
        )
    ]
    if not matches:  # pathological fanout: fall back to the first record
        matches = [next(iter(database))]
    n_batch = max(1, round(fraction * len(database)))
    floor = max(record.record_id for record in database) + 1
    return [
        PathRecord(floor + i, donor.dims, donor.path)
        for i, donor in enumerate(
            matches[i % len(matches)] for i in range(n_batch)
        )
    ]


def _append_point(database, n_partitions: int, repeats: int) -> dict:
    """One append-vs-rebuild row, with the contracts enforced.

    The baseline is a full out-of-core rebuild of the grown database into
    a fresh cube directory; the append run ingests the same batch into a
    copy of the prebuilt base store and delta-merges only touched cells.
    The row *raises* — failing the whole bench run — if the appended cube
    is not byte-identical to the rebuild (before **and** after
    compaction), if the append rewrote the base ``cells.bin``, or if a
    cold open with pending delta segments reads any heap bytes.
    """
    hierarchies = database.schema.dimensions
    batch = _skewed_batch(database, APPEND_FRACTION)
    combined = PathDatabase(
        database.schema, list(database) + batch, validate=False
    )
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp) / "base"
        base = _make_store(base_dir, database, n_partitions)
        build_cube(
            base,
            min_support=APPEND_MIN_SUPPORT,
            compute_exceptions=False,
            into=base.cube_store(),
        )

        def rebuild(directory: Path) -> str:
            grown = _make_store(directory, combined, n_partitions)
            built = build_cube(
                grown,
                min_support=APPEND_MIN_SUPPORT,
                compute_exceptions=False,
                into=grown.cube_store(),
            )
            return cube_to_json(built)

        rebuild_seconds = math.inf
        reference = None
        for i in range(repeats):
            start = time.perf_counter()
            reference = rebuild(Path(tmp) / f"rebuild{i}")
            rebuild_seconds = min(
                rebuild_seconds, time.perf_counter() - start
            )

        append_seconds = math.inf
        compact_seconds = math.inf
        result = cold_heap_bytes = n_delta_segments = None
        for i in range(repeats):
            run_dir = Path(tmp) / f"run{i}"
            shutil.copytree(base_dir, run_dir)
            run_store = PartitionedPathStore.open(run_dir)
            heap = run_dir / "cube" / "cells.bin"
            stat = heap.stat()
            signature = (stat.st_mtime_ns, stat.st_size)
            start = time.perf_counter()
            result = append_records(run_store, batch, compact_after=0)
            append_seconds = min(
                append_seconds, time.perf_counter() - start
            )
            stat = heap.stat()
            if (stat.st_mtime_ns, stat.st_size) != signature:
                raise AssertionError(
                    "append rewrote the base cell heap "
                    f"(mtime/size changed): {heap}"
                )
            # Cold open with pending delta segments: the overlay index
            # must serve the cuboid layout at zero heap bytes, exactly
            # like a compacted store.
            cold = run_store.cube_store(cache_size=CACHE_SIZE)
            n_delta_segments = len(cold.delta_segments)
            for cuboid in cold.cuboids:
                CuboidKeyCatalog(cuboid.keys, hierarchies, cuboid.value_masks)
            counters = cold.io_counters()
            cold_heap_bytes = counters["heap_bytes_read"]
            if cold_heap_bytes:
                raise AssertionError(
                    "cold open with pending deltas read heap bytes: "
                    f"{counters}"
                )
            if cube_to_json(cold) != reference:
                raise AssertionError(
                    "append diverged from the from-scratch rebuild "
                    "(pre-compaction)"
                )
            start = time.perf_counter()
            cold.compact()
            compact_seconds = min(
                compact_seconds, time.perf_counter() - start
            )
            if cube_to_json(cold) != reference:
                raise AssertionError(
                    "compaction diverged from the from-scratch rebuild"
                )
            cold.close()
    return {
        "n_paths": len(database),
        "n_partitions": n_partitions,
        "min_support": APPEND_MIN_SUPPORT,
        "batch_records": len(batch),
        "batch_fraction": APPEND_FRACTION,
        "append_seconds": round(append_seconds, 4),
        "rebuild_seconds": round(rebuild_seconds, 4),
        "speedup": round(rebuild_seconds / append_seconds, 2),
        "compact_seconds": round(compact_seconds, 4),
        "cells_updated": result["updated"],
        "cells_created": result["created"],
        "delta_segments": n_delta_segments,
        "cold_open_heap_bytes": cold_heap_bytes,
        "base_heap_untouched": True,
        "byte_identical": True,
        "byte_identical_after_compaction": True,
    }


def _append_section(quick: bool, repeats: int) -> dict:
    """Append-vs-rebuild sweep: the 320-path smoke plus the 10k headline.

    The small point runs in every mode (``--quick`` included) as the
    parity smoke; the full run adds the scale point where the acceptance
    floor lives — a 10% batch into a 10k-path binary store must cost a
    fraction of the rebuild.
    """
    points = [
        _append_point(generate_path_database(CONFIG), 4, max(repeats, 2))
    ]
    if not quick:
        points.append(
            _append_point(
                generate_path_database(scaled_config(FORMATS_SCALE_PATHS)),
                SCALE_PARTITIONS,
                repeats,
            )
        )
    return {"points": points}


def _pool_smoke(database) -> dict:
    """One jobs=2 pooled build, checked for the out-of-core contract.

    Raises if the build held more than one partition database live at
    once — this is the CI tripwire the ``--quick`` run fails on.
    """
    with tempfile.TemporaryDirectory() as tmp:
        store = _make_store(Path(tmp) / "wh", database, 4)
        stats = BuildStats()
        build_cube(
            store,
            min_support=MIN_SUPPORT,
            compute_exceptions=False,
            stats=stats,
            jobs=2,
        )
    if stats.max_live_transaction_dbs > 1:
        raise AssertionError(
            "pooled build held "
            f"{stats.max_live_transaction_dbs} transaction databases live"
        )
    return {
        "jobs": 2,
        "max_live_transaction_dbs": stats.max_live_transaction_dbs,
        "pool": dict(stats.pool),
    }


def run_suite(quick: bool = False) -> dict:
    repeats = 1 if quick else REPEATS
    partition_counts = (4,) if quick else PARTITION_COUNTS
    jobs_sweep = (1, 4) if quick else JOBS_SWEEP
    database = generate_path_database(CONFIG)
    in_memory_seconds, in_memory_peak, cube = _timed(
        lambda: FlowCube.build(
            database, min_support=MIN_SUPPORT, compute_exceptions=False
        )
    )
    report = {
        "config": {
            "n_paths": len(database),
            "min_support": MIN_SUPPORT,
            "cache_size": CACHE_SIZE,
            "quick": quick,
        },
        # Kernel timings keep >= 2 repeats even in quick mode: the ratios
        # are the headline numbers and single runs are too noisy.
        "kernel": _kernel_section(database, max(repeats, 2)),
        "in_memory": {
            "seconds": round(in_memory_seconds, 4),
            "tracemalloc_peak_bytes": in_memory_peak,
            "n_cells": cube.n_cells(),
        },
        "partitioned": [],
    }
    for n_partitions in partition_counts:
        with tempfile.TemporaryDirectory() as tmp:
            store = _make_store(Path(tmp) / "wh", database, n_partitions)
            stats = BuildStats()
            seconds, peak, built = _timed(
                lambda: build_cube(
                    store,
                    min_support=MIN_SUPPORT,
                    compute_exceptions=False,
                    stats=stats,
                )
            )
            assert built.n_cells() == cube.n_cells()
            if n_partitions == 4:
                report["jobs"] = _jobs_section(
                    store, database, repeats, jobs_sweep
                )
                report["engines"] = _engine_section(
                    store, database, repeats, jobs_sweep
                )
            cache = _cache_hit_rate(store)
            if n_partitions == 4:
                # _cache_hit_rate built the cube into the store's cube
                # directory, which is what the serving sweep reads.
                report["query"] = _query_section(store, database, repeats)
            report["partitioned"].append(
                {
                    "n_partitions": len(store.catalog.partitions),
                    "seconds": round(seconds, 4),
                    "vs_in_memory": round(seconds / in_memory_seconds, 2),
                    "tracemalloc_peak_bytes": peak,
                    "partition_scans": stats.scans,
                    "max_live_transaction_dbs": stats.max_live_transaction_dbs,
                    "cache": cache,
                }
            )
    # The pool tripwire runs in every mode — quick included — and raises
    # (failing CI) when a build held two partitions live.
    report["pool_smoke"] = _pool_smoke(database)
    # The storage-format sweep runs in every mode too (parity asserted);
    # the full run adds the 10k-path point, where the cold-open gap —
    # mmap'd index decode vs a large inline-JSON cell list — is the
    # acceptance headline.
    formats = [_formats_section(database, 4, repeats, MIN_SUPPORT)]
    if not quick:
        # The scale point mines at the sweep δ but builds at an absolute
        # support of 2, so the cube actually has enough cells (≈15k at
        # 10k paths) for cold open to measure per-cell index costs
        # rather than fixed overheads.
        formats.append(
            _formats_section(
                generate_path_database(scaled_config(FORMATS_SCALE_PATHS)),
                SCALE_PARTITIONS,
                2,
                MIN_SUPPORT,
                build_min_support=2,
            )
        )
    report["formats"] = formats
    # Incremental maintenance: append-vs-rebuild parity smoke in every
    # mode (raises on divergence or a rewritten base heap); the full run
    # adds the 10k-path acceptance point.
    report["append"] = _append_section(quick, repeats)
    return report


# ----------------------------------------------------------------------
# CI-sized pytest entries (same paths, one partitioning)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def store_db():
    return generate_path_database(CONFIG)


def test_build_in_memory(benchmark, store_db):
    cube = run_once(
        benchmark,
        lambda: FlowCube.build(
            store_db, min_support=MIN_SUPPORT, compute_exceptions=False
        ),
    )
    assert cube.n_cells() > 0


@pytest.mark.parametrize("n_partitions,jobs", [(4, 1), (4, 4)])
def test_build_partitioned(benchmark, store_db, n_partitions, jobs, tmp_path):
    store = _make_store(tmp_path / "wh", store_db, n_partitions)
    reference = FlowCube.build(
        store_db, min_support=MIN_SUPPORT, compute_exceptions=False
    )
    cube = run_once(
        benchmark,
        lambda: build_cube(
            store, min_support=MIN_SUPPORT, compute_exceptions=False, jobs=jobs
        ),
    )
    assert cube.n_cells() == reference.n_cells()


def test_kernel_speedup_floor(store_db):
    """The warm bitmap kernel beats tid-sets by the documented margin."""
    section = _kernel_section(store_db, repeats=3)
    assert section["shared_transaction_db"]["speedup"] >= 3.0


@pytest.mark.parametrize("kernel", ["scan", "index"])
def test_slice_over_store(benchmark, store_db, kernel, tmp_path):
    store = _make_store(tmp_path / "wh", store_db, 4)
    build_cube(
        store,
        min_support=MIN_SUPPORT,
        compute_exceptions=False,
        into=store.cube_store(),
    )
    h0 = store_db.schema.dimensions[0]
    value = sorted(h0.concepts_at_level(1))[0]
    cells = run_once(
        benchmark,
        lambda: list(
            FlowCubeQuery(
                store.cube_store(cache_size=CACHE_SIZE), kernel=kernel
            ).slice(d0=value)
        ),
    )
    assert cells


def test_append_beats_rebuild_with_parity(store_db):
    """A skewed 10% append costs less than a rebuild and stays byte-exact.

    The parity / base-heap / zero-copy contracts are enforced inside
    ``_append_point`` (it raises on any violation); the spot check here
    is that delta maintenance actually wins at the CI size.
    """
    point = _append_point(store_db, n_partitions=4, repeats=2)
    assert point["byte_identical"]
    assert point["byte_identical_after_compaction"]
    assert point["base_heap_untouched"]
    assert point["cold_open_heap_bytes"] == 0
    assert point["delta_segments"] == 1
    assert point["speedup"] > 1.0


def test_formats_parity_and_binary_wins(store_db):
    """Binary and JSON stores render identical cubes; binary opens faster."""
    section = _formats_section(
        store_db, n_partitions=4, repeats=1, min_support=MIN_SUPPORT
    )
    assert section["byte_identical"]
    assert section["binary_speedup"]["cold_open"] > 1.0
    assert section["binary"]["partitions_bytes"] > 0
    # The zero-copy tripwire ran (it raises on regress) and the legacy
    # generation row parity-checked against the FCHEAP02 store.
    tripwire = section["binary"]["zero_copy"]
    assert tripwire["cold_open_heap_bytes"] == 0
    assert tripwire["cold_open_mask_bits"] == 0
    assert tripwire["slice_mask_bits"] > 0
    assert section["binary_fcheap01"]["cube_bytes"] > section["binary"][
        "cube_bytes"
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Store construction/kernel/jobs sweep -> BENCH_store.json"
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_store.json"),
        help="output JSON path (default: repo root BENCH_store.json)",
    )
    parser.add_argument(
        "--flowgraph-out",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_flowgraph.json"
        ),
        help="measure-engine section output (default: repo root "
        "BENCH_flowgraph.json)",
    )
    parser.add_argument(
        "--query-out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_query.json"),
        help="query-sweep section output (default: repo root BENCH_query.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: single repeat, 4 partitions only, jobs 1 and 4, "
        "plus the pooled-build live-partition tripwire",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="run only the append-vs-rebuild sweep (both sizes) and merge "
        "the section into an existing BENCH_store.json",
    )
    args = parser.parse_args(argv)
    if args.append:
        # Refresh just the append section, merged into the existing
        # report so the rest of the sweep need not re-run.
        section = _append_section(quick=args.quick, repeats=REPEATS)
        out = Path(args.out)
        report = (
            json.loads(out.read_text(encoding="utf-8"))
            if out.exists()
            else {}
        )
        report["append"] = section
        out.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(json.dumps(section, indent=2))
        print(f"\nmerged append section into {args.out}")
        return 0
    report = run_suite(quick=args.quick)
    Path(args.out).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    engines = {"config": report["config"], "engines": report["engines"]}
    Path(args.flowgraph_out).write_text(
        json.dumps(engines, indent=2) + "\n", encoding="utf-8"
    )
    query = {"config": report["config"], "query": report["query"]}
    Path(args.query_out).write_text(
        json.dumps(query, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}, {args.flowgraph_out} and {args.query_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
