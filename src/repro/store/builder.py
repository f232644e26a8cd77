"""Out-of-core flowcube construction over a partitioned store.

The in-memory pipeline (:meth:`~repro.core.flowcube.FlowCube.build`,
:func:`~repro.mining.shared.shared_mine`) starts from a whole decoded
path database.  This module runs the same algorithms against a
:class:`~repro.store.pathstore.PartitionedPathStore`, decoding *one
partition at a time*:

* :func:`shared_mine_store` is Algorithm 1 the way the paper states it:
  **one** pass transforms the path database into the encoded transaction
  database D', and the level-wise passes run over D'.  The pass reads
  each partition once, encodes it into a
  :class:`~repro.encoding.transactions.TransactionDatabase` (one alive
  at a time, inside the live-count bracket), interns its transactions
  into compact id rows, and drops it.  The rows concatenate in
  partition order into one
  :class:`~repro.perf.interning.InternedTransactions`, and
  :func:`~repro.mining.shared.mine_interned` — the one id-space miner,
  the same call :func:`shared_mine` makes — mines them.  Row *t* is
  transaction *t* of the concatenated store, so supports, mining
  counters and result order are *exactly* the in-memory miner's — the
  test suite asserts equality.

* :func:`build_cube` runs the roll-up
  :meth:`FlowCube.build` runs (:func:`~repro.perf.measure_rollup.roll_up`)
  over the partitions in order — one scan for the root item levels'
  membership and weighted base paths, each distinct path aggregated
  once, merged into multisets of interned path ids, every other level
  derived by adding child cells — and persists each item level's
  cuboids together as they come: the store keeps an item cell whole.
  Partitions preserve record order, so group insertion order,
  ``record_ids`` tuples and path order coincide with the in-memory
  build's.  It mines no exception and expands no graph: a cube built
  with exceptions records that in ``cube.json``, and each cell mines its
  own at its first read (:class:`~repro.core.flowcube.Cell`).

What is resident.  A mine holds, next to the one decoded + encoded
partition, the interned D': one ``array('i')`` per record (4 B per item
occurrence plus the array header) and, inside the miner, one
``n_records``-bit tid-mask per item and per live candidate of the
current level.  Measured at 2 000 paths: 276 items → 69 KB of item
masks, peak RSS within 1 MB of the disk-resident miner it replaced.
At 100 000 paths a mask is ~12.5 KB: ~3.5 MB of item masks, ~17 MB of
id rows (~22 ids, ~170 B per record), and — the term that dominates —
~90 MB for the widest candidate level (≈ 7 200 candidates at δ = 2 %).
So the mine is O(encoded database) in *compact ids* plus O(widest
level × n_records bits), never O(decoded database); the cube passes
stay O(one partition + cells) — the roll-up scan's
:class:`~repro.perf.measure_rollup.AggregationMemo` adds one reference
per *distinct* path (2 479 of flowbench ``records``' 10 000), the order
of memory the finest path level's multisets already take.
:class:`BuildStats.max_live_transaction_dbs` *proves* the one-partition
claim for the decoded/encoded form: every partition read — decoded for
the cube passes, encoded for the mining pass — is bracketed by a
live-count tracker, and the recorded peak is asserted to be
1 in the tests.

Both builders run in the calling process and fork nothing: the roll-up
scan is cheap enough that shipping tuples to workers cost more than
scanning them (DESIGN §6, "Why the write side is one process").

Every scan goes through :func:`~repro.store.partition.read_partition`:
partitions deserialise from columnar ``FCPART03`` arenas with bulk
``array.frombytes``.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from datetime import datetime, timezone
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import attrgetter

from repro.core.flowgraph_exceptions import resolve_min_support
from repro.core.lattice import ItemLattice, ItemLevel, PathLattice
from repro.encoding.transactions import EncodingMemo, TransactionDatabase
from repro.errors import StoreError
from repro.mining.result import FlowMiningResult, item_sort_key
from repro.mining.shared import mine_interned
from repro.mining.stats import MiningStats
from repro.perf import collector
from repro.perf.interning import InternedTransactions, ItemInterner
from repro.perf.measure_rollup import PathTable, requested_levels, roll_up
from repro.store.pathstore import PartitionedPathStore

__all__ = [
    "BuildStats",
    "build_cube",
    "shared_mine_store",
]

@dataclass
class BuildStats:
    """Counters collected during an out-of-core build.

    Attributes:
        partitions: Partition files in the store when the build started.
        records: Total path records scanned (per full pass).
        scans: Partition files read across the whole build (one per
            partition per mine, one per partition per cube pass).
        max_live_transaction_dbs: Peak number of partition databases —
            decoded :class:`~repro.core.path_database.PathDatabase` or
            encoded :class:`TransactionDatabase` — alive at once; the
            out-of-core invariant says this never exceeds 1.
        cuboids: Cuboids materialised.
        cells: Iceberg cells materialised.
        built_at: UTC timestamp of the build start (ISO-8601, seconds
            precision); stamped by :func:`build_cube` so the persisted
            cube carries build provenance.
        elapsed_seconds: Wall-clock time of the build.
        phase_seconds: Wall-clock per build phase — ``aggregate`` (record
            scanning / path aggregation) and ``materialize`` (measure
            derivation, cell assembly and persisting) — alongside the
            mining phases a :class:`~repro.mining.stats.MiningStats`
            tracks.
        pool: Always empty; never persisted.
    """

    partitions: int = 0
    records: int = 0
    scans: int = 0
    max_live_transaction_dbs: int = 0
    cuboids: int = 0
    cells: int = 0
    built_at: str = ""
    elapsed_seconds: float = 0.0
    phase_seconds: dict = field(default_factory=dict)
    # Shim: benchmarks/flowbench/layers.py reads ``stats.pool.get(...)``;
    # the field goes with the [benchmark] PR that stops reading it.
    pool: dict = field(default_factory=dict, init=False)

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock time into the named phase bucket."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    @property
    def version(self) -> str:
        """A short content digest identifying this build.

        Hashes the build's shape (records, cells, cuboids) and its
        timestamp, so two rebuilds of the same store get distinct
        versions; serving layers expose it as the cube's build version.
        """
        seed = (
            f"{self.built_at}:{self.records}:{self.cells}:{self.cuboids}:"
            f"{self.partitions}"
        )
        return hashlib.sha1(seed.encode("utf-8")).hexdigest()[:12]

    def as_dict(self) -> dict:
        """JSON-ready snapshot, e.g. for ``CubeStore`` metadata."""
        return {
            "version": self.version,
            "built_at": self.built_at,
            "partitions": self.partitions,
            "records": self.records,
            "scans": self.scans,
            "max_live_transaction_dbs": self.max_live_transaction_dbs,
            "cuboids": self.cuboids,
            "cells": self.cells,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "phase_seconds": {
                name: round(seconds, 4)
                for name, seconds in sorted(self.phase_seconds.items())
            },
        }


class _LiveTracker:
    """Counts concurrently-alive partition databases and records the peak."""

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0

    def enter(self) -> None:
        self.live += 1
        self.peak = max(self.peak, self.live)

    def exit(self) -> None:
        self.live -= 1


def _check_jobs(value) -> None:
    # Shim: benchmarks/flowbench/layers.py passes ``jobs=2``; the keyword
    # goes with the [benchmark] PR that stops passing it.
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise StoreError(f"jobs must be an integer >= 0, got {value!r}")


def _partitions(
    store: PartitionedPathStore,
    tracker: _LiveTracker,
    build_stats: BuildStats | None,
) -> Iterator:
    """Every partition's records, in order, one loaded at a time inside
    the tracker bracket, each counted as a scan in *build_stats*."""
    for _, database in store.iter_partitions():
        tracker.enter()
        try:
            if build_stats is not None:
                build_stats.scans += 1
            yield database
        finally:
            tracker.exit()


@collector.paused()
def shared_mine_store(
    store: PartitionedPathStore,
    path_lattice: PathLattice | None = None,
    min_support: float = 0.01,
    max_length: int | None = None,
    precount_lengths: tuple[int, ...] = (2,),
    build_stats: BuildStats | None = None,
    jobs: int = 1,
) -> FlowMiningResult:
    """Algorithm 1 over a partitioned store: encode once, mine resident.

    One file pass decodes and encodes each partition in turn — exactly
    one :class:`TransactionDatabase` alive at a time, one
    :class:`EncodingMemo` for the pass — and interns its transactions
    into dense id rows appended, in partition order, to a single
    :class:`~repro.perf.interning.InternedTransactions`.  The level-wise
    passes then run :func:`~repro.mining.shared.mine_interned`, the same
    kernel :func:`~repro.mining.shared.shared_mine` runs, over those
    resident rows; no partition is read twice.  Row *t* of the
    concatenation is transaction *t* of the concatenated store, so the
    supports, the mining counters and the iteration order of
    ``segments_by_cell()`` are exactly the in-memory miner's.  Runs with
    the cyclic collector paused (:func:`repro.perf.collector.paused`).

    Args:
        store: The partitioned path store (the database D).
        path_lattice: Interesting path levels (defaults to the paper's 4).
        min_support: δ, fractional (<1) or absolute, resolved against the
            store's total record count.
        max_length: Optional bound on pattern length.
        precount_lengths: As in ``shared_mine``.
        build_stats: Optional :class:`BuildStats` to fill: one scan per
            partition, the live-partition peak, and the miner's
            ``encode`` / ``precount`` / ``count`` / ``join`` / ``prune``
            phase buckets (partition read + encode + intern under
            ``encode``).
        jobs: Validated like :func:`build_cube`'s and otherwise ignored.

    Returns:
        A :class:`~repro.mining.result.FlowMiningResult`.
    """
    _check_jobs(jobs)
    stats = MiningStats()
    started = time.perf_counter()
    if path_lattice is None:
        path_lattice = PathLattice.paper_default(store.schema.location)
    tracker = _LiveTracker()
    if build_stats is not None:
        build_stats.partitions = len(store.catalog.partitions)
        build_stats.records = len(store)
    threshold = resolve_min_support(min_support, len(store))

    interner = ItemInterner(sort_key=item_sort_key)
    rows: list[array] = []
    memo = EncodingMemo()
    for database in _partitions(store, tracker, build_stats):
        encoded = TransactionDatabase(
            database, path_lattice, include_top_level=False, memo=memo
        )
        rows.extend(
            interner.encode(transaction.items)
            for transaction in encoded.transactions
        )
    stats.add_phase("encode", time.perf_counter() - started)

    supports_by_ids = mine_interned(
        InternedTransactions(interner, rows), threshold, path_lattice,
        max_length, precount_lengths, stats,
    )
    stats.elapsed_seconds = time.perf_counter() - started
    if build_stats is not None:
        build_stats.max_live_transaction_dbs = max(
            build_stats.max_live_transaction_dbs, tracker.peak
        )
        build_stats.elapsed_seconds += stats.elapsed_seconds
        for phase, seconds in stats.phase_seconds.items():
            build_stats.add_phase(phase, seconds)
    return FlowMiningResult.from_interned(
        supports_by_ids,
        interner,
        threshold=threshold,
        n_transactions=len(store),
        schema=store.schema,
        path_lattice=path_lattice,
        stats=stats,
    )


@collector.paused()
def build_cube(
    store: PartitionedPathStore,
    path_lattice: PathLattice | None = None,
    item_levels: Iterable[ItemLevel] | None = None,
    min_support: float = 0.01,
    min_deviation: float = 0.1,
    compute_exceptions: bool = True,
    # Shim: benchmarks/flowbench/stages.py passes Shared's segments; the
    # keyword goes with the [benchmark] PR that stops passing it.
    segments_by_cell: object = None,
    into=None,
    stats: BuildStats | None = None,
    jobs: int = 1,
):
    """Materialise and persist the iceberg flowcube of a partitioned store.

    Persists exactly the cube :meth:`FlowCube.build` would produce over
    the concatenated store (same cuboids, cell keys, record ids, vectors
    and so flowgraphs and exceptions; the store keeps no empty cuboid)
    while reading one partition at a time.

    It runs :meth:`FlowCube.build`'s roll-up,
    :func:`~repro.perf.measure_rollup.roll_up`: each partition is read
    once, producing membership groups and weighted base paths for the
    *root* item levels only; partials merge in
    partition order, which makes them identical to an in-memory single
    scan.  Every other level's cells derive in memory by adding child
    cells along the item lattice, so the whole build costs one pass
    regardless of how many item levels are materialised.
    The whole build runs with the cyclic collector paused
    (:func:`repro.perf.collector.paused`: nothing it allocates is cyclic;
    DESIGN §6 item 12).

    Args:
        store: The partitioned path store.
        path_lattice: Interesting path levels (defaults to the paper's 4).
        item_levels: Item levels to materialise (default: whole lattice).
        min_support: δ, fractional (<1) or absolute, resolved against the
            store's total record count.
        min_deviation: ε for exceptions.
        compute_exceptions: Whether the cube has (ε, δ) exceptions —
            recorded in ``cube.json`` and mined per cell at first read,
            never here — or only the algebraic measure.  Either way the
            build writes the same heap and index bytes.
        segments_by_cell: Accepted and ignored: a cell mines its own
            segments (under an absolute δ, the ones Shared finds).
        into: The :class:`~repro.store.cube_store.CubeStore` handle to
            write through; ``None`` opens ``store.cube_store()``.  Each
            item level's cuboids are persisted and dropped as soon as
            they are built, so the output stays out-of-core too.
        stats: Optional :class:`BuildStats` to fill.
        jobs: An integer ``>= 0`` (anything else raises
            :class:`~repro.errors.StoreError`), otherwise ignored: the
            build runs in the calling process whatever it says.

    Returns:
        The cube store, flushed.
    """
    _check_jobs(jobs)
    started = time.perf_counter()
    build_stats = stats if stats is not None else BuildStats()
    schema = store.schema
    if path_lattice is None:
        path_lattice = PathLattice.paper_default(schema.location)
    levels = requested_levels(
        ItemLattice([h.depth for h in schema.dimensions]), item_levels
    )
    build_stats.partitions = len(store.catalog.partitions)
    build_stats.records = len(store)
    build_stats.built_at = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )

    cube = store.cube_store() if into is None else into
    try:
        # The writer lock is taken before the first partition is read.
        cube.create(
            path_lattice, min_support, min_deviation, item_levels=levels,
            compute_exceptions=compute_exceptions,
        )
        # The cube's records are vectors over the scan's path ids.
        table = cube.path_table = PathTable(len(path_lattice))
        tracker = _LiveTracker()
        cuboids = roll_up(
            _partitions(store, tracker, build_stats),
            table,
            levels,
            path_lattice,
            schema.dimensions,
            min_support,
            cube.mining,
            build_stats,
        )
        # The roll-up yields an item level's cuboids one after another;
        # the store takes them together, as whole item cells.
        for _, item_cuboids in groupby(cuboids, attrgetter("item_level")):
            item_cuboids = list(item_cuboids)
            build_stats.cuboids += len(item_cuboids)
            build_stats.cells += sum(map(len, item_cuboids))
            cube.put_cuboid(chain.from_iterable(item_cuboids))
        build_stats.max_live_transaction_dbs = max(
            build_stats.max_live_transaction_dbs, tracker.peak
        )
        build_stats.elapsed_seconds += time.perf_counter() - started
        cube.flush(build_stats=build_stats)
    except BaseException:
        if into is None:
            cube.close()  # abandons the staged heap, releases the lock
        raise
    return cube
