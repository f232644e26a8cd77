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

* :func:`build_cube` materialises the iceberg cube with a single roll-up
  scan — membership and weighted base paths for the root item levels
  only, each distinct path aggregated once, merged in partition order
  into multisets of interned path ids — and derives every other level's
  cells by merging child cells (:mod:`repro.perf.measure_rollup`).
  Partitions preserve record order, so group insertion order,
  ``record_ids`` tuples, path order, and the exception-mining inputs
  coincide with the in-memory builders'.  This is the store's only
  engine and its exception pass has one kernel (the bitmap one); the
  reference arm the tests compare against — :meth:`FlowCube.build`'s
  ``"direct"`` per-cell rebuild, which mines with the ``"scan"``
  exception kernel — lives in :mod:`repro.core`.

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
partitions deserialise from columnar ``FCPART02`` arenas with bulk
``array.frombytes``.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from datetime import datetime, timezone
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.flowcube import CellKey, FlowCube
from repro.core.flowgraph_exceptions import (
    Segment,
    resolve_min_support,
    serial_exception_pass,
)
from repro.core.lattice import ItemLattice, ItemLevel, PathLattice, PathLevel
from repro.encoding.transactions import EncodingMemo, TransactionDatabase
from repro.errors import CubeError, StoreError
from repro.mining.result import FlowMiningResult, item_sort_key
from repro.mining.shared import mine_interned
from repro.mining.stats import MiningStats
from repro.perf import collector
from repro.perf.interning import InternedTransactions, ItemInterner
from repro.perf.measure_rollup import (
    AggregationMemo,
    PathTable,
    assemble_cuboids,
    derivation_plan,
    derive_levels,
    expanded,
    merge_scan,
    prune_to_iceberg,
    scan_records,
)
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
            scanning / path aggregation), ``materialize`` (measure
            derivation and cell assembly), and ``exceptions`` (the
            per-cell holistic exception pass) — alongside the mining
            phases a :class:`~repro.mining.stats.MiningStats` tracks.
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


def _scan_partitions(
    store: PartitionedPathStore,
    tracker: _LiveTracker,
    build_stats: BuildStats,
    root_levels: tuple,
    path_lattice: PathLattice,
) -> Iterator:
    """The roll-up scan over every partition, yielding partials in order.

    Partitions are loaded one at a time inside the tracker bracket.
    """
    aggregation = AggregationMemo(path_lattice)  # one for every partition
    for _, database in store.iter_partitions():
        tracker.enter()
        try:
            build_stats.scans += 1
            yield scan_records(
                database, aggregation, root_levels,
                store.schema.dimensions,
            )
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
    for _, database in store.iter_partitions():
        tracker.enter()
        try:
            if build_stats is not None:
                build_stats.scans += 1
            encoded = TransactionDatabase(
                database, path_lattice, include_top_level=False, memo=memo
            )
            rows.extend(
                interner.encode(transaction.items)
                for transaction in encoded.transactions
            )
        finally:
            tracker.exit()
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
    segments_by_cell: Mapping[
        tuple[ItemLevel, PathLevel, CellKey], Sequence[Segment]
    ]
    | None = None,
    use_shared: bool = False,
    into=None,
    stats: BuildStats | None = None,
    jobs: int = 1,
):
    """Materialise the iceberg flowcube of a partitioned store.

    Produces exactly the cube :meth:`FlowCube.build` would produce over
    the concatenated store (same cuboids, cell keys, record ids,
    flowgraphs, and exceptions) while reading one partition at a time.

    There is a single *roll-up scan* (:mod:`repro.perf.measure_rollup`):
    each partition is read once, producing membership groups and weighted
    base paths for the *root* item levels only; partials merge in
    partition order (:func:`merge_scan`), which makes them identical to
    an in-memory single scan.  Every other level's cells derive in memory
    by merging child cells along the item lattice, so the whole build
    costs one pass regardless of how many item levels are materialised.
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
        compute_exceptions: Skip exception mining when only the algebraic
            measure is needed.
        segments_by_cell: Pre-mined frequent segments, as from
            :meth:`FlowMiningResult.segments_by_cell`.
        use_shared: Run :func:`shared_mine_store` first and feed its
            segments into exception mining (ignored when
            ``segments_by_cell`` is given or exceptions are off).
        into: ``None`` to return an in-memory
            :class:`~repro.core.flowcube.FlowCube` (the store is then
            loaded once at the end to back it), or a
            :class:`~repro.store.cube_store.CubeStore` — each cuboid is
            persisted and dropped as soon as it is built, keeping the
            output out-of-core too.
        stats: Optional :class:`BuildStats` to fill.
        jobs: An integer ``>= 0`` (anything else raises
            :class:`~repro.errors.StoreError`), otherwise ignored: the
            build runs in the calling process whatever it says.

    Returns:
        The :class:`FlowCube`, or *into* (flushed) when a cube store was
        given.
    """
    _check_jobs(jobs)
    started = time.perf_counter()
    build_stats = stats if stats is not None else BuildStats()
    schema = store.schema
    item_lattice = ItemLattice([h.depth for h in schema.dimensions])
    if path_lattice is None:
        path_lattice = PathLattice.paper_default(schema.location)
    levels = list(item_levels) if item_levels is not None else list(item_lattice)
    for item_level in levels:
        if item_level not in item_lattice:
            raise CubeError(f"item level {item_level!r} outside the lattice")
    threshold = resolve_min_support(min_support, len(store))
    build_stats.partitions = len(store.catalog.partitions)
    build_stats.records = len(store)
    build_stats.built_at = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )

    if (
        use_shared
        and compute_exceptions
        and segments_by_cell is None
    ):
        segments_by_cell = shared_mine_store(
            store,
            path_lattice,
            min_support=min_support,
            build_stats=build_stats,
        ).segments_by_cell()

    plan = derivation_plan(levels)
    root_levels = tuple(level for level, source in plan if source is None)
    tracker = _LiveTracker()
    exception_pass = None
    if compute_exceptions:
        exception_pass = serial_exception_pass(min_support, min_deviation)
    phase = time.perf_counter()
    table = PathTable(len(path_lattice))
    groups_by_root: list[dict[CellKey, list[int]]] = [
        {} for _ in root_levels
    ]
    weighted_by_root: list[list[dict]] = [
        [{} for _ in path_lattice] for _ in root_levels
    ]
    for part_groups, part_weighted in _scan_partitions(
        store, tracker, build_stats, root_levels, path_lattice
    ):
        merge_scan(
            groups_by_root, weighted_by_root, part_groups, part_weighted,
            table,
        )
    build_stats.add_phase("aggregate", time.perf_counter() - phase)

    if into is not None:
        into.create(
            path_lattice, min_support, min_deviation, item_levels=levels
        )
        # The cube's records are vectors over the scan's path ids.
        into.path_table = table
        cube = None
    else:
        cube = FlowCube(
            store.load_all(), item_lattice, path_lattice, min_support,
            min_deviation,
        )

    phase = time.perf_counter()
    data = derive_levels(
        plan, groups_by_root, weighted_by_root, root_levels,
        store.schema.dimensions,
    )
    prune_to_iceberg(data, threshold)
    del groups_by_root, weighted_by_root
    for cuboid in assemble_cuboids(
        levels, path_lattice, data, table, threshold, min_support,
        min_deviation, compute_exceptions, segments_by_cell,
        exception_pass=exception_pass,
    ):
        build_stats.cuboids += 1
        build_stats.cells += len(cuboid)
        if into is not None:
            into.put_cuboid(cuboid)
        else:
            cube._cuboids[(cuboid.item_level, cuboid.path_level)] = (  # noqa: SLF001
                expanded(cuboid)
            )
    exception_seconds = (
        exception_pass.seconds if exception_pass is not None else 0.0
    )
    if compute_exceptions:
        build_stats.add_phase("exceptions", exception_seconds)
    build_stats.add_phase(
        "materialize", time.perf_counter() - phase - exception_seconds
    )

    build_stats.max_live_transaction_dbs = max(
        build_stats.max_live_transaction_dbs, tracker.peak
    )
    build_stats.elapsed_seconds += time.perf_counter() - started
    if into is not None:
        into.flush(build_stats=build_stats)
        return into
    return cube
