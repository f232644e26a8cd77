"""The interned bitmap counting kernel and the out-of-core passes.

The whole perf layer rests on one contract: a kernel or a residency is
an *implementation detail* — every counting strategy must produce
byte-identical mining results, down to the per-length candidate/frequent
counters.  These tests pin that contract:

* a property test drives ``apriori`` with both counting modes over the
  transactions of random path databases (``shared_mine``'s counters are
  pinned as constants in ``tests/test_miners.py``);
* ``shared_mine_store`` is checked against in-memory ``shared_mine``
  over partitioning × format × δ × pre-count × length bound, with one
  read per partition and the ≤ 1 live-partition gauge;
* the interning and bitmap primitives are unit-tested directly;
* the ``jobs`` keyword the two builders still accept selects nothing
  and fails loudly on bad values; the CLI has no ``--jobs``.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.flowcube import FlowCube
from repro.core.lattice import PathLattice
from repro.core.path_database import PathDatabase
from repro.core.serialization import cube_to_json
from repro.encoding.transactions import TransactionDatabase
from repro.errors import StoreError
from repro.mining import MiningStats, apriori, count_candidates, shared_mine
from repro.perf.bitmap import count_candidates_masks, item_masks
from repro.perf.interning import InternedTransactions, ItemInterner
from repro.store import (
    BuildStats,
    PartitionedPathStore,
    build_cube,
    shared_mine_store,
)
from repro.store.cli import main
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import exception_lists
from tests.test_properties import path_databases

CONFIG = GeneratorConfig(
    n_paths=60,
    n_dims=2,
    dim_fanouts=(2, 3),
    n_sequences=6,
    max_path_length=4,
    max_duration=3,
    seed=7,
)
MIN_SUPPORT = 0.1


@pytest.fixture(scope="module")
def database():
    return generate_path_database(CONFIG)


@pytest.fixture(scope="module")
def store(tmp_path_factory, database):
    s = PartitionedPathStore.init(
        tmp_path_factory.mktemp("wh") / "wh",
        database.schema,
        partition_size=math.ceil(len(database) / 3),
    )
    s.ingest(database)
    return s


# ----------------------------------------------------------------------
# counting parity: apriori's bitmap and scan modes
# ----------------------------------------------------------------------

@given(path_databases(), st.integers(min_value=3, max_value=8))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_bitmap_and_scan_apriori_agree(db, threshold):
    lattice = PathLattice.paper_default(db.schema.location)
    transactions = [
        t.items for t in TransactionDatabase(db, lattice).transactions
    ]
    bitmap_stats, scan_stats = MiningStats(), MiningStats()
    bitmap = apriori(
        transactions, threshold, counting="bitmap", stats=bitmap_stats
    )
    scan = apriori(transactions, threshold, counting="scan", stats=scan_stats)
    assert bitmap == scan
    assert bitmap_stats.counters_equal(scan_stats)


def test_shared_mine_reuses_encoded_database(database):
    tdb = TransactionDatabase(
        database, PathLattice.paper_default(database.schema.location)
    )
    fresh = shared_mine(database, min_support=MIN_SUPPORT)
    reused = shared_mine(
        database, min_support=MIN_SUPPORT, transaction_db=tdb
    )
    again = shared_mine(
        database, min_support=MIN_SUPPORT, transaction_db=tdb
    )
    assert fresh.supports == reused.supports == again.supports
    assert fresh.stats.counters_equal(reused.stats)
    assert reused.stats.counters_equal(again.stats)


# ----------------------------------------------------------------------
# store mining: the resident miner vs in-memory, on every axis
# ----------------------------------------------------------------------

def _assert_same_mining(mined, database, **options):
    """Store result == in-memory ``shared_mine``."""
    reference = shared_mine(database, **options)
    assert mined.supports == reference.supports
    assert mined.threshold == reference.threshold
    assert mined.stats.counters_equal(reference.stats)
    assert list(mined.segments_by_cell().items()) == list(
        reference.segments_by_cell().items()
    )


@given(
    database=path_databases(),
    n_partitions=st.sampled_from([1, 3, 8]),
    min_support=st.one_of(
        st.integers(min_value=3, max_value=8), st.sampled_from([0.15, 0.25])
    ),
    precount_lengths=st.sampled_from([(), (2,), (2, 3)]),
    max_length=st.sampled_from([None, 1, 2]),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_store_mining_equals_in_memory(
    database, n_partitions, min_support, precount_lengths, max_length
):
    options = {
        "min_support": min_support,
        "precount_lengths": precount_lengths,
        "max_length": max_length,
    }
    with tempfile.TemporaryDirectory() as tmp:
        s = PartitionedPathStore.init(
            Path(tmp) / "wh",
            database.schema,
            partition_size=math.ceil(len(database) / n_partitions),
        )
        s.ingest(database)
        build_stats = BuildStats()
        mined = shared_mine_store(s, build_stats=build_stats, **options)
        s.close()
    assert build_stats.scans == build_stats.partitions
    assert build_stats.max_live_transaction_dbs == 1
    _assert_same_mining(mined, database, **options)


def test_store_mining_reads_each_partition_once(store, database, monkeypatch):
    """One encode pass, nothing forked, the in-memory miner's phase buckets."""
    import repro.store.pathstore as pathstore

    reads = []
    read_partition = pathstore.read_partition

    def counting(path, *args, **kwargs):
        reads.append(path.name)
        return read_partition(path, *args, **kwargs)

    monkeypatch.setattr(pathstore, "read_partition", counting)
    build_stats = BuildStats()
    mined = shared_mine_store(
        store, min_support=MIN_SUPPORT, jobs=2, build_stats=build_stats
    )
    assert reads == [meta.filename for meta in store.catalog.partitions]
    assert build_stats.scans == len(reads) == 3
    assert build_stats.max_live_transaction_dbs == 1
    # ``jobs`` is validated but spawns nothing: no pool ran.
    assert build_stats.pool == {}
    reference = shared_mine(database, min_support=MIN_SUPPORT)
    assert (
        set(build_stats.phase_seconds)
        == set(mined.stats.phase_seconds)
        == set(reference.stats.phase_seconds)
        == {"encode", "precount", "count", "join", "prune"}
    )


@pytest.mark.parametrize("n_records", [0, 1])
def test_store_mining_on_degenerate_stores(tmp_path, database, n_records):
    tiny = PathDatabase(database.schema, database.records[:n_records])
    s = PartitionedPathStore.init(tmp_path / "wh", tiny.schema)
    s.ingest(tiny)
    build_stats = BuildStats()
    mined = shared_mine_store(s, min_support=1, build_stats=build_stats)
    assert build_stats.scans == n_records
    assert build_stats.max_live_transaction_dbs == n_records
    assert bool(mined.supports) == bool(n_records)
    _assert_same_mining(mined, tiny, min_support=1)


def test_build_cube_equals_the_in_memory_reference(store, database):
    reference = FlowCube.build(
        database, min_support=MIN_SUPPORT, engine="direct"
    )
    stats = BuildStats()
    built = build_cube(store, min_support=MIN_SUPPORT, stats=stats)
    assert stats.max_live_transaction_dbs == 1
    assert cube_to_json(built) == cube_to_json(reference)
    assert exception_lists(built) == exception_lists(reference)
    twins = {(c.item_level, c.path_level): c for c in reference.cuboids}
    assert len(twins) == len(built.cuboids)
    for cuboid in built.cuboids:
        twin = twins[(cuboid.item_level, cuboid.path_level)]
        assert set(cuboid.cells) == set(twin.cells)
        for key, cell in cuboid.cells.items():
            assert cell.record_ids == twin.cells[key].record_ids
            assert dict(cell.paths) == dict(twin.cells[key].paths)


def test_use_shared_build_matches_premined_segments(store):
    """``use_shared`` is the pre-mine plus the build, nothing else."""
    premined = build_cube(
        store,
        min_support=MIN_SUPPORT,
        segments_by_cell=shared_mine_store(
            store, min_support=MIN_SUPPORT
        ).segments_by_cell(),
    )
    stats = BuildStats()
    shared = build_cube(
        store, min_support=MIN_SUPPORT, use_shared=True, stats=stats
    )
    assert cube_to_json(shared) == cube_to_json(premined)
    assert exception_lists(shared) == exception_lists(premined)
    assert stats.max_live_transaction_dbs == 1


# ----------------------------------------------------------------------
# interning + bitmap primitives
# ----------------------------------------------------------------------

def test_interner_round_trip_and_canonical_order():
    interner = ItemInterner(sort_key=lambda s: s)
    row = interner.encode(["pear", "apple", "mango"])
    assert [interner.items[i] for i in row] == ["apple", "mango", "pear"]
    assert interner.id_of("apple") == interner.intern("apple")
    assert interner.key_of(interner.id_of("pear")) == "pear"
    assert interner.decode(row) == frozenset({"apple", "mango", "pear"})


def test_interned_transactions_track_base_alphabet():
    interned = InternedTransactions.from_transactions(
        [{"a", "b"}, {"b", "c"}], sort_key=lambda s: s
    )
    assert interned.n_base == 3
    interned.interner.intern("projection-only")
    # Extending the interner must not move the row/mask boundary.
    assert interned.n_base == 3
    assert len(interned.interner) == 4


def test_bitmap_mask_counting_matches_scan_counting():
    rows = [(0, 1), (1, 2), (0, 1, 2), (2,)]
    masks = item_masks(rows, 3)
    assert [m.bit_count() for m in masks] == [2, 3, 3]
    transactions = [frozenset(row) for row in rows]
    candidates = [(0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 7)]
    by_mask = count_candidates_masks(transactions, candidates)
    by_scan = count_candidates(transactions, candidates)
    assert by_mask == by_scan
    assert (0, 7) not in by_mask  # zero support -> absent, like the scan


# ----------------------------------------------------------------------
# jobs validation and the CLI flag
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [-1, 1.5, True])
def test_store_entry_points_reject_bad_jobs(store, jobs):
    with pytest.raises(StoreError):
        shared_mine_store(store, min_support=MIN_SUPPORT, jobs=jobs)
    with pytest.raises(StoreError):
        build_cube(store, min_support=MIN_SUPPORT, jobs=jobs)


def test_jobs_zero_builds_the_serial_cube(store):
    """``jobs=0`` resolves to nothing: it is accepted and ignored."""
    result = shared_mine_store(store, min_support=MIN_SUPPORT, jobs=0)
    reference = shared_mine_store(store, min_support=MIN_SUPPORT)
    assert result.supports == reference.supports
    assert cube_to_json(
        build_cube(store, min_support=MIN_SUPPORT, jobs=0)
    ) == cube_to_json(build_cube(store, min_support=MIN_SUPPORT))


def test_cli_build_jobs_flag(tmp_path, capsys):
    target = str(tmp_path / "wh")
    assert main([
        "init", target, "--synthetic", "--n-dims", "2", "--fanouts", "2,3",
        "--n-location-groups", "3", "--locations-per-group", "2",
        "--max-duration", "3", "--partition-size", "25",
    ]) == 0
    assert main([
        "ingest", target, "--synthetic", "--n-paths", "50", "--seed", "3",
    ]) == 0
    assert main([
        "build", target, "--min-support", "0.2", "--no-exceptions",
    ]) == 0
    capsys.readouterr()
    # The flag is gone from both write verbs: argparse's own rejection.
    for verb in (
        ["build", target, "--min-support", "0.2", "--no-exceptions"],
        ["append", target, "--synthetic", "--n-paths", "5"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([*verb, "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
