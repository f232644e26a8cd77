"""Tests for the warehouse substrate: simulation, cleaning, ETL (Section 2)."""

import pytest

from repro.core import RawReading
from repro.core.stage import StageRecord
from repro.errors import CleaningError, GenerationError
from repro.warehouse import (
    ReaderModel,
    build_path_database,
    clean_readings,
    group_by_item,
    round_durations,
    sessionise,
    simulate_readings,
)


class TestSimulator:
    def test_stream_covers_every_stage(self, paper_db):
        readings = list(simulate_readings(paper_db))
        by_item = group_by_item(readings)
        assert len(by_item) == len(paper_db)
        for record in paper_db:
            reads = by_item[f"epc-{record.record_id}"]
            seen_locations = []
            for reading in reads:
                if not seen_locations or seen_locations[-1] != reading.location:
                    seen_locations.append(reading.location)
            assert tuple(seen_locations) == record.path.locations

    def test_deterministic(self, paper_db):
        a = list(simulate_readings(paper_db))
        b = list(simulate_readings(paper_db))
        assert a == b

    def test_noise_model_validation(self):
        with pytest.raises(GenerationError):
            ReaderModel(read_period=0)
        with pytest.raises(GenerationError):
            ReaderModel(miss_rate=1.5)
        with pytest.raises(GenerationError):
            ReaderModel(duplicate_rate=-0.1)

    def test_duplicates_produced(self, paper_db):
        noisy = ReaderModel(duplicate_rate=0.9, miss_rate=0.0, seed=1)
        readings = list(simulate_readings(paper_db, noisy))
        clean = list(simulate_readings(paper_db, ReaderModel(duplicate_rate=0.0,
                                                             miss_rate=0.0, seed=1)))
        assert len(readings) > len(clean)


class TestSessionise:
    def test_basic_stays(self):
        reads = [
            RawReading("e", 0.0, "a"),
            RawReading("e", 1.0, "a"),
            RawReading("e", 2.0, "b"),
            RawReading("e", 5.0, "b"),
        ]
        stays = sessionise(reads)
        assert stays == [StageRecord("a", 0.0, 1.0), StageRecord("b", 2.0, 5.0)]

    def test_return_visit_creates_new_stay(self):
        reads = [
            RawReading("e", 0.0, "a"),
            RawReading("e", 1.0, "b"),
            RawReading("e", 2.0, "a"),
        ]
        stays = sessionise(reads)
        assert [s.location for s in stays] == ["a", "b", "a"]

    def test_gap_threshold_splits(self):
        reads = [
            RawReading("e", 0.0, "a"),
            RawReading("e", 1.0, "a"),
            RawReading("e", 50.0, "a"),
        ]
        assert len(sessionise(reads)) == 1
        assert len(sessionise(reads, gap_threshold=10.0)) == 2

    def test_rejects_mixed_items(self):
        reads = [RawReading("e1", 0.0, "a"), RawReading("e2", 1.0, "a")]
        with pytest.raises(CleaningError, match="single item"):
            sessionise(reads)

    def test_rejects_unsorted(self):
        reads = [RawReading("e", 5.0, "a"), RawReading("e", 1.0, "a")]
        with pytest.raises(CleaningError, match="sorted"):
            sessionise(reads)

    def test_empty(self):
        assert sessionise([]) == []


class TestCleanReadings:
    def test_orders_by_epc(self):
        reads = [
            RawReading("z", 0.0, "a"),
            RawReading("a", 0.0, "b"),
        ]
        cleaned = list(clean_readings(reads))
        assert [epc for epc, _ in cleaned] == ["a", "z"]

    def test_unsorted_input_ok(self):
        reads = [
            RawReading("e", 5.0, "b"),
            RawReading("e", 0.0, "a"),
            RawReading("e", 2.0, "a"),
        ]
        (_, stays), = clean_readings(reads)
        assert [s.location for s in stays] == ["a", "b"]


class TestRoundTrip:
    def test_simulate_clean_etl_recovers_paths(self, paper_db):
        """The full §2 pipeline recovers every ground-truth path."""
        readings = simulate_readings(paper_db)
        master = {
            f"epc-{r.record_id}": r.dims for r in paper_db
        }
        rebuilt = build_path_database(
            readings,
            master,
            paper_db.schema,
            duration_reducer=round_durations(1.0),
        )
        assert len(rebuilt) == len(paper_db)
        recovered = {
            (record.dims, record.path.locations) for record in rebuilt
        }
        truth = {(record.dims, record.path.locations) for record in paper_db}
        assert recovered == truth

    def test_durations_recovered_within_rounding(self, paper_db):
        readings = simulate_readings(paper_db)
        master = {f"epc-{r.record_id}": r.dims for r in paper_db}
        rebuilt = build_path_database(
            readings, master, paper_db.schema,
            duration_reducer=round_durations(1.0),
        )
        # Align by sorted EPC = record id order in the paper db.
        truth = {r.record_id: r for r in paper_db}
        for record in rebuilt:
            original = truth[record.record_id]
            for rebuilt_stage, true_stage in zip(record.path, original.path):
                # Zero-duration stages round up to 1 unit; others match.
                expected = max(1.0, true_stage.duration)
                assert rebuilt_stage.duration == pytest.approx(expected, abs=1.0)

    def test_record_ids_mapping_preserves_alignment(self, paper_db):
        readings = simulate_readings(paper_db)
        master = {f"epc-{r.record_id}": r.dims for r in paper_db}
        ids = {f"epc-{r.record_id}": r.record_id for r in paper_db}
        rebuilt = build_path_database(
            readings, master, paper_db.schema, record_ids=ids
        )
        for record in paper_db:
            assert rebuilt[record.record_id].dims == record.dims
            assert (
                rebuilt[record.record_id].path.locations
                == record.path.locations
            )

    def test_record_ids_missing_epc_raises(self, paper_db):
        readings = simulate_readings(paper_db)
        master = {f"epc-{r.record_id}": r.dims for r in paper_db}
        with pytest.raises(CleaningError, match="no record id"):
            build_path_database(
                readings, master, paper_db.schema, record_ids={}
            )

    def test_zero_gap_rejected(self, paper_db):
        with pytest.raises(GenerationError, match="inter_stage_gap"):
            list(simulate_readings(paper_db, inter_stage_gap=0.0))

    def test_missing_master_data_raises(self, paper_db):
        readings = simulate_readings(paper_db)
        with pytest.raises(CleaningError, match="master data"):
            build_path_database(readings, {}, paper_db.schema)

    def test_round_durations_validation(self):
        with pytest.raises(CleaningError):
            round_durations(0)
        reducer = round_durations(2.0)
        assert reducer(3.2) == 4.0
        assert reducer(0.0) == 2.0
