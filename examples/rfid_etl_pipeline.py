"""The Section 2 pipeline: raw RFID readings → cleaned paths → flowcube.

Real deployments don't start from a path database — they start from a
stream of noisy (EPC, location, time) reads.  This example simulates such a
stream for a known ground truth, cleans it (dedup + sessionise into stays),
joins item master data, and verifies the flowcube built on the recovered
paths matches the one built on the truth.

Run:  python examples/rfid_etl_pipeline.py
"""

import tempfile
from pathlib import Path

from repro.core import FlowCube, kl_similarity
from repro.query import FlowCubeQuery, render_text
from repro.store import PartitionedPathStore, append_records, build_cube
from repro.synth import GeneratorConfig, generate_path_database
from repro.warehouse import (
    ReaderModel,
    build_path_database,
    round_durations,
    simulate_readings,
)


def main() -> None:
    # Ground truth: a small synthetic operation.
    truth = generate_path_database(
        GeneratorConfig(
            n_paths=400,
            n_dims=2,
            dim_fanouts=(3, 3, 3),
            n_sequences=10,
            max_duration=8,
            seed=99,
        )
    )
    print(f"Ground truth: {truth.describe()}")

    # Simulate the reader infrastructure: half-hour read period, clock
    # jitter, 3% missed reads, 5% duplicate reports.
    model = ReaderModel(
        read_period=0.5, jitter=0.05, miss_rate=0.03, duplicate_rate=0.05, seed=4
    )
    readings = list(simulate_readings(truth, model))
    print(f"Simulated {len(readings)} raw (EPC, location, time) readings")

    # Clean + ETL: sessionise stays, round durations to whole hours, join
    # the item master.
    master = {f"epc-{record.record_id}": record.dims for record in truth}
    ids = {f"epc-{record.record_id}": record.record_id for record in truth}
    recovered = build_path_database(
        readings,
        master,
        truth.schema,
        duration_reducer=round_durations(1.0),
        record_ids=ids,
    )
    print(f"Recovered:    {recovered.describe()}")

    matched = sum(
        1
        for original in truth
        if original.path.locations == recovered[original.record_id].path.locations
    )
    print(f"Location sequences recovered exactly: {matched}/{len(truth)}")

    # Flowcubes over truth and recovered data should be nearly identical.
    truth_cube = FlowCube.build(truth, min_support=0.02, compute_exceptions=False)
    recovered_cube = FlowCube.build(
        recovered, min_support=0.02, compute_exceptions=False
    )
    truth_graph = FlowCubeQuery(truth_cube).flowgraph()
    recovered_graph = FlowCubeQuery(recovered_cube).flowgraph()
    similarity = kl_similarity(truth_graph, recovered_graph)
    print(f"Apex flowgraph similarity (truth vs recovered): {similarity:.3f}")

    print("\n--- Recovered apex flowgraph (first branch) ---")
    text = render_text(recovered_graph, show_exceptions=False)
    print("\n".join(text.splitlines()[:12]))

    # In production the cleaned paths land in a partitioned on-disk store
    # and the persisted cube is maintained incrementally as batches arrive.
    print("\n--- Warehouse: partitioned store + incremental append ---")
    rows = sorted(recovered, key=lambda record: record.record_id)
    with tempfile.TemporaryDirectory() as tmp:
        store = PartitionedPathStore.init(
            Path(tmp) / "warehouse", truth.schema, partition_size=100
        )
        store.ingest(rows[:300])
        with build_cube(
            store, min_support=0.02, compute_exceptions=False,
            into=store.cube_store(),
        ) as cube:
            print(
                f"Initial load: {len(store)} records in "
                f"{len(store.catalog.partitions)} partitions, "
                f"{cube.n_cells()} iceberg cells"
            )
            # The next ETL batch: persisted as a new partition AND folded
            # into the cube as a delta segment (Lemma 4.2 — only touched
            # cells are rewritten).
            delta = append_records(store, rows[300:], cube=cube)
        print(
            f"Appended {delta['ingested']} records "
            f"({delta['partitions']} new partition(s)); cube cells "
            f"updated={delta['updated']} created={delta['created']}"
        )
        # Serve the appended cube through the bounded LRU cache: the
        # repeat read never touches disk.
        with store.cube_store(cache_size=32) as served:
            query = FlowCubeQuery(served)
            query.flowgraph()
            query.flowgraph()
            stats = served.cache_stats()
        print(
            f"Cube store cache after repeated query: "
            f"hits={stats['hits']} misses={stats['misses']}"
        )


if __name__ == "__main__":
    main()
