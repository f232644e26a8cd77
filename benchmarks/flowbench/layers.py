"""The traced run: where each end-to-end stage's time and bytes go.

One pass of the lifecycle runs untraced (the reference stage times),
then the same pass runs with :mod:`tracing` installed; self times per
layer come from the traced pass, and ``trace.overhead_ratio`` is traced
÷ untraced over all stages.  The serve spans come from driving
``SlicerApp.handle(Request)`` in-process on the request sequence the
socket run uses; socket cost is the socket latency minus that.  Counters
the program already exposes (``BuildStats``, ``MiningStats``,
``io_counters``, ``cache_stats``, ``CubeTenant.stats``, the
``append_records`` result) are read as they are.

Every name in :data:`PER_LAYER` is reported for every workload; a layer
a workload does not exercise reads 0 there, which is itself the point
(``exception_kernel.*`` must be 0 wherever ``exceptions`` is off).
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from repro.mining import shared_mine
from repro.serve import Request, create_app
from repro.store import (
    BuildStats,
    PartitionedPathStore,
    append_records,
)
from repro.synth import generate_path_database

from benchmarks.flowbench import WORK, stages
from benchmarks.flowbench.tracing import Tracer
from benchmarks.flowbench.workloads import population_config

#: ``(name, unit, better, end-to-end metric it should move)``.
PER_LAYER = [
    ("synth.generate_s", "s", "lower", "setup_s"),
    # ingest
    ("pathstore.ingest_s", "s", "lower", "ingest_s"),
    ("binfmt.pack_partition_s", "s", "lower", "ingest_s"),
    ("partition.summarise_s", "s", "lower", "ingest_s"),
    ("binfmt.strings_s", "s", "lower", "ingest_s"),
    ("ingest.unattributed_s", "s", "lower", "ingest_s"),
    # build: partition reads and Algorithm 1
    ("pathstore.load_partition_s", "s", "lower", "build_s"),
    ("binfmt.unpack_partition_s", "s", "lower", "build_s"),
    ("builder.scans", "count", "lower", "build_s"),
    ("transactions.encode_s", "s", "lower", "build_s"),
    ("mining.total_s", "s", "lower", "build_s"),
    ("mining.count_s", "s", "lower", "build_s"),
    ("mining.join_s", "s", "lower", "build_s"),
    ("mining.prune_s", "s", "lower", "build_s"),
    ("mining.candidates_counted", "count", "lower", "build_s"),
    ("bitmap.count_candidates_s", "s", "lower", "build_s"),
    ("mining.segments_by_cell_s", "s", "lower", "build_s"),
    ("mining.store_vs_memory_ratio", "ratio", "lower", "build_s"),
    ("mining.unattributed_s", "s", "lower", "build_s"),
    # build: the algebraic measure
    ("rollup.scan_records_s", "s", "lower", "build_s"),
    ("rollup.merge_scan_s", "s", "lower", "build_s"),
    ("builder.aggregate_s", "s", "lower", "build_s"),
    ("rollup.derive_levels_s", "s", "lower", "build_s"),
    ("rollup.prune_to_iceberg_s", "s", "lower", "build_s"),
    ("rollup.assemble_cuboids_s", "s", "lower", "build_s"),
    ("flowgraph.merge_s", "s", "lower", "build_s"),
    ("flowgraph.merge_calls", "count", "lower", "build_s"),
    ("builder.materialize_s", "s", "lower", "build_s"),
    # build: the holistic measure
    ("exception_kernel.cell_index_s", "s", "lower", "build_s"),
    ("exception_kernel.mine_segments_s", "s", "lower", "build_s"),
    ("exception_kernel.mine_exceptions_s", "s", "lower", "build_s"),
    ("exception_kernel.cells", "count", "lower", "build_s"),
    ("builder.exceptions_s", "s", "lower", "build_s"),
    # build: storage
    ("binfmt.encode_cell_s", "s", "lower", "build_s"),
    ("binfmt.encode_cell_bytes", "B", "lower", "store_bytes_per_record"),
    ("binfmt.pack_cell_index_s", "s", "lower", "build_s"),
    ("cube_store.put_cuboid_s", "s", "lower", "build_s"),
    ("cube_store.flush_s", "s", "lower", "build_s"),
    ("builder.unattributed_s", "s", "lower", "build_s"),
    ("runtime.gc_build_s", "s", "lower", "build_s"),
    # build: the jobs=2 question (one extra untraced build)
    ("pool.jobs2_build_s", "s", "lower", "build_s"),
    ("pool.spawn_s", "s", "lower", "build_s"),
    ("pool.busy_s", "s", "lower", "build_s"),
    ("pool.speedup_vs_serial", "ratio", "higher", "build_s"),
    # mount
    ("cube_store.open_ms", "ms", "lower", "mount_ms"),
    ("cube_store.open_heap_bytes", "B", "lower", "mount_ms"),
    ("binfmt.unpack_cell_index_ms", "ms", "lower", "mount_ms"),
    ("tenant.mount_ms", "ms", "lower", "mount_ms"),
    ("mount.unattributed_ms", "ms", "lower", "mount_ms"),
    # miss round
    ("cuts.parse_cut_us", "us", "lower", "miss_round_s"),
    ("query_kernel.catalog_build_ms", "ms", "lower", "miss_round_s"),
    ("query_kernel.match_mask_ms", "ms", "lower", "miss_round_s"),
    ("query_kernel.mask_bits_decoded", "count", "lower", "miss_round_s"),
    ("tenant.catalog_pool_builds", "count", "lower", "miss_round_s"),
    ("cube_store.cell_read_ms", "ms", "lower", "miss_round_s"),
    ("binfmt.decode_cell_s", "s", "lower", "miss_round_s"),
    ("cube_store.heap_bytes_read", "B", "lower", "miss_round_s"),
    ("cube_store.heap_read_fraction", "ratio", "lower", "miss_round_s"),
    ("cube_store.cell_cache_hit_rate", "ratio", "higher", "miss_round_s"),
    ("query.slice_cells_ms", "ms", "lower", "miss_round_s"),
    ("app.slice_payload_ms", "ms", "lower", "miss_round_s"),
    ("http.encode_json_ms", "ms", "lower", "miss_round_s"),
    ("serve.response_bytes_p50", "B", "lower", "miss_round_s"),
    ("app.handle_miss_ms", "ms", "lower", "miss_round_s"),
    ("serve.miss_round_wall_s", "s", "lower", "miss_round_s"),
    ("serve.miss_p50_ms", "ms", "lower", "miss_round_s"),
    ("serve.miss_level1_ms", "ms", "lower", "miss_round_s"),
    ("http.socket_overhead_miss_ms", "ms", "lower", "miss_round_s"),
    ("runtime.gc_miss_ms", "ms", "lower", "miss_round_s"),
    ("miss.unattributed_ms", "ms", "lower", "miss_round_s"),
    # hot windows
    ("app.handle_hot_us", "us", "lower", "hot_p50_ms"),
    ("tenant.response_cache_hit_rate", "ratio", "higher", "hot_p50_ms"),
    ("http.socket_overhead_hot_us", "us", "lower", "hot_p50_ms"),
    ("serve.hot_p95_ms", "ms", "lower", "hot_p50_ms"),
    ("serve.hot_rps", "1/s", "higher", "hot_p50_ms"),
    # append
    ("pathstore.append_s", "s", "lower", "append_s"),
    ("cube_store.begin_delta_s", "s", "lower", "append_s"),
    ("cube_store.merge_cells_s", "s", "lower", "append_s"),
    ("append.flowgraph_merge_s", "s", "lower", "append_s"),
    ("append.load_partition_s", "s", "lower", "append_s"),
    ("append.exceptions_s", "s", "lower", "append_s"),
    ("append.encode_cell_s", "s", "lower", "append_s"),
    ("append.cells_updated", "count", "lower", "append_s"),
    ("append.delta_bytes_per_batch_byte", "ratio", "lower", "append_s"),
    ("append.unattributed_s", "s", "lower", "append_s"),
    # read after append, compaction
    ("cube_store.reload_ms", "ms", "lower", "read_after_append_s"),
    ("tenant.invalidations", "count", "lower", "read_after_append_s"),
    ("churn.first_read_ms", "ms", "lower", "read_after_append_s"),
    ("cube_store.delta_segments", "count", "lower", "read_after_append_s"),
    ("cube_store.compact_bytes_rewritten", "B", "lower", "compact_s"),
    ("churn.read_after_compact_s", "s", "lower", "compact_s"),
    # the host and the instrument
    ("host.calib_spin_ms", "ms", "lower", "-"),
    ("trace.overhead_ratio", "ratio", "lower", "-"),
]

#: In-process hot replay length, and the socket hot window it is set against.
HOT_REQUESTS = 2000
SOCKET_HOT_SECONDS = 1.0


def slice_request(tenant: str, cut: str) -> Request:
    return Request(
        method="POST",
        path=f"/cubes/{tenant}/slice",
        query={},
        headers={"content-type": "application/json"},
        body=json.dumps({"cut": cut}).encode(),
    )


class Pass:
    """One run of every stage, untraced (``tracer=None``) or traced."""

    def __init__(self, workload, inputs, workdir: Path, tracer, tally):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = tracer
        self.tally = tally
        self.seconds: dict[str, float] = {}
        self.gc_seconds: dict[str, float] = {}
        self.roots: dict[str, int] = {}
        self.facts: dict = {}

    @contextmanager
    def stage(self, name: str):
        """Time a stage (and the collector inside it); under a tracer also
        open its root span."""
        collected = [0.0, 0.0]

        def on_gc(phase, info):
            if phase == "start":
                collected[1] = time.perf_counter()
            else:
                collected[0] += time.perf_counter() - collected[1]

        gc.callbacks.append(on_gc)
        try:
            if self.tracer is None:
                started = time.perf_counter()
                yield
                self.seconds[name] = time.perf_counter() - started
            else:
                self.tracer.run_id = f"{self.workload.name}:{name}"
                with self.tracer.span(f"stage:{name}") as root:
                    yield
                self.roots[name] = root
                _, start, stop, _, _ = self.tracer.spans[root]
                self.seconds[name] = stop - start
        finally:
            gc.callbacks.remove(on_gc)
        self.gc_seconds[name] = collected[0]

    def handle(self, app, tenant: str, cuts) -> tuple[list[float], list[int]]:
        """Drive ``SlicerApp.handle`` over *cuts* → seconds and body sizes."""
        latencies, sizes = [], []
        for cut in cuts:
            request = slice_request(tenant, cut)
            started = time.perf_counter()
            response = app.handle(request)
            latencies.append(time.perf_counter() - started)
            sizes.append(len(response.body))
            self.tally.check(
                response.status == 200,
                f"in-process slice {cut} -> {response.status}",
            )
        return latencies, sizes

    def run(self) -> "Pass":
        workload, inputs, facts = self.workload, self.inputs, self.facts
        directory = self.workdir / "layers"
        shutil.rmtree(directory, ignore_errors=True)

        with self.stage("setup"):
            generate_path_database(
                population_config(workload, len(inputs.database))
            )

        with self.stage("ingest"):
            store = stages.ingest(inputs.database, directory)
        stats = BuildStats()
        with self.stage("build"):
            cube, mined = stages.build(workload, store, stats)
        facts["build_stats"] = stats
        facts["mining_stats"] = mined.stats if mined is not None else None
        facts["heap_bytes"] = (directory / "cube" / "cells.bin").stat().st_size
        cube.close()
        store.close()

        with self.stage("mount"):
            app = create_app({"wh": directory})
        tenant = app.tenants["wh"]
        facts["open_heap_bytes"] = tenant.cube_store.io_counters()[
            "heap_bytes_read"
        ]
        with self.stage("miss"):
            facts["miss_s"], facts["miss_bytes"] = self.handle(
                app, "wh", inputs.rotation
            )
        facts["io"] = tenant.cube_store.io_counters()
        facts["cell_cache"] = tenant.cube_store.cache_stats()
        facts["catalog_pool"] = tenant.catalogs.stats()
        before = tenant.stats()["response_cache"]
        hot = [
            inputs.hot[i % len(inputs.hot)] for i in range(HOT_REQUESTS)
        ]
        with self.stage("hot"):
            self.handle(app, "wh", hot)
        after = tenant.stats()["response_cache"]
        facts["hot_hit_rate"] = (after["hits"] - before["hits"]) / HOT_REQUESTS
        tenant.close()

        copy = self.workdir / "layers-churn"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(directory, copy)
        partitions = copy / "partitions"
        before_bytes = stages.disk_bytes(partitions)
        app = create_app({"churn": copy})
        tenant = app.tenants["churn"]
        store = PartitionedPathStore.open(copy)
        cube = store.cube_store()
        with self.stage("append"):
            facts["append"] = append_records(
                store, inputs.batches[0], cube=cube, compact_after=0
            )
        with self.stage("read"):
            reads, _ = self.handle(app, "churn", inputs.reads)
        facts["first_read_s"] = reads[0]
        facts["batch_bytes"] = stages.disk_bytes(partitions) - before_bytes
        facts["delta_bytes"] = sum(
            f.stat().st_size for f in (copy / "cube").glob("cells.delta.*")
        )
        facts["delta_segments"] = len(cube.delta_segments)
        facts["invalidations"] = tenant.invalidations
        with self.stage("compact"):
            cube.compact()
        facts["compact_bytes"] = (copy / "cube" / "cells.bin").stat().st_size
        with self.stage("read_after_compact"):
            self.handle(app, "churn", inputs.reads)
        cube.close()
        store.close()
        tenant.close()
        shutil.rmtree(copy, ignore_errors=True)
        self.directory = directory
        return self


def socket_pass(server, inputs, directory, tally) -> dict:
    """One socket miss round + hot window on the same store (untraced)."""
    conn = server.connect()
    try:
        round_ = stages.miss_round(conn, inputs, directory, tally)
        hot = stages.hot_window(conn, inputs, tally, seconds=SOCKET_HOT_SECONDS)
        stages.unmount(conn, "wh")
    finally:
        conn.close()
    level1 = [
        seconds for cut, seconds in zip(inputs.rotation, round_["miss_s"])
        if cut in inputs.level1
    ]
    return {"miss_s": round_["miss_s"], "level1_s": level1, "hot_s": hot}


def extras(workload, inputs, workdir: Path) -> dict:
    """The two ROADMAP questions that need a run of their own (untraced)."""
    out = {"mine_memory_s": 0.0}
    if workload.exceptions:
        started = time.perf_counter()
        shared_mine(
            inputs.database,
            min_support=workload.min_support(len(inputs.database)),
        )
        out["mine_memory_s"] = time.perf_counter() - started
    directory = workdir / "layers-jobs2"
    jobs2 = []
    for _ in range(2):  # best of two: the ratio below is a single number
        shutil.rmtree(directory, ignore_errors=True)
        store = stages.ingest(inputs.database, directory)
        stats = BuildStats()
        started = time.perf_counter()
        cube, _ = stages.build(workload, store, stats, jobs=2)
        jobs2.append(time.perf_counter() - started)
        cube.close()
        store.close()
    shutil.rmtree(directory, ignore_errors=True)
    out["jobs2_build_s"] = min(jobs2)
    out["pool"] = stats.pool
    return out


def stage_tables(tracer: Tracer, traced: Pass, plain: Pass) -> dict:
    """Per stage: self seconds per layer, calls, and the unattributed rest."""
    tables = {}
    for name, root in traced.roots.items():
        self_s, calls, rest = tracer.stage_table(root)
        tables[name] = {
            "self_s": self_s,
            "calls": calls,
            "unattributed_s": rest,
            "traced_s": traced.seconds[name],
            "untraced_s": plain.seconds[name],
        }
    return tables


def print_stage_tables(workload, tables: dict) -> None:
    for name, table in tables.items():
        print(
            f"\n[{workload.name}] stage {name}: traced {table['traced_s']:.4f} s, "
            f"untraced {table['untraced_s']:.4f} s"
        )
        rows = sorted(table["self_s"].items(), key=lambda row: -row[1])
        for layer, seconds in rows:
            print(
                f"  {layer:<36} {seconds:>10.4f} s  "
                f"{table['calls'][layer]:>8} calls"
            )
        print(f"  {name + '.unattributed':<36} {table['unattributed_s']:>10.4f} s")
        total = sum(table["self_s"].values()) + table["unattributed_s"]
        print(f"  {'sum of rows':<36} {total:>10.4f} s")


def per_layer(workload, tables, traced: Pass, plain: Pass, sock, extra) -> dict:
    """Every :data:`PER_LAYER` value from the tables and the counters."""
    median = statistics.median

    def self_s(stage: str, layer: str) -> float:
        return tables[stage]["self_s"].get(layer, 0.0)

    def calls(stage: str, layer: str) -> int:
        return tables[stage]["calls"].get(layer, 0)

    facts, stats = traced.facts, traced.facts["build_stats"]
    mining = facts["mining_stats"]
    phases = stats.phase_seconds
    mine_phases = mining.phase_seconds if mining else {}
    build = tables["build"]
    # Orchestration inside the two builder entry points is not a layer of
    # its own: it is what the builder rows leave unattributed.
    builder_rest = build["unattributed_s"] + self_s("build", "builder.build_cube")
    parse_calls = max(1, calls("miss", "cuts.parse_cut"))
    pool = extra["pool"]
    hot_handle_us = plain.seconds["hot"] / HOT_REQUESTS * 1e6
    values = {
        "synth.generate_s": plain.seconds["setup"],
        "pathstore.ingest_s": self_s("ingest", "pathstore.ingest"),
        "binfmt.pack_partition_s": self_s("ingest", "binfmt.pack_partition"),
        "partition.summarise_s": self_s("ingest", "partition.summarise"),
        "binfmt.strings_s": self_s("ingest", "binfmt.strings"),
        "ingest.unattributed_s": tables["ingest"]["unattributed_s"],
        "pathstore.load_partition_s": self_s("build", "pathstore.load_partition"),
        "binfmt.unpack_partition_s": self_s("build", "binfmt.unpack_partition"),
        "builder.scans": stats.scans,
        "transactions.encode_s": self_s("build", "transactions.encode"),
        "mining.total_s": mining.elapsed_seconds if mining else 0.0,
        "mining.count_s": mine_phases.get("count", 0.0),
        "mining.join_s": mine_phases.get("join", 0.0),
        "mining.prune_s": mine_phases.get("prune", 0.0),
        "mining.candidates_counted": mining.total_candidates if mining else 0,
        "bitmap.count_candidates_s": self_s("build", "bitmap.count_candidates"),
        "mining.segments_by_cell_s": self_s("build", "mining.segments_by_cell"),
        "mining.store_vs_memory_ratio": (
            plain.facts["mining_stats"].elapsed_seconds / extra["mine_memory_s"]
            if mining
            else 0.0
        ),
        "mining.unattributed_s": self_s("build", "builder.shared_mine_store"),
        "rollup.scan_records_s": self_s("build", "rollup.scan_records"),
        "rollup.merge_scan_s": self_s("build", "rollup.merge_scan"),
        "builder.aggregate_s": phases.get("aggregate", 0.0),
        "rollup.derive_levels_s": self_s("build", "rollup.derive_levels"),
        "rollup.prune_to_iceberg_s": self_s("build", "rollup.prune_to_iceberg"),
        "rollup.assemble_cuboids_s": self_s("build", "rollup.assemble_cuboids"),
        "flowgraph.merge_s": self_s("build", "flowgraph.merge"),
        "flowgraph.merge_calls": calls("build", "flowgraph.merge"),
        "builder.materialize_s": phases.get("materialize", 0.0),
        "exception_kernel.cell_index_s": self_s(
            "build", "exception_kernel.cell_index"
        ),
        "exception_kernel.mine_segments_s": self_s(
            "build", "exception_kernel.mine_segments"
        ),
        "exception_kernel.mine_exceptions_s": self_s(
            "build", "exception_kernel.mine_exceptions"
        ),
        "exception_kernel.cells": calls("build", "exception_kernel.mine_exceptions"),
        "builder.exceptions_s": phases.get("exceptions", 0.0),
        "binfmt.encode_cell_s": self_s("build", "binfmt.encode_cell"),
        "binfmt.encode_cell_bytes": facts["heap_bytes"],
        "binfmt.pack_cell_index_s": self_s("build", "binfmt.pack_cell_index"),
        "cube_store.put_cuboid_s": self_s("build", "cube_store.put_cuboid"),
        "cube_store.flush_s": self_s("build", "cube_store.flush"),
        "builder.unattributed_s": builder_rest,
        "pool.jobs2_build_s": extra["jobs2_build_s"],
        "pool.spawn_s": pool.get("spawn_seconds", 0.0),
        "pool.busy_s": pool.get("worker_busy_seconds", 0.0),
        "pool.speedup_vs_serial": min(
            plain.seconds["build"], traced.seconds["build"]
        )
        / extra["jobs2_build_s"],
        "cube_store.open_ms": self_s("mount", "cube_store.open") * 1e3,
        "cube_store.open_heap_bytes": facts["open_heap_bytes"],
        "binfmt.unpack_cell_index_ms": self_s("mount", "binfmt.unpack_cell_index")
        * 1e3,
        "tenant.mount_ms": self_s("mount", "tenant.mount") * 1e3,
        "mount.unattributed_ms": tables["mount"]["unattributed_s"] * 1e3,
        "cuts.parse_cut_us": self_s("miss", "cuts.parse_cut") / parse_calls * 1e6,
        "query_kernel.catalog_build_ms": self_s("miss", "query_kernel.catalog_build")
        * 1e3,
        "query_kernel.match_mask_ms": self_s("miss", "query_kernel.match_mask")
        * 1e3,
        "query_kernel.mask_bits_decoded": facts["io"]["mask_bits_decoded"],
        "tenant.catalog_pool_builds": facts["catalog_pool"]["builds"],
        "cube_store.cell_read_ms": self_s("miss", "cube_store.cell_read") * 1e3,
        "binfmt.decode_cell_s": self_s("miss", "binfmt.decode_cell"),
        "cube_store.heap_bytes_read": facts["io"]["heap_bytes_read"],
        "cube_store.heap_read_fraction": facts["io"]["heap_bytes_read"]
        / facts["heap_bytes"],
        "cube_store.cell_cache_hit_rate": facts["cell_cache"]["hit_rate"],
        "query.slice_cells_ms": self_s("miss", "query.slice_cells") * 1e3,
        "app.slice_payload_ms": self_s("miss", "app.slice_payload") * 1e3,
        "http.encode_json_ms": self_s("miss", "http.encode_json") * 1e3,
        "serve.response_bytes_p50": median(facts["miss_bytes"]),
        "app.handle_miss_ms": median(plain.facts["miss_s"]) * 1e3,
        "serve.miss_round_wall_s": sum(sock["miss_s"]),
        "serve.miss_p50_ms": median(sock["miss_s"]) * 1e3,
        "serve.miss_level1_ms": statistics.fmean(sock["level1_s"]) * 1e3,
        "runtime.gc_miss_ms": plain.gc_seconds["miss"] * 1e3,
        "runtime.gc_build_s": plain.gc_seconds["build"],
        "serve.hot_p95_ms": stages.percentile(sock["hot_s"], 0.95) * 1e3,
        "http.socket_overhead_miss_ms": (
            median(sock["miss_s"]) - median(plain.facts["miss_s"])
        )
        * 1e3,
        "miss.unattributed_ms": (
            tables["miss"]["unattributed_s"] + self_s("miss", "app.handle")
        )
        * 1e3,
        "app.handle_hot_us": hot_handle_us,
        "tenant.response_cache_hit_rate": facts["hot_hit_rate"],
        "http.socket_overhead_hot_us": median(sock["hot_s"]) * 1e6 - hot_handle_us,
        "serve.hot_rps": len(sock["hot_s"]) / SOCKET_HOT_SECONDS,
        "pathstore.append_s": self_s("append", "pathstore.ingest")
        + self_s("append", "binfmt.pack_partition")
        + self_s("append", "partition.summarise")
        + self_s("append", "binfmt.strings"),
        "cube_store.begin_delta_s": self_s("append", "cube_store.begin_delta"),
        "cube_store.merge_cells_s": self_s("append", "cube_store.merge_cells"),
        "append.flowgraph_merge_s": self_s("append", "flowgraph.merge"),
        "append.load_partition_s": self_s("append", "pathstore.load_partition")
        + self_s("append", "binfmt.unpack_partition"),
        "append.exceptions_s": self_s("append", "exception_kernel.cell_index")
        + self_s("append", "exception_kernel.mine_segments")
        + self_s("append", "exception_kernel.mine_exceptions"),
        "append.encode_cell_s": self_s("append", "binfmt.encode_cell"),
        "append.cells_updated": facts["append"]["updated"],
        "append.delta_bytes_per_batch_byte": facts["delta_bytes"]
        / facts["batch_bytes"],
        "append.unattributed_s": tables["append"]["unattributed_s"]
        + self_s("append", "pathstore.append"),
        "cube_store.reload_ms": self_s("read", "cube_store.reload") * 1e3,
        "tenant.invalidations": facts["invalidations"],
        "churn.first_read_ms": plain.facts["first_read_s"] * 1e3,
        "cube_store.delta_segments": facts["delta_segments"],
        "cube_store.compact_bytes_rewritten": facts["compact_bytes"],
        "churn.read_after_compact_s": plain.seconds["read_after_compact"],
    }
    return values


def traced_run(workload, inputs, server, workdir, args, tally):
    """Untraced pass, traced pass, extras → ``(metrics, summary)``."""
    plain = Pass(workload, inputs, workdir, None, tally).run()
    sock = socket_pass(server, inputs, plain.directory, tally)
    extra = extras(workload, inputs, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Pass(workload, inputs, workdir, tracer, tally).run()
    finally:
        tracer.remove()
    tables = stage_tables(tracer, traced, plain)
    print_stage_tables(workload, tables)
    values = per_layer(workload, tables, traced, plain, sock, extra)
    values["host.calib_spin_ms"] = stages.calib_spin_ms()
    values["trace.overhead_ratio"] = sum(traced.seconds.values()) / sum(
        plain.seconds.values()
    )
    trace_file = WORK / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.write_chrome_trace(trace_file)
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    metrics = {name: (float(values[name]), units[name]) for name in units}
    summary = {
        "trace_file": str(trace_file),
        "spans": len(tracer.spans),
        "stages": {
            name: {
                "traced_s": table["traced_s"],
                "untraced_s": table["untraced_s"],
                "rows_sum_s": sum(table["self_s"].values())
                + table["unattributed_s"],
            }
            for name, table in tables.items()
        },
    }
    return metrics, summary
