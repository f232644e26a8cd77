"""Correctness gates: run on every invocation, untimed, after the lifecycle.

(a) seed-pinned counts from ``expected.json``; (b) a small *twin* of the
workload where serialising the whole cube is cheap — store build ==
in-memory build, append + compact == rebuild, socket bytes == the scan
kernel's render; (c) cells of the full-size store re-derived straight
from the raw records with ``repro.core`` and compared byte for byte.

The gates run after the timed phases (and after ``peak_rss_mb`` is read)
so the in-memory reference cubes they build cost no gated metric.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.core import (
    FlowCube,
    FlowGraph,
    PathDatabase,
    aggregate_path,
    cube_to_json,
    flowgraph_to_dict,
)
from repro.core.aggregation import weight_paths
from repro.core.flowgraph_exceptions import mine_exceptions_weighted
from repro.mining import shared_mine
from repro.query.api import FlowCubeQuery
from repro.serve import CubeTenant, parse_cut, slice_payload
from repro.serve.http import encode_json
from repro.store import PartitionedPathStore, append_records

from benchmarks.flowbench import stages
from benchmarks.flowbench.stages import Server, Tally
from benchmarks.flowbench.workloads import Inputs, Workload, make_inputs

EXPECTED = Path(__file__).with_name("expected.json")
TWIN_PATHS = 300
ORACLE_CELLS = 64
#: The oracle stops early once the cells it re-derived hold this many
#: records (a 10k-path apex cell costs as much as a thousand leaf cells).
ORACLE_RECORDS = 12_000
#: Socket responses re-rendered with the scan kernel, per store.
PARITY_CUTS = 2


def cube_bytes(cube) -> str:
    """``cube_to_json`` without empty cuboids.

    The store persists only cuboids that hold a cell, the in-memory cube
    keeps the empty ones too; everything else must match byte for byte.
    """
    payload = json.loads(cube_to_json(cube))
    payload["cuboids"] = [c for c in payload["cuboids"] if c["cells"]]
    return json.dumps(payload)


def reference_cube(workload: Workload, database, min_support: int) -> FlowCube:
    """The in-memory counterpart of :func:`stages.build`."""
    segments = None
    if workload.exceptions:
        segments = shared_mine(
            database, min_support=min_support
        ).segments_by_cell()
    return FlowCube.build(
        database,
        min_support=min_support,
        compute_exceptions=workload.exceptions,
        segments_by_cell=segments,
    )


def check_pinned(workload, args, shape: dict, tally: Tally) -> None:
    """(a) exact counts recorded for the pinned seeds at full size."""
    if args.n_paths is not None:
        return
    pinned = json.loads(EXPECTED.read_text(encoding="utf-8"))
    expected = pinned.get(workload.name, {}).get(str(args.seed))
    if expected is None:
        return
    for name, value in expected.items():
        tally.check(
            shape.get(name) == value,
            f"pinned {name}: expected {value}, got {shape.get(name)}",
        )


def check_served_bytes(
    server: Server, directory: Path, name: str, cuts, workload, tally: Tally
) -> None:
    """Socket slice bytes == scan kernel + ``slice_payload`` + ``encode_json``."""
    conn = server.connect()
    bodies = {}
    try:
        status, _, _ = stages.mount(conn, name, directory)
        tally.check(status == 201, f"mount {name} -> {status}")
        for cut in cuts:
            status, body, _ = stages.slice_request(conn, name, cut)
            tally.check(status == 200, f"{name} slice {cut} -> {status}")
            bodies[cut] = body
        stages.unmount(conn, name)
    finally:
        conn.close()
    tenant = CubeTenant.mount(name, directory)
    try:
        scan = FlowCubeQuery(tenant.cube_store, kernel="scan")
        for cut, body in bodies.items():
            dims = parse_cut(cut)
            cells = scan.slice_cells(None, **dims)
            rendered = encode_json(
                slice_payload(tenant, dims, None, cells)
            )
            tally.check(rendered == body, f"{name}: served bytes differ for {cut}")
    finally:
        tenant.close()


def check_twin(workload, args, server: Server, workdir: Path, tally) -> None:
    """(b) byte parity on a database small enough to serialise whole."""
    twin = make_inputs(workload, args.seed, TWIN_PATHS)
    min_support = workload.min_support(len(twin.database))
    directory = workdir / "twin"
    stages.build_once(workload, twin.database, directory)

    store = PartitionedPathStore.open(directory)
    cube = store.cube_store()
    try:
        tally.check(
            cube.io_counters()["heap_bytes_read"] == 0,
            "cold open read heap bytes",
        )
        tally.check(
            cube_bytes(cube)
            == cube_bytes(reference_cube(workload, twin.database, min_support)),
            "twin: store build != in-memory FlowCube.build",
        )
    finally:
        cube.close()

    check_served_bytes(
        server, directory, "twin", twin.rotation[: PARITY_CUTS * 2], workload,
        tally,
    )

    cube = store.cube_store()
    try:
        records = list(twin.database)
        for batch in twin.batches:
            append_records(store, batch, cube=cube, compact_after=0)
            records += batch
        cube.compact()
        rebuilt = reference_cube(
            workload,
            PathDatabase(twin.database.schema, records, validate=False),
            min_support,  # an absolute δ does not move with the appends
        )
        tally.check(
            cube_bytes(cube) == cube_bytes(rebuilt),
            "twin: append + compact != rebuild",
        )
    finally:
        cube.close()
        store.close()


def members_by_cell(database, wanted) -> dict:
    """Record ids of each wanted ``(item level, key)``, in record order.

    One pass over the records per distinct item level, rolling every
    record's dimensions up with ``ancestor_at_level``.
    """
    hierarchies = database.schema.dimensions
    members: dict = {coords: [] for coords in wanted}
    for item_level in {level for level, _ in wanted}:
        for record in database:
            key = tuple(
                h.ancestor_at_level(value, level)
                for h, value, level in zip(hierarchies, record.dims, item_level)
            )
            ids = members.get((item_level, key))
            if ids is not None:
                ids.append(record.record_id)
    return members


def derive_graph(database, record_ids, path_level, exceptions) -> FlowGraph:
    """A cell's flowgraph straight from its records' raw paths.

    *exceptions* is ``None`` or ``(δ, ε)`` for the holistic pass, which
    mines the cell's segments locally with the scan kernel — under an
    absolute δ that equals what Shared segments give.
    """
    weighted = weight_paths(
        aggregate_path(database[rid].path, path_level) for rid in record_ids
    )
    graph = FlowGraph()
    for path, weight in weighted:
        graph.add_path(path, weight)
    if exceptions is not None:
        min_support, min_deviation = exceptions
        mine_exceptions_weighted(
            graph,
            weighted,
            min_support=min_support,
            min_deviation=min_deviation,
            kernel="scan",
        )
    return graph


def check_oracle(
    workload, inputs: Inputs, store_dir: Path, seed: int, tally
) -> None:
    """(c) seed-chosen cells of the full-size store vs ``repro.core``.

    The store has been through the last lifecycle's appends, so the raw
    records are the generated database plus every batch.
    """
    records = list(inputs.database)
    for batch in inputs.batches:
        records += batch
    database = PathDatabase(inputs.database.schema, records, validate=False)
    store = PartitionedPathStore.open(store_dir)
    cube = store.cube_store()
    try:
        coordinates = [
            (cuboid, key) for cuboid in cube.cuboids for key in cuboid.keys
        ]
        rng = random.Random(seed)
        chosen = rng.sample(coordinates, min(ORACLE_CELLS, len(coordinates)))
        members = members_by_cell(
            database, {(cuboid.item_level, key) for cuboid, key in chosen}
        )
        derived = 0
        for cuboid, key in chosen:
            if derived > ORACLE_RECORDS:
                break
            stored = cuboid.cell(key)
            record_ids = members[(cuboid.item_level, key)]
            derived += len(record_ids)
            exceptions = None
            if workload.exceptions:
                exceptions = (cube.min_support, cube.min_deviation)
            graph = derive_graph(
                database, record_ids, cuboid.path_level, exceptions
            )
            same = stored.record_ids == tuple(record_ids) and json.dumps(
                flowgraph_to_dict(stored.flowgraph)
            ) == json.dumps(flowgraph_to_dict(graph))
            tally.check(same, f"oracle: cell {key} differs from repro.core")
    finally:
        cube.close()
        store.close()


def run_gates(workload, inputs, server, workdir, store_dir, args, shape, tally):
    check_pinned(workload, args, shape, tally)
    smallest = sorted(inputs.rotation, key=len)[-PARITY_CUTS:]
    check_served_bytes(server, store_dir, "wh", smallest, workload, tally)
    check_oracle(workload, inputs, store_dir, args.seed, tally)
    check_twin(workload, args, server, workdir, tally)
