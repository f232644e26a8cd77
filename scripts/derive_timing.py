"""Time the query planner's derivation and the first read of exceptions.

flowbench has no derive cut yet, so this is the derivation timing: per
workload, the seed-1 database of ``make_inputs`` is built into a store
that materialises only the base item level (δ = 2), once with exceptions
off (``plain`` rows) and once with them on (``mined``), and
``derive_cuboid`` answers item level (1, 1, 1) at path level 0 (the
leaves, durations kept) and at path level 3 (one location level up,
durations ``*``; rows marked ``L3``), reading every derived cell's
flowgraph — which, on the ``mined`` store, mines its exceptions.  Each
is timed on a cold handle (its first derivation) and again on the same,
warm handle.  The ``exceptions read`` rows time a fresh handle of the
``mined`` store reading the exceptions of every cell of the base cuboid
at path level 0 (``cold``), then reading them again from its cell cache
(``warm``).

Every timed window starts from a collected heap with the cyclic collector
paused, so the rows compare code, not where a collection happened to land.

To compare two source trees, pass each with ``--src``: every round runs
one child process per tree, alternating which goes first, and the
report gives each tree's median and quartiles per row.

Usage (from the repository root):
    python scripts/derive_timing.py --src src [--src OTHER/src] [--rounds 5]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from inspect import signature
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("dense", "iceberg", "records")
#: The path levels derived: level 0 (the leaves, durations kept) and level
#: 3 (one level up, durations ``*``), each row's label suffix.
LEVELS = ((0, ""), (3, " L3"))
#: Cells the ``exceptions read`` handle keeps: more than any base cuboid.
READ_CACHE = 100_000


@contextmanager
def timed(timings: dict[str, float], row: str):
    """Time the block into ``timings[row]``, collector collected and off."""
    gc.collect()
    gc.disable()
    started = time.perf_counter()
    try:
        yield
    finally:
        timings[row] = time.perf_counter() - started
        gc.enable()


def measure() -> dict[str, float]:
    """One child's timings, ``"<workload> <exceptions> <handle>"`` → s."""
    # ``repro`` first: importing flowbench puts this checkout's ``src``
    # ahead of the tree under test on ``sys.path``.
    from repro.core.lattice import ItemLevel
    from repro.query.planner import derive_cuboid, plan_derivation
    from repro.store import PartitionedPathStore, build_cube

    from benchmarks.flowbench.workloads import WORKLOADS as SPECS
    from benchmarks.flowbench.workloads import make_inputs

    # A tree whose cells do not mine at first read mines derived cells
    # when asked to.
    on_request = "mine_exceptions" in signature(derive_cuboid).parameters
    timings: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in WORKLOADS:
            database = make_inputs(SPECS[name], 1).database
            dimensions = database.schema.dimensions
            base = ItemLevel([h.depth for h in dimensions])
            target = ItemLevel([1] * len(dimensions))
            for exceptions in (False, True):
                label = "mined" if exceptions else "plain"
                mine = {"mine_exceptions": exceptions} if on_request else {}
                store = PartitionedPathStore.init(
                    Path(workdir) / f"{name}-{label}", database.schema
                )
                store.ingest(database)
                build_cube(
                    store, item_levels=[base], min_support=2,
                    compute_exceptions=exceptions,
                ).close()
                for level_id, suffix in LEVELS:
                    with store.cube_store() as cube:
                        path_level = cube.path_lattice[level_id]
                        for handle in ("cold", "warm"):
                            with timed(timings, f"{name} {label} {handle}{suffix}"):
                                plan = plan_derivation(cube, target, path_level)
                                for cell in derive_cuboid(cube, plan, **mine):
                                    cell.flowgraph
                if exceptions:
                    # A cache that keeps the whole cuboid: the warm read
                    # finds every cell it read cold.
                    with store.cube_store(cache_size=READ_CACHE) as cube:
                        cuboid = cube.cuboid(base, cube.path_lattice[0])
                        for handle in ("cold", "warm"):
                            with timed(timings, f"{name} exceptions read {handle}"):
                                for cell in cuboid.cells_for(cuboid.keys):
                                    cell.exceptions
                store.close()
    return timings


def run_child(src: str) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(ROOT)])}
    done = subprocess.run(
        [sys.executable, __file__, "--child"],
        env=env, capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=[])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(measure()))
        return
    sources = [str(Path(src).resolve()) for src in args.src or ["src"]]
    runs: dict[str, list[dict[str, float]]] = {src: [] for src in sources}
    for round_no in range(args.rounds):
        order = sources if round_no % 2 == 0 else sources[::-1]
        for src in order:
            runs[src].append(run_child(src))
    for row in runs[sources[0]][0]:
        cells = []
        for src in sources:
            values = [run[row] for run in runs[src]]
            q1, median, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            cells.append(f"{median * 1e3:8.1f} ms [{q1 * 1e3:.1f}–{q3 * 1e3:.1f}]")
        print(f"{row:30s}", " | ".join(cells))


if __name__ == "__main__":
    main()
