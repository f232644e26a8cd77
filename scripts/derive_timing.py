"""Time the query planner's derivation on the flowbench workloads.

flowbench has no derive cut yet, so this is the derivation timing: per
workload, the seed-1 database of ``make_inputs`` is built into a store
that materialises only the base item level (δ = 2, exceptions off), and
``derive_cuboid`` answers item level (1, 1, 1) at path level 0, reading
every derived cell's flowgraph.  Each is timed on a cold handle (its
first derivation) and again on the same, warm handle, with exceptions
off and on.

To compare two source trees, pass each with ``--src``: every round runs
one child process per tree, alternating which goes first, and the
report gives each tree's median and quartiles per row.

Usage (from the repository root):
    python scripts/derive_timing.py --src src [--src OTHER/src] [--rounds 5]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("dense", "iceberg", "records")


def measure() -> dict[str, float]:
    """One child's timings, ``"<workload> <exceptions> <handle>"`` → s."""
    # ``repro`` first: importing flowbench puts this checkout's ``src``
    # ahead of the tree under test on ``sys.path``.
    from repro.core.lattice import ItemLevel
    from repro.query.planner import derive_cuboid, plan_derivation
    from repro.store import PartitionedPathStore, build_cube

    from benchmarks.flowbench.workloads import WORKLOADS as SPECS
    from benchmarks.flowbench.workloads import make_inputs

    timings: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in WORKLOADS:
            database = make_inputs(SPECS[name], 1).database
            dimensions = database.schema.dimensions
            store = PartitionedPathStore.init(Path(workdir) / name, database.schema)
            store.ingest(database)
            base = ItemLevel([h.depth for h in dimensions])
            build_cube(
                store, item_levels=[base], min_support=2, compute_exceptions=False
            ).close()
            target = ItemLevel([1] * len(dimensions))
            for exceptions in (False, True):
                with store.cube_store() as cube:
                    for handle in ("cold", "warm"):
                        started = time.perf_counter()
                        plan = plan_derivation(cube, target, cube.path_lattice[0])
                        for cell in derive_cuboid(cube, plan, exceptions):
                            cell.flowgraph
                        label = "mined" if exceptions else "plain"
                        timings[f"{name} {label} {handle}"] = (
                            time.perf_counter() - started
                        )
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
        print(f"{row:24s}", " | ".join(cells))


if __name__ == "__main__":
    main()
