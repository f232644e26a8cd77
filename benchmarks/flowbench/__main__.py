"""``python3 -m benchmarks.flowbench {run,aa}``."""

from __future__ import annotations

import argparse
import subprocess
import sys

from benchmarks.flowbench import ROOT
from benchmarks.flowbench.workloads import WORKLOADS


def parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="python3 -m benchmarks.flowbench",
        description="The FlowCube store benchmark (see README.md here).",
    )
    verbs = top.add_subparsers(dest="verb", required=True)
    run = verbs.add_parser("run", help="one run of one workload")
    run.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="default: every workload, one child process each",
    )
    run.add_argument("--seed", type=int, default=11)
    run.add_argument(
        "--seconds", type=float, default=None,
        help="how long to measure (default: run_seconds of BENCHMARK.json)",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced run (per-layer metrics, Chrome trace written)",
    )
    run.add_argument(
        "--n-paths", type=int, default=None,
        help="override the workload's database size (smoke tests)",
    )
    aa = verbs.add_parser(
        "aa", help="two complete sets of the same code, compared to the bounds"
    )
    aa.add_argument("--seed", type=int, default=11)
    aa.add_argument("--runs", type=int, default=3, help="runs per set")
    aa.add_argument("--out", default=None, help="also write the report here")
    return top


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parser().parse_args(argv)
    if args.verb == "aa":
        from benchmarks.flowbench.aa import aa

        return aa(args)
    from benchmarks.flowbench.run import run, spec

    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    if args.workload is not None:
        return run(args)
    # One child per workload, so each reports its own peak RSS.
    codes = [
        subprocess.run(
            [sys.executable, "-m", "benchmarks.flowbench", *argv]
            + ["--workload", name],
            cwd=ROOT,
        ).returncode
        for name in WORKLOADS
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
