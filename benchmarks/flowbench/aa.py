"""A/A: two complete sets of runs of the same code, compared to the bounds.

The evidence for every bound in ``BENCHMARK.json``: if two sets of the
*same* code disagree by more than a bound, the bound is too tight for
this host (or the metric too noisy to gate), whatever a later change does.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from benchmarks.flowbench import ROOT
from benchmarks.flowbench.run import spec


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """Run one workload in a child process → its parsed output."""
    process = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.flowbench", "run",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = process.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        raise RuntimeError(
            f"{workload} seed {seed} printed no result "
            f"(exit {process.returncode}): {process.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    summary = json.loads("\n".join(lines[lines.index("{"): -1]))
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "drifted": summary["host"]["drifted"],
        "exit": process.returncode,
    }


def steady_run(workload: str, seed: int, seconds: int) -> dict:
    """A run whose calibration drifted is repeated once, then kept as is."""
    run = one_run(workload, seed, seconds)
    if run["drifted"]:
        run = one_run(workload, seed, seconds)
    return run


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def compare(declared: dict, sets: list[dict]) -> list[dict]:
    """One row per gated metric × workload."""
    rows = []
    for workload in (w["name"] for w in declared["workloads"]):
        first, second = (s[workload] for s in sets)
        drifted = any(run["drifted"] for run in first + second)
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run["metrics"][name] for run in first]
            b = [run["metrics"][name] for run in second]
            median_a, median_b = statistics.median(a), statistics.median(b)
            difference = abs(median_b - median_a) / median_a
            widest = max(spread(a), spread(b))
            if difference > bound:
                verdict = "DISAGREE"
            elif widest > bound or drifted:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "median_a": median_a,
                    "median_b": median_b,
                    "difference": difference,
                    "spread_a": spread(a),
                    "spread_b": spread(b),
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def aa(args) -> int:
    declared = spec()
    names = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    started = time.time()
    sets = []
    failed = 0
    # The second set runs the workloads in the opposite order, so slow
    # host drift does not line up with one workload in both sets.
    for order in (names, names[::-1]):
        runs: dict = {}
        for workload in order:
            runs[workload] = [
                steady_run(workload, args.seed + i, seconds)
                for i in range(args.runs)
            ]
            failed += sum(
                run["failed"] + (run["exit"] != 0) for run in runs[workload]
            )
        sets.append(runs)
    rows = compare(declared, sets)
    print(
        f"A/A, {args.runs} runs per set and workload, seeds "
        f"{args.seed}..{args.seed + args.runs - 1}, "
        f"{time.time() - started:.0f} s"
    )
    header = (
        f"{'workload':<9} {'metric':<24} {'median A':>11} {'median B':>11} "
        f"{'diff':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
    )
    print(header)
    for row in rows:
        print(
            f"{row['workload']:<9} {row['metric']:<24} "
            f"{row['median_a']:>11.5g} {row['median_b']:>11.5g} "
            f"{row['difference']:>6.1%} {row['spread_a']:>8.1%} "
            f"{row['spread_b']:>8.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    disagree = [row for row in rows if row["verdict"] == "DISAGREE"]
    report = {
        "runs_per_set": args.runs,
        "seed": args.seed,
        "run_seconds": seconds,
        "rows": rows,
        "ops_failed": failed,
        "disagreements": len(disagree),
        "claim": None,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    print(json.dumps({k: v for k, v in report.items() if k != "rows"}))
    return 1 if disagree or failed else 0
