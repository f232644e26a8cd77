"""The timed lifecycle: ingest, build, mount, miss round, hot windows, churn.

Everything here calls the program through its public surface only and
records raw samples; the caller reduces them.  Load is closed loop — a
dashboard or the CLI waits for each reply before sending the next —
generated from this one process over one keep-alive connection.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.store import (
    BuildStats,
    PartitionedPathStore,
    append_records,
    build_cube,
    shared_mine_store,
)

from benchmarks.flowbench import SRC
from benchmarks.flowbench.workloads import N_PARTITIONS, Inputs, Workload

ADMIN_TOKEN = "flowbench"
ADDRESS = re.compile(r"at http://([\d.]+):(\d+)")
#: Short hot windows, several per lifecycle: the best window is reported,
#: and a short window is more likely to fall into a quiet moment of the host.
HOT_WINDOW_SECONDS = 0.2
HOT_WINDOWS = 4
#: Mounts timed before each miss round (a ~5 ms event); the last one stays.
MOUNT_SAMPLES = 6
#: Ingests timed before each build; the last one is built on.
INGEST_SAMPLES = 3
MIN_REPEATS = 2


@dataclass
class Tally:
    """Operations attempted / failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def calib_spin_ms() -> float:
    """A fixed pure-Python loop: what the host gives this process now.

    Reported next to every result to explain drift; never used to
    rescale a measurement.
    """
    best = float("inf")
    for _ in range(5):  # the floor: a single 30 ms spin is itself noisy
        started = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def timed(call, *args, **kwargs):
    """``call(...)`` → ``(result, seconds)``, started from a collected heap.

    Whether a stage catches one or two full passes of the cyclic collector
    depends on the allocation counts it inherits; collecting first gives
    every repeat the counts a fresh CLI process would start with.
    """
    gc.collect()
    started = time.perf_counter()
    result = call(*args, **kwargs)
    return result, time.perf_counter() - started


def disk_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
def ingest(database, directory: Path):
    """``init`` + ``ingest`` into a fresh store directory."""
    store = PartitionedPathStore.init(
        directory,
        database.schema,
        partition_size=-(-len(database) // N_PARTITIONS),
        store_format="binary",
    )
    store.ingest(database)
    return store


def build(workload: Workload, store, stats: BuildStats | None = None, **pool):
    """Build the persisted cube; returns ``(cube_store, mining result)``.

    With ``exceptions`` this is the paper's pipeline: Algorithm 1 over
    the store, then the cube with (ε, δ) exceptions mined from the shared
    segments.  Otherwise only the algebraic measure is materialised.
    """
    min_support = workload.min_support(len(store))
    if not workload.exceptions:
        cube = build_cube(
            store,
            min_support=min_support,
            compute_exceptions=False,
            into=store.cube_store(),
            stats=stats,
            **pool,
        )
        return cube, None
    mined = shared_mine_store(
        store, min_support=min_support, build_stats=stats, **pool
    )
    cube = build_cube(
        store,
        min_support=min_support,
        compute_exceptions=True,
        segments_by_cell=mined.segments_by_cell(),
        into=store.cube_store(),
        stats=stats,
        **pool,
    )
    return cube, mined


def build_once(workload: Workload, database, directory: Path) -> dict:
    """Timed ingests into a fresh *directory*, then one timed build.

    The ingest is a ~0.1 s event at 2k paths, too short for one sample
    per lifecycle to find a quiet moment of the host; the build runs on
    the last ingest.
    """
    ingests = []
    for sample in range(INGEST_SAMPLES):
        if sample:
            store.close()
        shutil.rmtree(directory, ignore_errors=True)
        store, seconds = timed(ingest, database, directory)
        ingests.append(seconds)
    stats = BuildStats()
    (cube, _), build_seconds = timed(build, workload, store, stats)
    shape = {"cells": stats.cells, "cuboids": len(cube.cuboids)}
    cube.close()
    store.close()
    return {
        "ingest_s": ingests,
        "build_s": build_seconds,
        "store_bytes_per_record": disk_bytes(directory) / len(database),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **shape,
    }


# ----------------------------------------------------------------------
# the server child and its client
# ----------------------------------------------------------------------
class Server:
    """``flowcube-store serve`` as a child process on a free port.

    The slicer refuses to unmount its last cube, so the child is started
    on a tiny *anchor* store that is never queried; the measured stores
    are mounted and unmounted through the admin routes.
    """

    def __init__(self, anchor: Path) -> None:
        # The slicer logs a traceback when SIGINT lands on an open
        # keep-alive connection; kept out of the report unless it fails.
        self.log = open(anchor.parent / "server.stderr", "w+")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.store.cli", "serve",
                "--cubes", f"anchor={anchor}", "--port", "0",
                "--admin-token", ADMIN_TOKEN,
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            env=env,
        )
        try:
            line = self.process.stdout.readline()
            match = ADDRESS.search(line)
            if match is None:
                self.log.seek(0)
                raise RuntimeError(
                    f"server did not come up: {line!r} {self.log.read()[-2000:]}"
                )
            self.address = (match.group(1), int(match.group(2)))
        except BaseException:
            self.stop()
            raise

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(*self.address, timeout=120)

    def stop(self) -> int:
        """SIGINT, wait, and kill if it does not leave; returns the code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()
        return self.process.returncode


def stop_resource_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker and wait until it ended.

    The program's shared-memory worker pool (``jobs=2`` with exceptions)
    makes the interpreter start a tracker child that lives until this
    process exits and would outlive it by its own clean-up; the pool
    itself is joined by the program.  ``_stop`` is how the interpreter's
    own tests end the tracker: it closes the tracker's pipe and waits.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks stop the
    children before this process leaves."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


def call(conn, method: str, path: str, payload=None, headers=None):
    """One request/response round trip → ``(status, body, seconds)``."""
    body = json.dumps(payload).encode() if payload is not None else None
    headers = dict(headers or {})
    if body is not None:
        headers["Content-Type"] = "application/json"
    started = time.perf_counter()
    conn.request(method, path, body, headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, data, time.perf_counter() - started


def slice_request(conn, tenant: str, cut: str):
    return call(conn, "POST", f"/cubes/{tenant}/slice", {"cut": cut})


def mount(conn, tenant: str, directory: Path):
    return call(
        conn, "POST", f"/cubes/{tenant}/mount", {"path": str(directory)},
        {"X-Admin-Token": ADMIN_TOKEN},
    )


def unmount(conn, tenant: str):
    return call(
        conn, "POST", f"/cubes/{tenant}/unmount", None,
        {"X-Admin-Token": ADMIN_TOKEN},
    )


def tenant_stats(conn, tenant: str) -> dict:
    _, body, _ = call(conn, "GET", "/stats")
    return json.loads(body)["cubes"][tenant]


def caches_empty(stats: dict) -> bool:
    """A freshly mounted tenant has touched none of its cache layers."""
    return all(
        stats[layer]["hits"] == 0 and stats[layer]["misses"] == 0
        for layer in ("query_cache", "cell_cache", "response_cache")
    ) and stats["catalog_pool"].get("builds", 0) == 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def miss_round(conn, inputs: Inputs, directory: Path, tally: Tally) -> dict:
    """Mount fresh (timed), verify cold caches, request each cut once.

    One keep-alive connection; every request misses the response cache,
    the query cache and (at first touch) the cell cache.  Latencies come
    back in the order of ``inputs.rotation``.
    """
    mounts = []
    for sample in range(MOUNT_SAMPLES):
        if sample:
            status, _, _ = unmount(conn, "wh")
            tally.check(status == 200, f"unmount -> {status}")
        status, _, seconds = mount(conn, "wh", directory)
        tally.check(status == 201, f"mount -> {status}")
        mounts.append(seconds)
    tally.check(
        caches_empty(tenant_stats(conn, "wh")), "caches not empty after mount"
    )
    latencies = []
    for cut in inputs.rotation:
        status, _, seconds = slice_request(conn, "wh", cut)
        tally.check(status == 200, f"slice {cut} -> {status}")
        latencies.append(seconds)
    return {"mount_s": mounts, "miss_s": latencies}


def hot_window(
    conn, inputs: Inputs, tally: Tally, seconds: float = HOT_WINDOW_SECONDS
) -> list[float]:
    """Closed-loop replay of cuts the response cache holds.

    One connection: two closed-loop clients in this one process would
    time each other's hold of the interpreter lock, not the server.
    """
    latencies = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        cut = inputs.hot[index % len(inputs.hot)]
        index += 1
        status, _, elapsed = slice_request(conn, "wh", cut)
        latencies.append(elapsed)
        tally.check(status == 200, f"hot slice {cut} -> {status}")
    return latencies


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
def read_cuts(conn, inputs: Inputs, tally: Tally) -> list[float]:
    """Read the churn cuts once → seconds per cut, in ``inputs.reads`` order."""
    latencies = []
    for cut in inputs.reads:
        status, _, seconds = slice_request(conn, "wh", cut)
        tally.check(status == 200, f"read {cut} -> {status}")
        latencies.append(seconds)
    return latencies


def churn(conn, inputs: Inputs, directory: Path, tally: Tally) -> dict:
    """On the mounted store: [append → read → compact] per batch.

    Strictly sequential — the writer (this process) and the reader (the
    server child) never overlap — so every read pays one ``maybe_reload``
    (which empties every cache layer) and then goes through the overlay
    index and the delta segment.
    """
    out = {"append_s": [], "read_s": [], "compact_s": [], "appends": []}
    store = PartitionedPathStore.open(directory)
    cube = store.cube_store()
    try:
        for batch in inputs.batches:
            result, seconds = timed(
                append_records, store, batch, cube=cube, compact_after=0
            )
            out["append_s"].append(seconds)
            out["appends"].append(result)
            tally.check(
                result["ingested"] == len(batch), f"append ingested {result}"
            )
            out["read_s"].append(read_cuts(conn, inputs, tally))
            compacted, seconds = timed(cube.compact)
            out["compact_s"].append(seconds)
            tally.check(compacted > 0, "compact folded nothing")
    finally:
        cube.close()
        store.close()
    return out


# ----------------------------------------------------------------------
# the lifecycle
# ----------------------------------------------------------------------
def lifecycle_once(
    server: Server, workload: Workload, inputs: Inputs, directory: Path,
    tally: Tally,
) -> dict:
    """ingest → build → mount → miss round → hot windows → churn, once.

    Returns the samples; the store is left in *directory* (with the
    appended batches folded in) and unmounted.
    """
    samples = build_once(workload, inputs.database, directory)
    tally.attempted += 1
    conn = server.connect()
    try:
        samples.update(miss_round(conn, inputs, directory, tally))
        # The miss round left the hot cuts in the response cache.
        samples["hot_windows"] = [
            hot_window(conn, inputs, tally) for _ in range(HOT_WINDOWS)
        ]
        samples.update(churn(conn, inputs, directory, tally))
        status, _, _ = unmount(conn, "wh")
        tally.check(status == 200, f"unmount -> {status}")
    finally:
        conn.close()
    return samples


def lifecycles(
    server: Server, workload: Workload, inputs: Inputs, directory: Path,
    seconds: float, tally: Tally,
) -> list[dict]:
    """Repeat the whole lifecycle for *seconds* (at least twice).

    Interleaving the stages — rather than timing all builds, then all
    reads — spreads every metric's repeats over the whole run, so a slow
    phase of the host cannot cover all repeats of one metric.
    """
    repeats = []
    started = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - started < seconds:
        repeats.append(
            lifecycle_once(server, workload, inputs, directory, tally)
        )
    return repeats
