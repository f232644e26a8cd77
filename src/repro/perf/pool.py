"""Persistent worker pools for out-of-core builds.

The PR-2 ``jobs=N`` machinery created its process pools inside each
build.  At small scales the spawn overhead dwarfed the partition work
and made parallel builds *slower* than serial ones.  This module is the
replacement: a fork-once pool that outlives a single pass — and, when
the caller wants, a single build.

Two pieces:

* :class:`WorkerPool` — ``jobs`` single-worker
  :class:`~concurrent.futures.ProcessPoolExecutor` slots created once
  (forked where the platform allows) and reused across passes, builds,
  and benchmark sweep points.  Slot routing is deterministic
  (``partition_id % jobs``), so partition-affine caches inside the
  workers stay hot pass after pass.  Every task runs through a timing
  wrapper, so the pool accounts ``worker_busy_seconds`` next to the
  coordinator's wall clock, and the one-off fork cost is recorded in
  ``spawn_seconds`` where the benchmarks can subtract it.
* :class:`PoolStats` — spawn count/seconds, task batches, and worker
  busy seconds; builders fold it into
  :class:`~repro.store.builder.BuildStats` and the benchmarks persist it.

The pool is deliberately generic: tasks are module-level callables
(picklable by reference) executed against a per-process context dict
(:func:`worker_context`), so the store builder can register partition
scans and exception batches without this package importing the store
layer (``repro.perf`` stays a leaf package).
"""

from __future__ import annotations

import gc
import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

from repro.errors import StoreError

__all__ = [
    "PoolStats",
    "WorkerPool",
    "oversubscription_warning",
    "resolve_jobs",
    "worker_context",
]


def resolve_jobs(jobs: int) -> int:
    """Validate and resolve a ``jobs`` request.

    ``0`` resolves to ``cpu_count - 1`` (floor 1) — "use the machine but
    leave a core for the coordinator".  Anything else must be an integer
    ``>= 1``.  Oversubscription (``jobs > cpu_count``) is allowed; the
    CLI warns about it instead of silently degrading.
    """
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0:
        raise StoreError(f"jobs must be an integer >= 0, got {jobs!r}")
    if jobs == 0:
        return max(1, (os.cpu_count() or 2) - 1)
    return jobs


def oversubscription_warning(jobs: int) -> str | None:
    """A human warning when *jobs* exceeds the machine, else ``None``."""
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        return (
            f"--jobs {jobs} exceeds the machine's {cpus} CPU(s); workers "
            "will time-slice instead of running in parallel"
        )
    return None


@dataclass
class PoolStats:
    """Counters one :class:`WorkerPool` accumulates over its lifetime.

    Attributes:
        jobs: Worker slots in the pool.
        spawn_count: Worker processes forked (once per slot per
            :meth:`WorkerPool.start`, however many builds reuse them).
        spawn_seconds: Wall clock spent creating and warming the workers
            — the cost the persistent pool pays once and per-build pools
            paid every time.
        task_batches: Tasks submitted (each is one batched unit of work —
            a partition pass, a cell batch, a broadcast).
        worker_busy_seconds: Sum of in-worker execution time across all
            tasks, measured inside the worker around the task body.
    """

    jobs: int = 0
    spawn_count: int = 0
    spawn_seconds: float = 0.0
    task_batches: int = 0
    worker_busy_seconds: float = 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (rounded like ``BuildStats.as_dict``)."""
        return {
            "jobs": self.jobs,
            "spawn_count": self.spawn_count,
            "spawn_seconds": round(self.spawn_seconds, 4),
            "task_batches": self.task_batches,
            "worker_busy_seconds": round(self.worker_busy_seconds, 4),
        }


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------

_WORKER: dict = {}


def worker_context() -> dict:
    """The per-process scratch dict task functions share.

    Every key belongs to the client (the store builder keeps its open
    store handle, partition cache, and exception index cache here —
    state that makes fork-once pay off).
    """
    return _WORKER


def _worker_init(initializer, initargs) -> None:
    # Forked workers inherit an enabled tracemalloc (or other tracing)
    # from the parent, yet their traces are per-process and unreadable
    # from it — pure overhead on every allocation.  Drop it.
    import tracemalloc

    if tracemalloc.is_tracing():
        tracemalloc.stop()
    # A pool forked inside a collector pause (a build-owned ``jobs > 1``
    # pool) would run collector-off for life, a caller's long-lived one
    # collector-on: one pool, two behaviours decided by where ``start()``
    # happened.  Workers run on the interpreter's default.
    gc.enable()
    _WORKER.clear()
    if initializer is not None:
        initializer(*initargs)


def _run_timed(func: Callable, args: tuple) -> tuple[float, object]:
    started = time.perf_counter()
    result = func(*args)
    return time.perf_counter() - started, result


def _task_ping() -> bool:
    return True


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------

class WorkerPool:
    """A persistent, fork-once pool of ``jobs`` addressable worker slots.

    Args:
        jobs: Worker slots (``0`` resolves to ``cpu_count - 1``).
        initializer: Optional module-level callable run once in each
            worker after the pool's own setup (the store builder passes
            its store-opening initializer here).
        initargs: Arguments for *initializer*.

    Each slot is a single-worker :class:`ProcessPoolExecutor`, so
    :meth:`submit` can *route* work — partition ``p`` always lands on
    slot ``p % jobs`` and per-process caches stay hot across passes.
    Workers fork lazily on :meth:`start` (or first use) and live until
    :meth:`close`, however many builds run through the pool in between.

    Thread-unsafe by design: one coordinator drives one pool.
    """

    def __init__(
        self,
        jobs: int,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self._initializer = initializer
        self._initargs = initargs
        self._slots: list[ProcessPoolExecutor] | None = None
        self._stats_lock = threading.Lock()
        self.stats = PoolStats(jobs=self.jobs)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Fork the workers now (idempotent); returns self for chaining."""
        if self._slots is not None:
            return self
        started = time.perf_counter()
        try:
            context = get_context("fork")
        except ValueError:  # pragma: no cover - non-Unix fallback
            context = get_context()
        self._slots = [
            ProcessPoolExecutor(
                max_workers=1,
                mp_context=context,
                initializer=_worker_init,
                initargs=(self._initializer, self._initargs),
            )
            for _ in range(self.jobs)
        ]
        # Execute one ping per slot so the fork + initializer cost lands
        # here, visibly, instead of inside the first pass's timings.
        for future in [self.submit(s, _task_ping) for s in range(self.jobs)]:
            future.result()
        self.stats.spawn_count += self.jobs
        self.stats.spawn_seconds += time.perf_counter() - started
        return self

    @property
    def started(self) -> bool:
        return self._slots is not None

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        slots, self._slots = self._slots, None
        for slot in slots or ():
            slot.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- task submission ------------------------------------------------
    def submit(self, slot: int, func: Callable, *args) -> Future:
        """Run ``func(*args)`` on one worker slot; returns its Future.

        The result is unwrapped transparently — callers see ``func``'s
        return value — while the in-worker execution time is folded into
        :attr:`PoolStats.worker_busy_seconds` when the future completes.
        """
        if self._slots is None:
            self.start()
        self.stats.task_batches += 1
        inner = self._slots[slot % self.jobs].submit(
            _run_timed, func, args
        )
        outer: Future = Future()

        def _done(done: Future) -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            seconds, result = done.result()
            # Done callbacks fire on each slot's executor thread; the
            # accumulator needs the lock even under the GIL.
            with self._stats_lock:
                self.stats.worker_busy_seconds += seconds
            outer.set_result(result)

        inner.add_done_callback(_done)
        return outer

    def broadcast(self, func: Callable, *args) -> list:
        """Run ``func(*args)`` once on every worker; results by slot."""
        futures = [self.submit(slot, func, *args) for slot in range(self.jobs)]
        return [future.result() for future in futures]
