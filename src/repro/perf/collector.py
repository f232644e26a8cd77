"""The cycle collector, paused over batches that make no cycles.

The flowgraph is an algebraic measure: everything a store build or an
append allocates is counts in trees, dicts and lists — acyclic by
construction — and reference counting frees all of it the moment it
dies.  CPython's cyclic collector still re-traverses that growing heap
on an allocation-count schedule, looking for cycles that are not there
(five full passes over ~10⁵ flowgraph nodes in one 2k-path build, to
free the JSON encoder's 33 closures).  :func:`paused` switches it off
for the duration of a write-side batch and hands it back as it was.

The pause is safe only while the batch makes no cyclic garbage that
scales with its input — a contract ``tests/test_collector.py`` holds
for every entry point that pauses (DESIGN §6 item 12).
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["paused"]


@contextmanager
def paused() -> Iterator[None]:
    """Run the body with the cyclic collector off; restore it on exit.

    Usable as a decorator.  The state on entry is the state on exit —
    a caller who runs collector-off stays off, nested pauses leave the
    outermost one in charge, and an exception restores like a return.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
