"""The frozen benchmark harness's view of the program, checked without
running it.

``benchmarks/flowbench`` drives the program through public names only,
and its files cannot change together with a refactor.  A traced name
that stops resolving, or a keyword the harness passes that stops
binding, otherwise shows up only when the benchmark job runs.  This
file resolves every traced callable the way ``Tracer.install`` does and
binds the call shapes the harness uses against the live signatures; in
the other direction it pins what the store no longer offers.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

from benchmarks.flowbench.tracing import SPANS
from repro.core.flowgraph_exceptions import mine_exceptions_weighted
from repro.query.api import FlowCubeQuery
from repro.store import (
    CubeStore,
    PartitionedPathStore,
    append_records,
    build_cube,
    shared_mine_store,
)


@pytest.mark.parametrize(
    "layer, module_name, attribute", SPANS, ids=[span[0] for span in SPANS]
)
def test_every_traced_callable_resolves(layer, module_name, attribute):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[leaf] if path else getattr(owner, leaf)
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert callable(raw), f"{module_name}.{attribute} (layer {layer!r})"


#: ``(callable, positional count, keywords)`` as the harness calls them
#: (``stages.py``, ``layers.py``, ``gates.py``); the values are irrelevant.
CALL_SHAPES = [
    (PartitionedPathStore.init, 2, {"partition_size": 1, "store_format": "binary"}),
    (
        build_cube,
        1,
        {
            "min_support": 2,
            "compute_exceptions": True,
            "segments_by_cell": None,
            "into": None,
            "stats": None,
            "jobs": 2,
        },
    ),
    (shared_mine_store, 1, {"min_support": 2, "build_stats": None, "jobs": 2}),
    (append_records, 2, {"cube": None, "compact_after": 0}),
    (FlowCubeQuery, 1, {"kernel": "scan"}),
    (
        mine_exceptions_weighted,
        2,
        {"min_support": 2, "min_deviation": 0.1, "kernel": "scan"},
    ),
]


@pytest.mark.parametrize(
    "function, n_positional, keywords",
    CALL_SHAPES,
    ids=[shape[0].__qualname__ for shape in CALL_SHAPES],
)
def test_harness_call_shapes_still_bind(function, n_positional, keywords):
    inspect.signature(function).bind(*[None] * n_positional, **keywords)


@pytest.mark.parametrize(
    "function",
    [build_cube, append_records, PartitionedPathStore.append_into_cube],
    ids=lambda function: function.__qualname__,
)
def test_the_store_takes_no_engine_or_kernel(function):
    assert not {"engine", "kernel"} & set(inspect.signature(function).parameters)


def test_the_cube_store_converts_nothing():
    assert not hasattr(CubeStore, "convert")
