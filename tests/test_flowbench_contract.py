"""The frozen benchmark harness's view of the program, checked without
running it.

``benchmarks/flowbench`` drives the program through public names only,
and its files cannot change together with a refactor.  A traced name
that stops resolving, or a keyword the harness passes that stops
binding, otherwise shows up only when the benchmark job runs.  This
file resolves every traced callable the way ``Tracer.install`` does and
binds the call shapes the harness uses against the live signatures; in
the other direction it pins what the store no longer offers.  On the read
side it also drives one traced in-process miss, because a serve span that
is never entered reads 0 in the benchmark without failing anything.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect

import pytest

import repro.core
import repro.perf
import repro.store
from benchmarks.flowbench.tracing import SPANS, Tracer
from repro.core.flowcube import FlowCube
from repro.core.flowgraph_exceptions import mine_exceptions_weighted
from repro.query import planner
from repro.query.api import FlowCubeQuery
from repro.serve import CubeTenant, Request, create_app, slice_payload
from repro.store import (
    BuildStats,
    CubeStore,
    PartitionedPathStore,
    append_records,
    binfmt,
    build_cube,
    shared_mine_store,
)
from repro.synth import generate_path_database
from tests.conftest import cube_files
from tests.test_serve import CONFIG, MIN_SUPPORT


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
    [build_cube, append_records],
    ids=lambda function: function.__qualname__,
)
def test_the_store_takes_no_engine_or_kernel(function):
    assert not {"engine", "kernel"} & set(inspect.signature(function).parameters)


def test_one_build_pipeline(tmp_path):
    """The roll-up is the only build: ``FlowCube.build`` has no engine
    switch, ``repro.perf`` no engine registry and no second in-memory
    build, and ``build_cube`` always returns the cube store it wrote."""
    assert "engine" not in inspect.signature(FlowCube.build).parameters
    for name in ("ENGINES", "build_rollup"):
        assert not hasattr(repro.perf, name), name
        assert not hasattr(repro.perf.measure_rollup, name), name
    database = generate_path_database(CONFIG)
    store = PartitionedPathStore.init(tmp_path / "wh", database.schema)
    store.ingest(database)
    cube = build_cube(store, min_support=MIN_SUPPORT, compute_exceptions=False)
    try:
        assert isinstance(cube, CubeStore) and cube.is_built
    finally:
        cube.close()


def test_the_cube_store_converts_nothing():
    assert not hasattr(CubeStore, "convert")


def test_the_write_side_has_no_pool():
    for function in (build_cube, shared_mine_store, append_records, BuildStats):
        assert "pool" not in inspect.signature(function).parameters
    assert "jobs" not in inspect.signature(append_records).parameters
    assert importlib.util.find_spec("repro.perf.pool") is None
    for package in (repro.store, repro.perf):
        for name in ("WorkerPool", "PoolStats", "resolve_jobs"):
            assert not hasattr(package, name), (package.__name__, name)


def test_a_batch_reaches_a_cube_through_append_records_only():
    assert importlib.util.find_spec("repro.core.incremental") is None
    assert not hasattr(repro.core, "append_batch")
    for name in ("append", "append_into_cube"):
        assert not hasattr(PartitionedPathStore, name), name


def test_every_cell_carries_its_multiset():
    """One record shape and one roll-up: no verbatim-JSON record writer,
    no way to drop a cell's multiset, no graph merge in derivation."""
    assert not hasattr(binfmt, "graph_payload")
    assert not hasattr(FlowCube, "compact")
    source = inspect.getsource(planner)
    assert "FlowGraph.merge" not in source and ".merge(" not in source


def test_one_roll_up_algebra():
    """Derivation is the build's roll-up, every in-memory graph expands
    the way a stored one does, and an exception cube's append always
    re-mines: no ``expanded`` or path-by-path fold in the roll-up, no
    graph, tuple-door miner or cell constructor in the planner, and no
    ``recompute_exceptions`` on ``append_records``."""
    rollup = repro.perf.measure_rollup
    assert not hasattr(rollup, "expanded")
    assert "add_path" not in inspect.getsource(rollup)
    assert not {"FlowGraph", "mine_exceptions_weighted"} & set(vars(planner))
    assert "Cell(" not in inspect.getsource(planner)
    parameters = inspect.signature(append_records).parameters
    assert "recompute_exceptions" not in parameters


def test_the_harness_jobs_keyword_selects_nothing(tmp_path, monkeypatch):
    """``layers.py`` builds with ``jobs=2`` and reads ``stats.pool``."""
    # The one run-dependent word of a cube's files.
    monkeypatch.setattr(repro.store.cube_store, "new_lineage", lambda: 2006)
    database = generate_path_database(CONFIG)
    files = []
    for name, keywords in (("default", {}), ("jobs2", {"jobs": 2})):
        store = PartitionedPathStore.init(tmp_path / name, database.schema)
        store.ingest(database)
        stats = BuildStats()
        cube = build_cube(
            store,
            min_support=MIN_SUPPORT,
            stats=stats,
            into=store.cube_store(),
            **keywords,
        )
        cube.close()
        assert stats.pool == {}
        assert stats.pool.get("spawn_seconds", 0.0) == 0.0
        assert "pool" not in stats.as_dict()
        listed = cube_files(store.directory)
        files.append(
            {
                path.name: path.read_bytes()
                for path in (
                    listed["index"], listed["paths"],
                    *listed["segments"].values(),
                )
            }
        )
    assert len(files[0]) == 3 and files[0] == files[1]


# ----------------------------------------------------------------------
# the read side: what layers.py / gates.py / stages.py reach for
# ----------------------------------------------------------------------

READ_SHAPES = [
    (slice_payload, 4, {}),  # (tenant, dims, None, cells)
    (CubeTenant.mount, 2, {}),  # (name, directory)
    (create_app, 1, {}),  # ({name: directory})
    (
        Request,
        0,
        {"method": "", "path": "", "query": {}, "headers": {}, "body": b""},
    ),
]


@pytest.mark.parametrize(
    "function, n_positional, keywords",
    READ_SHAPES,
    ids=[shape[0].__qualname__ for shape in READ_SHAPES],
)
def test_harness_read_shapes_still_bind(function, n_positional, keywords):
    inspect.signature(function).bind(*[None] * n_positional, **keywords)


@pytest.fixture(scope="module")
def served_store(tmp_path_factory):
    database = generate_path_database(CONFIG)
    directory = tmp_path_factory.mktemp("contract") / "wh"
    store = PartitionedPathStore.init(directory, database.schema)
    store.ingest(database)
    build_cube(store, min_support=MIN_SUPPORT, into=store.cube_store())
    return directory


def test_tenant_surface_the_harness_reads(served_store):
    app = create_app({"wh": served_store})
    tenant = app.tenants["wh"]
    try:
        assert tenant.cube_store.io_counters()["heap_bytes_read"] >= 0
        assert tenant.catalogs.stats()["builds"] == 0
        assert tenant.invalidations == 0
        stats = tenant.stats()
        # stages.caches_empty: a fresh mount has touched no cache layer.
        for layer in ("query_cache", "cell_cache", "response_cache"):
            assert stats[layer]["hits"] == 0 and stats[layer]["misses"] == 0
        assert stats["catalog_pool"]["builds"] == 0
    finally:
        tenant.close()


def test_traced_miss_enters_every_serve_layer_once(served_store):
    """No flowbench serve row may silently read 0 after a refactor."""
    tracer = Tracer()
    tracer.install()
    try:
        app = create_app({"wh": served_store})
        try:
            with tracer.span("stage:miss") as root:
                response = app.handle(
                    Request(
                        method="POST",
                        path="/cubes/wh/slice",
                        query={},
                        headers={"content-type": "application/json"},
                        body=b'{"cut": "d0:d0_0"}',
                    )
                )
        finally:
            app.tenants["wh"].close()
    finally:
        tracer.remove()
    assert response.status == 200
    _, calls, _ = tracer.stage_table(root)
    for layer in (
        "cuts.parse_cut",
        "query.slice_cells",
        "app.slice_payload",
        "http.encode_json",
        "app.handle",
    ):
        assert calls.get(layer) == 1, (layer, calls)
