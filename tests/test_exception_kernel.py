"""Parity tests for the bitmap exception kernel (PR 4).

The contract is exact: for any cell, any δ/ε, any engine, and any build
path (in-memory or out-of-core, serial or pooled), the bitmap kernel must
produce the very same exception lists — and therefore byte-identical
serialised cubes — as the path-scanning pass it replaces.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FlowCube, FlowGraph
from repro.core.flowgraph_exceptions import (
    mine_exceptions_weighted,
    mine_frequent_segments_weighted,
)
from repro.core.serialization import cube_to_json
from repro.perf.exception_kernel import (
    CellExceptionIndex,
    cell_index,
    mine_segments_bitmap,
)
from repro.store import PartitionedPathStore, build_cube
from repro.synth import GeneratorConfig, generate_path_database
from tests.test_properties import path_databases

# ----------------------------------------------------------------------
# kernel x engine parity on random databases
# ----------------------------------------------------------------------

@given(
    path_databases(),
    st.sampled_from([0.05, 0.2, 1.0, 0.999]),
    st.sampled_from([0.05, 0.3]),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernel_engine_grid_byte_identical(db, min_support, min_deviation):
    """Every (kernel, engine) build of the same database is one cube."""
    reference = None
    for engine in ("rollup", "direct"):
        for kernel in ("scan", "bitmap"):
            cube = FlowCube.build(
                db,
                min_support=min_support,
                min_deviation=min_deviation,
                engine=engine,
                kernel=kernel,
            )
            text = cube_to_json(cube)
            if reference is None:
                reference = text
            assert text == reference, (engine, kernel)


@given(path_databases())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernels_emit_identical_exception_lists(db):
    """Cell by cell, the two kernels mine the very same exceptions."""
    scan = FlowCube.build(db, min_support=0.1, kernel="scan")
    bitmap = FlowCube.build(db, min_support=0.1, kernel="bitmap")
    scan_cells = list(scan.cells())
    bitmap_cells = list(bitmap.cells())
    assert len(scan_cells) == len(bitmap_cells)
    for a, b in zip(scan_cells, bitmap_cells):
        assert a.flowgraph.exceptions == b.flowgraph.exceptions


# ----------------------------------------------------------------------
# segment miner parity
# ----------------------------------------------------------------------

@given(path_databases(), st.sampled_from([0.05, 0.3, 2, 1.0, 0.999]))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_segment_miner_matches_scan_miner(db, min_support):
    """Chain-extension mining over tid-sets equals the Apriori scan."""
    cube = FlowCube.build(db, min_support=0.2, compute_exceptions=False)
    for cell in cube.cells():
        weighted = cell.paths
        expected = mine_frequent_segments_weighted(weighted, min_support)
        supports, masks = mine_segments_bitmap(
            CellExceptionIndex(weighted), min_support
        )
        assert supports == expected
        assert set(masks) == set(supports)


# ----------------------------------------------------------------------
# out-of-core parity
# ----------------------------------------------------------------------

OOC_CONFIG = GeneratorConfig(
    n_paths=120,
    n_dims=2,
    dim_fanouts=(2, 3),
    n_location_groups=3,
    locations_per_group=2,
    n_sequences=8,
    max_path_length=4,
    max_duration=3,
    seed=29,
)


def test_out_of_core_exceptions_byte_identical(tmp_path):
    """Serial and pooled out-of-core builds equal the in-memory reference
    (direct engine, scan kernel)."""
    database = generate_path_database(OOC_CONFIG)
    reference = cube_to_json(
        FlowCube.build(
            database, min_support=0.05, engine="direct", kernel="scan"
        )
    )
    store = PartitionedPathStore.init(
        tmp_path / "wh",
        database.schema,
        partition_size=math.ceil(len(database) / 4),
    )
    store.ingest(database)
    for jobs in (1, 2):
        cube = build_cube(store, min_support=0.05, jobs=jobs)
        assert cube_to_json(cube) == reference, jobs


# ----------------------------------------------------------------------
# direct kernel edges
# ----------------------------------------------------------------------

def _build_graph(weighted):
    graph = FlowGraph()
    for path, weight in weighted:
        graph.add_path(path, weight)
    return graph


#: A multiset that mixes "*" with concrete durations at the same stage:
#: the segment miners count "*" as an exact item while the exception pass
#: treats the constraint as a wildcard, which is exactly the case the
#: kernel must recount instead of reusing mined masks.
MIXED_STAR = [
    ((("f", "1"), ("w", "2")), 6),
    ((("f", "*"), ("s", "2")), 5),
    ((("f", "2"), ("w", "1")), 4),
    ((("f", "*"), ("w", "1")), 3),
]


@pytest.mark.parametrize("min_support", [0.05, 0.2, 2, 4, 1.0, 0.999])
@pytest.mark.parametrize("min_deviation", [0.0, 0.05, 0.3])
def test_mixed_star_durations_parity(min_support, min_deviation):
    scan = mine_exceptions_weighted(
        _build_graph(MIXED_STAR), MIXED_STAR,
        min_support, min_deviation, kernel="scan",
    )
    bitmap = mine_exceptions_weighted(
        _build_graph(MIXED_STAR), MIXED_STAR,
        min_support, min_deviation, kernel="bitmap",
    )
    assert scan == bitmap


def test_external_segments_parity():
    """Pre-mined segments — including unsatisfiable and absent-node ones —
    probe identically under both kernels."""
    weighted = [
        ((("f", "1"), ("w", "2"), ("s", "1")), 7),
        ((("f", "1"), ("w", "1")), 5),
        ((("f", "2"), ("s", "2")), 4),
    ]
    segments = [
        ((("f",), "1"),),
        ((("f",), "*"),),
        ((("f",), "1"), (("f", "w"), "2")),
        ((("f", "w"), "9"),),          # unsatisfiable duration
        ((("x",), "1"),),              # absent node
        (),                            # degenerate: skipped by both
    ]
    scan = mine_exceptions_weighted(
        _build_graph(weighted), weighted, 1, 0.0,
        segments=segments, kernel="scan",
    )
    bitmap = mine_exceptions_weighted(
        _build_graph(weighted), weighted, 1, 0.0,
        segments=segments, kernel="bitmap",
    )
    assert scan == bitmap
    assert scan  # the setup deviates: the probe must find something


def test_empty_cell():
    graph = FlowGraph()
    assert mine_exceptions_weighted(graph, [], 0.05, 0.1, kernel="bitmap") == []


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="unknown exception kernel"):
        mine_exceptions_weighted(FlowGraph(), [], 0.05, 0.1, kernel="turbo")


# ----------------------------------------------------------------------
# index fingerprint sharing
# ----------------------------------------------------------------------

def test_index_cache_shares_by_multiset():
    weighted = [((("f", "1"),), 2), ((("s", "2"),), 1)]
    cache: dict = {}
    first = cell_index(weighted, cache)
    second = cell_index(list(reversed(weighted)), cache)
    assert first is second  # pair order doesn't matter
    assert cell_index(weighted, None) is not first


def test_index_cache_skips_duplicate_pairs():
    """Inputs that repeat a (path, weight) pair collapse under the
    frozenset fingerprint, so they must bypass the cache."""
    weighted = [((("f", "1"),), 1), ((("f", "1"),), 1)]
    cache: dict = {}
    index = cell_index(weighted, cache)
    assert not cache
    assert index.total == 2
