"""Parity tests for the bitmap exception kernel (PR 4).

The contract is exact: for any cell, any δ/ε, any engine, and any build
path (in-memory or out-of-core), the bitmap kernel must
produce the very same exception lists — and therefore byte-identical
serialised cubes — as the path-scanning pass it replaces.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FlowCube, FlowGraph, PathLattice, aggregate_path
from repro.core.flowgraph_exceptions import (
    mine_exceptions_weighted,
    mine_frequent_segments_weighted,
)
from repro.core.serialization import cube_to_json
from repro.perf.exception_kernel import (
    CellExceptionIndex,
    PidCell,
    cell_index,
    mine_segments_bitmap,
    pid_cell,
)
from repro.perf.measure_rollup import PathTable
from repro.store import PartitionedPathStore, build_cube
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import exception_lists
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
    """Both builds of the same database — roll-up over the bitmap kernel,
    direct over the scan kernel — are one cube."""
    rollup, direct = (
        cube_to_json(
            FlowCube.build(
                db,
                min_support=min_support,
                min_deviation=min_deviation,
                engine=engine,
            )
        )
        for engine in ("rollup", "direct")
    )
    assert rollup == direct


@given(path_databases())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernels_emit_identical_exception_lists(db):
    """Cell by cell, the two kernels mine the very same exceptions (the
    direct builder mines with the scan kernel, the roll-up with bitmap)."""
    scan = FlowCube.build(db, min_support=0.1, engine="direct")
    bitmap = FlowCube.build(db, min_support=0.1)
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
        interned = pid_cell(weighted)
        supports, masks = mine_segments_bitmap(
            interned.postings, cell_index(interned), min_support
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
    """The out-of-core build equals the in-memory reference (direct
    engine, scan kernel): JSON and per-cell exception lists."""
    database = generate_path_database(OOC_CONFIG)
    reference = FlowCube.build(database, min_support=0.05, engine="direct")
    store = PartitionedPathStore.init(
        tmp_path / "wh",
        database.schema,
        partition_size=math.ceil(len(database) / 4),
    )
    store.ingest(database)
    cube = build_cube(store, min_support=0.05)
    assert cube_to_json(cube) == cube_to_json(reference)
    assert exception_lists(cube) == exception_lists(reference)


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


#: A second cell of the same path level that never carries a "*" stage
#: but shares MIXED_STAR's concrete paths — level-wide, its paths sit at a
#: prefix where *another* cell's path has "*".
NO_STAR = [
    ((("f", "1"), ("w", "2")), 2),
    ((("f", "2"), ("w", "1")), 7),
    ((("f", "2"), ("s", "2")), 3),
]


def _pid_cell(table, weighted, level_id=0):
    """*weighted* as a PidCell of *table*, interning its paths on the way."""
    return PidCell(
        {table.intern(level_id, path): weight for path, weight in weighted},
        table.postings[level_id],
    )


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

    # The same cell next to one that does not mix, through one shared
    # postings: the mixed flag is a per-cell fact read off level-wide
    # masks.  Either mining order, with the level interned up front (the
    # build) or as the cells arrive (the postings extend under a live
    # view), must reproduce the scan kernel cell by cell.
    cells = (MIXED_STAR, NO_STAR)
    expected = (
        scan,
        mine_exceptions_weighted(
            _build_graph(NO_STAR), NO_STAR,
            min_support, min_deviation, kernel="scan",
        ),
    )
    for order in ((0, 1), (1, 0)):
        for up_front in (True, False):
            table = PathTable(1)
            if up_front:
                for weighted in cells:
                    _pid_cell(table, weighted)
            for i in order:
                cell = _pid_cell(table, cells[i])
                assert cell.postings is table.postings[0]
                graph = _build_graph(cells[i])
                mined = mine_exceptions_weighted(
                    graph, cell, min_support, min_deviation, kernel="bitmap"
                )
                assert mined == expected[i], (order, up_front, i)
                assert graph.exceptions == expected[i]
            # Over-flagging NO_STAR is safe; missing MIXED_STAR is not.
            assert cell_index(_pid_cell(table, MIXED_STAR))._star_mixed


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


def test_index_cache_sums_duplicate_pairs():
    """Inputs that repeat a (path, weight) pair must not collapse under
    the fingerprint: the tuple door sums weights per distinct path, so the
    repeat shares a view with the pair written once at the summed weight —
    and with nothing lighter."""
    weighted = [((("f", "1"),), 1), ((("f", "1"),), 1)]
    cache: dict = {}
    index = cell_index(weighted, cache)
    assert index.total == 2
    assert isinstance(index, CellExceptionIndex)
    assert cell_index([((("f", "1"),), 2)], cache) is index
    assert cell_index([((("f", "1"),), 1)], cache) is not index
    assert cell_index([((("f", "1"),), 1)], cache).total == 1


# ----------------------------------------------------------------------
# sub-multisets of one level through one shared postings
# ----------------------------------------------------------------------

def _assert_three_way_parity(
    weights, table, level_id, min_support, min_deviation, segments
):
    """Shared postings, tuple door and scan kernel agree on one cell."""
    paths = table.paths[level_id]
    pairs = [(paths[pid], weight) for pid, weight in weights.items()]
    graphs = [_build_graph(pairs) for _ in range(3)]
    scan = mine_exceptions_weighted(
        graphs[0], pairs, min_support, min_deviation,
        segments=segments, kernel="scan",
    )
    door = mine_exceptions_weighted(
        graphs[1], pairs, min_support, min_deviation,
        segments=segments, kernel="bitmap",
    )
    shared = mine_exceptions_weighted(
        graphs[2], PidCell(weights, table.postings[level_id]),
        min_support, min_deviation, segments=segments, kernel="bitmap",
    )
    assert door == scan
    assert shared == scan
    assert graphs[0].exceptions == graphs[1].exceptions == graphs[2].exceptions


@given(
    path_databases(),
    st.sampled_from([0.05, 0.3, 2, 1.0]),
    st.sampled_from([0.0, 0.1]),
    st.data(),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sub_multisets_of_one_level_parity(db, min_support, min_deviation, data):
    """Any ``{pid: weight}`` drawn from a level mines the same through the
    level's shared postings, through the tuple door, and under the scan
    kernel — whatever else the postings hold and whatever was mined
    through them before."""
    lattice = PathLattice.paper_default(db.schema.location)
    table = PathTable(len(lattice))
    for level_id, path_level in enumerate(lattice):
        for record in db:
            table.intern(level_id, aggregate_path(record.path, path_level))
    for level_id in range(len(lattice)):
        paths = table.paths[level_id]
        pids = list(range(len(paths)))
        some = data.draw(
            st.lists(st.sampled_from(pids), min_size=1, unique=True),
            label="some",
        )
        rest = [pid for pid in pids if pid not in some]
        weight = st.integers(min_value=1, max_value=4)
        multisets = [
            dict.fromkeys(pids, 1),                       # the whole level
            {pid: data.draw(weight) for pid in pids},     # ... mixed weights
            {data.draw(st.sampled_from(pids)): data.draw(weight)},
            dict.fromkeys(some, data.draw(weight)),       # uniform subset
            {pid: data.draw(weight) for pid in rest},     # disjoint from it
            {pid: data.draw(weight) for pid in some[::2] + rest[::2]},
        ]
        shared_segments = list(
            mine_frequent_segments_weighted(
                [(path, 1) for path in paths], min_support
            )
        )
        for weights in multisets:
            for segments in (None, shared_segments):
                _assert_three_way_parity(
                    weights, table, level_id, min_support, min_deviation,
                    segments,
                )
        # A tuple-door input may repeat a (path, weight) pair; the door
        # sums the weights, so it still equals the scan kernel.
        repeated = [(paths[pid], 1) for pid in pids + some]
        assert mine_exceptions_weighted(
            _build_graph(repeated), repeated, min_support, min_deviation,
            kernel="bitmap", index_cache={},
        ) == mine_exceptions_weighted(
            _build_graph(repeated), repeated, min_support, min_deviation,
            kernel="scan",
        )
