"""Parity tests for the bitmap exception kernel (PR 4).

The contract is exact: for any cell, any δ/ε, and any build (in-memory
or out-of-core), the bitmap kernel must
produce the very same exception lists — and therefore byte-identical
serialised cubes — as the path-scanning pass it replaces.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FlowCube, FlowGraph, PathLattice, aggregate_path
from repro.core.flowcube import Cell
from repro.core.flowgraph_exceptions import (
    mine_exceptions_weighted,
    mine_frequent_segments_weighted,
)
from repro.core.serialization import cube_to_json
from repro.perf.exception_kernel import (
    cell_index,
    intern_pairs,
    mine_segments_bitmap,
)
from repro.perf.measure_rollup import PathTable
from repro.store import PartitionedPathStore, build_cube
from repro.synth import GeneratorConfig, generate_path_database
from tests.conftest import exception_lists, stored_cube_json
from tests.oracle import direct_cube
from tests.test_properties import path_databases

# ----------------------------------------------------------------------
# kernel parity on random databases: the roll-up against the oracle
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
    """Both builds of the same database — the roll-up over the bitmap
    kernel, the per-cell oracle over the scan kernel — are one cube."""
    rollup, direct = (
        cube_to_json(
            build(db, min_support=min_support, min_deviation=min_deviation)
        )
        for build in (FlowCube.build, direct_cube)
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
    oracle mines with the scan kernel, the roll-up with bitmap)."""
    scan = direct_cube(db, min_support=0.1)
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
        weights, postings = intern_pairs(weighted)
        supports, masks = mine_segments_bitmap(
            postings, cell_index(weights), min_support
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
    """The out-of-core build equals the per-cell oracle (scan kernel):
    JSON and per-cell exception lists."""
    database = generate_path_database(OOC_CONFIG)
    reference = direct_cube(database, min_support=0.05)
    store = PartitionedPathStore.init(
        tmp_path / "wh",
        database.schema,
        partition_size=math.ceil(len(database) / 4),
    )
    store.ingest(database)
    cube = build_cube(store, min_support=0.05)
    assert stored_cube_json(cube) == stored_cube_json(reference)
    assert exception_lists(cube) == exception_lists(reference)
    cube.close()


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


def _vector(table, weighted):
    """*weighted* as a ``{joint id: weight}`` vector of the one-level
    *table*, interning its paths on the way."""
    return {table.intern_joint([path]): weight for path, weight in weighted}


def _cell(table, vector, mining, level_id=0):
    """The cell of *table* holding *vector*, mining its exceptions with
    *mining* at first read — the door a built or stored cell mines by."""
    return Cell(
        ("k",), None, None, tuple(range(sum(vector.values()))), vector,
        table, level_id, mining=mining,
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

    # The same cell next to one that does not mix, as cells of one path
    # table: each mines in its own id space at its first read.  Either
    # mining order, with the level interned up front (the build) or as
    # the cells arrive (an append), must reproduce the scan kernel cell
    # by cell.
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
                    _vector(table, weighted)
            for i in order:
                cell = _cell(
                    table, _vector(table, cells[i]),
                    (min_support, min_deviation),
                )
                assert cell.exceptions == expected[i], (order, up_front, i)
                assert cell.flowgraph.exceptions == expected[i]
    # The mixed flag is a per-cell fact: set for the cell that mixes,
    # clear for the one that does not.
    assert intern_pairs(MIXED_STAR)[1].star_mixed
    assert not intern_pairs(NO_STAR)[1].star_mixed


def test_external_segments_parity():
    """Pre-mined segments — including unsatisfiable and absent-node ones —
    are probed by the scan kernel, whichever kernel is asked for: the
    bitmap kernel mines every cell's own."""
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
# sub-multisets of one level, read as cells of one path table
# ----------------------------------------------------------------------

def _assert_three_way_parity(cell, min_support, min_deviation):
    """A cell's first read, the tuple door and the scan kernel agree."""
    pairs = list(cell.paths)
    graphs = [_build_graph(pairs) for _ in range(2)]
    scan = mine_exceptions_weighted(
        graphs[0], pairs, min_support, min_deviation, kernel="scan",
    )
    door = mine_exceptions_weighted(
        graphs[1], pairs, min_support, min_deviation, kernel="bitmap",
    )
    assert door == scan
    assert cell.exceptions == scan
    assert graphs[0].exceptions == graphs[1].exceptions == scan
    assert cell.flowgraph.exceptions == scan


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
    """Any ``{joint id: weight}`` drawn from a path table mines the same at
    a cell's first read at every level, through the tuple door, and under
    the scan kernel — whatever else the table holds and whatever was
    mined over it before."""
    lattice = PathLattice.paper_default(db.schema.location)
    table = PathTable(len(lattice))
    jids = list(dict.fromkeys(
        table.intern_joint(
            [aggregate_path(record.path, level) for level in lattice]
        )
        for record in db
    ))
    mining = (min_support, min_deviation)
    for level_id in range(len(lattice)):
        some = data.draw(
            st.lists(st.sampled_from(jids), min_size=1, unique=True),
            label="some",
        )
        rest = [jid for jid in jids if jid not in some]
        weight = st.integers(min_value=1, max_value=4)
        multisets = [
            dict.fromkeys(jids, 1),                       # the whole table
            {jid: data.draw(weight) for jid in jids},     # ... mixed weights
            {data.draw(st.sampled_from(jids)): data.draw(weight)},
            dict.fromkeys(some, data.draw(weight)),       # uniform subset
            {jid: data.draw(weight) for jid in rest},     # disjoint from it
            {jid: data.draw(weight) for jid in some[::2] + rest[::2]},
        ]
        for vector in multisets:
            _assert_three_way_parity(
                _cell(table, vector, mining, level_id),
                min_support, min_deviation,
            )
        # A tuple-door input may repeat a (path, weight) pair; the door
        # sums the weights, so it still equals the scan kernel.
        paths, pids = table.paths[level_id], table.joint[level_id]
        repeated = [(paths[pids[jid]], 1) for jid in jids + some]
        assert mine_exceptions_weighted(
            _build_graph(repeated), repeated, min_support, min_deviation,
            kernel="bitmap",
        ) == mine_exceptions_weighted(
            _build_graph(repeated), repeated, min_support, min_deviation,
            kernel="scan",
        )
