"""Ablations of the design choices DESIGN.md calls out.

* **Pre-counting** (Shared with vs without the high-level pre-count pass) —
  quantifies optimisation 1 of Section 5 in isolation.
* **Counting strategy** (bitmap vs scan) — our implementation decision;
  both are provided and must agree, bitmap is the default because pure
  Python scanning is prohibitive.
* **Exception mining source** (segments from Shared vs local per-cell
  mining) — the paper's integrated pipeline vs the naive one.
"""

import pytest

from benchmarks.conftest import BASE, run_once
from repro.core import FlowCube, PathLattice
from repro.encoding import TransactionDatabase
from repro.mining import apriori, item_sort_key, shared_mine


@pytest.fixture(scope="module")
def db(db_cache):
    return db_cache(BASE.with_(n_paths=300))


@pytest.fixture(scope="module")
def cube_db(db_cache):
    """3-dim database for the full-cube-build ablations.

    ``FlowCube.build`` materialises the whole item lattice by default —
    4^d item levels — so the cube ablations use d=3 (64 levels) rather
    than the mining ablations' d=5 (1024 levels).
    """
    return db_cache(
        BASE.with_(n_paths=300, n_dims=3, dim_fanouts=(3, 3, 4))
    )


@pytest.fixture(scope="module")
def transactions(db):
    lattice = PathLattice.paper_default(db.schema.location)
    tdb = TransactionDatabase(db, lattice)
    return [t.items for t in tdb.transactions]


def test_shared_with_precounting(benchmark, db):
    result = run_once(
        benchmark,
        lambda: shared_mine(db, min_support=0.02, precount_lengths=(2,)),
    )
    assert result.stats.pruned.get("precount", 0) >= 0


def test_shared_without_precounting(benchmark, db):
    result = run_once(
        benchmark,
        lambda: shared_mine(db, min_support=0.02, precount_lengths=()),
    )
    assert "precount" not in result.stats.pruned


def test_apriori_bitmap_counting(benchmark, transactions):
    result = run_once(
        benchmark,
        lambda: apriori(
            transactions, 30, key=item_sort_key, counting="bitmap", max_length=4
        ),
    )
    assert result


def test_apriori_scan_counting(benchmark, transactions):
    result = run_once(
        benchmark,
        lambda: apriori(
            transactions, 30, key=item_sort_key, counting="scan", max_length=4
        ),
    )
    assert result


def test_exceptions_from_shared_segments(benchmark, cube_db):
    lattice = PathLattice.paper_default(cube_db.schema.location)
    mined = shared_mine(cube_db, path_lattice=lattice, min_support=0.02)
    segments = mined.segments_by_cell()
    cube = run_once(
        benchmark,
        lambda: FlowCube.build(
            cube_db,
            path_lattice=lattice,
            min_support=0.02,
            segments_by_cell=segments,
        ),
    )
    assert cube.n_cells() > 0


def test_exceptions_from_local_mining(benchmark, cube_db):
    lattice = PathLattice.paper_default(cube_db.schema.location)
    cube = run_once(
        benchmark,
        lambda: FlowCube.build(cube_db, path_lattice=lattice, min_support=0.02),
    )
    assert cube.n_cells() > 0
