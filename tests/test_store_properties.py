"""Property tests for the persistence layer (hypothesis).

Three contracts the store depends on:

* the CSV interchange format survives *adversarial* values — dimension
  values and locations containing commas, quotes, newlines, and the path
  column's own separators (``|``, ``:``, ``\\``) — byte-faithfully;
* ``cube_to_json`` / ``cube_from_json`` is a fixed point: serialising a
  deserialised cube reproduces the exact same JSON text (exceptions,
  redundancy marks, and duration levels included), which is what lets the
  cube store deduplicate and diff persisted cells;
* the partition summaries, built from each column's *distinct* values,
  carry exactly the bits of inserting every record's ancestor chain one
  by one, so ``select_partitions`` prunes the same partition files.
"""

from __future__ import annotations

import tempfile
from pathlib import Path as FsPath

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.flowcube import FlowCube
from repro.core.hierarchy import ConceptHierarchy
from repro.core.path import Path, PathRecord
from repro.core.path_database import PathDatabase, PathSchema
from repro.core.redundancy import prune_redundant
from repro.core.serialization import cube_from_json, cube_to_json
from repro.core.stage import Stage
from repro.store import BloomSummary, PartitionedPathStore
from repro.store.partition import LOCATION_SUMMARY, summarise_partition
from tests.test_properties import path_databases

# ----------------------------------------------------------------------
# adversarial CSV round-trip
# ----------------------------------------------------------------------

# Arbitrary text (no surrogates; "\r" excluded because the csv dialect owns
# it) mixed with values built from the format's own separator characters.
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    min_size=1,
    max_size=8,
).filter(lambda s: s != "*")
_SEPARATORS = st.sampled_from(
    ["a|b", "c:d", "e\\f", "g,h", 'i"j', "k\nl", "\\", "|", ":", "::", "|:\\", "\\|"]
)
_VALUE = st.one_of(_TEXT, _SEPARATORS)

_DURATION = st.floats(
    min_value=0, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def adversarial_databases(draw):
    """A small database whose values stress every CSV escaping rule."""
    dim_values = draw(st.lists(_VALUE, min_size=1, max_size=4, unique=True))
    locations = draw(st.lists(_VALUE, min_size=1, max_size=4, unique=True))
    schema = PathSchema(
        dimensions=(ConceptHierarchy.flat("d0", dim_values),),
        location=ConceptHierarchy.flat("location", locations),
        duration=ConceptHierarchy.flat("duration", ["0", "1"]),
    )
    records = []
    for record_id in range(1, draw(st.integers(min_value=1, max_value=5)) + 1):
        dims = (draw(st.sampled_from(dim_values)),)
        stages = [
            Stage(draw(st.sampled_from(locations)), draw(_DURATION))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        records.append(PathRecord(record_id, dims, Path(stages)))
    return PathDatabase(schema, records)


@given(adversarial_databases())
@settings(max_examples=60, deadline=None)
def test_csv_roundtrip_survives_adversarial_values(database):
    text = database.to_csv()
    restored = PathDatabase.from_csv(database.schema, text)
    assert list(restored) == list(database)
    # The serialisation itself is a fixed point too.
    assert restored.to_csv() == text


# ----------------------------------------------------------------------
# partition summaries: distinct-value build == per-record build
# ----------------------------------------------------------------------

@st.composite
def grouped_databases(draw):
    """Adversarial leaf values under adversarial level-1 groups."""
    names = draw(st.lists(_VALUE, min_size=4, max_size=10, unique=True))
    n_groups = draw(st.integers(min_value=1, max_value=len(names) // 2))
    groups, leaves = names[:n_groups], names[n_groups:]
    parent = {
        leaf: draw(st.sampled_from(groups)) for leaf in leaves
    }
    edges = [(group, leaf) for leaf, group in parent.items()]
    schema = PathSchema(
        dimensions=(ConceptHierarchy.from_edges("d0", edges),),
        location=ConceptHierarchy.from_edges("location", edges),
        duration=ConceptHierarchy.flat("duration", ["0", "1"]),
    )
    records = []
    for record_id in range(1, draw(st.integers(min_value=1, max_value=9)) + 1):
        stages = [
            Stage(draw(st.sampled_from(leaves)), draw(_DURATION))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        records.append(
            PathRecord(record_id, (draw(st.sampled_from(leaves)),), Path(stages))
        )
    return PathDatabase(schema, records)


def _summarise_per_record(database) -> dict[str, BloomSummary]:
    """The reference: every record's every ancestor, added one by one."""
    schema = database.schema
    summaries = {f"dim:{h.name}": BloomSummary() for h in schema.dimensions}
    summaries[LOCATION_SUMMARY] = BloomSummary()
    for record in database:
        for hierarchy, value in zip(schema.dimensions, record.dims):
            for concept in hierarchy.ancestors(value, include_self=True):
                if concept != "*":
                    summaries[f"dim:{hierarchy.name}"].add(concept)
        for stage in record.path:
            for concept in schema.location.ancestors(
                stage.location, include_self=True
            ):
                if concept != "*":
                    summaries[LOCATION_SUMMARY].add(concept)
    return summaries


@given(grouped_databases(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_summaries_match_the_per_record_reference(database, partition_size):
    reference = _summarise_per_record(database)
    summaries = summarise_partition(database)
    assert list(summaries) == list(reference)
    assert all(
        summaries[name].to_dict() == reference[name].to_dict()
        for name in reference
    )

    with tempfile.TemporaryDirectory() as tmp:
        store = PartitionedPathStore.init(
            FsPath(tmp) / "wh", database.schema, partition_size=partition_size
        )
        store.ingest(database)
        partitions = [
            (meta.partition_id, _summarise_per_record(part))
            for meta, part in store.iter_partitions()
        ]
        for concept in database.schema.location:
            if concept == "*":
                continue
            assert store.select_partitions(d0=concept) == [
                pid for pid, ref in partitions
                if ref["dim:d0"].might_contain(concept)
            ]
            assert store.select_partitions(location=concept) == [
                pid for pid, ref in partitions
                if ref[LOCATION_SUMMARY].might_contain(concept)
            ]
        store.close()


# ----------------------------------------------------------------------
# cube JSON fixed point
# ----------------------------------------------------------------------

@given(path_databases())
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_cube_json_cycle_is_byte_identical(database):
    cube = FlowCube.build(database, min_support=5, min_deviation=0.05)
    prune_redundant(cube, threshold=0.5)
    first = cube_to_json(cube)
    restored = cube_from_json(first, database)
    second = cube_to_json(restored)
    assert second == first

    # The payload carried everything: exceptions, redundancy, path levels.
    original_cells = {
        (cell.item_level, cell.path_level, cell.key): cell
        for cell in cube.cells()
    }
    restored_cells = {
        (cell.item_level, cell.path_level, cell.key): cell
        for cell in restored.cells()
    }
    assert restored_cells.keys() == original_cells.keys()
    for coords, expected in original_cells.items():
        actual = restored_cells[coords]
        assert actual.redundant == expected.redundant
        assert actual.record_ids == expected.record_ids
        assert [str(e) for e in actual.flowgraph.exceptions] == [
            str(e) for e in expected.flowgraph.exceptions
        ]
    assert [level.duration_level for level in restored.path_lattice] == [
        level.duration_level for level in cube.path_lattice
    ]
