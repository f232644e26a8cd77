"""Partition files of the on-disk path store.

A partitioned store splits a :class:`~repro.core.path_database.PathDatabase`
into size-bounded *partitions*, each persisted as one columnar binary
blob (``part-XXXXX.bin``, see :mod:`repro.store.binfmt`).  Every
partition carries a :class:`PartitionMeta` catalog entry holding

* the row count and the (min, max) record-id range, and
* one :class:`BloomSummary` per path-independent dimension plus one for
  the stage locations.  Summaries index each record's value *and* its
  hierarchy ancestors, so partition pruning works at any abstraction
  level (``select_partitions(product="outerwear")`` skips partitions
  whose leaves all live under other level-1 concepts).

Bloom summaries are classic bitset Bloom filters: membership answers are
"maybe" (with a small false-positive rate) or a definite "no", which is
exactly what a scan planner needs to skip partition files without
touching them.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from repro.core.path_database import PathDatabase, PathSchema
from repro.errors import StoreError
from repro.store.binfmt import (
    PartitionColumns,
    StringTable,
    map_file,
    retired_layout,
    unpack_partition,
)

__all__ = [
    "BloomSummary",
    "bloom_mask",
    "PartitionMeta",
    "LOCATION_SUMMARY",
    "partition_filename",
    "summarise_partition",
    "read_partition",
]

#: Summary key used for the stage-location column (dimension summaries are
#: keyed ``dim:<name>`` so a dimension literally named "location" cannot
#: collide with it).
LOCATION_SUMMARY = "location"


@functools.lru_cache(maxsize=1 << 14)
def bloom_mask(value: str, n_bits: int, n_hashes: int) -> int:
    """The bits *value* sets in an ``n_bits`` / ``n_hashes`` summary, as
    one integer: double hashing over one BLAKE2b digest.

    Memoised (bounded): an append asks every catalogued summary about
    the same few candidate concepts, and each is hashed once.
    """
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full cycle
    mask = 0
    for i in range(n_hashes):
        mask |= 1 << (h1 + i * h2) % n_bits
    return mask


class BloomSummary:
    """A Bloom-style membership summary over one column's values.

    Args:
        n_bits: Bitset width.  The default (1024) keeps the false-positive
            rate under ~2% for a few hundred distinct values.
        n_hashes: Probes per value, derived by double hashing from one
            BLAKE2b digest.
        bits: Pre-existing bitset (used when loading from the catalog).
    """

    def __init__(self, n_bits: int = 1024, n_hashes: int = 4, bits: int = 0) -> None:
        if n_bits < 8 or n_hashes < 1:
            raise StoreError(
                f"bad Bloom geometry: {n_bits} bits / {n_hashes} hashes"
            )
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.bits = bits

    def add(self, value: str) -> None:
        """Record *value* in the summary."""
        self.bits |= bloom_mask(value, self.n_bits, self.n_hashes)

    def might_contain(self, value: str) -> bool:
        """False means definitely absent; True means possibly present."""
        mask = bloom_mask(value, self.n_bits, self.n_hashes)
        return self.bits & mask == mask

    def to_dict(self) -> dict:
        """JSON-safe form (the bitset serialises as hex)."""
        return {
            "n_bits": self.n_bits,
            "n_hashes": self.n_hashes,
            "bits": format(self.bits, "x"),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BloomSummary":
        """Inverse of :meth:`to_dict`."""
        return cls(
            n_bits=int(data["n_bits"]),
            n_hashes=int(data["n_hashes"]),
            bits=int(data["bits"], 16),
        )


@dataclass
class PartitionMeta:
    """Catalog entry for one partition file."""

    partition_id: int
    filename: str
    n_records: int
    min_record_id: int
    max_record_id: int
    summaries: dict[str, BloomSummary] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "partition_id": self.partition_id,
            "filename": self.filename,
            "n_records": self.n_records,
            "min_record_id": self.min_record_id,
            "max_record_id": self.max_record_id,
            "summaries": {
                name: summary.to_dict()
                for name, summary in self.summaries.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionMeta":
        return cls(
            partition_id=int(data["partition_id"]),
            filename=str(data["filename"]),
            n_records=int(data["n_records"]),
            min_record_id=int(data["min_record_id"]),
            max_record_id=int(data["max_record_id"]),
            summaries={
                name: BloomSummary.from_dict(payload)
                for name, payload in data.get("summaries", {}).items()
            },
        )


def summarise_partition(database: PathDatabase) -> dict[str, BloomSummary]:
    """Build the per-column Bloom summaries of one partition.

    Every dimension value and stage location is inserted together with its
    full ancestor chain (excluding the apex ``*``), so queries phrased at
    any hierarchy level prune correctly.  :meth:`BloomSummary.add` is
    idempotent and keeps no counts, so each column's distinct values are
    collected first and every distinct concept is hashed once — the bits
    are those of adding per record.
    """
    schema = database.schema
    summaries: dict[str, BloomSummary] = {
        f"dim:{h.name}": BloomSummary() for h in schema.dimensions
    }
    summaries[LOCATION_SUMMARY] = BloomSummary()
    dim_values: list[set[str]] = [set() for _ in schema.dimensions]
    locations: set[str] = set()
    for record in database:
        for values, value in zip(dim_values, record.dims):
            values.add(value)
        for stage in record.path:
            locations.add(stage.location)
    columns = [
        (summaries[f"dim:{h.name}"], h, values)
        for h, values in zip(schema.dimensions, dim_values)
    ]
    columns.append((summaries[LOCATION_SUMMARY], schema.location, locations))
    for summary, hierarchy, values in columns:
        concepts: set[str] = set()
        for value in values:
            concepts.update(hierarchy.ancestors(value, include_self=True))
        concepts.discard("*")
        for concept in concepts:
            summary.add(concept)
    return summaries


def partition_filename(partition_id: int) -> str:
    """The canonical partition filename."""
    return f"part-{partition_id:05d}.bin"


def read_partition(
    path: FsPath,
    schema: PathSchema,
    strings: StringTable | None,
    *,
    columns: bool = False,
) -> PathDatabase | PartitionColumns:
    """Load one partition file back into a :class:`PathDatabase` — or,
    with *columns*, into its :class:`~repro.store.binfmt.PartitionColumns`
    (record ids and dim tuples; paths only for the rows later asked for).

    The file is mmap'd and decoded through memoryview slices — each
    arena's ``frombytes`` reads straight out of the page cache with no
    intermediate whole-file ``bytes`` copy.  The map is transient:
    everything the database needs is materialised before the view is
    released, so nothing pins the file afterwards.
    """
    if path.suffix != ".bin":
        raise retired_layout(f"partition file {path}", "CSV partition")
    with map_file(path, "partition file") as mapped, memoryview(mapped) as view:
        return unpack_partition(view, schema, strings, columns=columns)
