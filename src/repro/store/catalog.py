"""The store catalog: schema persistence, fingerprints, partition registry.

``catalog.json`` is the root of a partitioned store directory.  It records

* the full :class:`~repro.core.path_database.PathSchema` (every concept
  hierarchy as a nested tree, sibling order preserved so the Section 5
  digit codes are reproduced exactly on load),
* a SHA-256 *schema fingerprint* — ingest refuses data whose schema does
  not hash to the catalog's fingerprint, so partition files can never mix
  incompatible hierarchies,
* the store *format* — always ``"binary"`` (:data:`~repro.store.binfmt.LAYOUT_NAME`);
  a catalog that says anything else, or nothing, was written in a
  retired layout and is rejected on load,
* one :class:`~repro.store.partition.PartitionMeta` entry per partition
  file (row counts, record-id ranges, Bloom summaries), and
* an ``extra`` mapping for tool state (e.g. the synthetic generator
  configuration the CLI stores so ``ingest --synthetic`` reuses it).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path as FsPath

from repro import publish
from repro.core.hierarchy import ANY, ConceptHierarchy
from repro.core.path_database import PathSchema
from repro.errors import StoreError
from repro.store.binfmt import LAYOUT_NAME, check_layout_name
from repro.store.partition import PartitionMeta

__all__ = [
    "CATALOG_VERSION",
    "Catalog",
    "hierarchy_to_nested",
    "schema_to_dict",
    "schema_from_dict",
    "schema_fingerprint",
]

CATALOG_VERSION = 1
CATALOG_FILENAME = "catalog.json"


# ----------------------------------------------------------------------
# schema (de)serialisation
# ----------------------------------------------------------------------

def _subtree(hierarchy: ConceptHierarchy, concept: str) -> dict:
    # Module-level, not nested in its caller: a recursive closure is a
    # function -> cell -> function cycle per call, garbage only the cyclic
    # collector frees — and the append path saves catalogs with it paused.
    return {
        child: _subtree(hierarchy, child)
        for child in hierarchy.children(concept)
    }


def hierarchy_to_nested(hierarchy: ConceptHierarchy) -> dict:
    """A hierarchy as the nested mapping ``from_nested`` accepts.

    Sibling order is preserved, which keeps the digit codes — and hence
    every encoded transaction — identical across a save/load cycle.
    """
    return _subtree(hierarchy, ANY)


def schema_to_dict(schema: PathSchema) -> dict:
    """Serialise a path schema (all hierarchies) to plain data."""
    return {
        "dimensions": [
            {"name": h.name, "tree": hierarchy_to_nested(h)}
            for h in schema.dimensions
        ],
        "location": {
            "name": schema.location.name,
            "tree": hierarchy_to_nested(schema.location),
        },
        "duration": {
            "name": schema.duration.name,
            "tree": hierarchy_to_nested(schema.duration),
        },
    }


def schema_from_dict(data: dict) -> PathSchema:
    """Inverse of :func:`schema_to_dict`."""
    return PathSchema(
        dimensions=[
            ConceptHierarchy.from_nested(entry["name"], entry["tree"])
            for entry in data["dimensions"]
        ],
        location=ConceptHierarchy.from_nested(
            data["location"]["name"], data["location"]["tree"]
        ),
        duration=ConceptHierarchy.from_nested(
            data["duration"]["name"], data["duration"]["tree"]
        ),
    )


def schema_fingerprint(schema: PathSchema) -> str:
    """SHA-256 over the canonical schema serialisation.

    Key order is *not* sorted: sibling order determines the hierarchy
    codes, so two schemas that differ only in sibling order are genuinely
    incompatible and must fingerprint differently.
    """
    canonical = json.dumps(schema_to_dict(schema), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the catalog file
# ----------------------------------------------------------------------

class Catalog:
    """In-memory image of a store's ``catalog.json``.

    Args:
        directory: The store directory the catalog belongs to.
        schema: The store's path schema.
        partition_size: Maximum rows per partition file.
        partitions: Existing partition entries (empty for a new store).
        extra: Free-form tool state persisted alongside the catalog.
    """

    def __init__(
        self,
        directory: FsPath,
        schema: PathSchema,
        partition_size: int,
        partitions: list[PartitionMeta] | None = None,
        extra: dict | None = None,
    ) -> None:
        if partition_size < 1:
            raise StoreError(f"partition size must be >= 1, got {partition_size}")
        self.directory = FsPath(directory)
        self.schema = schema
        self.fingerprint = schema_fingerprint(schema)
        self.partition_size = partition_size
        self.partitions: list[PartitionMeta] = list(partitions or [])
        self.extra: dict = dict(extra or {})

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @property
    def path(self) -> FsPath:
        return self.directory / CATALOG_FILENAME

    def save(self) -> None:
        """Write the catalog atomically (write-temp + rename)."""
        payload = {
            "version": CATALOG_VERSION,
            "schema": schema_to_dict(self.schema),
            "fingerprint": self.fingerprint,
            "partition_size": self.partition_size,
            "format": LAYOUT_NAME,
            "partitions": [meta.to_dict() for meta in self.partitions],
            "extra": self.extra,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        publish.publish_file(
            self.path, json.dumps(payload, indent=1).encode("utf-8")
        )

    @classmethod
    def load(cls, directory: FsPath) -> "Catalog":
        """Read ``catalog.json`` from *directory*."""
        path = FsPath(directory) / CATALOG_FILENAME
        if not path.exists():
            raise StoreError(f"no store catalog at {path}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt store catalog at {path}: {exc}") from None
        if payload.get("version") != CATALOG_VERSION:
            raise StoreError(
                f"unsupported catalog version {payload.get('version')!r} "
                f"(this build reads version {CATALOG_VERSION})"
            )
        check_layout_name(payload.get("format"), f"store catalog {path}")
        schema = schema_from_dict(payload["schema"])
        catalog = cls(
            directory=FsPath(directory),
            schema=schema,
            partition_size=int(payload["partition_size"]),
            partitions=[
                PartitionMeta.from_dict(entry)
                for entry in payload.get("partitions", [])
            ],
            extra=payload.get("extra", {}),
        )
        if catalog.fingerprint != payload["fingerprint"]:
            raise StoreError(
                f"catalog fingerprint mismatch at {path}: the schema payload "
                "does not hash to the recorded fingerprint"
            )
        return catalog

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def add(self, meta: PartitionMeta) -> None:
        """Register a new partition entry."""
        self.partitions.append(meta)

    @property
    def total_records(self) -> int:
        """Row count across all partitions (from the catalog, no file IO)."""
        return sum(meta.n_records for meta in self.partitions)

    @property
    def max_record_id(self) -> int:
        """Largest record id ingested so far (-1 for an empty store)."""
        return max((meta.max_record_id for meta in self.partitions), default=-1)

    def next_partition_id(self) -> int:
        return max(
            (meta.partition_id for meta in self.partitions), default=-1
        ) + 1

    def describe(self) -> dict[str, object]:
        """Catalog summary for ``flowcube-store stats``."""
        return {
            "partitions": len(self.partitions),
            "records": self.total_records,
            "partition_size": self.partition_size,
            "format": LAYOUT_NAME,
            "dimensions": list(self.schema.dimension_names),
            "fingerprint": self.fingerprint[:12],
        }
