"""The partitioned on-disk path store.

A :class:`PartitionedPathStore` is a directory::

    store/
      catalog.json            schema + fingerprint + format + partitions
      partitions/
        strings.bin           the shared string table
        part-00000.bin        <= partition_size rows each; columnar
        part-00001.bin           binary (FCPART02)
        ...
      cube/                   (optional) the persisted flowcube, see
        ...                   :mod:`repro.store.cube_store`

Ingest appends size-bounded partitions; nothing ever rewrites an existing
partition file, so the store is safe to back up and rsync mid-ingest.
Record ids must be strictly increasing across ingests (the warehouse
append invariant) — this is what lets the catalog detect id collisions
from ranges alone, without keeping an id set in memory.

Reads are partition-at-a-time: :meth:`iter_partitions` never holds more
than one partition's :class:`~repro.core.path_database.PathDatabase` in
memory, which is the contract the out-of-core builder
(:mod:`repro.store.builder`) is written against.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path as FsPath

from repro import publish
from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase, PathSchema
from repro.errors import StoreError
from repro.store.binfmt import (
    LAYOUT_NAME,
    STRINGS_FILENAME,
    PartitionColumns,
    StringTable,
    pack_partition,
)
from repro.store.catalog import Catalog, schema_fingerprint
from repro.store.partition import (
    LOCATION_SUMMARY,
    PartitionMeta,
    partition_filename,
    read_partition,
    summarise_partition,
)

__all__ = ["PartitionedPathStore"]

PARTITIONS_DIR = "partitions"


class PartitionedPathStore:
    """A path database persisted as size-bounded partition files.

    Partitions share one vocabulary: the store's
    :class:`~repro.store.binfmt.StringTable` (``partitions/strings.bin``)
    is mmap'd on first use, every partition resolves its refs through
    it, and :meth:`close` (or the context-manager exit) releases the map
    — the store never relies on GC to drop file handles.
    """

    def __init__(self, directory: FsPath, catalog: Catalog) -> None:
        self.directory = FsPath(directory)
        self.catalog = catalog
        #: Held around :meth:`ingest`; the cube side holds the same file.
        self._writer = publish.WriterLock(self.directory)
        self._strings: StringTable | None = None
        self._strings_loaded = False

    # ------------------------------------------------------------------
    # shared string table
    # ------------------------------------------------------------------
    @property
    def _strings_path(self) -> FsPath:
        return self.directory / PARTITIONS_DIR / STRINGS_FILENAME

    @property
    def strings(self) -> StringTable | None:
        """The shared string table (mmap'd lazily), or ``None`` while the
        store has none — before its first ingest."""
        if not self._strings_loaded:
            self._strings_loaded = True
            if self._strings_path.exists():
                self._strings = StringTable.load(self._strings_path)
        return self._strings

    def _writable_strings(self) -> StringTable:
        """The shared table for a write path, creating it when absent."""
        table = self.strings
        if table is None:
            table = StringTable()
            self._strings = table
        return table

    def _save_strings(self, table: StringTable) -> None:
        """Persist the table before any file that references it.

        Append-only ids make the ordering crash-safe: a saved superset
        that no partition references yet is harmless, the reverse is
        not.
        """
        if table.dirty or not self._strings_path.exists():
            self._strings_path.parent.mkdir(parents=True, exist_ok=True)
            table.save(self._strings_path)

    def close(self) -> None:
        """Release the string-table map (idempotent)."""
        table, self._strings = self._strings, None
        self._strings_loaded = False
        if table is not None:
            table.close()

    def __enter__(self) -> "PartitionedPathStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def init(
        cls,
        directory: FsPath | str,
        schema: PathSchema,
        partition_size: int = 512,
        extra: dict | None = None,
        store_format: str = LAYOUT_NAME,
    ) -> "PartitionedPathStore":
        """Create an empty store at *directory* (which must not have one).

        *store_format* selects nothing: it is accepted for callers that
        still name the one layout, and any other value is refused.
        """
        if store_format != LAYOUT_NAME:
            raise StoreError(
                f"unknown store format {store_format!r}; stores are "
                f"written in the {LAYOUT_NAME!r} layout only"
            )
        directory = FsPath(directory)
        if (directory / "catalog.json").exists():
            raise StoreError(f"a store already exists at {directory}")
        catalog = Catalog(directory, schema, partition_size, extra=extra)
        catalog.save()
        return cls(directory, catalog)

    @classmethod
    def open(cls, directory: FsPath | str) -> "PartitionedPathStore":
        """Open an existing store (raises when the catalog is absent)."""
        directory = FsPath(directory)
        return cls(directory, Catalog.load(directory))

    # ------------------------------------------------------------------
    # basic facts
    # ------------------------------------------------------------------
    @property
    def schema(self) -> PathSchema:
        return self.catalog.schema

    @property
    def partition_size(self) -> int:
        return self.catalog.partition_size

    def __len__(self) -> int:
        return self.catalog.total_records

    def partition_ids(self) -> list[int]:
        return [meta.partition_id for meta in self.catalog.partitions]

    def _partition_path(self, meta: PartitionMeta) -> FsPath:
        return self.directory / PARTITIONS_DIR / meta.filename

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def ingest(
        self,
        records: Iterable[PathRecord] | PathDatabase,
        validate: bool = True,
    ) -> list[PartitionMeta]:
        """Append *records* as one or more new partitions.

        When a :class:`PathDatabase` is given, its schema must fingerprint
        identically to the store's.  Record ids must be strictly greater
        than every id already in the store, and strictly increasing within
        the batch.  A rejected batch writes no partition.

        Returns:
            The catalog entries of the partitions written.
        """
        if isinstance(records, PathDatabase):
            if schema_fingerprint(records.schema) != self.catalog.fingerprint:
                raise StoreError(
                    "database schema does not match the store's schema "
                    "fingerprint"
                )
            rows: list[PathRecord] = list(records)
            validate = False  # the database validated on construction
        else:
            rows = list(records)
        if not rows:
            return []
        self._writer.acquire()
        try:
            return self._ingest(rows, validate)
        finally:
            self._writer.release()

    def _ingest(self, rows: list[PathRecord], validate: bool):
        floor = self.catalog.max_record_id
        for record in rows:
            if record.record_id <= floor:
                raise StoreError(
                    f"record id {record.record_id} is not greater than the "
                    f"store's high-water mark {floor} (ids must be strictly "
                    "increasing across ingests)"
                )
            floor = record.record_id
        if validate:
            # The whole batch, before the first partition write: a bad
            # record in a later chunk must not leave earlier ones behind.
            PathDatabase(self.schema, rows)

        written: list[PartitionMeta] = []
        size = self.partition_size
        for start in range(0, len(rows), size):
            chunk = rows[start : start + size]
            database = PathDatabase(self.schema, chunk, validate=False)
            partition_id = self.catalog.next_partition_id()
            meta = PartitionMeta(
                partition_id=partition_id,
                filename=partition_filename(partition_id),
                n_records=len(chunk),
                min_record_id=chunk[0].record_id,
                max_record_id=chunk[-1].record_id,
                summaries=summarise_partition(database),
            )
            self._write_partition_file(self._partition_path(meta), database)
            self.catalog.add(meta)
            written.append(meta)
        self.catalog.save()
        return written

    def _write_partition_file(
        self, path: FsPath, database: PathDatabase
    ) -> None:
        """Write one partition through the shared table (which is saved
        *before* the partition that references it hits disk)."""
        table = self._writable_strings()
        payload = pack_partition(database, table)
        self._save_strings(table)
        path.parent.mkdir(parents=True, exist_ok=True)
        publish.publish_file(path, payload)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def load_partition(
        self, partition_id: int, *, columns: bool = False
    ) -> PathDatabase | PartitionColumns:
        """Load one partition's rows — or, with *columns*, only its
        :class:`~repro.store.binfmt.PartitionColumns`."""
        for meta in self.catalog.partitions:
            if meta.partition_id == partition_id:
                return read_partition(
                    self._partition_path(meta),
                    self.schema,
                    self.strings,
                    columns=columns,
                )
        raise StoreError(f"no partition {partition_id} in the catalog")

    def iter_partitions(
        self,
    ) -> Iterator[tuple[PartitionMeta, PathDatabase]]:
        """Yield ``(meta, database)`` one partition at a time.

        The previous partition's database becomes garbage as soon as the
        consumer advances — this is the out-of-core read path.
        """
        for meta in self.catalog.partitions:
            yield meta, read_partition(
                self._partition_path(meta), self.schema, self.strings
            )

    def load_all(self) -> PathDatabase:
        """Concatenate every partition into one in-memory database.

        Convenience for tests, examples, and small stores; the builder
        deliberately avoids it.
        """
        rows: list[PathRecord] = []
        for _, database in self.iter_partitions():
            rows.extend(database.records)
        return PathDatabase(self.schema, rows, validate=False)

    def select_partitions(
        self, location: str | None = None, **dims: str
    ) -> list[int]:
        """Partitions that *might* hold rows matching the given values.

        Uses the catalog's Bloom summaries only — no partition file is
        read.  Values may sit at any hierarchy level (summaries index the
        full ancestor closure).  A partition is returned unless some
        constraint definitely rules it out.
        """
        for name in dims:
            self.schema.dimension(name)  # raises on unknown dimensions
        constraints = [(f"dim:{name}", value) for name, value in dims.items()]
        if location is not None:
            constraints.append((LOCATION_SUMMARY, location))
        selected: list[int] = []
        for meta in self.catalog.partitions:
            for key, value in constraints:
                summary = meta.summaries.get(key)
                if summary is not None and not summary.might_contain(value):
                    break
            else:
                selected.append(meta.partition_id)
        return selected

    # ------------------------------------------------------------------
    # the cube side of the store
    # ------------------------------------------------------------------
    def cube_store(self, cache_size: int = 128):
        """The store's :class:`~repro.store.cube_store.CubeStore` view.

        The cube lives under ``<store>/cube``; it is empty until a build
        writes into it (``flowcube-store build`` or
        :func:`repro.store.builder.build_cube` with ``into=``).
        """
        from repro.store.cube_store import CubeStore

        return CubeStore(
            self.directory / "cube", self.schema, cache_size=cache_size
        )

    def describe(self) -> dict[str, object]:
        """Catalog-level summary statistics, plus the shared string
        table's size."""
        out = self.catalog.describe()
        table = self.strings
        out["shared_strings"] = len(table) if table is not None else 0
        return out
