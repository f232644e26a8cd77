"""Bitmap query kernel: index-first slice/dice over materialised cuboids.

The seed read path answered ``FlowCubeQuery.slice`` by iterating *every*
cell of every cuboid and testing the key predicate afterwards — over a
:class:`~repro.store.cube_store.CubeStore` that means reading every
cell's record whether or not the cell matches.  This module turns the
predicate into index arithmetic, the same big-int bitmap idiom as the
counting kernel (:mod:`repro.perf.bitmap`):

* :class:`CuboidKeyCatalog` packs one cuboid's cell *ordinals* into
  bitmaps per ``(dimension, concept)`` — bit *i* is set iff the *i*-th
  cell key holds that concept on that dimension — built from the keys
  alone, with **zero cell-file IO**, at the first slice that needs it
  (a store holds no masks: they are a function of the keys);
* a slice constraint ``(dimension, wanted)`` becomes the OR of the
  concept masks over ``wanted``'s hierarchy descendant closure (a cell
  matches when its value *is* the wanted concept or a descendant of it —
  exactly the seed ``_matches`` semantics, ``"*"`` matching only
  ``"*"``), memoised per catalog;
* a conjunction of constraints is one AND over closure masks, and the
  matching cells are read off the set bits — only *those* cells are ever
  materialised.

:class:`QueryCache` is the serving-side memo: an
:class:`~repro.store.cache.LRUCache` keyed by canonicalised query tuples,
with a ``derivations`` counter for answers the roll-up planner
(:mod:`repro.query.planner`) had to merge from a descendant cuboid, and a
JSON-persistable stats snapshot so ``flowcube-store stats`` can report
serving behaviour across processes.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path as FsPath
from typing import Any

try:  # POSIX advisory locking for cross-process stats merges
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro import publish
from repro.core.hierarchy import ConceptHierarchy

__all__ = [
    "CatalogPool",
    "CuboidKeyCatalog",
    "QueryCache",
    "iter_set_bits",
    "load_query_stats",
    "merge_query_stats",
]

#: A cell key as the catalog sees it: one concept per item dimension.
CellKey = tuple[str, ...]


def iter_set_bits(mask: int) -> Iterator[int]:
    """Yield the positions of *mask*'s set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CuboidKeyCatalog:
    """Per-cuboid key index: cell ordinals as ``(dimension, concept)`` bitmaps.

    Args:
        keys: The cuboid's cell keys, in the cuboid's iteration order —
            the ordinal of a key is its position here, so iterating the
            set bits of a match mask yields cells in cuboid order.
        hierarchies: One :class:`ConceptHierarchy` per dimension (the
            schema's ``dimensions``), used for descendant closures.

    A catalog holds plain ints, so it keeps answering whatever happens
    to the store its keys came from.
    """

    def __init__(
        self,
        keys: Sequence[CellKey],
        hierarchies: Sequence[ConceptHierarchy],
    ) -> None:
        self.keys = tuple(keys)
        self._hierarchies = tuple(hierarchies)
        n_cells = len(self.keys)
        # Bucket each (dimension, value)'s cell ordinals first, then
        # materialise every mask with byte-level bit stores and one
        # ``int.from_bytes`` — linear small-int work, where OR-ing a
        # growing big-int per key re-copies ~n_cells/64 words per cell
        # (quadratic at 100k-path scale).
        buckets: list[dict[str, list[int]]] = [{} for _ in self._hierarchies]
        for ordinal, key in enumerate(self.keys):
            for dim, value in enumerate(key):
                bucket = buckets[dim].get(value)
                if bucket is None:
                    buckets[dim][value] = [ordinal]
                else:
                    bucket.append(ordinal)
        n_bytes = (n_cells + 7) >> 3
        masks: list[dict[str, int]] = []
        for per_dim in buckets:
            dim_masks: dict[str, int] = {}
            for value, positions in per_dim.items():
                bits = bytearray(n_bytes)
                for position in positions:
                    bits[position >> 3] |= 1 << (position & 7)
                dim_masks[value] = int.from_bytes(bits, "little")
            masks.append(dim_masks)
        self._masks = masks
        self._all_mask = (1 << n_cells) - 1
        #: (dimension, wanted concept) -> descendant-closure mask.
        self._closure_cache: dict[tuple[int, str], int] = {}

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def all_mask(self) -> int:
        """Mask with one bit per cell (the unconstrained match)."""
        return self._all_mask

    def value_mask(self, dim: int, value: str) -> int:
        """Cells whose key holds exactly *value* on dimension *dim*."""
        return self._masks[dim].get(value, 0)

    def closure_mask(self, dim: int, wanted: str) -> int:
        """Cells matching the slice constraint ``(dim, wanted)``.

        The seed semantics: a cell matches when its value equals *wanted*
        or is a strict hierarchy descendant of it; a stored ``"*"``
        matches only ``wanted == "*"`` (and ``"*"``'s closure is every
        concept, so an unconstrained dimension matches everything).
        """
        cached = self._closure_cache.get((dim, wanted))
        if cached is not None:
            return cached
        per_dim = self._masks[dim]
        hierarchy = self._hierarchies[dim]
        mask = 0
        # Walk whichever side is smaller: a narrow closure ORs its few
        # concepts' masks; a wide one (near the apex) tests the stored
        # values against the closure instead of materialising it.
        closure = hierarchy.descendants(wanted, include_self=True)
        if len(closure) <= len(per_dim):
            for concept in closure:
                mask |= per_dim.get(concept, 0)
        else:
            members = set(closure)
            for value, value_mask in per_dim.items():
                if value in members:
                    mask |= value_mask
        self._closure_cache[(dim, wanted)] = mask
        return mask

    def match_mask(self, constraints: Iterable[tuple[int, str]]) -> int:
        """AND of the closure masks — the slice/dice answer as one bitmap."""
        mask = self._all_mask
        for dim, wanted in constraints:
            mask &= self.closure_mask(dim, wanted)
            if not mask:
                break
        return mask

    def matching_keys(
        self, constraints: Iterable[tuple[int, str]]
    ) -> Iterator[CellKey]:
        """The matching cell keys, in cuboid order, via set-bit iteration."""
        keys = self.keys
        for ordinal in iter_set_bits(self.match_mask(constraints)):
            yield keys[ordinal]


class CatalogPool:
    """Shared registry of :class:`CuboidKeyCatalog` instances.

    A long-lived server answers many requests over the same cuboids;
    rebuilding the key catalog per :class:`~repro.query.api.FlowCubeQuery`
    object (or per request) would redo the same index pass.  A catalog is
    a function of the keys alone, which no path level changes, so the
    pool files one per *item* cuboid under its keys: a reload or an
    append that leaves an item cuboid's keys as they were keeps its
    catalog (and its closure cache), and one that changes them replaces
    the entry instead of leaking it.  All methods are thread-safe;
    catalog construction happens outside the lock (two racing builders
    do redundant work, never corrupt state).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: item level -> (keys, catalog).
        self._entries: dict[Any, tuple[tuple, CuboidKeyCatalog]] = {}
        self.hits = 0
        self.builds = 0

    def catalog(
        self, cuboid, hierarchies: Sequence[ConceptHierarchy]
    ) -> CuboidKeyCatalog:
        """The cuboid's catalog, built at most once per item level and
        key sequence."""
        keys = cuboid.keys
        item_level = cuboid.item_level
        with self._lock:
            entry = self._entries.get(item_level)
            if entry is not None and (entry[0] is keys or entry[0] == keys):
                # Equal keys in a new tuple (a reload, a FlowCube cuboid)
                # are re-filed under it, so the next look is by identity.
                self._entries[item_level] = (keys, entry[1])
                self.hits += 1
                return entry[1]
        catalog = CuboidKeyCatalog(keys, hierarchies)
        with self._lock:
            self._entries[item_level] = (keys, catalog)
            self.builds += 1
        return catalog

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Reuse counters: catalogs served from the pool vs built."""
        with self._lock:
            return {
                "catalogs": len(self._entries),
                "hits": self.hits,
                "builds": self.builds,
            }


class QueryCache:
    """Memoised query answers with hit/miss/derivation counters.

    A thin serving wrapper over :class:`~repro.store.cache.LRUCache`:
    callers canonicalise their query into a hashable key (operation name,
    path-level id, sorted constraints), and the cache tracks — next to the
    LRU's own hit/miss/eviction counters — how many answers were derived
    by the roll-up planner rather than read from a materialised cuboid.

    Every operation takes an internal lock, so one cache can back
    concurrent server workers: the underlying ``OrderedDict`` recency
    moves are not safe to interleave (a racing eviction between an
    unlocked get's lookup and its refresh would raise ``KeyError``).
    """

    def __init__(self, capacity: int = 128) -> None:
        # Imported lazily: repro.perf is a dependency of the miners, and
        # importing repro.store at module level would close the cycle
        # mining -> perf -> store -> builder -> mining.
        from repro.store.cache import LRUCache

        self._lru = LRUCache(capacity)
        self._lock = threading.Lock()
        self.derivations = 0

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            return self._lru.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._lru.put(key, value)

    def note_derivation(self) -> None:
        """Count one answer the roll-up planner had to derive."""
        with self._lock:
            self.derivations += 1

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._lru

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def clear(self) -> None:
        """Drop the entries; counters keep accumulating (LRU semantics)."""
        with self._lock:
            self._lru.clear()

    def rekey(self, new_key) -> tuple[int, int]:
        """:meth:`~repro.store.cache.LRUCache.rekey`, under the lock."""
        with self._lock:
            return self._lru.rekey(new_key)

    def stats(self) -> dict[str, float | int]:
        """LRU counters plus the planner's derivation count."""
        with self._lock:
            out = self._lru.stats()
            out["derivations"] = self.derivations
            return out


#: Filename for persisted query-cache counters inside a cube directory.
QUERY_STATS_FILENAME = "query_stats.json"

#: Sidecar lock file serialising read-modify-write merges.
QUERY_STATS_LOCKFILE = "query_stats.lock"

#: Counter keys that accumulate across processes.
_ACCUMULATING = ("hits", "misses", "evictions", "derivations")

#: Process-wide fallback when POSIX file locking is unavailable — still
#: serialises threads inside one process (the common concurrent case:
#: server workers flushing stats for the same cube directory).
_STATS_THREAD_LOCK = threading.Lock()


@contextmanager
def _stats_lock(directory: FsPath):
    """Exclusive advisory lock over a cube directory's stats file.

    ``flock`` on a sidecar file (never the stats file itself, whose inode
    is replaced on every merge) makes the load→add→rename sequence atomic
    across processes; the thread lock covers in-process concurrency and
    platforms without ``fcntl``.
    """
    with _STATS_THREAD_LOCK:
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        fd = os.open(directory / QUERY_STATS_LOCKFILE, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing drops the flock


def load_query_stats(directory: FsPath | str) -> dict[str, float | int] | None:
    """The persisted query-cache counters of a cube directory, if any."""
    path = FsPath(directory) / QUERY_STATS_FILENAME
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def merge_query_stats(
    directory: FsPath | str, stats: dict[str, float | int]
) -> dict[str, float | int]:
    """Fold one process's query-cache counters into the cube's persisted file.

    ``flowcube-store query`` runs one process per invocation, so its
    in-memory :class:`QueryCache` counters would vanish on exit;
    accumulating them here lets ``flowcube-store stats`` report serving
    behaviour across invocations.  Hit rate is recomputed from the merged
    totals.  Returns the merged snapshot.

    The merge is atomic under concurrency: an exclusive lock serialises
    the whole read-modify-write (so no increment is lost between racing
    workers, and makes this process's temp name the only one in use),
    and the new snapshot is renamed over ``query_stats.json``
    (:func:`~repro.publish.publish_file`) — a reader can never observe
    partial JSON.
    """
    directory = FsPath(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with _stats_lock(directory):
        merged = load_query_stats(directory) or {}
        for key in _ACCUMULATING:
            merged[key] = int(merged.get(key, 0)) + int(stats.get(key, 0))
        merged["capacity"] = stats.get("capacity", merged.get("capacity", 0))
        merged["size"] = stats.get("size", merged.get("size", 0))
        total = merged["hits"] + merged["misses"]
        merged["hit_rate"] = merged["hits"] / total if total else 0.0
        publish.publish_file(
            directory / QUERY_STATS_FILENAME,
            json.dumps(merged, indent=1).encode("utf-8"),
        )
    return merged
