"""A bounded LRU cache fronting cube-store reads.

The :class:`~repro.store.cube_store.CubeStore` keeps every cell as one
record in a packed heap and hands out
:class:`~repro.core.flowcube.Cell` snapshots that decode their vector,
and expand their flowgraph, when a query first touches them.  This cache keeps the hot
cells in memory, bounded by entry count, and exposes hit/miss/eviction
counters so serving behaviour is observable — ``flowcube-store stats``,
the slicer's ``/stats`` and ``benchmarks/flowbench`` report them.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Least-recently-used mapping with a fixed capacity.

    Args:
        capacity: Maximum number of entries kept; the least recently *read
            or written* entry is evicted when a put overflows the bound.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value for *key*, counting a hit or a miss."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh *key*, evicting the coldest entry on overflow."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        # Membership tests do not count as hits/misses: they are used by
        # bookkeeping, not by the read path.
        return key in self._entries

    def clear(self) -> None:
        """Drop every entry; the counters keep accumulating."""
        self._entries.clear()

    def discard(self, stale) -> None:
        """Drop the entries whose key *stale* holds true of: stale, not
        evicted, so no counter moves."""
        for key in list(filter(stale, self._entries)):
            del self._entries[key]

    def rekey(self, new_key) -> tuple[int, int]:
        """Move every entry to ``new_key(key)``, in recency order, dropping
        those it maps to ``None``; return ``(kept, dropped)``."""
        held = len(self._entries)
        self._entries = OrderedDict(
            (moved, value)
            for key, value in self._entries.items()
            if (moved := new_key(key)) is not None
        )
        return len(self._entries), held - len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from memory (0.0 when never read)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float | int]:
        """Counters for reporting: size, capacity, hits, misses, evictions."""
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
