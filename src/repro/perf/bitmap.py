"""Bitmap tid-sets: vertical counting on Python big-int masks.

Tid-set counting (:func:`~repro.mining.apriori.count_candidates_tidset`,
the Basic baseline's counter) stores each itemset's transaction ids as a
``set[int]`` and counts a candidate by intersecting its two join parents'
sets.  Packing the same tid-list into
one arbitrary-precision integer — bit *t* set iff transaction *t*
contains the itemset — replaces the set intersection with a single
``&`` and the cardinality with ``int.bit_count()``, both of which run in
C over machine words.  For a database of ``n`` transactions every mask
is at most ``n`` bits, so an AND touches ``n / 64`` words regardless of
how many candidates share them.

Two counting entry points:

* :func:`count_candidates_bitmap` mirrors
  :func:`~repro.mining.apriori.count_candidates_tidset` — parent-mask
  intersection; the level-wise miner's counter, in memory and over a
  store alike;
* :func:`count_candidates_masks` mirrors
  :func:`~repro.mining.apriori.count_candidates` — a self-contained
  single pass that builds the transactions' item masks locally and
  k-way-ANDs each candidate.  No miner calls it; see its definition
  for why it stays.

Both produce exactly the supports of their set-based counterparts; the
test suite asserts the parity.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # keep repro.perf a leaf package (no import cycle)
    from repro.mining.stats import MiningStats

__all__ = ["item_masks", "count_candidates_bitmap", "count_candidates_masks"]


def item_masks(rows: Iterable[Iterable[int]], n_items: int) -> list[int]:
    """Per-item tid bitmaps over interned rows.

    Args:
        rows: Transactions as iterables of dense item ids, in tid order.
        n_items: Size of the interned alphabet.

    Returns:
        ``masks[item_id]`` has bit *t* set iff row *t* contains the item.
    """
    masks = [0] * n_items
    bit = 1
    for row in rows:
        for item_id in row:
            masks[item_id] |= bit
        bit <<= 1
    return masks


def count_candidates_bitmap(
    candidates: Iterable[tuple],
    parent_masks: dict[tuple, int],
    stats: MiningStats | None = None,
) -> dict[tuple, int]:
    """Candidate masks by intersecting the two join parents' masks.

    The bitmap twin of
    :func:`~repro.mining.apriori.count_candidates_tidset`: each candidate
    ``prefix + (a, b)`` came from parents ``prefix + (a,)`` and
    ``prefix + (b,)``, and its tid mask is their AND.  Supports are the
    masks' ``bit_count()``.
    """
    out: dict[tuple, int] = {}
    n_candidates = 0
    for candidate in candidates:
        n_candidates += 1
        left = parent_masks[candidate[:-1]]
        right = parent_masks[candidate[:-2] + candidate[-1:]]
        out[candidate] = left & right
    if stats is not None:
        stats.scans += 1
        if n_candidates:
            length = len(next(iter(out)))
            stats.candidates_per_length[length] += n_candidates
    return out


# Shim: benchmarks/flowbench/tracing.py spans this name (its
# ``bitmap.count_candidates`` row reads 0); the function goes with the
# [benchmark] PR that re-maps the dead spans.
def count_candidates_masks(
    transactions: Sequence[Iterable[Hashable]],
    candidates: Sequence[tuple],
) -> Counter:
    """Support of each candidate in one pass, via local item masks.

    Builds the transactions' per-item bitmaps (interning is implicit —
    masks are keyed by item) and counts each candidate with a k-way AND.
    Candidates absent from every transaction get no entry, matching the
    scan counter's ``Counter`` semantics; supports are identical to
    :func:`~repro.mining.apriori.count_candidates` on the same inputs.
    """
    masks: dict[Hashable, int] = {}
    bit = 1
    for transaction in transactions:
        for item in transaction:
            masks[item] = masks.get(item, 0) | bit
        bit <<= 1
    support: Counter = Counter()
    get = masks.get
    for candidate in candidates:
        mask = get(candidate[0], 0)
        if not mask:
            continue
        for item in candidate[1:]:
            mask &= get(item, 0)
            if not mask:
                break
        if mask:
            support[candidate] = mask.bit_count()
    return support
