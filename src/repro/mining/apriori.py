"""Classic Apriori over generic transactions (Agrawal & Srikant [3]).

This is the substrate the paper's algorithms build on: the Cubing baseline
calls it per cell, the flowgraph exception miner uses a specialised variant,
Shared reuses its join (:func:`generate_candidates`) and Basic its tid-set
counter (:func:`count_candidates_tidset`).

Transactions are frozensets of hashable items.  Candidate generation is the
standard sorted-prefix join with the all-subsets-frequent check; an optional
``pair_filter`` hook lets callers inject domain pruning (e.g. stage
linkability) directly into the join.

Two support-counting strategies are provided and produce identical
results (the level-wise candidate structure, and hence every pruning
statistic, is the same for both):

* ``"scan"`` — the textbook per-pass subset test (what the paper's C++
  implementation does), the reference the tests compare against;
* ``"bitmap"`` (default) — vertical counting over interned items
  (:mod:`repro.perf.interning`): tid-lists are packed into big-int
  bitmaps and a candidate's support is the ``bit_count()`` of its
  parents' mask AND (:mod:`repro.perf.bitmap`).  In pure Python this is
  the fastest by a wide margin.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Sequence

from repro.errors import MiningError
from repro.mining.stats import MiningStats
from repro.perf.bitmap import count_candidates_bitmap, item_masks
from repro.perf.interning import InternedTransactions

__all__ = [
    "apriori",
    "count_candidates",
    "count_candidates_tidset",
    "generate_candidates",
    "tid_lists",
]

ItemT = Hashable
ItemsetT = frozenset
PairFilter = Callable[[ItemT, ItemT], bool]


def count_candidates(
    transactions: Sequence[frozenset],
    candidates: Iterable[tuple],
    stats: MiningStats | None = None,
) -> Counter:
    """Count the support of each candidate itemset in one database pass.

    Candidates are tuples of items (any order).  Each candidate is indexed
    by one of its items; a transaction only tests the candidates indexed
    under the items it actually contains, which keeps the pass roughly
    linear in matches rather than ``|D| × |C|``.
    """
    index: dict[ItemT, list[tuple[tuple, frozenset]]] = {}
    n_candidates = 0
    for candidate in candidates:
        n_candidates += 1
        # Index under the first item of the canonical order; any member
        # works for correctness, the first keeps buckets deterministic.
        index.setdefault(candidate[0], []).append((candidate, frozenset(candidate)))
    support: Counter = Counter()
    for transaction in transactions:
        for item in transaction:
            for candidate, item_set in index.get(item, ()):
                if item_set <= transaction:
                    support[candidate] += 1
    if stats is not None:
        stats.scans += 1
        if n_candidates:
            length = len(next(iter(index.values()))[0][0])
            stats.candidates_per_length[length] += n_candidates
    return support


def generate_candidates(
    frequent: Sequence[tuple],
    pair_filter: PairFilter | None = None,
    stats: MiningStats | None = None,
    key: Callable[[ItemT], object] | None = None,
) -> list[tuple]:
    """Apriori join + prune: build length ``k+1`` candidates from length-k.

    Args:
        frequent: Frequent itemsets of length k as *sorted* tuples.
        pair_filter: Optional predicate on the two differing items; a pair
            rejected here never forms a candidate (used for stage
            linkability and ancestor pruning).
        stats: Pruning counters (``"unlinkable"`` for pair_filter rejects,
            ``"subset"`` for the all-subsets-frequent check).
        key: Item sort key; must match the order of the input tuples.
    """
    if key is None:
        key = _default_key
    frequent_set = set(frequent)
    by_prefix: dict[tuple, list] = {}
    for itemset in frequent:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])
    candidates: list[tuple] = []
    for prefix, tails in by_prefix.items():
        tails.sort(key=key)
        for i, a in enumerate(tails):
            for b in tails[i + 1 :]:
                if pair_filter is not None and not pair_filter(a, b):
                    if stats is not None:
                        stats.pruned["unlinkable"] += 1
                    continue
                candidate = prefix + (a, b)
                if _all_subsets_frequent(candidate, frequent_set):
                    candidates.append(candidate)
                elif stats is not None:
                    stats.pruned["subset"] += 1
    return candidates


def _all_subsets_frequent(candidate: tuple, frequent_set: set) -> bool:
    """Check every length-(k-1) subset of *candidate* is frequent.

    The two subsets obtained by dropping one of the last two items are the
    join's parents and need no check.
    """
    for drop in range(len(candidate) - 2):
        subset = candidate[:drop] + candidate[drop + 1 :]
        if subset not in frequent_set:
            return False
    return True


def tid_lists(transactions: Sequence[frozenset]) -> dict[ItemT, set[int]]:
    """Vertical representation: item → set of transaction indexes."""
    tids: dict[ItemT, set[int]] = {}
    for index, transaction in enumerate(transactions):
        for item in transaction:
            tids.setdefault(item, set()).add(index)
    return tids


def count_candidates_tidset(
    candidates: Iterable[tuple],
    parent_tids: dict[tuple, set[int]],
    stats: MiningStats | None = None,
) -> dict[tuple, set[int]]:
    """Candidate tidsets by intersecting the two join parents' tidsets.

    Each candidate ``prefix + (a, b)`` came from parents ``prefix + (a,)``
    and ``prefix + (b,)``; the transactions containing the candidate are
    exactly the intersection of the parents' tidsets.
    """
    out: dict[tuple, set[int]] = {}
    n_candidates = 0
    for candidate in candidates:
        n_candidates += 1
        left = parent_tids[candidate[:-1]]
        right = parent_tids[candidate[:-2] + candidate[-1:]]
        out[candidate] = left & right
    if stats is not None:
        stats.scans += 1
        if n_candidates:
            length = len(next(iter(out)))
            stats.candidates_per_length[length] += n_candidates
    return out


def apriori(
    transactions: Sequence[frozenset],
    min_support: int,
    max_length: int | None = None,
    pair_filter: PairFilter | None = None,
    stats: MiningStats | None = None,
    key: Callable[[ItemT], object] | None = None,
    counting: str = "bitmap",
) -> dict[frozenset, int]:
    """Mine all frequent itemsets with absolute support ≥ *min_support*.

    Args:
        transactions: The database, as frozensets of hashable items.
        min_support: Absolute support threshold (≥ 1).
        max_length: Stop after this pattern length (None = run to fixpoint).
        pair_filter: Domain pruning hook for candidate generation.
        stats: Optional :class:`~repro.mining.stats.MiningStats` to fill.
        key: Sort key making mixed item types orderable (default: by
            ``(type name, repr)`` which is stable for our item classes).
        counting: ``"bitmap"`` (default) or ``"scan"``; identical
            results and statistics, different speed.

    Returns:
        Mapping frozenset(items) → absolute support.
    """
    if key is None:
        key = _default_key
    if counting not in ("bitmap", "scan"):
        raise MiningError(f"unknown counting strategy {counting!r}")
    if counting == "bitmap":
        return _apriori_bitmap(
            transactions, min_support, max_length, pair_filter, stats, key
        )
    counts: Counter = Counter()
    for transaction in transactions:
        counts.update(transaction)
    if stats is not None:
        stats.scans += 1
        stats.candidates_per_length[1] += len(counts)
    frequent_sorted: list[tuple] = sorted(
        ((item,) for item, n in counts.items() if n >= min_support),
        key=lambda t: key(t[0]),
    )
    result: dict[frozenset, int] = {
        frozenset(t): counts[t[0]] for t in frequent_sorted
    }
    if stats is not None:
        stats.frequent_per_length[1] += len(frequent_sorted)

    length = 1
    while frequent_sorted and (max_length is None or length < max_length):
        candidates = generate_candidates(frequent_sorted, pair_filter, stats, key)
        if not candidates:
            break
        length += 1
        support = count_candidates(transactions, candidates, stats)
        frequent_sorted = [c for c in candidates if support[c] >= min_support]
        for itemset in frequent_sorted:
            result[frozenset(itemset)] = support[itemset]
        if stats is not None:
            stats.frequent_per_length[length] += len(frequent_sorted)
    return result


def _apriori_bitmap(
    transactions: Sequence[frozenset],
    min_support: int,
    max_length: int | None,
    pair_filter: PairFilter | None,
    stats: MiningStats | None,
    key: Callable[[ItemT], object],
) -> dict[frozenset, int]:
    """The interned bitmap strategy: :func:`apriori` in id space.

    Items are interned in *key* order, so the id-space join mirrors the
    item-space join one-to-one (same candidates, same pruning counts);
    results decode back to item frozensets on the way out.
    """
    interned = InternedTransactions.from_transactions(transactions, sort_key=key)
    interner = interned.interner
    masks = item_masks(interned.rows, len(interner))
    counts = {
        item_id: masks[item_id].bit_count() for item_id in range(len(interner))
    }
    if stats is not None:
        stats.scans += 1
        stats.candidates_per_length[1] += len(counts)
    keys = interner.sort_keys
    frequent_sorted: list[tuple] = sorted(
        ((item_id,) for item_id, n in counts.items() if n >= min_support),
        key=lambda t: keys[t[0]],
    )
    result_ids: dict[tuple, int] = {t: counts[t[0]] for t in frequent_sorted}
    if stats is not None:
        stats.frequent_per_length[1] += len(frequent_sorted)
    mask_of: dict[tuple, int] = {t: masks[t[0]] for t in frequent_sorted}

    items = interner.items
    pair_filter_ids: PairFilter | None = None
    if pair_filter is not None:
        def pair_filter_ids(a: int, b: int) -> bool:
            return pair_filter(items[a], items[b])

    length = 1
    while frequent_sorted and (max_length is None or length < max_length):
        candidates = generate_candidates(
            frequent_sorted, pair_filter_ids, stats, keys.__getitem__
        )
        if not candidates:
            break
        length += 1
        candidate_masks = count_candidates_bitmap(candidates, mask_of, stats)
        frequent_sorted = [
            c for c, mask in candidate_masks.items()
            if mask.bit_count() >= min_support
        ]
        mask_of = {c: candidate_masks[c] for c in frequent_sorted}
        for itemset in frequent_sorted:
            result_ids[itemset] = candidate_masks[itemset].bit_count()
        if stats is not None:
            stats.frequent_per_length[length] += len(frequent_sorted)
    return {interner.decode(t): n for t, n in result_ids.items()}


def _default_key(item: ItemT) -> tuple[str, str]:
    return (type(item).__name__, repr(item))
