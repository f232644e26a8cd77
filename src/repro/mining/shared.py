"""The Shared algorithm (Section 5.1, Algorithm 1).

Shared simultaneously mines the frequent cells *and* the frequent path
segments of every cell, at every interesting abstraction level of both the
item and the path lattices, in one family of level-wise scans:

1. One pass transforms the path database into the encoded transaction
   database D' (:class:`~repro.encoding.transactions.TransactionDatabase`
   materialises every item's ancestor closure, so a single count covers
   all levels), collects the frequent length-1 items, and **pre-counts**
   high-abstraction patterns of the next length.
2. Each subsequent pass counts candidates of length k, generated by the
   Apriori join with the Section 5 pruning rules applied:

   * *precount* — a candidate whose projection onto the high abstraction
     level was pre-counted infrequent cannot be frequent;
   * *unlinkable stages* — stage items whose location prefixes are not
     nested can never share a path;
   * *top-level items* — ``1**``-style apex items never enter D';
   * *ancestors* — an item and its ancestor never share a candidate (the
     ancestor adds nothing); enforced by the same-dimension and
     same-path-level join constraints.

The passes run in id space: D' is interned into dense int-id rows
(:mod:`repro.perf.interning`), each item's tid-list is a big-int bitmap,
and candidate counting is parent-mask AND + ``bit_count()``
(:mod:`repro.perf.bitmap`).  Candidate generation and every pruning rule
run on ids; results decode back into real items at the
:meth:`~repro.mining.result.FlowMiningResult.from_interned` boundary.
:func:`shared_pair_filter` and :func:`precount_prune` state the join and
pre-count rules over real items; :func:`mine_interned` runs their
id-space twins.

The output feeds flowgraph-exception computation for every flowcube cell
(:meth:`~repro.mining.result.FlowMiningResult.segments_by_cell`).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

from repro.core.aggregation import DURATION_ANY_LABEL
from repro.core.flowgraph_exceptions import resolve_min_support
from repro.core.lattice import DURATION_ANY, PathLattice, PathLevel
from repro.core.path_database import PathDatabase
from repro.encoding.item_encoding import DimItem
from repro.encoding.stage_encoding import StageItem, aggregate_prefix, stages_linkable
from repro.encoding.transactions import Item, TransactionDatabase
from repro.mining.apriori import generate_candidates
from repro.mining.result import FlowMiningResult
from repro.mining.stats import MiningStats
from repro.perf.bitmap import count_candidates_bitmap, item_masks
from repro.perf.interning import InternedTransactions

__all__ = [
    "shared_mine",
    "mine_interned",
    "shared_pair_filter",
    "top_path_level_id",
    "high_level_projection",
    "next_precount_length",
    "precount_prune",
]


def shared_pair_filter(a: Item, b: Item) -> bool:
    """Join constraint implementing pruning rules 2 and 4 pairwise.

    Candidates differ from their two parents in exactly one item, and all
    constraints below are pairwise-decomposable, so vetting the differing
    pair suffices:

    * two items of the same dimension never combine (one value per
      dimension; subsumes the dimension ancestor rule);
    * two stage items must be linkable: same path level and nested,
      distinct prefixes (subsumes the stage ancestor rule, since an
      ancestor stage lives at a different path level or equal prefix).
    """
    if isinstance(a, DimItem) and isinstance(b, DimItem):
        return a.dim != b.dim
    if isinstance(a, StageItem) and isinstance(b, StageItem):
        return stages_linkable(a, b)
    return True


def top_path_level_id(lattice: PathLattice) -> int | None:
    """Index of the most general path level, if the lattice has one.

    The paper's default lattice does: locations one level up, durations at
    ``*``.  Pre-counting projects stage items onto this level.
    """
    for i, level in enumerate(lattice):
        if all(level.is_higher_or_equal(other) for other in lattice):
            return i
    return None


def high_level_projection(
    item: Item, lattice: PathLattice, top_id: int | None
) -> Item | None:
    """Project an item onto the high abstraction level used for pre-counts.

    Dimension items project to level 1 of their hierarchy; stage items to
    the top path level (``None`` disables stage projection).
    """
    if isinstance(item, DimItem):
        if item.code == "*":
            return None
        return DimItem(item.dim, item.code[:1])
    if top_id is None:
        return None
    top_level: PathLevel = lattice[top_id]
    prefix = aggregate_prefix(item.prefix, top_level)
    duration = (
        DURATION_ANY_LABEL
        if top_level.duration_level == DURATION_ANY
        else item.duration
    )
    return StageItem(top_id, prefix, duration)


def shared_mine(
    database: PathDatabase,
    path_lattice: PathLattice | None = None,
    min_support: float = 0.01,
    max_length: int | None = None,
    precount_lengths: tuple[int, ...] = (2,),
    transaction_db: TransactionDatabase | None = None,
) -> FlowMiningResult:
    """Run Algorithm 1 over *database*.

    Args:
        database: The path database D.
        path_lattice: Interesting path levels (defaults to the paper's 4).
        min_support: δ, fractional (<1) or absolute.
        max_length: Optional bound on pattern length.
        precount_lengths: Pattern lengths pre-counted one scan early at
            the high abstraction level; the paper's experiments use
            length 2.  Pass ``()`` to disable pre-counting.
        transaction_db: Reuse an already-encoded transaction database
            (e.g. across a benchmark sweep over δ).

    Returns:
        A :class:`~repro.mining.result.FlowMiningResult`.
    """
    stats = MiningStats()
    started = time.perf_counter()
    if path_lattice is None:
        path_lattice = PathLattice.paper_default(database.schema.location)
    if transaction_db is None:
        phase = time.perf_counter()
        transaction_db = TransactionDatabase(
            database, path_lattice, include_top_level=False
        )
        stats.add_phase("encode", time.perf_counter() - phase)
    threshold = resolve_min_support(
        min_support, len(transaction_db.transactions)
    )
    phase = time.perf_counter()
    interned = transaction_db.interned()
    stats.add_phase("encode", time.perf_counter() - phase)
    supports_by_ids = mine_interned(
        interned, threshold, path_lattice, max_length, precount_lengths, stats
    )
    stats.elapsed_seconds = time.perf_counter() - started
    return FlowMiningResult.from_interned(
        supports_by_ids,
        interned.interner,
        threshold=threshold,
        n_transactions=len(transaction_db.transactions),
        schema=database.schema,
        path_lattice=path_lattice,
        stats=stats,
    )


def mine_interned(
    interned: InternedTransactions,
    threshold: int,
    path_lattice: PathLattice,
    max_length: int | None,
    precount_lengths: tuple[int, ...],
    stats: MiningStats,
) -> dict[tuple, int]:
    """Algorithm 1 over interned rows and big-int tid masks.

    The one level-wise loop both residencies run: :func:`shared_mine`
    feeds it :meth:`TransactionDatabase.interned`, the store miner
    (:func:`repro.store.builder.shared_mine_store`) the rows it interned
    while streaming partitions.  The interner must cache sort keys
    (``ItemInterner(sort_key=...)``); ids need not follow key order —
    every join and sort goes through the cached keys.

    Returns supports keyed by id tuples; the caller decodes them with
    ``interned.interner`` at the :class:`FlowMiningResult` boundary.
    """
    top_id = top_path_level_id(path_lattice)
    phase = time.perf_counter()
    interner = interned.interner
    n_base = interned.n_base  # ids beyond n_base are projection-only
    masks = item_masks(interned.rows, n_base)
    stats.add_phase("encode", time.perf_counter() - phase)

    # High-level projection table + per-row projections for pre-counting.
    # Interning a projection can extend the alphabet past ``n_base`` (only
    # in degenerate lattices); such ids carry no mask and never become
    # candidates — they only key pre-count tables.
    proj: list[int] = []
    high_rows: list[tuple[int, ...]] = []
    if precount_lengths:
        phase = time.perf_counter()
        for item_id in range(n_base):
            high = high_level_projection(
                interner.items[item_id], path_lattice, top_id
            )
            proj.append(-1 if high is None else interner.intern(high))
        for row in interned.rows:
            projected = {proj[item_id] for item_id in row}
            projected.discard(-1)
            high_rows.append(tuple(sorted(projected)))
        stats.add_phase("precount", time.perf_counter() - phase)

    # --- Scan 1: single-item counts + pre-count of length min(precount) ---
    phase = time.perf_counter()
    counts = {item_id: masks[item_id].bit_count() for item_id in range(n_base)}
    stats.add_phase("count", time.perf_counter() - phase)
    precounts: dict[int, Counter] = {}
    next_precount = next_precount_length(precount_lengths, 1)
    if next_precount is not None:
        phase = time.perf_counter()
        table = precounts.setdefault(next_precount, Counter())
        for row in high_rows:
            # Rows are sorted and duplicate-free, so each combination
            # tuple is the canonical key for its id set.
            for combo in itertools.combinations(row, next_precount):
                table[combo] += 1
        stats.add_phase("precount", time.perf_counter() - phase)
    stats.scans += 1
    stats.candidates_per_length[1] = len(counts)
    if next_precount in precounts:
        stats.precounted_patterns += len(precounts[next_precount])

    keys = interner.sort_keys
    frequent_sorted = sorted(
        ((item_id,) for item_id, n in counts.items() if n >= threshold),
        key=lambda t: keys[t[0]],
    )
    stats.frequent_per_length[1] = len(frequent_sorted)
    supports: dict[tuple, int] = {t: counts[t[0]] for t in frequent_sorted}
    mask_of: dict[tuple, int] = {t: masks[t[0]] for t in frequent_sorted}

    # Flatten shared_pair_filter's per-item attributes into one tuple per
    # id so the join's inner loop does two list lookups instead of
    # isinstance checks and dataclass attribute access.  Entry: (kind,
    # dim-or-level, prefix); only base ids can appear in candidates.
    pair_info: list[tuple[int, int, tuple | None]] = [
        (0, item.dim, None) if isinstance(item, DimItem)
        else (1, item.level_id, item.prefix)
        for item in interner.items[:n_base]
    ]

    def pair_filter(a: int, b: int) -> bool:
        kind_a, group_a, prefix_a = pair_info[a]
        kind_b, group_b, prefix_b = pair_info[b]
        if kind_a != kind_b:
            return True
        if kind_a == 0:
            return group_a != group_b
        # stages_linkable, inlined: same path level, distinct nested prefixes
        if group_a != group_b or prefix_a == prefix_b:
            return False
        if len(prefix_a) <= len(prefix_b):
            return prefix_b[: len(prefix_a)] == prefix_a
        return prefix_a[: len(prefix_b)] == prefix_b

    # --- Level-wise loop -------------------------------------------------
    length = 1
    while frequent_sorted and (max_length is None or length < max_length):
        phase = time.perf_counter()
        candidates = generate_candidates(
            frequent_sorted, pair_filter, stats, keys.__getitem__
        )
        stats.add_phase("join", time.perf_counter() - phase)
        phase = time.perf_counter()
        candidates = _precount_prune_ids(
            candidates, precounts, threshold, proj, stats
        )
        stats.add_phase("prune", time.perf_counter() - phase)
        if not candidates:
            break
        next_precount = next_precount_length(precount_lengths, length + 1)
        if next_precount is not None and next_precount not in precounts:
            # Pre-count high-level patterns of the next length during this
            # level's pass (Algorithm 1 line 6).
            phase = time.perf_counter()
            table = precounts.setdefault(next_precount, Counter())
            for row in high_rows:
                for combo in itertools.combinations(row, next_precount):
                    table[combo] += 1
            stats.precounted_patterns += len(table)
            stats.add_phase("precount", time.perf_counter() - phase)
        phase = time.perf_counter()
        candidate_masks = count_candidates_bitmap(candidates, mask_of, stats)
        length += 1
        frequent_sorted = [
            c for c, mask in candidate_masks.items()
            if mask.bit_count() >= threshold
        ]
        mask_of = {c: candidate_masks[c] for c in frequent_sorted}
        stats.frequent_per_length[length] += len(frequent_sorted)
        for itemset in frequent_sorted:
            supports[itemset] = candidate_masks[itemset].bit_count()
        stats.add_phase("count", time.perf_counter() - phase)
    return supports


def _precount_prune_ids(
    candidates: list[tuple],
    precounts: dict[int, Counter],
    threshold: int,
    proj: list[int],
    stats: MiningStats,
) -> list[tuple]:
    """Id-space twin of :func:`precount_prune` (same counts, same order)."""
    if not precounts:
        return candidates
    kept: list[tuple] = []
    for candidate in candidates:
        table = precounts.get(len(candidate))
        if table is None:
            kept.append(candidate)
            continue
        projection = {proj[item_id] for item_id in candidate}
        projection.discard(-1)
        if (
            len(projection) == len(candidate)
            and table[tuple(sorted(projection))] < threshold
        ):
            stats.pruned["precount"] += 1
            continue
        kept.append(candidate)
    return kept


def next_precount_length(
    precount_lengths: tuple[int, ...], scan_length: int
) -> int | None:
    """The precount length to collect while scanning *scan_length* patterns.

    Pre-counts of length m are collected during the scan for length m-1,
    so they are ready before C_m is generated.
    """
    want = scan_length + 1
    return want if want in precount_lengths else None


# Shim: benchmarks/flowbench/tracing.py spans this name (its
# ``mining.precount_prune`` row reads 0: the miner runs
# ``_precount_prune_ids``); the function goes with the [benchmark] PR
# that re-maps the dead spans.
def precount_prune(
    candidates: list[tuple],
    precounts: dict[int, Counter],
    threshold: int,
    lattice: PathLattice,
    top_id: int | None,
    stats: MiningStats,
) -> list[tuple]:
    """Drop candidates whose high-level projection is known infrequent.

    Sound because every transaction containing a candidate's items also
    contains all of their high-level ancestors: support(candidate) ≤
    support(projection).  Only applies when the projection keeps the
    candidate's length (distinct ancestors) and that length was
    pre-counted.
    """
    if not precounts:
        return candidates
    kept: list[tuple] = []
    for candidate in candidates:
        table = precounts.get(len(candidate))
        if table is None:
            kept.append(candidate)
            continue
        projection = {
            high_level_projection(item, lattice, top_id) for item in candidate
        }
        projection.discard(None)
        if len(projection) == len(candidate) and table[frozenset(projection)] < threshold:
            stats.pruned["precount"] += 1
            continue
        kept.append(candidate)
    return kept
