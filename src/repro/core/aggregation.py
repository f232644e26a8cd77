"""Path aggregation to a path abstraction level (Section 4.1).

Aggregating a path to level ``(⟨v1...vk⟩, tl)`` happens in two steps:

1. each stage's location rolls up to its covering view concept and its
   duration discretises to the duration level, and
2. consecutive stages whose locations aggregated to the same concept merge
   into one stage, with a merged duration (by default the sum of the parts,
   as the paper suggests; any reducer can be plugged in).

Aggregated stages carry *duration labels* — strings — rather than floats,
because at the ``*`` duration level the value is the symbolic
:data:`DURATION_ANY_LABEL` and flowgraph nodes hold multinomial
distributions over these labels.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.core.lattice import DURATION_ANY, PathLevel
from repro.core.path import Path

__all__ = [
    "DURATION_ANY_LABEL",
    "AggregatedStage",
    "AggregatedPath",
    "WeightedPath",
    "WeightedPaths",
    "default_discretiser",
    "sum_merge",
    "max_merge",
    "aggregate_path",
    "aggregate_locations",
    "weight_paths",
    "expand_weighted",
    "total_weight",
]

#: Label of the "any duration" (``*``) level.
DURATION_ANY_LABEL = "*"

#: One aggregated stage: ``(location concept, duration label)``.
AggregatedStage = tuple[str, str]

#: An aggregated path: a tuple of aggregated stages.
AggregatedPath = tuple[AggregatedStage, ...]

#: A deduplicated aggregated path with its multiplicity in the cell.
WeightedPath = tuple[AggregatedPath, int]

#: A cell's path multiset in weighted form: each distinct aggregated path
#: once, in first-seen order, with how many records aggregated to it.
WeightedPaths = tuple[WeightedPath, ...]

#: Signature of a duration discretiser: numeric duration -> label.
Discretiser = Callable[[float], str]

#: Signature of a duration merger for collapsed consecutive stages.
Merger = Callable[[Sequence[float]], float]


def default_discretiser(duration: float) -> str:
    """Format a numeric duration as its integer-if-possible label."""
    return str(int(duration)) if float(duration).is_integer() else str(duration)


def sum_merge(durations: Sequence[float]) -> float:
    """Merged duration = sum of the merged stages (the paper's default)."""
    return float(sum(durations))


def max_merge(durations: Sequence[float]) -> float:
    """Merged duration = longest individual stay (an alternative reducer)."""
    return float(max(durations))


def aggregate_path(
    path: Path,
    level: PathLevel,
    discretiser: Discretiser = default_discretiser,
    merge: Merger = sum_merge,
) -> AggregatedPath:
    """Aggregate *path* to the path abstraction *level*.

    Args:
        path: The concrete path from the database.
        level: Target :class:`~repro.core.lattice.PathLevel`.
        discretiser: Maps a (merged) numeric duration to a label when the
            duration level keeps values.
        merge: Combines the numeric durations of merged consecutive stages
            *before* discretisation.

    Returns:
        The aggregated path, e.g. Figure 1's transportation view
        ``(("dist center", "2"), ("truck", "1"), ("store", "5"))``.
    """
    rolled: list[tuple[str, float]] = [
        (level.view.aggregate(stage.location), stage.duration) for stage in path
    ]
    merged: list[tuple[str, list[float]]] = []
    for location, duration in rolled:
        if merged and merged[-1][0] == location:
            merged[-1][1].append(duration)
        else:
            merged.append((location, [duration]))
    if level.duration_level == DURATION_ANY:
        return tuple((location, DURATION_ANY_LABEL) for location, _ in merged)
    return tuple(
        (location, discretiser(merge(durations))) for location, durations in merged
    )


def aggregate_locations(path: Path, level: PathLevel) -> tuple[str, ...]:
    """Just the merged location sequence of the aggregated path."""
    return tuple(location for location, _ in aggregate_path(path, level))


def weight_paths(paths: Iterable[AggregatedPath]) -> WeightedPaths:
    """Deduplicate *paths* into ``(path, weight)`` pairs, first-seen order.

    The weighted form is the cell representation used by
    :class:`~repro.core.flowcube.Cell`: identical aggregated paths — the
    common case once stages roll up — collapse into one entry whose weight
    is their multiplicity, so the flowgraph and the exception miner fold
    each distinct path once.
    """
    counts: dict[AggregatedPath, int] = {}
    for path in paths:
        counts[path] = counts.get(path, 0) + 1
    return tuple(counts.items())


def expand_weighted(weighted: Iterable[WeightedPath]) -> Iterator[AggregatedPath]:
    """Inverse of :func:`weight_paths`: yield each path ``weight`` times."""
    for path, weight in weighted:
        for _ in range(weight):
            yield path


def total_weight(weighted: Iterable[WeightedPath]) -> int:
    """Number of underlying records in a weighted path collection."""
    return sum(weight for _, weight in weighted)
