"""The workloads and the inputs a seed turns them into.

Every workload runs the same lifecycle (ingest → build → mount → miss
rounds → hot windows → append → read → compact); they differ only in the
*input properties* the program's behaviour depends on, chosen so that
each one puts the time in a different group of layers (see ``why``).
All sample ``scaled_config(n_paths, 11)`` (3 dimensions, fan-outs (3, 4)),
8 partitions, the binary format, ``engine="rollup"``, ``kernel="bitmap"``
and ``jobs=1`` — the program's defaults.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro.core.path import PathRecord
from repro.core.path_database import PathDatabase
from repro.synth import generate_path_database, scaled_config

N_PARTITIONS = 8
#: The generator seed of the population every ``--seed`` samples from.
POPULATION_SEED = 11
#: Share of ``n_paths`` one appended batch carries.
BATCH_SHARE = 0.02
#: Level-1, level-2 and pair cuts the hot windows rotate over (the ten
#: fit the 512-entry response cache).
HOT_CUTS = (2, 4, 4)


@dataclass(frozen=True)
class Workload:
    """One input regime.

    Attributes:
        n_paths: Records generated.
        support_share: δ as a share of ``n_paths``; the program is given
            the absolute count (at least 2), because only an absolute δ
            keeps Shared-segment exceptions, cell-local exceptions and
            append-time re-mining byte-identical to one another.
        exceptions: Run the paper's pipeline — Shared mining
            (Algorithm 1) then (ε, δ) exception mining — instead of the
            algebraic measure alone.
        rotation: How many level-1 cuts, level-2 cuts and level-1 ×
            level-1 pair cuts one miss round requests.
        reads: The same three counts for the cuts read back after every
            append (a subset of the rotation, so its mix of heavy and
            light cuts does not change with the seed).
        batches: Appends (each followed by a read and a compaction) per
            store copy.
    """

    name: str
    why: str
    n_paths: int
    support_share: float
    exceptions: bool
    rotation: tuple[int, int, int]
    reads: tuple[int, int, int]
    batches: int = 2

    def min_support(self, n_paths: int) -> int:
        """The absolute δ handed to the program for *n_paths* records."""
        return max(2, round(self.support_share * n_paths))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense",
            why=(
                "2k paths, support 2, no exceptions: ~9.4k cells >> the "
                "256-cell cache, so roll-up, FlowGraph.merge, heap "
                "encode/flush, heap decode and delta-merge do the work; "
                "miner and exception kernel do none"
            ),
            n_paths=2000,
            support_share=0.0,
            exceptions=False,
            rotation=(9, 12, 15),
            reads=(3, 4, 5),
        ),
        Workload(
            name="iceberg",
            why=(
                "the paper's pipeline at 2k paths, delta=2%: Shared mining "
                "+ (eps,delta) exceptions dominate build and append; only "
                "~1k cells reach the heap, so storage work is small"
            ),
            n_paths=2000,
            support_share=0.02,
            exceptions=True,
            rotation=(9, 36, 27),
            reads=(6, 9, 9),
        ),
        Workload(
            name="records",
            why=(
                "10k paths, delta=5%, no exceptions: ~370 cells, so the "
                "partition codec, record scan and Bloom-pruned append "
                "sweep dominate and the cube nearly fits the cell cache"
            ),
            n_paths=10_000,
            support_share=0.05,
            exceptions=False,
            rotation=(9, 36, 27),
            reads=(6, 9, 9),
        ),
    )
}


@dataclass
class Inputs:
    """Everything the program is fed, derived from (workload, seed)."""

    database: object
    rotation: list[str]
    level1: set[str]
    hot: list[str]
    reads: list[str]
    batches: list[list[PathRecord]]


def population_config(workload: Workload, n_paths: int | None = None):
    """The generator configuration every seed of *workload* samples from."""
    return scaled_config(n_paths or workload.n_paths, POPULATION_SEED)


def cut_classes(schema) -> tuple[list[str], list[str], list[str]]:
    """Every level-1 cut, level-2 cut, and cross-dimension level-1 pair."""
    level1 = [
        (h.name, c) for h in schema.dimensions
        for c in sorted(h.concepts_at_level(1))
    ]
    level2 = [
        (h.name, c) for h in schema.dimensions
        for c in sorted(h.concepts_at_level(2))
    ]
    pairs = [
        (a, b) for i, a in enumerate(level1) for b in level1[i + 1:]
        if a[0] != b[0]
    ]
    single = lambda cut: f"{cut[0]}:{cut[1]}"  # noqa: E731
    return (
        [single(c) for c in level1],
        [single(c) for c in level2],
        [f"{single(a)}|{single(b)}" for a, b in pairs],
    )


#: Clones per batch of records whose dimension values no other record has.
PROMOTING_CLONES = 2


def skewed_batches(database, rng: random.Random, count: int, size: int):
    """*count* batches cloning records under every dimension's first
    level-1 concept, with fresh ids above the high-water mark.

    A skewed batch touches one corner of the cube, which is what makes a
    delta-merge cheaper than a rebuild; the clones keep every value a
    real leaf, so no record is rejected.  Every batch clones
    ``PROMOTING_CLONES`` records that were the only ones with their
    dimension values: at support 2 that promotes their cells, so every
    append pays the partition sweep for promotion candidates instead of
    only those whose random picks happen to include such a record (the
    sweep is a quarter of a dense append).
    """
    dims = database.schema.dimensions
    first = [sorted(h.concepts_at_level(1))[0] for h in dims]
    pool = [
        record for record in database
        if all(
            h.ancestor_at_level(value, 1) == wanted
            for h, value, wanted in zip(dims, record.dims, first)
        )
    ] or list(database)
    frequency = Counter(record.dims for record in database)
    lone = [record for record in pool if frequency[record.dims] == 1] or pool
    next_id = max(record.record_id for record in database) + 1
    batches = []
    for _ in range(count):
        sources = [rng.choice(lone) for _ in range(min(PROMOTING_CLONES, size))]
        sources += [rng.choice(pool) for _ in range(size - len(sources))]
        for source in sources:
            frequency[source.dims] += 1
        lone = [record for record in lone if frequency[record.dims] == 1] or pool
        batch = []
        for source in sources:
            batch.append(PathRecord(next_id, source.dims, source.path))
            next_id += 1
        batches.append(batch)
    return batches


def make_inputs(
    workload: Workload, seed: int, n_paths: int | None = None
) -> Inputs:
    """Generate the database, the cut rotation and the append batches.

    The *population* — hierarchies, the pool of 16 location sequences,
    the Zipf parameters — is ``scaled_config(n_paths, POPULATION_SEED)``
    for every seed; the seed draws the *sample*: ``n_paths`` records
    picked from it with replacement and re-numbered, the batch picks, the
    request order.  Seeds then differ by sampling noise (cells ±1-2 %),
    not by which random sequence pool they got, which alone moved the
    Shared-mining time by ±20 %.
    """
    population = generate_path_database(population_config(workload, n_paths))
    rng = random.Random(seed)
    database = PathDatabase(
        population.schema,
        [
            PathRecord(record_id, source.dims, source.path)
            for record_id, source in enumerate(
                rng.choices(population.records, k=len(population)), start=1
            )
        ],
        validate=False,
    )
    # Which cuts are asked is fixed by rank (evenly spaced over each class:
    # Zipf makes low ranks heavy), so every seed asks the same mix of heavy
    # and light cuts; the seed decides the data and the order.
    picks = [
        [cuts[i * len(cuts) // wanted] for i in range(min(wanted, len(cuts)))]
        for cuts, wanted in zip(cut_classes(database.schema), workload.rotation)
    ]
    rotation = [cut for cuts in picks for cut in cuts]
    rng.shuffle(rotation)

    def subset(counts) -> list[str]:
        return [cut for cuts, n in zip(picks, counts) for cut in cuts[:n]]

    size = max(1, int(len(database) * BATCH_SHARE))
    return Inputs(
        database=database,
        rotation=rotation,
        level1=set(picks[0]),
        hot=subset(HOT_CUTS),
        reads=subset(workload.reads),
        batches=skewed_batches(database, rng, workload.batches, size),
    )
