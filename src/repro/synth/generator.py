"""The synthetic path-database generator (Section 6.1).

Reproduces the paper's data synthesis: a retail-style location hierarchy
with 2 abstraction levels, path-independent dimensions with 3-level concept
hierarchies, a fixed pool of valid location sequences, and Zipf-distributed
choices at every level (varying α controls the density of frequent cells
and frequent path segments).

Entry points:

* :class:`GeneratorConfig` — every §6 experiment is a point in this
  parameter space (the per-figure configurations live in
  :mod:`repro.bench.experiments`);
* :func:`generate_path_database` — build the database for one config.

Generation per record follows the paper exactly: first the dimension
values (Zipf level by level down the hierarchy), then a Zipf-chosen valid
location sequence, then a Zipf-distributed random duration per stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.hierarchy import ConceptHierarchy
from repro.core.path import Path, PathRecord
from repro.core.path_database import PathDatabase, PathSchema
from repro.core.stage import Stage
from repro.errors import GenerationError
from repro.synth.hierarchy_gen import (
    make_dimension_hierarchy,
    make_location_hierarchy,
)
from repro.synth.sequence_gen import generate_location_sequences
from repro.synth.zipf import ZipfSampler

__all__ = ["GeneratorConfig", "generate_path_database", "scaled_config"]


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one synthetic path database.

    Attributes:
        n_paths: Number of records (the paper's N).
        n_dims: Path-independent dimensions (the paper's d).
        dim_fanouts: Distinct values per hierarchy level of every
            dimension — Figure 9's density knob: dataset a=(2,2,5),
            b=(4,4,6), c=(5,5,10).
        dim_skew: Zipf α for value choice at each dimension level.
        n_location_groups: Level-1 location concepts.
        locations_per_group: Leaf locations per group.
        n_sequences: Size of the valid-sequence pool — Figure 10's path
            density knob (few sequences = dense paths).
        sequence_skew: Zipf α over the sequence pool.
        min_path_length / max_path_length: Sequence length range.
        max_duration: Stage durations are drawn from ``1..max_duration``.
        duration_skew: Zipf α over durations.
        seed: Master seed; every database is a pure function of its config.
    """

    n_paths: int = 1000
    n_dims: int = 5
    dim_fanouts: tuple[int, ...] = (5, 5, 10)
    dim_skew: float = 0.8
    n_location_groups: int = 4
    locations_per_group: int = 4
    n_sequences: int = 30
    sequence_skew: float = 0.8
    min_path_length: int = 3
    max_path_length: int = 8
    max_duration: int = 10
    duration_skew: float = 1.0
    seed: int = 7

    def with_(self, **overrides) -> "GeneratorConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **overrides)

    def __post_init__(self) -> None:
        if self.n_paths < 0:
            raise GenerationError(f"n_paths must be >= 0, got {self.n_paths}")
        if self.n_dims < 1:
            raise GenerationError(f"n_dims must be >= 1, got {self.n_dims}")
        if self.min_path_length < 1 or self.max_path_length < self.min_path_length:
            raise GenerationError(
                f"bad path length range "
                f"[{self.min_path_length}, {self.max_path_length}]"
            )
        if self.max_duration < 1:
            raise GenerationError(f"max_duration must be >= 1")


def scaled_config(n_paths: int, seed: int = 11) -> GeneratorConfig:
    """A scale-sweep preset: *n_paths* records over a fixed-shape schema.

    The benchmark workloads (``benchmarks/flowbench``) need database
    size to be the only variable: the hierarchy shapes, sequence pool,
    and skews stay constant so the pattern count (and therefore the
    mining work per record) grows with N rather than with schema width.
    """
    return GeneratorConfig(
        n_paths=n_paths,
        n_dims=3,
        dim_fanouts=(3, 4),
        n_location_groups=4,
        locations_per_group=3,
        n_sequences=16,
        max_path_length=5,
        max_duration=4,
        seed=seed,
    )


def generate_path_database(config: GeneratorConfig) -> PathDatabase:
    """Generate the path database described by *config* (deterministic)."""
    rng = np.random.default_rng(config.seed)

    dimensions = tuple(
        make_dimension_hierarchy(f"d{i}", config.dim_fanouts)
        for i in range(config.n_dims)
    )
    location = make_location_hierarchy(
        config.n_location_groups, config.locations_per_group
    )
    duration = ConceptHierarchy.flat(
        "duration", [str(v) for v in range(config.max_duration + 1)]
    )
    schema = PathSchema(dimensions, location, duration)

    sequences = generate_location_sequences(
        location,
        config.n_sequences,
        rng,
        min_length=config.min_path_length,
        max_length=config.max_path_length,
    )

    # Per-level Zipf samplers, shared across dimensions (fresh draws each
    # record keep dimensions independent).
    level_samplers = [
        ZipfSampler(fanout, config.dim_skew, rng) for fanout in config.dim_fanouts
    ]
    sequence_sampler = ZipfSampler(len(sequences), config.sequence_skew, rng)
    duration_sampler = ZipfSampler(config.max_duration, config.duration_skew, rng)

    # Vectorised draws: one rank matrix per hierarchy level.
    n = config.n_paths
    level_ranks = [
        sampler.sample_many(n * config.n_dims).reshape(n, config.n_dims)
        for sampler in level_samplers
    ]
    sequence_ranks = sequence_sampler.sample_many(n)

    records: list[PathRecord] = []
    for row in range(n):
        dims = tuple(
            _leaf_name(
                dimensions[d].name,
                [int(level_ranks[level][row, d]) for level in range(len(level_ranks))],
            )
            for d in range(config.n_dims)
        )
        sequence = sequences[int(sequence_ranks[row])]
        durations = duration_sampler.sample_many(len(sequence)) + 1
        path = Path(
            Stage(loc, float(dur)) for loc, dur in zip(sequence, durations)
        )
        records.append(PathRecord(row + 1, dims, path))
    return PathDatabase(schema, records, validate=False)


def _leaf_name(prefix: str, ranks: list[int]) -> str:
    """Concept name for the leaf reached by taking *ranks* down the tree.

    Matches :func:`make_dimension_hierarchy`'s naming scheme, so the value
    is a real leaf of the generated hierarchy without tree walks.
    """
    return "_".join([prefix, *(str(r) for r in ranks)])
