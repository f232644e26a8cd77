"""Tests for the synthetic data generator (repro.synth, Section 6.1)."""

import numpy as np
import pytest

from repro.errors import GenerationError
from repro.synth import (
    GeneratorConfig,
    ZipfSampler,
    generate_location_sequences,
    generate_path_database,
    make_dimension_hierarchy,
    make_location_hierarchy,
    scaled_config,
)


class TestZipf:
    def test_uniform_at_alpha_zero(self):
        sampler = ZipfSampler(4, 0.0, np.random.default_rng(1))
        probabilities = sampler.probabilities()
        assert probabilities == pytest.approx([0.25] * 4)

    def test_skew_concentrates_mass(self):
        flat = ZipfSampler(10, 0.0, np.random.default_rng(1)).probabilities()
        skewed = ZipfSampler(10, 2.0, np.random.default_rng(1)).probabilities()
        assert skewed[0] > flat[0]
        assert skewed[-1] < flat[-1]

    def test_probabilities_sum_to_one(self):
        probabilities = ZipfSampler(7, 1.3, np.random.default_rng(1)).probabilities()
        assert probabilities.sum() == pytest.approx(1.0)

    def test_samples_in_range(self):
        sampler = ZipfSampler(5, 1.0, np.random.default_rng(2))
        draws = sampler.sample_many(1000)
        assert draws.min() >= 0 and draws.max() < 5
        assert 0 <= sampler.sample() < 5

    def test_empirical_matches_theoretical(self):
        sampler = ZipfSampler(4, 1.0, np.random.default_rng(3))
        draws = sampler.sample_many(20_000)
        empirical = np.bincount(draws, minlength=4) / len(draws)
        assert empirical == pytest.approx(sampler.probabilities(), abs=0.02)

    def test_bad_parameters(self):
        rng = np.random.default_rng(1)
        with pytest.raises(GenerationError):
            ZipfSampler(0, 1.0, rng)
        with pytest.raises(GenerationError):
            ZipfSampler(3, -1.0, rng)


class TestHierarchyGen:
    def test_dimension_hierarchy_shape(self):
        h = make_dimension_hierarchy("d0", (2, 3, 4))
        assert h.depth == 3
        assert len(h.concepts_at_level(1)) == 2
        assert len(h.concepts_at_level(2)) == 6
        assert len(h.leaves) == 24

    def test_location_hierarchy_shape(self):
        h = make_location_hierarchy(3, 4)
        assert h.depth == 2
        assert len(h.concepts_at_level(1)) == 3
        assert len(h.leaves) == 12

    def test_names_deterministic(self):
        a = make_dimension_hierarchy("x", (2, 2))
        b = make_dimension_hierarchy("x", (2, 2))
        assert list(a) == list(b)

    def test_bad_fanouts(self):
        with pytest.raises(GenerationError):
            make_dimension_hierarchy("x", ())
        with pytest.raises(GenerationError):
            make_location_hierarchy(0, 4)


class TestSequenceGen:
    def test_distinct_and_valid(self):
        h = make_location_hierarchy(4, 4)
        rng = np.random.default_rng(5)
        sequences = generate_location_sequences(h, 20, rng, 3, 8)
        assert len(set(sequences)) == 20
        leaves = set(h.leaves)
        for sequence in sequences:
            assert 3 <= len(sequence) <= 8
            assert all(loc in leaves for loc in sequence)
            # No immediate repeats.
            assert all(a != b for a, b in zip(sequence, sequence[1:]))

    def test_group_order_monotone(self):
        h = make_location_hierarchy(4, 4)
        rng = np.random.default_rng(5)
        for sequence in generate_location_sequences(h, 10, rng, 4, 8):
            groups = [h.parent(loc) for loc in sequence]
            assert groups == sorted(groups)

    def test_impossible_request_raises(self):
        h = make_location_hierarchy(1, 1)  # single location: length>1 impossible
        rng = np.random.default_rng(5)
        with pytest.raises(GenerationError, match="distinct sequences"):
            generate_location_sequences(h, 50, rng, 3, 4, max_attempts_factor=2)


class TestGenerator:
    def test_deterministic(self):
        config = GeneratorConfig(n_paths=50, seed=9)
        a = generate_path_database(config)
        b = generate_path_database(config)
        assert a.to_csv() == b.to_csv()

    def test_seed_changes_data(self):
        a = generate_path_database(GeneratorConfig(n_paths=50, seed=9))
        b = generate_path_database(GeneratorConfig(n_paths=50, seed=10))
        assert a.to_csv() != b.to_csv()

    def test_shape_matches_config(self):
        config = GeneratorConfig(
            n_paths=120, n_dims=3, n_sequences=8, max_duration=5, seed=4
        )
        db = generate_path_database(config)
        assert len(db) == 120
        assert db.schema.n_dimensions == 3
        assert len(db.distinct_location_sequences()) <= 8
        for record in db:
            assert all(1 <= s.duration <= 5 for s in record.path)

    def test_values_are_real_hierarchy_leaves(self):
        db = generate_path_database(GeneratorConfig(n_paths=40, seed=2))
        for record in db:
            for hierarchy, value in zip(db.schema.dimensions, record.dims):
                assert value in hierarchy
                assert hierarchy.level_of(value) == hierarchy.depth

    def test_with_override(self):
        config = GeneratorConfig(n_paths=10)
        bigger = config.with_(n_paths=99)
        assert bigger.n_paths == 99
        assert bigger.n_dims == config.n_dims

    def test_bad_config_rejected(self):
        with pytest.raises(GenerationError):
            GeneratorConfig(n_paths=-1)
        with pytest.raises(GenerationError):
            GeneratorConfig(min_path_length=5, max_path_length=3)
        with pytest.raises(GenerationError):
            GeneratorConfig(n_dims=0)

    def test_empty_database(self):
        db = generate_path_database(GeneratorConfig(n_paths=0))
        assert len(db) == 0


def test_scaled_config_is_deterministic():
    a = generate_path_database(scaled_config(200))
    b = generate_path_database(scaled_config(200))
    assert len(a) == 200
    assert [r.path for r in a] == [r.path for r in b]
