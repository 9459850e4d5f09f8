"""Tests for deterministic RNG derivation."""

import numpy as np

from repro.utils import derive_rng, rng_from_seed


class TestDeriveRng:
    def test_same_labels_same_stream(self):
        a = derive_rng(1, "user", 3).normal(size=5)
        b = derive_rng(1, "user", 3).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_labels_differ(self):
        a = derive_rng(1, "user", 3).normal(size=5)
        b = derive_rng(1, "user", 4).normal(size=5)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = derive_rng(1, "x").normal(size=5)
        b = derive_rng(2, "x").normal(size=5)
        assert not np.allclose(a, b)

    def test_label_order_matters(self):
        a = derive_rng(0, "a", "b").normal(size=3)
        b = derive_rng(0, "b", "a").normal(size=3)
        assert not np.allclose(a, b)


class TestRngFromSeed:
    def test_rng_from_seed(self):
        np.testing.assert_array_equal(rng_from_seed(3).normal(size=3),
                                      rng_from_seed(3).normal(size=3))


class TestSpawnGenerators:
    def test_deterministic_children(self):
        from repro.utils import spawn_generators
        a = spawn_generators(np.random.default_rng(3), 4)
        b = spawn_generators(np.random.default_rng(3), 4)
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga.normal(size=5),
                                          gb.normal(size=5))

    def test_children_are_independent_streams(self):
        from repro.utils import spawn_generators
        children = spawn_generators(np.random.default_rng(3), 3)
        draws = [g.normal(size=8) for g in children]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_successive_spawns_do_not_repeat(self):
        from repro.utils import spawn_generators
        parent = np.random.default_rng(3)
        first = spawn_generators(parent, 2)
        second = spawn_generators(parent, 2)
        assert not np.allclose(first[0].normal(size=5),
                               second[0].normal(size=5))

    def test_negative_count_rejected(self):
        from repro.utils import spawn_generators
        import pytest
        with pytest.raises(ValueError):
            spawn_generators(np.random.default_rng(0), -1)
