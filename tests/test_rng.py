"""Portable RNG: fixed output streams and distributional sanity."""

import numpy as np
import pytest

from spantag.rng import SplitMix64, derive_seed, fnv1a64, splitmix64


class TestSplitMix64Stream:
    def test_reference_outputs_from_seed_zero(self):
        # first outputs of the well-known splitmix64 stream seeded with 0
        rng = SplitMix64(0)
        got = [rng.next_u64() for _ in range(3)]
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                       0x06C45D188009454F]

    def test_same_seed_same_stream(self):
        a = SplitMix64(987654321)
        b = SplitMix64(987654321)
        assert [a.next_u64() for _ in range(64)] == \
               [b.next_u64() for _ in range(64)]

    def test_negative_and_huge_seeds_are_masked(self):
        assert SplitMix64(-1).next_u64() == SplitMix64(2**64 - 1).next_u64()

    def test_stateless_step_matches_class(self):
        state, out = splitmix64(0)
        rng = SplitMix64(0)
        assert rng.next_u64() == out
        _, out2 = splitmix64(state)
        assert rng.next_u64() == out2


class TestDerivedStreams:
    def test_derive_seed_is_stable(self):
        assert derive_seed(0, "PROBLEM", 3) == derive_seed(0, "PROBLEM", 3)

    def test_derive_seed_separates_parts(self):
        seen = {derive_seed(0, t, r)
                for t in ("PROBLEM", "TEST", "TREATMENT")
                for r in range(5)}
        assert len(seen) == 15

    def test_derive_seed_order_sensitive(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_fnv1a64_known_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C


class TestDistributions:
    def test_uniform_in_unit_interval(self):
        rng = SplitMix64(7)
        xs = np.array([rng.uniform() for _ in range(20000)])
        assert np.all(xs >= 0.0) and np.all(xs < 1.0)
        assert abs(xs.mean() - 0.5) < 0.01

    def test_randrange_bounds_and_coverage(self):
        rng = SplitMix64(8)
        draws = [rng.randrange(7) for _ in range(5000)]
        assert set(draws) == set(range(7))

    def test_randrange_bound_is_2_64(self):
        rng = SplitMix64(10)
        assert 0 <= rng.randrange(2**64) < 2**64
        with pytest.raises(ValueError):
            rng.randrange(2**64 + 1)  # would leave no accepted draw
        with pytest.raises(ValueError):
            rng.randrange(0)

    def test_shuffle_is_a_permutation(self):
        rng = SplitMix64(9)
        for n in (1, 2, 5, 33):
            items = list(range(n))
            rng.shuffle(items)
            assert sorted(items) == list(range(n))

    def test_shuffle_depends_on_seed(self):
        a, b = list(range(40)), list(range(40))
        SplitMix64(1).shuffle(a)
        SplitMix64(2).shuffle(b)
        assert a != b

    def test_categorical_respects_weights(self):
        rng = SplitMix64(10)
        draws = [rng.categorical([0.0, 3.0, 1.0]) for _ in range(8000)]
        assert 0 not in draws
        frac_one = draws.count(1) / len(draws)
        assert abs(frac_one - 0.75) < 0.02

    def test_bernoulli_edge_probabilities(self):
        rng = SplitMix64(11)
        assert not any(rng.bernoulli(0.0) for _ in range(100))
        assert all(rng.bernoulli(1.0) for _ in range(100))
