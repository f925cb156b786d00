"""Portable RNG: fixed output streams and distributional sanity."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spantag.rng import (_BLOCK, SplitMix64, _block, derive_seed, fnv1a64,
                         splitmix64)


def scalar_stream(seed, n):
    """The first ``n`` outputs of ``seed``'s stream, one scalar step each."""
    state, outs = seed, []
    for _ in range(n):
        state, out = splitmix64(state)
        outs.append(out)
    return outs


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


class TestBlockStream:
    """``SplitMix64`` computes its outputs ``_BLOCK`` at a time."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           n=st.integers(0, 3 * _BLOCK + 5))
    @example(seed=0, n=3 * _BLOCK + 5)
    @example(seed=2**63, n=3 * _BLOCK + 5)
    @example(seed=2**64 - 1, n=3 * _BLOCK + 5)
    def test_blocks_equal_scalar_steps(self, seed, n):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(n)] == scalar_stream(seed, n)

    @pytest.mark.parametrize("seed_a, seed_b", [(5, 5), (5, 6)])
    def test_interleaved_generators_share_no_buffer(self, seed_a, seed_b):
        a, b = SplitMix64(seed_a), SplitMix64(seed_b)
        n = 2 * _BLOCK + 3
        got = [(a.next_u64(), b.next_u64()) for _ in range(n)]
        assert got == list(zip(scalar_stream(seed_a, n),
                               scalar_stream(seed_b, n)))

    @pytest.mark.parametrize("state", [0, 2**63, 2**64 - 1])
    def test_refill_is_exact_uint64_without_warnings(self, state):
        # numpy 1.x would turn a uint64 scalar mixed with a Python int
        # into float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = _block(state)
            SplitMix64(state).next_u64()
        assert block.dtype == np.uint64 and block.shape == (_BLOCK,)
        assert block.tolist() == scalar_stream(state, _BLOCK)


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
