"""Tests for RNG plumbing, validation helpers, and the timer."""

import time

import numpy as np
import pytest

from repro.utils.rng import as_rng, spawn_rngs, spawned_pcg64_states
from repro.utils.timing import Timer
from repro.utils.validation import check_finite, check_positive, check_sorted


class TestRng:
    def test_as_rng_from_int_is_deterministic(self):
        assert as_rng(42).random() == as_rng(42).random()

    def test_as_rng_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_spawn_independent_children(self):
        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_spawn_deterministic(self):
        a1, a2 = spawn_rngs(7, 2)
        b1, b2 = spawn_rngs(7, 2)
        assert a1.random() == b1.random()
        assert a2.random() == b2.random()

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(0), 3)
        assert len(children) == 3

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestSpawnedPcg64States:
    """The vectorized seeding against numpy's own per-key construction."""

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5,
                                      2**128 + 3, 2**160 + 99])
    def test_matches_numpy_seed_sequence(self, seed):
        # Keys of one and of two 32-bit words take separate passes.
        keys = list(range(40)) + [12345, 2**32 - 1, 2**32, 2**40 + 3,
                                  2**63 - 1]
        got = list(spawned_pcg64_states(seed, keys))
        for key, (state, inc) in zip(keys, got):
            bitgen = np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(key,))
            )
            assert bitgen.state["state"] == {"state": state, "inc": inc}

    @pytest.mark.parametrize("seed", [0, 2**32 + 1, 2**70])
    def test_multi_word_keys(self, seed):
        # Tuple keys: each element adds its one or two words, so a block
        # whose rows straddle 2**32 mixes key shapes.
        rows = [0, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**63 - 1]
        for tail in [(1,), (2,), (2**33, 4)]:
            keys = [(row, *tail) for row in rows]
            for key, (state, inc) in zip(keys,
                                         spawned_pcg64_states(seed, keys)):
                bitgen = np.random.PCG64(
                    np.random.SeedSequence(entropy=seed, spawn_key=key)
                )
                assert bitgen.state["state"] == {"state": state, "inc": inc}

    def test_setting_the_state_reproduces_the_stream(self):
        bitgen = np.random.PCG64(0)
        for key, (state, inc) in enumerate(spawned_pcg64_states(3, range(5))):
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            fresh = np.random.default_rng(
                np.random.SeedSequence(entropy=3, spawn_key=(key,))
            )
            np.testing.assert_array_equal(
                np.random.Generator(bitgen).random(8), fresh.random(8)
            )

    def test_no_keys(self):
        assert list(spawned_pcg64_states(0, [])) == []

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_entropy_rejected_like_seed_sequence(self, seed):
        with pytest.raises(ValueError):
            np.random.SeedSequence(entropy=seed)
        with pytest.raises(ValueError, match="non-negative"):
            list(spawned_pcg64_states(seed, [0]))

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            list(spawned_pcg64_states(0, [1, -3]))


class TestValidation:
    def test_check_finite(self):
        check_finite(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            check_finite(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            check_finite(np.array([np.inf]))

    def test_check_positive(self):
        check_positive(1.0)
        check_positive(0.0, strict=False)
        with pytest.raises(ValueError):
            check_positive(0.0)
        with pytest.raises(ValueError):
            check_positive(-1.0, strict=False)

    def test_check_sorted(self):
        check_sorted(np.array([1.0, 1.0, 2.0]))
        check_sorted(np.array([1.0, 2.0]), strict=True)
        with pytest.raises(ValueError):
            check_sorted(np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            check_sorted(np.array([1.0, 1.0]), strict=True)


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_reusable(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            time.sleep(0.005)
        assert t.elapsed >= 0.004
        assert t.elapsed != first
