"""Tests for weight-initialization schemes."""

import numpy as np
import pytest

from repro.nn.init import _fans, xavier_uniform


class TestFans:
    def test_2d(self):
        assert _fans((4, 8)) == (4, 8)

    def test_1d(self):
        assert _fans((5,)) == (5, 5)

    def test_conv_like(self):
        assert _fans((4, 8, 3)) == (12, 24)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _fans(())


class TestXavier:
    def test_bound_respected(self):
        rng = np.random.default_rng(0)
        w = xavier_uniform((100, 200), rng)
        bound = np.sqrt(6.0 / 300)
        assert np.all(np.abs(w) <= bound)
        assert w.shape == (100, 200)

    def test_variance_scaling(self):
        rng = np.random.default_rng(0)
        small = xavier_uniform((10, 10), rng).std()
        large = xavier_uniform((1000, 1000), rng).std()
        assert large < small  # bigger fans -> smaller weights

    def test_gain(self):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        base = xavier_uniform((50, 50), rng1)
        scaled = xavier_uniform((50, 50), rng2, gain=2.0)
        np.testing.assert_allclose(scaled, 2.0 * base)
