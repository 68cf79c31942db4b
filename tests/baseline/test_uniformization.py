"""Tests for the level-expanded transient machinery."""

import numpy as np
import pytest
from scipy import stats

from repro.arrival.map_process import poisson_map
from repro.arrival.mmpp import mmpp2
from repro.baseline.uniformization import (
    expanded_generator,
    transient_kernels,
)


class TestExpandedGenerator:
    def test_block_structure(self):
        m = mmpp2(5.0, 1.0, 0.5, 0.5)
        q = expanded_generator(m, levels=3)
        assert q.shape == (6, 6)
        np.testing.assert_allclose(q[0:2, 0:2], m.d0)
        np.testing.assert_allclose(q[0:2, 2:4], m.d1)
        np.testing.assert_allclose(q[2:4, 0:2], 0.0)
        np.testing.assert_allclose(q[4:6, 4:6], m.d0)

    def test_substochastic(self):
        m = mmpp2(5.0, 1.0, 0.5, 0.5)
        q = expanded_generator(m, levels=2)
        assert np.all(q.sum(axis=1) <= 1e-12)  # leaks to absorption

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            expanded_generator(poisson_map(1.0), 0)


class TestTransientKernels:
    def test_kernel_zero_is_identity(self):
        ker = transient_kernels(poisson_map(2.0), 3, horizon=1.0, n_steps=10)
        np.testing.assert_allclose(ker.kernels[0], np.eye(3))

    def test_survival_decreases(self):
        ker = transient_kernels(poisson_map(2.0), 3, horizon=2.0, n_steps=20)
        surv = ker.survival()
        assert np.all(np.diff(surv, axis=0) <= 1e-12)
        assert np.all(surv >= -1e-12) and np.all(surv <= 1 + 1e-12)

    def test_level_distribution_poisson(self):
        """For a Poisson MAP the level occupancy is a truncated Poisson."""
        rate, t = 3.0, 0.7
        ker = transient_kernels(poisson_map(rate), levels=20, horizon=t, n_steps=50)
        init = np.zeros(20)
        init[0] = 1.0
        lvl = ker.level_distribution(ker.n_steps, init)
        expected = stats.poisson.pmf(np.arange(20), rate * t)
        np.testing.assert_allclose(lvl, expected, atol=1e-6)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            transient_kernels(poisson_map(1.0), 2, horizon=0.0, n_steps=10)
        with pytest.raises(ValueError):
            transient_kernels(poisson_map(1.0), 2, horizon=1.0, n_steps=0)

