"""Tests for empirical trace statistics (rates, ACF, IDC)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrival.map_process import poisson_map
from repro.arrival.mmpp import mmpp2
from repro.arrival.stats import (
    autocorrelation,
    binned_rate,
    idc,
    interarrivals,
    mean_rate,
    scv,
)


class TestInterarrivals:
    def test_diff_of_sorted(self):
        np.testing.assert_allclose(interarrivals([0.0, 1.0, 3.0]), [1.0, 2.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            interarrivals([1.0, 0.5])

    def test_short_input(self):
        assert interarrivals([1.0]).size == 0


class TestRates:
    def test_mean_rate(self):
        assert mean_rate(np.linspace(0, 10, 101)) == pytest.approx(10.1)

    def test_mean_rate_with_duration(self):
        assert mean_rate(np.array([1.0, 2.0]), duration=10.0) == pytest.approx(0.2)

    def test_empty(self):
        assert mean_rate(np.array([])) == 0.0

    def test_binned_rate(self):
        ts = np.array([0.1, 0.2, 1.5, 2.5, 2.6, 2.7])
        centers, rates = binned_rate(ts, 1.0, t_start=0.0, t_end=3.0)
        np.testing.assert_allclose(centers, [0.5, 1.5, 2.5])
        np.testing.assert_allclose(rates, [2.0, 1.0, 3.0])

    def test_binned_rate_invalid_width(self):
        with pytest.raises(ValueError):
            binned_rate(np.array([1.0]), 0.0)


class TestScv:
    def test_constant_is_zero(self):
        assert scv(np.full(10, 3.0)) == 0.0

    def test_exponential_near_one(self):
        rng = np.random.default_rng(0)
        assert scv(rng.exponential(size=100_000)) == pytest.approx(1.0, abs=0.05)


class TestAutocorrelation:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        fft_rho = autocorrelation(x, 5)
        centered = x - x.mean()
        var = centered @ centered
        direct = np.array(
            [centered[:-k] @ centered[k:] / var for k in range(1, 6)]
        )
        np.testing.assert_allclose(fft_rho, direct, atol=1e-10)

    def test_ar1_recovers_coefficient(self):
        rng = np.random.default_rng(2)
        phi = 0.7
        x = np.zeros(100_000)
        noise = rng.normal(size=x.size)
        for i in range(1, x.size):
            x[i] = phi * x[i - 1] + noise[i]
        rho = autocorrelation(x, 3)
        np.testing.assert_allclose(rho, [phi, phi**2, phi**3], atol=0.02)

    def test_invalid_lag(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones(10), 0)

    def test_constant_series(self):
        np.testing.assert_allclose(autocorrelation(np.full(10, 2.0), 3), np.zeros(3))


class TestIdc:
    def test_poisson_near_one(self):
        ts = poisson_map(100.0).sample(duration=200.0, seed=0)
        assert idc(np.diff(ts)) == pytest.approx(1.0, abs=0.35)

    def test_bursty_far_above_one(self):
        m = mmpp2(200.0, 2.0, 0.5, 0.5)
        ts = m.sample(duration=120.0, seed=0)
        assert idc(np.diff(ts)) > 10.0

    def test_short_series_returns_one(self):
        assert idc(np.array([1.0, 2.0])) == 1.0


@given(st.lists(st.floats(0.01, 10.0), min_size=5, max_size=50))
@settings(max_examples=40, deadline=None)
def test_idc_finite_and_autocorr_bounded(values):
    x = np.asarray(values)
    rho = autocorrelation(x, 4)
    assert np.all(np.abs(rho) <= 1.0 + 1e-9)
    assert np.isfinite(idc(x))
