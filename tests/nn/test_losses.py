"""Tests for the paper's loss functions (Eq. 7-9) and SLO weighting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.losses import (
    combined_loss,
    huber_loss,
    mape_loss,
    slo_violation_weights,
)
from repro.nn.tensor import Tensor
from tests.nn.gradcheck import assert_grad_matches

RNG = np.random.default_rng(3)


class TestHuberLoss:
    def test_zero_at_perfect_prediction(self):
        y = Tensor(RNG.normal(size=(4,)))
        assert huber_loss(y, y).item() == 0.0

    def test_matches_eq7_by_hand(self):
        pred = Tensor(np.array([0.5, 3.0]))
        target = Tensor(np.array([0.0, 0.0]))
        # |0.5| <= 1 -> 0.125 ; |3| > 1 -> 1*(3-0.5) = 2.5 ; mean = 1.3125
        assert huber_loss(pred, target, delta=1.0).item() == pytest.approx(1.3125)

    def test_gradcheck(self):
        target = RNG.normal(size=(5,))
        assert_grad_matches(
            lambda t: huber_loss(t, Tensor(target), delta=1.0), target + RNG.normal(size=5)
        )


class TestMapeLoss:
    def test_percent_units(self):
        pred = Tensor(np.array([1.1]))
        target = Tensor(np.array([1.0]))
        assert mape_loss(pred, target).item() == pytest.approx(10.0, rel=1e-6)

    def test_eps_guards_zero_targets(self):
        loss = mape_loss(Tensor(np.array([1.0])), Tensor(np.array([0.0])))
        assert np.isfinite(loss.item())

    def test_gradcheck(self):
        target = RNG.uniform(0.5, 2.0, size=(4,))
        assert_grad_matches(
            lambda t: mape_loss(t, Tensor(target)), target * 1.2, rtol=1e-3
        )


class TestCombinedLoss:
    def test_is_convex_combination(self):
        pred = Tensor(RNG.normal(size=(6,)) + 2.0)
        target = Tensor(np.full(6, 2.0))
        h = huber_loss(pred, target).item()
        m = mape_loss(pred, target).item()
        c = combined_loss(pred, target, alpha=0.05).item()
        assert c == pytest.approx(0.05 * m + 0.95 * h, rel=1e-9)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            combined_loss(Tensor([1.0]), Tensor([1.0]), alpha=1.5)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_for_any_alpha(self, alpha):
        pred = Tensor(np.array([1.0, 3.0]))
        target = Tensor(np.array([2.0, 2.0]))
        assert combined_loss(pred, target, alpha=alpha).item() >= 0.0

    def test_weights_upweight_samples(self):
        pred = Tensor(np.array([[2.0], [2.0]]))
        target = Tensor(np.array([[1.0], [1.0]]))
        base = combined_loss(pred, target).item()
        weighted = combined_loss(pred, target, weights=np.array([[2.0], [2.0]])).item()
        assert weighted == pytest.approx(2 * base, rel=1e-9)


class TestSloViolationWeights:
    def test_violators_get_penalty(self):
        w = slo_violation_weights(np.array([0.05, 0.15, 0.09]), slo=0.1, penalty=4.0)
        np.testing.assert_allclose(w, [[1.0], [4.0], [1.0]])

    def test_invalid_penalty(self):
        with pytest.raises(ValueError):
            slo_violation_weights(np.array([0.1]), slo=0.1, penalty=0.5)

    def test_integration_with_loss_shifts_optimum(self):
        # Up-weighting violating samples increases their loss contribution.
        lat = np.array([0.2, 0.05])
        w = slo_violation_weights(lat, slo=0.1, penalty=10.0)
        pred = Tensor(np.array([[0.15], [0.15]]))
        target = Tensor(np.array([[0.2], [0.05]]))
        unweighted = combined_loss(pred, target).item()
        weighted = combined_loss(pred, target, weights=w).item()
        assert weighted > unweighted

