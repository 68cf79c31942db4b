"""Tests for Adam and gradient clipping."""

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor


def quadratic_param(start=5.0):
    return Parameter(np.array([start]))


def step_once(opt, p):
    loss = (Tensor(p.data * 0) + p * p).sum()  # loss = p^2
    opt.zero_grad()
    loss.backward()
    opt.step()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            step_once(opt, p)
        assert abs(p.data[0]) < 1e-2

    def test_first_step_size_close_to_lr(self):
        # With bias correction the first Adam step is ~lr regardless of grad scale.
        for scale in (1e-3, 1e3):
            p = Parameter(np.array([0.0]))
            opt = Adam([p], lr=0.1)
            p.grad = np.array([scale])
            opt.step()
            assert abs(abs(p.data[0]) - 0.1) < 1e-6

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], betas=(1.0, 0.999))

    def test_invalid_lr_and_empty_params(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_skips_params_without_grad(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        before = p.data.copy()
        opt.step()  # no grad accumulated
        np.testing.assert_allclose(p.data, before)

    def test_fits_linear_regression(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 3))
        true_w = np.array([1.0, -2.0, 0.5])
        y = X @ true_w
        w = Parameter(np.zeros(3))
        opt = Adam([w], lr=0.05)
        for _ in range(400):
            pred = Tensor(X) @ w
            diff = pred - Tensor(y)
            loss = (diff * diff).mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, true_w, atol=0.05)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, np.full(4, 0.1))

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=0.0)

