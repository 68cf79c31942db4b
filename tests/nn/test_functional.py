"""Tests for fused/composite functional ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.nn.gradcheck import assert_grad_matches

RNG = np.random.default_rng(7)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(4, 6)))
        s = F.softmax(x).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4))
        assert np.all(s >= 0)

    def test_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        s = F.softmax(x).data
        np.testing.assert_allclose(s, [[0.5, 0.5, 0.0]], atol=1e-12)

    def test_gradient(self):
        w = RNG.normal(size=(3, 5))
        assert_grad_matches(lambda t: F.softmax(t) * Tensor(w), RNG.normal(size=(3, 5)))

    def test_gradient_other_axis(self):
        w = RNG.normal(size=(3, 5))
        assert_grad_matches(lambda t: F.softmax(t, axis=0) * Tensor(w), RNG.normal(size=(3, 5)))

    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 6)),
                  elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x):
        s1 = F.softmax(Tensor(x)).data
        s2 = F.softmax(Tensor(x + 123.0)).data
        np.testing.assert_allclose(s1, s2, atol=1e-10)


class TestConcatStack:
    def test_concat_values_and_gradient(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 5)), requires_grad=True)
        out = F.concat([a, b], axis=1)
        assert out.shape == (2, 8)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 5), 2.0))

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            F.concat([])

    def test_concat_gradcheck(self):
        other = RNG.normal(size=(2, 3))
        assert_grad_matches(
            lambda t: F.concat([t, Tensor(other)], axis=1) ** 2, RNG.normal(size=(2, 4))
        )

    def test_stack(self):
        a = Tensor(np.ones((3,)), requires_grad=True)
        b = Tensor(np.zeros((3,)), requires_grad=True)
        out = F.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))


class TestMaskingOps:
    def test_masked_fill(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        out = F.masked_fill(x, mask, -1e9)
        np.testing.assert_allclose(out.data, [[-1e9, 0.0], [0.0, -1e9]])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, 1.0 - mask)


class TestHuber:
    def test_quadratic_then_linear(self):
        x = Tensor(np.array([0.5, 2.0]))
        out = F.huber(x, delta=1.0).data
        np.testing.assert_allclose(out, [0.125, 1.5])

    def test_gradient_both_regimes(self):
        assert_grad_matches(lambda t: F.huber(t, delta=1.0), np.array([0.3, -0.4, 2.5, -3.0]))

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            F.huber(Tensor([1.0]), delta=0.0)

    @given(st.floats(-10, 10), st.floats(0.1, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_huber_below_squared_and_nonneg(self, v, delta):
        h = float(F.huber(Tensor([v]), delta=delta).data[0])
        assert h >= 0
        assert h <= 0.5 * v * v + 1e-12


class TestDropoutMask:
    def test_p_zero_is_identity(self):
        m = F.dropout_mask((100,), 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(m, np.ones(100))

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        m = F.dropout_mask((100_000,), 0.3, rng)
        assert abs(m.mean() - 1.0) < 0.02
        assert set(np.unique(np.round(m, 6))) <= {0.0, np.round(1 / 0.7, 6)}

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout_mask((3,), 1.0, np.random.default_rng(0))

    def test_mean_pool(self):
        x = Tensor(RNG.normal(size=(2, 5, 3)))
        np.testing.assert_allclose(F.mean_pool(x, axis=1).data, x.data.mean(axis=1))
