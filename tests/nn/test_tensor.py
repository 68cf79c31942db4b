"""Unit and property tests for the autograd Tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn.layers import Parameter
from repro.nn.tensor import Tensor, _unbroadcast, no_grad
from tests.nn.gradcheck import assert_grad_matches

RNG = np.random.default_rng(1234)


class TestBasics:
    def test_wraps_array_as_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"
        assert t.shape == (3,)

    def test_cannot_nest_tensor(self):
        with pytest.raises(TypeError):
            Tensor(Tensor([1.0]))

    def test_detach_cuts_tape(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3).detach()
        assert not y.requires_grad
        assert y._parents == ()

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_shape_mismatch_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(ValueError):
            y.backward(np.ones((3,)))

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_item_and_len(self):
        assert Tensor([[5.0]]).item() == 5.0
        assert len(Tensor(np.zeros((4, 2)))) == 4


class TestArithmeticGradients:
    def test_add(self):
        assert_grad_matches(lambda t: t + 3.0, RNG.normal(size=(3, 4)))

    def test_add_broadcast(self):
        b = RNG.normal(size=(4,))
        assert_grad_matches(lambda t: t + Tensor(b), RNG.normal(size=(3, 4)))

    def test_broadcast_grad_flows_to_small_operand(self):
        small = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        big = Tensor(RNG.normal(size=(3, 4)))
        (big * small).sum().backward()
        np.testing.assert_allclose(small.grad, big.data.sum(axis=0))

    def test_sub_and_rsub(self):
        assert_grad_matches(lambda t: 5.0 - t, RNG.normal(size=(2, 3)))
        assert_grad_matches(lambda t: t - 2.5, RNG.normal(size=(2, 3)))

    def test_mul(self):
        c = RNG.normal(size=(2, 3))
        assert_grad_matches(lambda t: t * Tensor(c), RNG.normal(size=(2, 3)))

    def test_div(self):
        denom = RNG.uniform(0.5, 2.0, size=(2, 3))
        assert_grad_matches(lambda t: t / Tensor(denom), RNG.normal(size=(2, 3)))
        assert_grad_matches(lambda t: 2.0 / t, RNG.uniform(0.5, 2.0, size=(2, 3)))

    def test_pow(self):
        assert_grad_matches(lambda t: t**3, RNG.uniform(0.5, 1.5, size=(4,)))

    def test_neg(self):
        assert_grad_matches(lambda t: -t, RNG.normal(size=(3,)))


class TestMatmulGradients:
    def test_2d_2d(self):
        b = RNG.normal(size=(4, 2))
        assert_grad_matches(lambda t: t @ Tensor(b), RNG.normal(size=(3, 4)))

    def test_grad_wrt_right_operand(self):
        a = RNG.normal(size=(3, 4))
        assert_grad_matches(lambda t: Tensor(a) @ t, RNG.normal(size=(4, 2)))

    def test_batched_3d(self):
        b = RNG.normal(size=(5, 4, 2))
        assert_grad_matches(lambda t: t @ Tensor(b), RNG.normal(size=(5, 3, 4)))

    def test_batched_with_broadcast(self):
        b = RNG.normal(size=(4, 2))  # broadcast over batch
        assert_grad_matches(lambda t: t @ Tensor(b), RNG.normal(size=(5, 3, 4)))
        a = RNG.normal(size=(5, 3, 4))
        assert_grad_matches(lambda t: Tensor(a) @ t, RNG.normal(size=(4, 2)))

    def test_1d_1d_inner_product(self):
        b = RNG.normal(size=(4,))
        assert_grad_matches(lambda t: t @ Tensor(b), RNG.normal(size=(4,)))

    def test_1d_2d_and_2d_1d(self):
        m = RNG.normal(size=(4, 3))
        assert_grad_matches(lambda t: t @ Tensor(m), RNG.normal(size=(4,)))
        assert_grad_matches(lambda t: Tensor(m) @ t, RNG.normal(size=(3,)))

    def test_4d_attention_shape(self):
        b = RNG.normal(size=(2, 3, 5, 4))
        assert_grad_matches(lambda t: t @ Tensor(b), RNG.normal(size=(2, 3, 7, 5)))


class TestShapeOps:
    def test_reshape(self):
        c = RNG.normal(size=6)
        assert_grad_matches(lambda t: t.reshape(6) * Tensor(c), RNG.normal(size=(2, 3)))

    def test_transpose_and_T(self):
        c1 = RNG.normal(size=(3, 2))
        assert_grad_matches(lambda t: t.T * Tensor(c1), RNG.normal(size=(2, 3)))
        c2 = RNG.normal(size=(3, 2, 4))
        assert_grad_matches(
            lambda t: t.transpose(1, 0, 2) * Tensor(c2),
            RNG.normal(size=(2, 3, 4)),
        )

    def test_swapaxes(self):
        c = RNG.normal(size=(2, 4, 3))
        assert_grad_matches(
            lambda t: t.swapaxes(-1, -2) * Tensor(c),
            RNG.normal(size=(2, 3, 4)),
        )

    def test_getitem_slice(self):
        assert_grad_matches(lambda t: t[1:, :2] * 3.0, RNG.normal(size=(3, 4)))

    def test_getitem_fancy_repeated_index_accumulates(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = x[np.array([0, 0, 2])]
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


class TestReductions:
    def test_sum_all(self):
        assert_grad_matches(lambda t: t.sum(), RNG.normal(size=(3, 4)))

    def test_sum_axis_keepdims(self):
        w = RNG.normal(size=(3, 1))
        assert_grad_matches(lambda t: t.sum(axis=1, keepdims=True) * Tensor(w), RNG.normal(size=(3, 4)))

    def test_sum_multiple_axes(self):
        assert_grad_matches(lambda t: t.sum(axis=(0, 2)), RNG.normal(size=(2, 3, 4)))

    def test_mean(self):
        assert_grad_matches(lambda t: t.mean(axis=1), RNG.normal(size=(3, 4)))
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 5), 0.1))

    def test_max(self):
        x = RNG.normal(size=(3, 4))
        assert_grad_matches(lambda t: t.max(axis=1), x)

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])


class TestElementwise:
    def test_exp_log_sqrt(self):
        assert_grad_matches(lambda t: t.exp(), RNG.normal(size=(3,)))
        assert_grad_matches(lambda t: t.log(), RNG.uniform(0.5, 2.0, size=(3,)))
        assert_grad_matches(lambda t: t.sqrt(), RNG.uniform(0.5, 2.0, size=(3,)))

    def test_abs_tanh_sigmoid(self):
        assert_grad_matches(lambda t: t.abs(), RNG.uniform(0.5, 1.0, size=(3,)))
        assert_grad_matches(lambda t: t.tanh(), RNG.normal(size=(3,)))
        assert_grad_matches(lambda t: t.sigmoid(), RNG.normal(size=(3,)))

    def test_relu(self):
        x = np.array([-1.0, 0.5, 2.0])
        assert_grad_matches(lambda t: t.relu(), x)
        t = Tensor(x, requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0])

    def test_clip(self):
        x = np.array([-2.0, 0.0, 3.0])
        t = Tensor(x, requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestGraph:
    def test_diamond_graph_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        a = x * 2
        b = x * 5
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_reused_node(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # x appears twice
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_grad_tracking_when_not_required(self):
        x = Tensor([1.0])
        y = x * 2 + 1
        assert not y.requires_grad
        assert y._backward is None


class TestUnbroadcast:
    @given(
        arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=4),
               elements=st.floats(-10, 10)),
    )
    @settings(max_examples=50, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, x):
        target = (2,) + x.shape
        g = np.broadcast_to(np.ones(target), target)
        reduced = _unbroadcast(np.array(g), x.shape)
        assert reduced.shape == x.shape
        np.testing.assert_allclose(reduced, np.full(x.shape, 2.0))

    def test_unbroadcast_inner_axis(self):
        g = np.ones((3, 4))
        out = _unbroadcast(g, (3, 1))
        np.testing.assert_allclose(out, np.full((3, 1), 4.0))


@given(
    arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
           elements=st.floats(-5, 5)),
    arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
           elements=st.floats(-5, 5)),
)
@settings(max_examples=40, deadline=None)
def test_add_commutes_and_grads_are_ones(a, b):
    if a.shape != b.shape:
        return
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    out = ta + tb
    np.testing.assert_allclose(out.data, a + b)
    out.sum().backward()
    np.testing.assert_allclose(ta.grad, np.ones_like(a))
    np.testing.assert_allclose(tb.grad, np.ones_like(b))


class TestNoGrad:
    def test_ops_on_parameters_stay_off_the_tape(self):
        w = Parameter(RNG.normal(size=(3, 2)))
        x = Tensor(RNG.normal(size=(4, 3)))
        with no_grad():
            y = (x @ w).relu().sum()
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        np.testing.assert_array_equal(y.data, np.maximum(x.data @ w.data, 0).sum())

    def test_exported_from_package(self):
        import repro.nn

        assert repro.nn.no_grad is no_grad

    def test_flag_restored_after_nesting(self):
        w = Parameter([1.0, 2.0])
        with no_grad():
            with no_grad():
                pass
            assert not (w * 2).requires_grad
        assert (w * 2).requires_grad

    def test_flag_restored_after_exception(self):
        w = Parameter([1.0, 2.0])
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        y = (w * w).sum()
        assert y.requires_grad
        y.backward()
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])


class TestDtype:
    """Ops keep their operands' dtype: a constant mixed into an op takes the
    tensor's dtype, so NumPy's promotion rules never widen float32."""

    CONSTANTS = [2.5, 3, np.asarray(2.5), np.array([0.5, 2.0, 4.0])]
    OPS = [
        lambda t, c: t * c,
        lambda t, c: c * t,
        lambda t, c: t + c,
        lambda t, c: c + t,
        lambda t, c: t - c,
        lambda t, c: c - t,
        lambda t, c: t / c,
        lambda t, c: c / t,
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("const", CONSTANTS, ids=["float", "int", "0d", "array"])
    @pytest.mark.parametrize("op", range(len(OPS)))
    def test_constant_takes_the_tensor_dtype(self, dtype, const, op):
        t = Tensor(np.array([1.0, 2.0, 3.0], dtype=dtype), requires_grad=True)
        out = self.OPS[op](t, const)
        assert out.dtype == dtype
        out.sum().backward()
        assert t.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reductions_and_elementwise_keep_dtype(self, dtype):
        t = Tensor(RNG.uniform(0.5, 2.0, size=(3, 4)).astype(dtype), requires_grad=True)
        outs = [t.mean(), t.mean(axis=0), t.sum(axis=1), t.max(axis=1), t.max(),
                t.exp(), t.log(), t.sqrt(), t.tanh(), t.sigmoid(), t ** 2,
                t.clip(0.7, 1.5), t.relu(), t.abs()]
        for out in outs:
            assert out.dtype == dtype
            out.sum().backward()
        assert t.grad.dtype == dtype

    def test_astype_casts_the_gradient_back(self):
        t = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        assert t.astype(np.float64) is t
        out = t.astype(np.float32)
        assert out.dtype == np.float32
        (out * out).sum().backward()
        assert t.grad.dtype == np.float64
        np.testing.assert_allclose(t.grad, 2 * t.data, rtol=1e-6)

    def test_parameters_are_float32(self):
        from repro.nn.tensor import DTYPE

        assert DTYPE == np.float32
        assert Parameter(np.arange(3)).dtype == DTYPE
        assert Parameter(RNG.normal(size=2)).dtype == DTYPE
