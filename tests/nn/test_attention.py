"""Tests for scaled dot-product and multi-head attention."""

import numpy as np
import pytest

import repro.nn.attention as attention
from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention, scaled_dot_product_attention
from repro.nn.tensor import Tensor
from tests.nn.gradcheck import assert_grad_matches

RNG = np.random.default_rng(5)


def composed_attention(q, k, v, mask=None):
    """The unfused reference: one tape node per step of the chain. The
    scale is an array of the inputs' dtype so float32 stays float32."""
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=q.dtype)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = F.masked_fill(scores, mask, attention._NEG_INF)
    weights = F.softmax(scores, axis=-1)
    return weights @ v, weights


class TestScaledDotProduct:
    def test_weights_are_distribution(self):
        q = Tensor(RNG.normal(size=(2, 4, 8)))
        out, w = scaled_dot_product_attention(q, q, q)
        assert out.shape == (2, 4, 8)
        np.testing.assert_allclose(w.data.sum(axis=-1), np.ones((2, 4)), atol=1e-12)

    def test_uniform_keys_give_mean_of_values(self):
        # If all scores are equal, attention averages the values.
        q = Tensor(np.zeros((1, 3, 4)))
        k = Tensor(np.zeros((1, 3, 4)))
        v = Tensor(RNG.normal(size=(1, 3, 4)))
        out, _ = scaled_dot_product_attention(q, k, v)
        np.testing.assert_allclose(out.data, np.broadcast_to(v.data.mean(axis=1, keepdims=True), (1, 3, 4)))

    def test_mask_blocks_positions(self):
        q = Tensor(RNG.normal(size=(1, 2, 4)))
        v = Tensor(RNG.normal(size=(1, 2, 4)))
        mask = np.array([[False, True], [False, True]])
        _, w = scaled_dot_product_attention(q, q, v, mask=mask)
        np.testing.assert_allclose(w.data[..., 1], 0.0, atol=1e-9)

    def test_gradients_flow(self):
        x = RNG.normal(size=(1, 3, 4))
        assert_grad_matches(
            lambda t: scaled_dot_product_attention(t, t, t)[0], x, rtol=1e-3, atol=1e-5
        )


class TestMultiHeadAttention:
    def test_shape_preserved(self):
        mha = MultiHeadAttention(16, 4, seed=0)
        x = Tensor(RNG.normal(size=(2, 5, 16)))
        assert mha(x, x, x).shape == (2, 5, 16)

    def test_pooled_2d_input(self):
        mha = MultiHeadAttention(16, 4, seed=0)
        x = Tensor(RNG.normal(size=(3, 16)))
        out = mha(x, x, x)
        assert out.shape == (3, 16)

    def test_embed_dim_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_attention_weights_returned(self):
        mha = MultiHeadAttention(8, 2, seed=0)
        x = Tensor(RNG.normal(size=(2, 4, 8)))
        out, weights = mha.attend(x, x, x)
        np.testing.assert_array_equal(out.data, mha(x, x, x).data)
        assert weights.shape == (2, 2, 4, 4)
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones((2, 2, 4)), atol=1e-9)

    def test_key_padding_mask(self):
        mha = MultiHeadAttention(8, 2, seed=0)
        x = Tensor(RNG.normal(size=(2, 4, 8)))
        pad = np.zeros((2, 4), dtype=bool)
        pad[:, -1] = True  # last position masked out
        _, weights = mha.attend(x, x, x, mask=pad)
        np.testing.assert_allclose(weights[..., -1], 0.0, atol=1e-9)

    def test_backward_reaches_all_projections(self):
        mha = MultiHeadAttention(8, 2, seed=0)
        x = Tensor(RNG.normal(size=(2, 3, 8)), requires_grad=True)
        mha(x, x, x).sum().backward()
        for name, p in mha.named_parameters():
            assert p.grad is not None, name
        assert x.grad is not None

    def test_permutation_equivariance_without_positions(self):
        # Self-attention with no positional information is permutation
        # equivariant: permuting the input sequence permutes the output.
        mha = MultiHeadAttention(8, 2, seed=0)
        mha.eval()
        x = RNG.normal(size=(1, 5, 8))
        perm = np.array([3, 1, 4, 0, 2])
        out1 = mha(Tensor(x), Tensor(x), Tensor(x)).data
        xp = x[:, perm]
        out2 = mha(Tensor(xp), Tensor(xp), Tensor(xp)).data
        np.testing.assert_allclose(out1[:, perm], out2, atol=1e-10)


class TestFusedMatchesComposed:
    """The fused op is bit-identical to the composed chain, forward and
    backward, through every mask shape MultiHeadAttention accepts. The head
    width is 6, so the 1/√d scale is inexact and the order of the backward
    steps shows in the low bits."""

    BATCH, SEQ, EMBED = 3, 37, 24

    def _run(self, monkeypatch, sdpa, x0, mask):
        monkeypatch.setattr(attention, "scaled_dot_product_attention", sdpa)
        mha = MultiHeadAttention(self.EMBED, 4, seed=2)
        x = Tensor(x0, requires_grad=True)
        out, weights = mha.attend(x, x, x, mask=mask)
        (out * out).sum().backward()
        grads = {name: p.grad for name, p in mha.named_parameters()}
        return out.data, weights, x.grad, grads

    def _assert_identical(self, monkeypatch, x0, mask=None):
        fused = self._run(monkeypatch, scaled_dot_product_attention, x0, mask)
        ref = self._run(monkeypatch, composed_attention, x0, mask)
        for got, want in zip(fused[:3], ref[:3]):
            assert np.array_equal(got, want)
        assert fused[3].keys() == ref[3].keys()
        for name in ref[3]:
            assert np.array_equal(fused[3][name], ref[3][name]), name

    @pytest.mark.parametrize("mask_kind", [None, "seq", "3d", "padding"])
    def test_sequence_masks(self, monkeypatch, mask_kind):
        rng = np.random.default_rng(11)
        b, n = self.BATCH, self.SEQ
        x0 = rng.normal(size=(b, n, self.EMBED))
        mask = {
            None: None,
            "seq": np.triu(np.ones((n, n), dtype=bool), k=1),
            "3d": rng.random((b, n, n)) < 0.3,
            "padding": np.arange(n)[None, :] >= np.array([n, n - 5, 20])[:, None],
        }[mask_kind]
        self._assert_identical(monkeypatch, x0, mask)

    def test_singleton_sequence_fusion_call(self, monkeypatch):
        x0 = np.random.default_rng(12).normal(size=(self.BATCH, self.EMBED))
        self._assert_identical(monkeypatch, x0)

    @pytest.mark.parametrize(
        "batch, seq, mask_kind",
        [(3, 300, None), (3, 300, "padding"), (13, 37, None), (13, 37, "3d")],
    )
    def test_chunk_boundaries(self, monkeypatch, batch, seq, mask_kind):
        # seq 300: one 300×300 slab is over the chunk budget, so every chunk
        # is a single slab. seq 37: 13 × 4 heads is not a multiple of the
        # slabs per chunk, so the last chunk is a short one.
        slab_bytes = seq * seq * 8
        if seq == 300:
            assert slab_bytes > attention._CHUNK_BYTES
        else:
            chunks = list(attention._chunks((batch, 4), attention._CHUNK_BYTES // slab_bytes))
            assert len(chunks) > 1 and chunks[-1][0].stop > batch
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=(batch, seq, self.EMBED))
        mask = {
            None: None,
            "3d": rng.random((batch, seq, seq)) < 0.3,
            "padding": np.arange(seq)[None, :] >= (seq - np.arange(batch) * 7)[:, None],
        }[mask_kind]
        self._assert_identical(monkeypatch, x0, mask)

    @pytest.mark.parametrize(
        "q_shape, kv_shape, mask_shape, dtype",
        [
            ((2, 3, 37, 6), (2, 1, 37, 6), (2, 1, 1, 37), np.float64),  # one k/v head
            ((37, 6), (37, 6), (37, 37), np.float64),  # 2-D (seq, d)
            ((2, 3, 37, 6), (37, 6), None, np.float64),  # 2-D k/v under 4-D q
            ((2, 3, 37, 6), (2, 3, 37, 6), (2, 1, 37, 37), np.float32),
        ],
    )
    def test_direct_call_shapes_and_dtypes(self, q_shape, kv_shape, mask_shape, dtype):
        rng = np.random.default_rng(14)
        arrays = [rng.normal(size=s).astype(dtype) for s in (q_shape, kv_shape, kv_shape)]
        mask = None if mask_shape is None else rng.random(mask_shape) < 0.3

        def run(sdpa):
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            out, w = sdpa(q, k, v, mask)
            (out * out).sum().backward()
            return out.data, w.data, q.grad, k.grad, v.grad

        for got, want in zip(run(scaled_dot_product_attention), run(composed_attention)):
            assert got.dtype == want.dtype == dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_backward_never_reuses_buffers(self):
        # Tensor._accumulate aliases the gradients of intermediate nodes, so
        # a backward pass must not write into its upstream gradient, and a
        # second pass must not hand out the first pass's arrays.
        rng = np.random.default_rng(15)
        leaves = [Tensor(rng.normal(size=(2, 3, 37, 6)), requires_grad=True) for _ in range(3)]
        q, k, v = (t * 1.0 for t in leaves)  # intermediate nodes
        out, _ = scaled_dot_product_attention(q, k, v)
        g = rng.normal(size=out.shape)
        g0 = g.copy()
        passes = []
        for _ in range(2):
            for t in (out, q, k, v, *leaves):
                t.zero_grad()
            out.backward(g)
            grads = (q.grad, k.grad, v.grad)
            passes.append((grads, [a.copy() for a in grads]))
        assert np.array_equal(g, g0)
        (first, first_values), (second, _) = passes
        for a, b, a0 in zip(first, second, first_values):
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, a0)
            assert np.array_equal(a, b)

    def test_weights_are_detached(self):
        q = Tensor(RNG.normal(size=(2, 4, 8)), requires_grad=True)
        out, w = scaled_dot_product_attention(q, q, q)
        assert out.requires_grad
        assert not w.requires_grad and w._parents == ()
