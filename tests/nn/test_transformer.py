"""Tests for the Transformer encoder stack and positional encoding."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.nn.transformer import (
    PositionalEncoding,
    TransformerEncoder,
    TransformerEncoderLayer,
    sinusoidal_positional_encoding,
)

RNG = np.random.default_rng(11)


class TestPositionalEncoding:
    def test_table_shape_and_range(self):
        table = sinusoidal_positional_encoding(100, 16)
        assert table.shape == (100, 16)
        assert np.all(np.abs(table) <= 1.0)

    def test_odd_dim(self):
        table = sinusoidal_positional_encoding(10, 7)
        assert table.shape == (10, 7)

    def test_rows_distinct(self):
        table = sinusoidal_positional_encoding(64, 16)
        dists = np.linalg.norm(table[:, None] - table[None, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 1e-3  # no two positions share an encoding

    def test_module_adds_table(self):
        pe = PositionalEncoding(8, max_len=32)
        pe.eval()
        x = np.zeros((2, 5, 8))
        out = pe(Tensor(x)).data
        np.testing.assert_allclose(out, np.broadcast_to(pe.table[:5], (2, 5, 8)))

    def test_too_long_sequence_rejected(self):
        pe = PositionalEncoding(8, max_len=4)
        with pytest.raises(ValueError):
            pe(Tensor(np.zeros((1, 5, 8))))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sinusoidal_positional_encoding(0, 8)


class TestEncoderLayer:
    def test_shape_preserved(self):
        layer = TransformerEncoderLayer(16, 4, 32, seed=0)
        x = Tensor(RNG.normal(size=(2, 6, 16)))
        assert layer(x).shape == (2, 6, 16)

    def test_output_is_layernormed(self):
        layer = TransformerEncoderLayer(16, 4, 32, seed=0)
        layer.eval()
        out = layer(Tensor(RNG.normal(size=(2, 6, 16)))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros((2, 6)), atol=1e-8)

    def test_gradients_flow_to_all_parameters(self):
        layer = TransformerEncoderLayer(8, 2, 16, seed=0)
        x = Tensor(RNG.normal(size=(2, 4, 8)), requires_grad=True)
        layer(x).sum().backward()
        for name, p in layer.named_parameters():
            assert p.grad is not None, name


class TestEncoderStack:
    def test_layer_count(self):
        enc = TransformerEncoder(16, 4, 32, num_layers=3, seed=0)
        assert len(enc.layers) == 3

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            TransformerEncoder(16, 4, 32, num_layers=0)

    def test_deterministic_given_seed(self):
        x = RNG.normal(size=(2, 5, 16))
        a = TransformerEncoder(16, 4, 32, 2, seed=123)
        b = TransformerEncoder(16, 4, 32, 2, seed=123)
        a.eval(), b.eval()
        np.testing.assert_allclose(a(Tensor(x)).data, b(Tensor(x)).data)

    def test_attention_maps_collected(self):
        enc = TransformerEncoder(8, 2, 16, 2, seed=0)
        enc.eval()
        maps = enc.attention_maps(Tensor(RNG.normal(size=(1, 4, 8))))
        assert len(maps) == 2
        assert all(m.shape == (1, 2, 4, 4) for m in maps)

    def test_eval_deterministic_train_stochastic_with_dropout(self):
        enc = TransformerEncoder(8, 2, 16, 1, dropout=0.3, seed=0)
        x = Tensor(RNG.normal(size=(1, 4, 8)))
        enc.eval()
        out1 = enc(x).data.copy()
        out2 = enc(x).data.copy()
        np.testing.assert_allclose(out1, out2)
        enc.train()
        out3 = enc(x).data
        assert not np.allclose(out1, out3)

    def test_training_reduces_loss(self):
        """End-to-end sanity: a tiny encoder + head can fit a toy target."""
        from repro.nn.layers import Linear
        from repro.nn.optim import Adam

        enc = TransformerEncoder(8, 2, 16, 1, seed=0)
        head = Linear(8, 1, seed=1)
        x = Tensor(RNG.normal(size=(8, 6, 8)))
        target = Tensor(RNG.normal(size=(8, 1)))
        params = enc.parameters() + head.parameters()
        opt = Adam(params, lr=1e-2)

        def loss_value() -> float:
            pooled = enc(x).mean(axis=1)
            diff = head(pooled) - target
            return (diff * diff).mean()

        first = None
        for step in range(60):
            loss = loss_value()
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * first
