"""Tests for the DeepBAT surrogate architecture (Fig. 3)."""

import numpy as np
import pytest

from repro.core.surrogate import DeepBATSurrogate
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(9)


def tiny(seq_len=16, **kw):
    defaults = dict(seq_len=seq_len, d_model=8, num_heads=2, ff_hidden=16,
                    num_layers=1, seed=0)
    defaults.update(kw)
    return DeepBATSurrogate(**defaults)


class TestForward:
    def test_output_shape(self):
        m = tiny()
        out = m(Tensor(RNG.normal(size=(4, 16))), Tensor(RNG.normal(size=(4, 3))))
        assert out.shape == (4, 6)

    def test_custom_outputs(self):
        m = tiny(n_outputs=3)
        out = m(Tensor(RNG.normal(size=(2, 16))), Tensor(RNG.normal(size=(2, 3))))
        assert out.shape == (2, 3)

    def test_shape_validation(self):
        m = tiny()
        with pytest.raises(ValueError):
            m(Tensor(RNG.normal(size=(2, 10))), Tensor(RNG.normal(size=(2, 3))))
        with pytest.raises(ValueError):
            m(Tensor(RNG.normal(size=(2, 16))), Tensor(RNG.normal(size=(2, 5))))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            tiny(seq_len=0)
        with pytest.raises(ValueError):
            tiny(n_outputs=1)

    def test_deterministic_given_seed(self):
        seq = RNG.normal(size=(2, 16))
        feats = RNG.normal(size=(2, 3))
        a = tiny().predict(seq, feats)
        b = tiny().predict(seq, feats)
        np.testing.assert_allclose(a, b)

    def test_features_affect_output(self):
        """The configuration features must influence predictions — the
        whole point of the fused architecture."""
        m = tiny()
        seq = RNG.normal(size=(1, 16))
        out1 = m.predict(seq, np.array([[0.0, 0.0, 0.0]]))
        out2 = m.predict(seq, np.array([[2.0, -1.0, 1.0]]))
        assert not np.allclose(out1, out2)

    def test_sequence_affects_output(self):
        m = tiny()
        feats = np.zeros((1, 3))
        out1 = m.predict(RNG.normal(size=(1, 16)), feats)
        out2 = m.predict(RNG.normal(size=(1, 16)), feats)
        assert not np.allclose(out1, out2)


class TestPredictBroadcast:
    def test_one_window_many_configs(self):
        """The online fast path: one window × whole candidate grid."""
        m = tiny()
        seq = RNG.normal(size=(16,))
        feats = RNG.normal(size=(10, 3))
        out = m.predict(seq, feats)
        assert out.shape == (10, 6)

    def test_matches_manual_tiling(self):
        """predict_grid computes E_1 once; must equal the tiled forward."""
        m = tiny()
        seq = RNG.normal(size=(16,))
        feats = RNG.normal(size=(5, 3))
        fast = m.predict(seq, feats)
        tiled = m.predict(np.tile(seq, (5, 1)), feats)
        np.testing.assert_allclose(fast, tiled, atol=1e-12)

    def test_predict_grid_direct(self):
        m = tiny()
        out = m.predict_grid(RNG.normal(size=16), RNG.normal(size=(7, 3)))
        assert out.shape == (7, 6)

    @pytest.mark.parametrize("rows", [1, 4])
    def test_one_module_walk_per_predict(self, monkeypatch, rows):
        m = tiny()
        walks = []
        monkeypatch.setattr(m, "eval", lambda: walks.append(1))
        m.predict(RNG.normal(size=(rows, 16)), RNG.normal(size=(4, 3)))
        assert len(walks) == 1

    def test_predict_grid_validates_length(self):
        m = tiny()
        with pytest.raises(ValueError):
            m.predict_grid(RNG.normal(size=9), RNG.normal(size=(2, 3)))


class TestGradients:
    def test_all_parameters_reachable(self):
        m = tiny()
        out = m(Tensor(RNG.normal(size=(2, 16))), Tensor(RNG.normal(size=(2, 3))))
        (out * out).mean().backward()
        for name, p in m.named_parameters():
            assert p.grad is not None, f"no gradient for {name}"

    def test_backward_after_predict_grid(self):
        m = tiny()
        m.predict_grid(RNG.normal(size=16), RNG.normal(size=(5, 3)))
        m.train()
        out = m(Tensor(RNG.normal(size=(2, 16))), Tensor(RNG.normal(size=(2, 3))))
        assert out.requires_grad
        out.sum().backward()
        for name, p in m.named_parameters():
            assert p.grad is not None, f"no gradient for {name}"

    def test_can_overfit_single_batch(self):
        """Sanity: the architecture has enough capacity/plumbing to drive
        the loss down on one batch."""
        from repro.nn.optim import Adam

        m = tiny()
        seq = Tensor(RNG.normal(size=(4, 16)))
        feats = Tensor(RNG.normal(size=(4, 3)))
        tgt = Tensor(RNG.uniform(0.1, 1.0, size=(4, 6)))
        opt = Adam(m.parameters(), lr=5e-3)
        first = None
        for _ in range(120):
            diff = m(seq, feats) - tgt
            loss = (diff * diff).mean()
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.1 * first


class TestAttentionScores:
    def test_shape_and_normalization(self):
        m = tiny()
        scores = m.attention_scores(RNG.exponential(size=16))
        assert scores.shape == (16,)
        assert scores.sum() == pytest.approx(1.0)
        assert np.all(scores >= 0)

    def test_batched(self):
        m = tiny()
        scores = m.attention_scores(RNG.exponential(size=(3, 16)))
        assert scores.shape == (3, 16)
        np.testing.assert_allclose(scores.sum(axis=1), np.ones(3))

    def test_list_input(self):
        m = tiny()
        window = RNG.exponential(size=16)
        np.testing.assert_array_equal(m.attention_scores(list(window)),
                                      m.attention_scores(window))
        assert m.attention_scores([1.0] * 16).shape == (16,)

    def test_num_parameters_scale(self):
        small = tiny(num_layers=1)
        big = tiny(num_layers=3)
        assert big.num_parameters() > small.num_parameters()


class TestFloat32:
    """The model runs in float32 end to end, whatever dtype its callers
    pass: inputs are cast once inside the model."""

    def test_training_step_stays_float32(self, monkeypatch):
        import repro.core.training as training
        from repro.core.dataset import generate_dataset
        from repro.batching.config import config_grid

        optimizers = []

        class RecordingAdam(training.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(training, "Adam", RecordingAdam)
        grid = config_grid(memories=(512.0,), batch_sizes=(1, 8), timeouts=(0.0,))
        ds = generate_dataset(RNG.exponential(0.01, size=2000), n_samples=20,
                              seq_len=16, configs=grid, seed=0)
        trained = training.train_surrogate(
            ds, model=tiny(),
            config=training.TrainConfig(epochs=1, batch_size=8, patience=None,
                                        slo=0.1, seed=0))
        (opt,) = optimizers
        for name, p in trained.model.named_parameters():
            assert p.dtype == np.float32, name
            assert p.grad is not None and p.grad.dtype == np.float32, name
        assert all(a.dtype == np.float32 for a in opt._m + opt._v)
        assert all(np.isfinite(trained.history.train_loss))

        seq, feats = ds.sequences[:3], ds.features[:3]
        assert trained.predict(seq, feats).dtype == np.float32
        scaled = trained.scale_features(feats)
        assert trained.predict_scaled(seq[0], scaled).dtype == np.float32
        assert trained.model.predict_grid(seq[0], scaled).dtype == np.float32

    def test_float64_tensors_reach_the_float32_path(self):
        m = tiny()
        seq = RNG.normal(size=(2, 16))
        feats = RNG.normal(size=(2, 3))
        out = m(Tensor(seq), Tensor(feats))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, m.predict(seq, feats))
        assert m.attention_scores(seq[0]).dtype == np.float32

    def test_float32_agrees_with_float64_arithmetic(self):
        # Ops keep their operands' dtype, so the same weights held in float64
        # run every op after the input cast in float64: the reference.
        m = tiny()
        seq, feats = Tensor(RNG.normal(size=(3, 16))), Tensor(RNG.normal(size=(3, 3)))
        narrow = m(seq, feats).data
        for p in m.parameters():
            p.data = p.data.astype(np.float64)
        wide = m(seq, feats).data
        assert wide.dtype == np.float64
        np.testing.assert_allclose(narrow, wide, rtol=1e-5, atol=1e-6)

    def test_input_gradient_returns_in_the_input_dtype(self):
        m = tiny()
        seq = Tensor(RNG.normal(size=(2, 16)), requires_grad=True)
        m(seq, Tensor(RNG.normal(size=(2, 3)))).sum().backward()
        assert seq.grad.dtype == np.float64


class TestEvalMode:
    def test_predict_restores_eval_below_a_training_submodule(self):
        m = tiny(dropout=0.1)
        m.eval()
        m.encoder.train()
        assert any(mod.training for mod in m.modules())
        m.predict(RNG.normal(size=(1, 16)), RNG.normal(size=(3, 3)))
        assert not any(mod.training for mod in m.modules())

    def test_repeated_eval_is_identical(self):
        m = tiny(dropout=0.1)
        seq, feats = RNG.normal(size=16), RNG.normal(size=(4, 3))
        first = m.predict(seq, feats)
        m.eval()
        np.testing.assert_array_equal(m.predict(seq, feats), first)
