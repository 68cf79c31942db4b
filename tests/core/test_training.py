"""Tests for surrogate training, fine-tuning, and the gamma factor."""

import numpy as np
import pytest

from repro.arrival.map_process import poisson_map
from repro.arrival.mmpp import mmpp2_with_burstiness
from repro.batching.config import config_grid
from repro.core.dataset import generate_dataset
from repro.core.surrogate import DeepBATSurrogate
from repro.nn.data import ArrayDataset
from repro.nn.losses import combined_loss
from repro.nn.tensor import Tensor
from repro.core.training import (
    TrainConfig,
    _validate,
    compute_gamma,
    fine_tune,
    train_surrogate,
)

GRID = config_grid(memories=(512.0, 1792.0), batch_sizes=(1, 8), timeouts=(0.0, 0.05))
HIST = np.diff(poisson_map(200.0).sample(duration=60.0, seed=0))


def tiny_model():
    return DeepBATSurrogate(seq_len=16, d_model=8, num_heads=2, ff_hidden=16,
                            num_layers=1, seed=0)


def tiny_dataset(seed=0, n=60):
    return generate_dataset(HIST, n_samples=n, seq_len=16, configs=GRID, seed=seed)


class TestTrainSurrogate:
    def test_loss_decreases(self):
        ds = tiny_dataset()
        trained = train_surrogate(ds, model=tiny_model(),
                                  config=TrainConfig(epochs=8, patience=None, seed=0))
        h = trained.history
        assert len(h.train_loss) == 8
        assert h.train_loss[-1] < h.train_loss[0]

    def test_early_stopping(self):
        ds = tiny_dataset()
        trained = train_surrogate(ds, model=tiny_model(),
                                  config=TrainConfig(epochs=200, patience=2, seed=0))
        assert len(trained.history.train_loss) < 200

    def test_best_weights_restored(self):
        ds = tiny_dataset()
        trained = train_surrogate(ds, model=tiny_model(),
                                  config=TrainConfig(epochs=6, patience=None, seed=0))
        # Validation loss of the returned model equals the best epoch's.
        assert trained.history.best_epoch <= len(trained.history.val_loss) - 1

    def test_predictions_in_target_units(self):
        ds = tiny_dataset(n=80)
        trained = train_surrogate(ds, model=tiny_model(),
                                  config=TrainConfig(epochs=15, patience=None, seed=0))
        preds = trained.predict(ds.sequences[:5], ds.features[:5])
        assert preds.shape == (5, 6)
        # After training on positive O(0.01-1) targets, predictions should
        # land in a sane band (not wildly off-scale).
        assert np.all(preds > -1.0) and np.all(preds < 10.0)

    def test_seq_len_mismatch_rejected(self):
        ds = tiny_dataset()
        model = DeepBATSurrogate(seq_len=32, d_model=8, num_heads=2, seed=0)
        with pytest.raises(ValueError):
            train_surrogate(ds, model=model)

    def test_slo_weighting_runs(self):
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=3, patience=None, slo=0.05, slo_penalty=4.0, seed=0)
        trained = train_surrogate(ds, model=tiny_model(), config=cfg)
        assert len(trained.history.train_loss) == 3

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=1.5)

    def test_epoch_bit_identical_to_composed_attention(self, monkeypatch):
        import repro.nn.attention as attention
        from tests.nn.test_attention import composed_attention

        def one_epoch():
            # head width 6: an inexact 1/sqrt(d) scale exposes step order
            model = DeepBATSurrogate(seq_len=16, d_model=12, num_heads=2,
                                     ff_hidden=16, num_layers=1, seed=0)
            return train_surrogate(tiny_dataset(n=40), model=model,
                                   config=TrainConfig(epochs=1, patience=None, seed=0))

        fused = one_epoch()
        monkeypatch.setattr(attention, "scaled_dot_product_attention", composed_attention)
        ref = one_epoch()
        assert fused.history == ref.history
        want = ref.model.state_dict()
        for name, value in fused.model.state_dict().items():
            assert np.array_equal(value, want[name]), name

    def test_validate_matches_taped_forward(self):
        rng = np.random.default_rng(3)
        val = ArrayDataset(rng.normal(size=(10, 16)), rng.normal(size=(10, 3)),
                           rng.uniform(0.1, 1.0, size=(10, 6)))
        model, cfg = tiny_model(), TrainConfig()
        loss, mape = _validate(model, val, cfg)
        seq, feats, tgt = val[np.arange(len(val))]
        pred = model(Tensor(seq), Tensor(feats))
        assert pred.requires_grad
        want = combined_loss(pred, Tensor(tgt), alpha=cfg.alpha, delta=cfg.huber_delta)
        assert loss == want.item()
        assert mape == float(
            np.mean(np.abs(pred.data - tgt) / np.maximum(np.abs(tgt), 1e-8)) * 100.0)


class TestFineTune:
    def test_reuses_pipeline_and_improves_ood_fit(self):
        ds = tiny_dataset()
        trained = train_surrogate(ds, model=tiny_model(),
                                  config=TrainConfig(epochs=10, patience=None, seed=0))
        ref_before = trained.pipeline.sequence.reference

        ood_hist = np.diff(
            mmpp2_with_burstiness(40.0, 3.0, 5.0, 0.2).sample(duration=120.0, seed=1)
        )
        ood = generate_dataset(ood_hist, n_samples=60, seq_len=16, configs=GRID, seed=1)

        def mape(t, d):
            p = t.predict(d.sequences, d.features)
            return np.mean(np.abs(p - d.targets) / np.maximum(np.abs(d.targets), 1e-8))

        before = mape(trained, ood)
        tuned = fine_tune(trained, ood, epochs=10, lr=1e-3)
        after = mape(tuned, ood)
        assert tuned.pipeline.sequence.reference == ref_before  # pipeline reused
        assert after < before  # OOD error shrinks (§III-D)


class TestComputeGamma:
    def test_zero_for_perfect_prediction(self):
        p = np.array([0.1, 0.2])
        assert compute_gamma(p, p) == 0.0

    def test_matches_mape_definition(self):
        pred = np.array([0.11])
        true = np.array([0.10])
        assert compute_gamma(pred, true) == pytest.approx(0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_gamma(np.ones(2), np.ones(3))
