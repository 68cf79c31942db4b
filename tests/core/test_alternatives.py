"""Tests for the alternative surrogate architectures (ablation models)."""

import numpy as np
import pytest

from repro.arrival.map_process import poisson_map
from repro.batching.config import config_grid
from repro.core.alternatives import MLPSurrogate, RecurrentSurrogate, summary_statistics
from repro.core.dataset import generate_dataset
from repro.core.training import TrainConfig, train_surrogate
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(31)
GRID = config_grid(memories=(512.0, 1792.0), batch_sizes=(1, 8), timeouts=(0.0, 0.05))


class TestSummaryStatistics:
    def test_shape(self):
        stats = summary_statistics(RNG.exponential(size=(5, 32)))
        assert stats.shape == (5, MLPSurrogate.N_SUMMARY)

    def test_known_values(self):
        x = np.full((1, 16), 2.0)
        stats = summary_statistics(x)[0]
        assert stats[0] == pytest.approx(2.0)  # mean
        assert stats[1] == pytest.approx(0.0)  # cv2

    def test_1d_input(self):
        assert summary_statistics(np.ones(8)).shape == (1, MLPSurrogate.N_SUMMARY)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: RecurrentSurrogate(seq_len=16, d_model=8, cell="lstm", seed=0),
        lambda: RecurrentSurrogate(seq_len=16, d_model=8, cell="gru", seed=0),
        lambda: MLPSurrogate(seq_len=16, hidden=16, seed=0),
    ],
    ids=["lstm", "gru", "mlp"],
)
class TestAlternativeSurrogates:
    def test_forward_shape(self, factory):
        model = factory()
        out = model(Tensor(RNG.exponential(size=(4, 16))), Tensor(RNG.normal(size=(4, 3))))
        assert out.shape == (4, 6)

    def test_runs_in_float32(self, factory):
        model = factory()
        out = model(Tensor(RNG.exponential(size=(4, 16))), Tensor(RNG.normal(size=(4, 3))))
        assert out.dtype == np.float32
        assert model.predict(RNG.exponential(size=16), RNG.normal(size=(2, 3))).dtype == np.float32

    def test_predict_broadcast(self, factory):
        model = factory()
        out = model.predict(RNG.exponential(size=16), RNG.normal(size=(7, 3)))
        assert out.shape == (7, 6)

    def test_trains_with_standard_loop(self, factory):
        hist = np.diff(poisson_map(200.0).sample(duration=30.0, seed=0))
        ds = generate_dataset(hist, n_samples=50, seq_len=16, configs=GRID, seed=0)
        trained = train_surrogate(
            ds, model=factory(),
            config=TrainConfig(epochs=4, batch_size=16, patience=None, seed=0),
        )
        assert trained.history.train_loss[-1] < trained.history.train_loss[0] * 1.5
        preds = trained.predict(ds.sequences[:3], ds.features[:3])
        assert preds.shape == (3, 6)


class TestValidation:
    def test_bad_cell(self):
        with pytest.raises(ValueError):
            RecurrentSurrogate(cell="transformer")

    def test_bad_seq_len(self):
        with pytest.raises(ValueError):
            RecurrentSurrogate(seq_len=0)

    def test_seq_shape_mismatch(self):
        model = RecurrentSurrogate(seq_len=16, d_model=8, seed=0)
        with pytest.raises(ValueError):
            model(Tensor(RNG.normal(size=(2, 8))), Tensor(RNG.normal(size=(2, 3))))
