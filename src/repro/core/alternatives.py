"""Alternative surrogate architectures for the model ablation.

The paper's §I.2 argues for the Transformer encoder over recurrent models;
§VI positions the deep surrogate against classic predictors. These
drop-in replacements for :class:`repro.core.surrogate.DeepBATSurrogate`
make those claims testable on the same data:

* :class:`RecurrentSurrogate` — LSTM or GRU encoder in place of the
  Transformer stack (everything else identical);
* :class:`MLPSurrogate` — no sequence model at all: the window is reduced
  to summary statistics (mean, CV², tail quantiles, lag-1 ACF) and fed to a
  plain MLP; the "classic feature engineering" strawman.

All three share the forward signature ``(sequence, features) -> O`` so they
slot into :func:`repro.core.training.train_surrogate` and the controller
unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import FeedForward, Module
from repro.nn.recurrent import GRU, LSTM
from repro.nn.tensor import DTYPE, Tensor, no_grad
from repro.utils.rng import as_rng


def _predict(self: Module, sequence: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Eval-mode, tape-free forward on raw arrays; one window is tiled
    over a grid of feature rows. Shared as ``predict`` by both models."""
    self.eval()
    seq = np.atleast_2d(np.asarray(sequence, dtype=DTYPE))
    feats = np.atleast_2d(np.asarray(features, dtype=DTYPE))
    if seq.shape[0] == 1 and feats.shape[0] > 1:
        seq = np.broadcast_to(seq, (feats.shape[0], seq.shape[1]))
    with no_grad():
        return self.forward(Tensor(seq), Tensor(feats)).data


class RecurrentSurrogate(Module):
    """DeepBAT's architecture with the Transformer swapped for an RNN.

    The pooled RNN state replaces ``E_1``; the feature path and output head
    are identical to the Transformer surrogate.
    """

    def __init__(
        self,
        seq_len: int = 256,
        d_model: int = 16,
        ff_hidden: int = 32,
        cell: str = "lstm",
        n_features: int = 3,
        n_outputs: int = 6,
        seed: int | None | np.random.Generator = 0,
    ) -> None:
        super().__init__()
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        if cell not in ("lstm", "gru"):
            raise ValueError(f"cell must be 'lstm' or 'gru', got {cell!r}")
        rng = as_rng(seed)
        self.seq_len = seq_len
        self.n_features = n_features
        self.n_outputs = n_outputs
        self.cell = cell
        self.seq_embed = FeedForward(1, ff_hidden, d_model, seed=rng)
        rnn_cls = LSTM if cell == "lstm" else GRU
        self.rnn = rnn_cls(d_model, d_model, seed=rng)
        self.feat_embed = FeedForward(n_features, ff_hidden, d_model, seed=rng)
        self.head = FeedForward(2 * d_model, ff_hidden, n_outputs, seed=rng)

    def forward(self, sequence: Tensor, features: Tensor) -> Tensor:
        if sequence.ndim != 2 or sequence.shape[1] != self.seq_len:
            raise ValueError(
                f"sequence must be (batch, {self.seq_len}), got {sequence.shape}"
            )
        sequence, features = sequence.astype(DTYPE), features.astype(DTYPE)
        batch = sequence.shape[0]
        e_seq = self.seq_embed(sequence.reshape(batch, self.seq_len, 1))
        states = self.rnn(e_seq)
        pooled = F.mean_pool(states, axis=1)
        e_2 = self.feat_embed(features)
        return self.head(F.concat([pooled, e_2], axis=-1))

    predict = _predict


def summary_statistics(sequences: np.ndarray) -> np.ndarray:
    """Hand-crafted window features for the MLP baseline: mean, CV², the
    10/50/90/99 % quantiles, and the lag-1 autocorrelation."""
    x = np.atleast_2d(np.asarray(sequences, dtype=float))
    mean = x.mean(axis=1)
    std = x.std(axis=1)
    cv2 = np.where(mean > 0, (std / np.maximum(mean, 1e-12)) ** 2, 0.0)
    qs = np.percentile(x, [10, 50, 90, 99], axis=1).T
    centered = x - mean[:, None]
    denom = np.maximum((centered**2).sum(axis=1), 1e-12)
    rho1 = (centered[:, :-1] * centered[:, 1:]).sum(axis=1) / denom
    return np.column_stack([mean, cv2, qs, rho1])


class MLPSurrogate(Module):
    """Summary-statistics MLP: no sequence model, no attention.

    Represents the classic feature-engineering approach the deep surrogate
    replaces; it cannot see *where* in the window the bursts sit, only
    aggregate statistics.
    """

    N_SUMMARY = 7

    def __init__(
        self,
        seq_len: int = 256,
        hidden: int = 64,
        n_features: int = 3,
        n_outputs: int = 6,
        seed: int | None | np.random.Generator = 0,
    ) -> None:
        super().__init__()
        rng = as_rng(seed)
        self.seq_len = seq_len
        self.n_features = n_features
        self.n_outputs = n_outputs
        self.net = FeedForward(self.N_SUMMARY + n_features, hidden, n_outputs, seed=rng)

    def forward(self, sequence: Tensor, features: Tensor) -> Tensor:
        stats = Tensor(summary_statistics(sequence.data).astype(DTYPE))
        return self.net(F.concat([stats, features.astype(DTYPE)], axis=-1))

    predict = _predict
