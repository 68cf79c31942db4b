"""The DeepBAT deep surrogate model (Fig. 3).

Architecture, following §III-D exactly:

1. ``E_seq = FeedForward(S)`` — per-position embedding of the inter-arrival
   sequence into d_model dimensions (Eq. 1);
2. ``E_pos`` — sinusoidal positional encoding;
3. ``E_trans = TransformerEncoder(E_pos)`` — N stackable encoder layers
   (Eq. 2; paper uses N=2, d=16, FFN hidden 32, ReLU);
4. ``E_p`` — mean pooling over the sequence axis;
5. ``E_1 = MultiHeadAtt(E_p, E_p, E_p)`` — the extra fusion attention over
   the pooled representation (Eq. 4);
6. ``E_2 = FeedForward(Standardize(F))`` — embedding of the configuration
   features (Eq. 5; standardization lives in
   :class:`repro.core.features.FeaturePipeline`);
7. ``O = FeedForward(Concat(E_1, E_2))`` — the output head predicting the
   cost and the latency-percentile vector (Eq. 6).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import FeedForward, Module
from repro.nn.tensor import DTYPE, Tensor, no_grad
from repro.nn.transformer import PositionalEncoding, TransformerEncoder
from repro.utils.rng import as_rng


class DeepBATSurrogate(Module):
    """Transformer-based predictor of (cost, latency percentiles).

    Parameters mirror the paper's grid-searched defaults: 2 encoder layers,
    embedding dimension 16, feed-forward hidden width 32, sequence length
    256 (the §V trade-off point).
    """

    def __init__(
        self,
        seq_len: int = 256,
        d_model: int = 16,
        num_heads: int = 4,
        ff_hidden: int = 32,
        num_layers: int = 2,
        n_features: int = 3,
        n_outputs: int = 6,
        dropout: float = 0.0,
        seed: int | None | np.random.Generator = 0,
    ) -> None:
        super().__init__()
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        if n_outputs < 2:
            raise ValueError("n_outputs must cover cost + at least one percentile")
        rng = as_rng(seed)
        self.seq_len = seq_len
        self.d_model = d_model
        self.n_features = n_features
        self.n_outputs = n_outputs
        #: Constructor arguments, recorded so checkpoints can rebuild the
        #: exact architecture (see repro.core.training.save_trained).
        self.hyperparameters = {
            "seq_len": seq_len,
            "d_model": d_model,
            "num_heads": num_heads,
            "ff_hidden": ff_hidden,
            "num_layers": num_layers,
            "n_features": n_features,
            "n_outputs": n_outputs,
            "dropout": dropout,
        }

        self.seq_embed = FeedForward(1, ff_hidden, d_model, dropout=dropout, seed=rng)
        self.pos_enc = PositionalEncoding(d_model, max_len=max(seq_len, 1024),
                                          dropout=dropout, seed=rng)
        self.encoder = TransformerEncoder(
            d_model, num_heads, ff_hidden, num_layers, dropout=dropout, seed=rng
        )
        self.fusion_attn = MultiHeadAttention(d_model, num_heads, dropout=dropout, seed=rng)
        self.feat_embed = FeedForward(n_features, ff_hidden, d_model,
                                      dropout=dropout, seed=rng)
        self.head = FeedForward(2 * d_model, ff_hidden, n_outputs,
                                dropout=dropout, seed=rng)

    # ------------------------------------------------------------- forward
    def forward(self, sequence: Tensor, features: Tensor) -> Tensor:
        """Predict O for scaled inputs.

        ``sequence``: (batch, seq_len) scaled inter-arrival windows;
        ``features``: (batch, n_features) standardized (M, B, T). Both are
        cast to the model dtype here, so the whole pass runs in it.
        """
        if sequence.ndim != 2 or sequence.shape[1] != self.seq_len:
            raise ValueError(
                f"sequence must be (batch, {self.seq_len}), got {sequence.shape}"
            )
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ValueError(
                f"features must be (batch, {self.n_features}), got {features.shape}"
            )
        sequence, features = sequence.astype(DTYPE), features.astype(DTYPE)
        batch = sequence.shape[0]
        e_seq = self.seq_embed(sequence.reshape(batch, self.seq_len, 1))  # Eq. 1
        e_pos = self.pos_enc(e_seq)
        e_trans = self.encoder(e_pos)  # Eq. 2
        e_p = F.mean_pool(e_trans, axis=1)  # (batch, d_model)
        e_1 = self.fusion_attn(e_p, e_p, e_p)  # Eq. 4
        e_2 = self.feat_embed(features)  # Eq. 5
        return self.head(F.concat([e_1, e_2], axis=-1))  # Eq. 6

    # --------------------------------------------------------- conveniences
    def predict(self, sequence: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Eval-mode forward on raw arrays; returns a NumPy array."""
        seq = np.atleast_2d(np.asarray(sequence, dtype=DTYPE))
        feats = np.atleast_2d(np.asarray(features, dtype=DTYPE))
        if seq.shape[0] == 1 and feats.shape[0] > 1:
            return self.predict_grid(seq[0], feats)
        self.eval()
        with no_grad():
            return self.forward(Tensor(seq), Tensor(feats)).data

    def predict_grid(self, sequence: np.ndarray, features: np.ndarray) -> np.ndarray:
        """One window × many candidate configurations (§III-E fast path).

        ``E_1`` depends only on the sequence, not on F, so the expensive
        encoder branch runs once; only the cheap feature embedding and the
        output head are batched over the candidate grid. Numerically
        identical to tiling the window through :meth:`forward`.
        """
        self.eval()
        seq = np.asarray(sequence, dtype=DTYPE).reshape(1, -1)
        if seq.shape[1] != self.seq_len:
            raise ValueError(f"sequence must have length {self.seq_len}")
        feats = np.atleast_2d(np.asarray(features, dtype=DTYPE))
        n = feats.shape[0]
        with no_grad():
            e_seq = self.seq_embed(Tensor(seq.reshape(1, self.seq_len, 1)))
            e_trans = self.encoder(self.pos_enc(e_seq))
            e_p = F.mean_pool(e_trans, axis=1)
            e_1 = self.fusion_attn(e_p, e_p, e_p)  # (1, d_model)
            e_1_grid = Tensor(np.broadcast_to(e_1.data, (n, self.d_model)).copy())
            e_2 = self.feat_embed(Tensor(feats))
            return self.head(F.concat([e_1_grid, e_2], axis=-1)).data

    def attention_scores(self, sequence: np.ndarray) -> np.ndarray:
        """Aggregated encoder attention over the input positions (Fig. 14).

        Runs the encoder on ``sequence`` (no features needed) and returns
        the column-wise attention mass each position receives, averaged
        over layers and heads, normalized to sum to 1.
        """
        self.eval()
        raw = np.asarray(sequence, dtype=DTYPE)
        seq = np.atleast_2d(raw)
        batch = seq.shape[0]
        with no_grad():
            e_seq = self.seq_embed(Tensor(seq.reshape(batch, -1, 1)))
            # [(batch, heads, L, L)] per layer
            maps = self.encoder.attention_maps(self.pos_enc(e_seq))
        agg = np.mean([m.mean(axis=1) for m in maps], axis=0)  # (batch, L, L)
        received = agg.mean(axis=1)  # attention mass received per position
        received = received / received.sum(axis=-1, keepdims=True)
        return received[0] if raw.ndim == 1 else received
