"""Transformer encoder stack and sinusoidal positional encoding.

Implements Eq. 2 of the paper: a post-norm encoder (as in Vaswani et al.)
with ``N`` stackable layers, plus the positional encoding applied to the
sequence embedding ``E_seq`` to produce ``E_pos``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import Dropout, FeedForward, LayerNorm, Module
from repro.nn.tensor import DTYPE, Tensor
from repro.utils.rng import as_rng


def sinusoidal_positional_encoding(seq_len: int, dim: int) -> np.ndarray:
    """Classic sin/cos positional table of shape ``(seq_len, dim)``."""
    if seq_len < 1 or dim < 1:
        raise ValueError("seq_len and dim must be >= 1")
    position = np.arange(seq_len)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    table = np.zeros((seq_len, dim))
    table[:, 0::2] = np.sin(position * div)
    table[:, 1::2] = np.cos(position * div[: dim // 2])
    return table


class PositionalEncoding(Module):
    """Adds a (non-learned) sinusoidal positional table to the input."""

    def __init__(self, dim: int, max_len: int = 4096, dropout: float = 0.0,
                 seed: int | None | np.random.Generator = None) -> None:
        super().__init__()
        self.table = sinusoidal_positional_encoding(max_len, dim).astype(DTYPE)
        self.drop = Dropout(dropout, seed=seed)

    def forward(self, x: Tensor) -> Tensor:
        seq = x.shape[-2]
        if seq > self.table.shape[0]:
            raise ValueError(
                f"sequence length {seq} exceeds positional table ({self.table.shape[0]})"
            )
        return self.drop(x + self.table[:seq])


class TransformerEncoderLayer(Module):
    """One post-norm encoder layer: MHA + residual + LN, FFN + residual + LN."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        ff_dim: int,
        dropout: float = 0.0,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        super().__init__()
        rng = as_rng(seed)
        self.attn = MultiHeadAttention(embed_dim, num_heads, dropout=dropout, seed=rng)
        self.ff = FeedForward(embed_dim, ff_dim, embed_dim, dropout=dropout, seed=rng)
        self.norm1 = LayerNorm(embed_dim)
        self.norm2 = LayerNorm(embed_dim)
        self.drop1 = Dropout(dropout, seed=rng)
        self.drop2 = Dropout(dropout, seed=rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        # Through the module call, not ``attend``: the perf benchmark times
        # each layer by wrapping ``attn.forward`` on the instance.
        return self._residuals(x, self.attn(x, x, x, mask=mask))

    def attend(self, x: Tensor, mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
        """The forward output and the self-attention weights (Fig. 14)."""
        attended, weights = self.attn.attend(x, x, x, mask)
        return self._residuals(x, attended), weights

    def _residuals(self, x: Tensor, attended: Tensor) -> Tensor:
        x = self.norm1(x + self.drop1(attended))
        return self.norm2(x + self.drop2(self.ff(x)))


class TransformerEncoder(Module):
    """A stack of ``num_layers`` encoder layers (Eq. 2, stackable as N)."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        ff_dim: int,
        num_layers: int,
        dropout: float = 0.0,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        rng = as_rng(seed)
        self.layers = [
            TransformerEncoderLayer(embed_dim, num_heads, ff_dim, dropout=dropout, seed=rng)
            for _ in range(num_layers)
        ]

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, mask=mask)
        return x

    def attention_maps(self, x: Tensor, mask: np.ndarray | None = None) -> list[np.ndarray]:
        """Per-layer attention weights of a forward pass over ``x``."""
        maps = []
        for layer in self.layers:
            x, weights = layer.attend(x, mask=mask)
            maps.append(weights)
        return maps
