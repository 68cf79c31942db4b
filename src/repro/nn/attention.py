"""Scaled dot-product and multi-head attention (Eq. 3–4 of the paper).

The implementation follows Vaswani et al. Scaled dot-product attention is
one tape operation that works in a single score buffer (DESIGN.md §4). The
attention weights of the most recent forward pass are kept on
:attr:`MultiHeadAttention.last_weights` for the attention-score
visualizations of Fig. 14.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import _softmax_backward, _softmax_forward
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor
from repro.utils.rng import as_rng

_NEG_INF = -1e9


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Attention(Q, K, V) = softmax(QKᵀ/√d) V.

    Shapes: ``q``/``k``/``v`` are ``(..., seq, d)``; ``mask`` broadcasts over
    the score shape ``(..., seq_q, seq_k)`` with ``True`` meaning *blocked*.

    Returns the attended values and the attention-weight tensor. The
    weights are detached (off the tape): gradients reach ``q``, ``k`` and
    ``v`` through the attended values only. The forward scales, masks and
    normalizes the scores in place, and the backward repeats the
    arithmetic of the composed ``matmul → scale → mask → softmax →
    matmul`` chain in the same order, so values and gradients are
    bit-identical to it.
    """
    qd, kd, vd = q.data, k.data, v.data
    scale = 1.0 / np.sqrt(qd.shape[-1])
    s = qd @ np.swapaxes(kd, -1, -2)
    s *= scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        s = np.where(mask, _NEG_INF, s)
    _softmax_forward(s, -1, out=s)

    def backward(g: np.ndarray) -> None:
        gs = g @ np.swapaxes(vd, -1, -2)
        v._accumulate(np.swapaxes(s, -1, -2) @ g)
        gs = _softmax_backward(s, gs, -1)
        if mask is not None:
            gs = np.where(mask, 0.0, gs)
        gs = gs * scale
        q._accumulate(gs @ kd)
        k._accumulate(np.swapaxes(np.swapaxes(qd, -1, -2) @ gs, -1, -2))

    return Tensor._from_op(s @ vd, (q, k, v), backward), Tensor(s)


class MultiHeadAttention(Module):
    """Multi-head attention with separate Q/K/V/output projections.

    ``embed_dim`` must be divisible by ``num_heads``. Inputs of shape
    ``(batch, seq, embed_dim)`` — or ``(batch, embed_dim)`` for the pooled
    feature-fusion attention of Fig. 3, which is treated as ``seq == 1``.
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        dropout: float = 0.0,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(
                f"embed_dim ({embed_dim}) must be divisible by num_heads ({num_heads})"
            )
        rng = as_rng(seed)
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.w_q = Linear(embed_dim, embed_dim, seed=rng)
        self.w_k = Linear(embed_dim, embed_dim, seed=rng)
        self.w_v = Linear(embed_dim, embed_dim, seed=rng)
        self.w_o = Linear(embed_dim, embed_dim, seed=rng)
        self.drop = Dropout(dropout, seed=rng)
        #: attention weights of the most recent forward pass, shape
        #: (batch, heads, seq_q, seq_k); populated for introspection (Fig. 14).
        self.last_weights: np.ndarray | None = None

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        squeeze = query.ndim == 2
        if squeeze:  # pooled vectors -> singleton sequence
            query = query.reshape(query.shape[0], 1, query.shape[1])
            key = key.reshape(key.shape[0], 1, key.shape[1])
            value = value.reshape(value.shape[0], 1, value.shape[1])
        batch, seq_q, _ = query.shape
        seq_k = key.shape[1]

        q = self._split_heads(self.w_q(query), batch, seq_q)
        k = self._split_heads(self.w_k(key), batch, seq_k)
        v = self._split_heads(self.w_v(value), batch, seq_k)

        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            # Accept (seq_q, seq_k), (batch, seq_q, seq_k) or key-padding
            # (batch, seq_k) masks; broadcast to (batch, heads, seq_q, seq_k).
            if mask.ndim == 2 and mask.shape == (batch, seq_k):
                mask = mask[:, None, None, :]
            elif mask.ndim == 2:
                mask = mask[None, None, :, :]
            elif mask.ndim == 3:
                mask = mask[:, None, :, :]

        attended, weights = scaled_dot_product_attention(q, k, v, mask=mask)
        self.last_weights = weights.data
        out = attended.transpose(0, 2, 1, 3).reshape(batch, seq_q, self.embed_dim)
        out = self.w_o(self.drop(out))
        if squeeze:
            out = out.reshape(batch, self.embed_dim)
        return out
