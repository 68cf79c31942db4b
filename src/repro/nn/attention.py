"""Scaled dot-product and multi-head attention (Eq. 3–4 of the paper).

The implementation follows Vaswani et al. Scaled dot-product attention is
one tape operation that works in a single score buffer, one cache-sized
chunk of (batch, head) slabs at a time (DESIGN.md §4).
:meth:`MultiHeadAttention.attend` also returns the attention weights, for
the attention-score visualizations of Fig. 14; ``forward`` drops them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.nn.functional import _softmax_backward, _softmax_forward
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor
from repro.utils.rng import as_rng

_NEG_INF = -1e9

#: Bytes of scores one chunk of the kernel works on: two 256×256 float32
#: slabs, so a chunk and its backward scratch stay in L2. Larger budgets
#: were slower at the batch-8 training shape and no faster at batch 1;
#: 256 KB (one float32 slab) timed the same as this at both.
_CHUNK_BYTES = 512 * 1024


def _chunks(lead: tuple[int, ...], slabs: int):
    """Basic-index tuples that cover the leading dims ``lead`` in row-major
    order, each selecting at most ``slabs`` whole slabs.

    Trailing lead axes that fit are taken whole; the axis before them is
    cut in steps; the axes before that are walked one index at a time.
    Every chunk of one call has the same shape except along its first axis.
    """
    inner, axis = 1, len(lead)
    while axis and inner * lead[axis - 1] <= slabs:
        axis -= 1
        inner *= lead[axis]
    if axis == 0:
        yield ()
        return
    step = slabs // inner
    for outer in itertools.product(*map(range, lead[: axis - 1])):
        for a in range(0, lead[axis - 1], step):
            yield outer + (slice(a, a + step),)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Attention(Q, K, V) = softmax(QKᵀ/√d) V.

    Shapes: ``q``/``k``/``v`` are ``(..., seq, d)``; ``mask`` broadcasts over
    the score shape ``(..., seq_q, seq_k)`` with ``True`` meaning *blocked*.
    The leading dims of all four broadcast together.

    Returns the attended values and the attention-weight tensor. The
    weights are detached (off the tape): gradients reach ``q``, ``k`` and
    ``v`` through the attended values only.

    Forward and backward walk the broadcast leading dims one chunk of whole
    ``(seq_q, seq_k)`` slabs at a time, at most :data:`_CHUNK_BYTES` of
    scores per chunk, so each chunk's scores stay in cache from ``q @ kᵀ``
    to ``@ v``. The forward scales, masks and normalizes each chunk of the
    one score array in place; the backward reuses two chunk-sized scratch
    buffers. Each chunk repeats the arithmetic of the composed ``matmul →
    scale → mask → softmax → matmul`` chain in the same order, so values
    and gradients are bit-identical to it. The result dtype is that of the
    inputs, float32 included.
    """
    qd, kd, vd = q.data, k.data, v.data
    (n_q, d), n_k, d_v = qd.shape[-2:], kd.shape[-2], vd.shape[-1]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    leads = {a.shape[:-2] for a in (qd, kd, vd)}
    lead = leads.pop() if len(leads) == 1 else np.broadcast_shapes(*leads)
    if mask is not None:
        lead = np.broadcast_shapes(lead, mask.shape[:-2])
        mask = np.broadcast_to(mask, lead + (n_q, n_k))
    qb, kb, vb = (
        a if a.shape[:-2] == lead else np.broadcast_to(a, lead + a.shape[-2:])
        for a in (qd, kd, vd)
    )
    dtype = np.result_type(qd, kd, vd)
    scale = dtype.type(1.0 / math.sqrt(d))
    slabs = max(1, _CHUNK_BYTES // max(1, n_q * n_k * dtype.itemsize))
    chunks = list(_chunks(lead, slabs))

    s = np.empty(lead + (n_q, n_k), dtype)
    out = np.empty(lead + (n_q, d_v), dtype)
    for c in chunks:
        sc = np.matmul(qb[c], np.swapaxes(kb[c], -1, -2), out=s[c])
        sc *= scale
        if mask is not None:
            np.copyto(sc, _NEG_INF, where=mask[c])
        _softmax_forward(sc, -1, out=sc)
        np.matmul(sc, vb[c], out=out[c])

    def backward(g: np.ndarray) -> None:
        # Fresh gradient arrays on every call: _accumulate may alias them.
        # k's gradient is the transpose of a C-contiguous (..., d, n_k)
        # array, the layout of the composed chain's, so that sums taken of
        # it downstream add in the same order.
        dq = np.empty(lead + (n_q, d), dtype)
        dkt = np.empty(lead + (d, n_k), dtype)
        dv = np.empty(lead + (n_k, d_v), dtype)
        scratch = prod = None
        for c in chunks:
            sc, gc = s[c], g[c]
            if scratch is None:
                scratch, prod = np.empty((2,) + sc.shape, dtype)
            gs = np.matmul(gc, np.swapaxes(vb[c], -1, -2), out=scratch[: len(sc)])
            np.matmul(np.swapaxes(sc, -1, -2), gc, out=dv[c])
            _softmax_backward(sc, gs, -1, out=gs, prod=prod[: len(sc)])
            if mask is not None:
                np.copyto(gs, 0.0, where=mask[c])
            gs *= scale
            np.matmul(gs, kb[c], out=dq[c])
            np.matmul(np.swapaxes(qb[c], -1, -2), gs, out=dkt[c])
        v._accumulate(dv)
        q._accumulate(dq)
        k._accumulate(np.swapaxes(dkt, -1, -2))

    return Tensor._from_op(out, (q, k, v), backward), Tensor(s)


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

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        return self.attend(query, key, value, mask)[0]

    def attend(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        mask: np.ndarray | None = None,
    ) -> tuple[Tensor, np.ndarray]:
        """The forward output and the attention weights, shape
        ``(batch, heads, seq_q, seq_k)`` (Fig. 14)."""
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
        out = attended.transpose(0, 2, 1, 3).reshape(batch, seq_q, self.embed_dim)
        out = self.w_o(self.drop(out))
        if squeeze:
            out = out.reshape(batch, self.embed_dim)
        return out, weights.data
