"""Recurrent layers (LSTM, GRU) for the sequence-model ablation.

The paper motivates the Transformer encoder *against* recurrent models
(§I.2: "traditional deep learning models like LSTM and RNN ... suffer from
limitations such as vanishing gradients and difficulty in capturing
long-range dependencies"). These layers let the ablation benchmark make
that comparison concrete: swap the encoder for an LSTM/GRU of matched size
and measure accuracy and prediction time.

Implementation note: the recurrence is a Python loop over time steps, with
each step fully vectorized over the batch — the standard trade-off for a
tape-based NumPy autograd. Gradients flow through the whole unrolled graph
(the backward pass is the tape walk, no TBPTT truncation).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor
from repro.utils.rng import as_rng


class LSTM(Module):
    """Single-layer LSTM over ``(batch, seq, input_dim)`` inputs.

    Returns the full hidden sequence ``(batch, seq, hidden_dim)``; use
    ``[:, -1]`` or mean pooling to collapse it.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        super().__init__()
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be >= 1")
        rng = as_rng(seed)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Fused gate projections: [input, forget, cell, output].
        self.w_x = Linear(input_dim, 4 * hidden_dim, seed=rng)
        self.w_h = Linear(hidden_dim, 4 * hidden_dim, bias=False, seed=rng)
        # Initialize the forget-gate bias positive (standard trick against
        # early vanishing memory).
        self.w_x.bias.data[hidden_dim : 2 * hidden_dim] = 1.0

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(
                f"expected (batch, seq, {self.input_dim}), got {x.shape}"
            )
        batch, seq, _ = x.shape
        d = self.hidden_dim
        h = Tensor(np.zeros((batch, d), x.dtype))
        c = Tensor(np.zeros((batch, d), x.dtype))
        outputs = []
        for t in range(seq):
            gates = self.w_x(x[:, t, :]) + self.w_h(h)
            i = gates[:, 0 * d : 1 * d].sigmoid()
            f = gates[:, 1 * d : 2 * d].sigmoid()
            g = gates[:, 2 * d : 3 * d].tanh()
            o = gates[:, 3 * d : 4 * d].sigmoid()
            c = f * c + i * g
            h = o * c.tanh()
            outputs.append(h)
        return F.stack(outputs, axis=1)


class GRU(Module):
    """Single-layer GRU over ``(batch, seq, input_dim)`` inputs."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        seed: int | None | np.random.Generator = None,
    ) -> None:
        super().__init__()
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be >= 1")
        rng = as_rng(seed)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Fused [reset, update] gates plus the candidate projection.
        self.w_xz = Linear(input_dim, 2 * hidden_dim, seed=rng)
        self.w_hz = Linear(hidden_dim, 2 * hidden_dim, bias=False, seed=rng)
        self.w_xn = Linear(input_dim, hidden_dim, seed=rng)
        self.w_hn = Linear(hidden_dim, hidden_dim, bias=False, seed=rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(
                f"expected (batch, seq, {self.input_dim}), got {x.shape}"
            )
        batch, seq, _ = x.shape
        d = self.hidden_dim
        h = Tensor(np.zeros((batch, d), x.dtype))
        outputs = []
        for t in range(seq):
            xt = x[:, t, :]
            gates = (self.w_xz(xt) + self.w_hz(h)).sigmoid()
            r = gates[:, :d]
            z = gates[:, d:]
            n = (self.w_xn(xt) + self.w_hn(r * h)).tanh()
            h = (1.0 - z) * n + z * h
            outputs.append(h)
        return F.stack(outputs, axis=1)
