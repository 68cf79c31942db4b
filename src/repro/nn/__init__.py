"""Pure-NumPy deep-learning framework (the PyTorch substitute).

Provides reverse-mode autodiff (:mod:`repro.nn.tensor`), standard layers,
multi-head attention, a Transformer encoder, Adam, the paper's loss
functions, and data utilities.
"""

from repro.nn import functional
from repro.nn.attention import MultiHeadAttention, scaled_dot_product_attention
from repro.nn.data import ArrayDataset, DataLoader, train_val_split
from repro.nn.layers import (
    Dropout,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    Parameter,
)
from repro.nn.losses import (
    combined_loss,
    huber_loss,
    mape_loss,
    slo_violation_weights,
)
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.recurrent import GRU, LSTM
from repro.nn.tensor import DTYPE, Tensor, no_grad
from repro.nn.transformer import (
    PositionalEncoding,
    TransformerEncoder,
    TransformerEncoderLayer,
    sinusoidal_positional_encoding,
)

__all__ = [
    "DTYPE",
    "GRU",
    "LSTM",
    "Adam",
    "ArrayDataset",
    "DataLoader",
    "Dropout",
    "FeedForward",
    "LayerNorm",
    "Linear",
    "Module",
    "MultiHeadAttention",
    "Parameter",
    "PositionalEncoding",
    "Tensor",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "clip_grad_norm",
    "combined_loss",
    "functional",
    "huber_loss",
    "mape_loss",
    "no_grad",
    "scaled_dot_product_attention",
    "sinusoidal_positional_encoding",
    "slo_violation_weights",
    "train_val_split",
]
