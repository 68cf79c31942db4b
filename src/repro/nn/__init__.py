"""Pure-NumPy deep-learning framework (the PyTorch substitute).

Provides reverse-mode autodiff (:mod:`repro.nn.tensor`), standard layers,
multi-head attention, a Transformer encoder, optimizers, the paper's loss
functions, and data/serialization utilities.
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
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import (
    combined_loss,
    huber_loss,
    mape_loss,
    mse_loss,
    slo_violation_weights,
)
from repro.nn.optim import SGD, Adam, CosineAnnealingLR, StepLR, clip_grad_norm
from repro.nn.recurrent import GRU, LSTM
from repro.nn.serialization import load_state, save_state
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
    "SGD",
    "Adam",
    "ArrayDataset",
    "CosineAnnealingLR",
    "DataLoader",
    "Dropout",
    "FeedForward",
    "LayerNorm",
    "Linear",
    "Module",
    "MultiHeadAttention",
    "Parameter",
    "PositionalEncoding",
    "ReLU",
    "Sequential",
    "StepLR",
    "Tanh",
    "Tensor",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "clip_grad_norm",
    "combined_loss",
    "functional",
    "huber_loss",
    "load_state",
    "mape_loss",
    "mse_loss",
    "no_grad",
    "save_state",
    "scaled_dot_product_attention",
    "sinusoidal_positional_encoding",
    "slo_violation_weights",
    "train_val_split",
]
