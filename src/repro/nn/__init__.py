"""A from-scratch deep-learning stack (autograd, layers, GRU, training).

This package substitutes for Keras/TensorFlow, which the paper uses but
which are unavailable offline. It is layered as three tiers:

- :mod:`repro.nn.ops` — pure numpy forward/backward kernels, no tape;
- the autograd tier — :class:`Tensor` + layer classes that run the ops
  kernels and attach gradients as fused tape nodes (training math). A
  :class:`GRU` or :class:`LSTM` layer is a single node over the whole
  sequence, whose recurrence is the compiled runner's;
- :mod:`repro.nn.inference` — a tape-free engine that compiles a fitted
  module into contiguous-weight numpy closures (serving math).

Plus everything around them: MSE/MAE losses, the Adam optimizer (one
vectorized pass over a flat parameter buffer), a mini-batch training
loop with early stopping, and model serialization.
"""

from . import ops
from .attention import AdditiveAttention
from .encoders import (
    SequenceEncoder,
    available_encoders,
    create_encoder,
    encoder_from_config,
    register_encoder,
    validate_encoder_name,
)
from .gru import GRU, GRUCell
from .inference import (
    EmbeddingRowCache,
    InferenceModel,
    UnsupportedModuleError,
    compile_module,
    compile_plan,
    register_compiler,
)
from .init import deferred_init, embedding_uniform, glorot_uniform, he_uniform, orthogonal, zeros
from .layers import ACTIVATIONS, Dense, Dropout, Embedding, Module, Parameter, Sequential
from .losses import get_loss, huber_loss, mae_loss, mse_loss
from .lstm import LSTM, LSTMCell
from .optim import SGD, Adam, Optimizer, clip_gradients
from .serialize import (
    load_encoder_bytes,
    load_model_bytes,
    load_state,
    save_encoder_bytes,
    save_model_bytes,
    save_state,
)
from .tensor import Tensor, apply_op, is_grad_enabled, no_grad
from .training import EarlyStopping, ReduceLROnPlateau, Trainer, TrainingDiverged, TrainingHistory

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "apply_op",
    "ops",
    "InferenceModel",
    "EmbeddingRowCache",
    "UnsupportedModuleError",
    "compile_module",
    "compile_plan",
    "register_compiler",
    "SequenceEncoder",
    "register_encoder",
    "available_encoders",
    "validate_encoder_name",
    "create_encoder",
    "encoder_from_config",
    "save_encoder_bytes",
    "load_encoder_bytes",
    "deferred_init",
    "Module",
    "Parameter",
    "Dense",
    "Dropout",
    "Embedding",
    "Sequential",
    "ACTIVATIONS",
    "GRU",
    "GRUCell",
    "AdditiveAttention",
    "mse_loss",
    "mae_loss",
    "huber_loss",
    "get_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_gradients",
    "LSTM",
    "LSTMCell",
    "Trainer",
    "TrainingDiverged",
    "TrainingHistory",
    "EarlyStopping",
    "ReduceLROnPlateau",
    "save_state",
    "load_state",
    "save_model_bytes",
    "load_model_bytes",
    "glorot_uniform",
    "he_uniform",
    "orthogonal",
    "zeros",
    "embedding_uniform",
]
