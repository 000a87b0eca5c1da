"""A from-scratch numpy neural-network framework.

Every GEMM (forward and backward, conv via im2col) can be routed through
the bit-accurate MAC emulation in :mod:`repro.emu`, reproducing the
paper's low-precision training flow.
"""

from .functional import (
    col2im,
    conv_output_size,
    gelu,
    gelu_grad,
    im2col,
    one_hot,
    softmax,
)
from .layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GELU,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadAttention,
    PositionalEmbedding,
    ReLU,
)
from .checkpoint import (
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
    state_fingerprint,
)
from .loss import CrossEntropyLoss, MSELoss
from .loss_scaler import DynamicLossScaler
from .lr_scheduler import CosineAnnealingLR, MultiStepLR
from .module import Module, Parameter, Sequential, default_gemm
from .optim import SGD
from .trainer import EpochStats, Trainer, TrainingResult

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "default_gemm",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "state_fingerprint",
    "Linear",
    "Conv2d",
    "ReLU",
    "GELU",
    "LayerNorm",
    "Embedding",
    "PositionalEmbedding",
    "MultiHeadAttention",
    "BatchNorm1d",
    "BatchNorm2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "CrossEntropyLoss",
    "MSELoss",
    "SGD",
    "CosineAnnealingLR",
    "MultiStepLR",
    "DynamicLossScaler",
    "Trainer",
    "TrainingResult",
    "EpochStats",
    "im2col",
    "col2im",
    "conv_output_size",
    "softmax",
    "gelu",
    "gelu_grad",
    "one_hot",
]
