"""Minimal float64 neural-network engine for the encoder/decoder stacks."""

from .layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ShapeError,
    softmax,
)
from .loss import cross_entropy, cross_entropy_grad
from .network import Network
from .optim import Adam, NumericError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "Adam",
    "CheckpointError",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "MaxPool2D",
    "Network",
    "NumericError",
    "ShapeError",
    "cross_entropy",
    "cross_entropy_grad",
    "load_checkpoint",
    "save_checkpoint",
    "softmax",
]
