"""Minimal float64 neural-network engine for the encoder/decoder stacks."""

from .layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ShapeError,
    layer_from_config,
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
    "Layer",
    "MaxPool2D",
    "Network",
    "NumericError",
    "ShapeError",
    "cross_entropy",
    "cross_entropy_grad",
    "layer_from_config",
    "load_checkpoint",
    "save_checkpoint",
    "softmax",
]
