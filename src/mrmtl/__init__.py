"""Multi-round task-oriented communication over noisy channels.

A numpy implementation of learned image transmission where the receiver
performs classification directly on received symbols and requests a second
transmission round only when its confidence falls below a threshold.

Names are imported from their modules (``from mrmtl.protocol import
run_protocol``). The package itself holds the five modules the benchmark in
``perfbench/`` reads through it, and the five names that benchmark reads
from the package directly; ``perfbench/`` is the benchmark's own directory
and is not edited alongside the library.
"""

from . import analysis, channel, dataset, models, protocol
from .channel import ChannelConfig
from .dataset import Dataset, dataset_fingerprint
from .models import ArchitectureConfig, TrainConfig

__version__ = "0.1.0"

__all__ = [
    "ArchitectureConfig", "ChannelConfig", "Dataset", "TrainConfig", "analysis",
    "channel", "dataset", "dataset_fingerprint", "models", "protocol",
]
