"""Multi-round task-oriented communication over noisy channels.

A numpy implementation of learned image transmission where the receiver
performs classification directly on received symbols and requests a second
transmission round only when its confidence falls below a threshold.
"""

from .analysis import (
    ConfusionMatrix,
    RunReport,
    build_report,
    confusion,
    emit_report,
    read_sweep_csv,
    read_traces_csv,
    write_sweep_csv,
    write_traces_csv,
)
from .channel import (
    ChannelConfig,
    ChannelDraw,
    apply_channel,
    draw_channel,
    noise_variance,
)
from .dataset import (
    CifarFormatError,
    Dataset,
    Split,
    batches,
    dataset_fingerprint,
    load_cifar10,
    make_synthetic,
)
from .models import (
    ArchitectureConfig,
    BundleError,
    DecoderOutput,
    MrmtlModel,
    SrstlModel,
    TrainConfig,
    TrainingError,
    build_decoder,
    build_encoder,
    load_bundle,
    mrmtl_loss,
    save_bundle,
    train_mrmtl,
    train_srstl,
)
from .protocol import (
    CalibrationError,
    CalibrationStats,
    ProtocolTrace,
    RoundCache,
    accuracy_decomposition,
    apply_threshold,
    average_delay,
    calibrate_threshold,
    default_delta_grid,
    delay_decomposition,
    escalation_rate,
    evaluate_rounds,
    run_protocol,
    task_accuracy,
    threshold_midpoint,
)

__version__ = "0.1.0"

__all__ = [
    "ArchitectureConfig", "BundleError", "CalibrationError", "CalibrationStats",
    "ChannelConfig", "ChannelDraw", "CifarFormatError", "ConfusionMatrix",
    "Dataset", "DecoderOutput", "MrmtlModel", "ProtocolTrace", "RoundCache",
    "RunReport", "Split", "SrstlModel", "TrainConfig", "TrainingError",
    "accuracy_decomposition", "apply_channel", "apply_threshold", "average_delay",
    "batches", "build_decoder", "build_encoder", "build_report",
    "calibrate_threshold", "confusion",
    "dataset_fingerprint", "default_delta_grid", "delay_decomposition",
    "draw_channel", "emit_report", "escalation_rate", "evaluate_rounds",
    "load_bundle", "load_cifar10", "make_synthetic", "mrmtl_loss",
    "noise_variance", "read_sweep_csv", "read_traces_csv",
    "run_protocol", "save_bundle", "task_accuracy",
    "threshold_midpoint", "train_mrmtl", "train_srstl", "write_sweep_csv",
    "write_traces_csv",
]
