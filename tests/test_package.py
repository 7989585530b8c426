"""The package surface: exported names and the runnable demos."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import mrmtl

ROOT = Path(__file__).resolve().parent.parent


# what the benchmark in perfbench/ reads through the package, by module
BENCHMARK_NAMES = {"channel": ["ChannelConfig"],
                   "dataset": ["Dataset", "dataset_fingerprint"],
                   "models": ["ArchitectureConfig", "TrainConfig"]}
BENCHMARK_MODULES = ["analysis", "channel", "dataset", "models", "protocol"]


def test_every_exported_name_resolves():
    missing = [name for name in mrmtl.__all__ if not hasattr(mrmtl, name)]
    assert missing == []
    assert len(set(mrmtl.__all__)) == len(mrmtl.__all__)


def test_package_exposes_the_benchmark_modules():
    for name in BENCHMARK_MODULES:
        assert getattr(mrmtl, name) is importlib.import_module(f"mrmtl.{name}"), name


def test_package_names_are_their_modules_objects():
    for module, names in BENCHMARK_NAMES.items():
        for name in names:
            assert getattr(mrmtl, name) is getattr(getattr(mrmtl, module), name), name
    kept = BENCHMARK_MODULES + [n for names in BENCHMARK_NAMES.values() for n in names]
    assert sorted(mrmtl.__all__) == sorted(kept)
    assert isinstance(mrmtl.__version__, str)


# every attribute perfbench/run.py, tracer.py and microbench.py call or patch
BENCHMARK_ATTRIBUTES = {
    "models": ["batches", "draw_channel", "power_norm_forward", "power_norm_backward",
               "build_encoder", "build_decoder", "train_mrmtl", "mrmtl_head_accuracies",
               "mrmtl_loss", "save_bundle", "load_bundle"],
    "protocol": ["draw_channel", "calibrate_threshold", "evaluate_rounds", "run_protocol",
                 "apply_threshold", "sweep_from_cache", "default_delta_grid",
                 "task_accuracy", "average_delay", "escalation_rate"],
    "analysis": ["apply_threshold", "sweep_from_cache", "build_report", "emit_report",
                 "read_traces_csv"],
    "charts": ["emit_sweep_charts"],
    "dataset": ["Split", "make_synthetic"],
    "channel": ["draw_channel"],
    "nn": ["Adam", "Network", "save_checkpoint", "load_checkpoint"],
}

_ = object()  # a placeholder argument
# (module, name, positional args, keyword args): each call shape the benchmark
# uses; methods are looked up on their class, so their args start with self
BENCHMARK_CALLS = [
    ("models", "ArchitectureConfig", (), {"nc": _, "num_classes": _}),
    ("models", "TrainConfig", (), dict.fromkeys(
        ["epochs", "batch_size", "lr", "loss_weight", "seed"], _)),
    ("models", "batches", (_, _, _), {}),
    ("models", "build_encoder", (_, _), {}),
    ("models", "build_decoder", (_, _, _), {}),
    ("models", "train_mrmtl", (_, _, _, _), {}),
    ("models", "mrmtl_head_accuracies", (_, _, _, _), {}),
    ("models", "mrmtl_loss", (_, _, _, _, _), {}),
    ("models", "save_bundle", (_, _, _, _, _, _), {}),
    ("models", "save_bundle", (_, _, _, _, _, _, _), {}),
    ("models", "load_bundle", (_,), {}),
    ("dataset", "Dataset", (), {"train": _, "test": _, "class_names": _}),
    ("dataset", "make_synthetic", (_, _, _), {}),
    ("dataset", "dataset_fingerprint", (_,), {}),
    ("channel", "ChannelConfig", (_, _, _), {}),
    ("channel", "draw_channel", (_, _, _, _), {}),
    ("protocol", "calibrate_threshold", (_, _, _, _), {}),
    ("protocol", "evaluate_rounds", (_, _, _, _), {}),
    ("protocol", "run_protocol", (_, _, _, _, _), {}),
    ("protocol", "sweep_from_cache", (_, _), {}),
    ("protocol", "default_delta_grid", (), {}),
    ("protocol", "task_accuracy", (_,), {}),
    ("protocol", "average_delay", (_,), {}),
    ("protocol", "escalation_rate", (_,), {}),
    ("analysis", "build_report", (_, _, _), {"sweep_grid": _, "calibration": _,
                                             "class_names": _}),
    ("analysis", "emit_report", (_, _), {}),
    ("analysis", "read_traces_csv", (_,), {}),
    ("charts", "emit_sweep_charts", (_, _), {}),
    ("nn", "Adam", (), {}),
    ("nn", "Adam.step", (_, _), {}),
    ("nn", "load_checkpoint", (_,), {}),
    ("nn", "Network.forward", (_, _), {}),
    ("nn", "Network.forward", (_, _, _, _), {}),
    ("nn", "Network.backward", (_, _), {}),
    ("nn", "Network.param_items", (_,), {}),
    ("nn", "Network.num_params", (_,), {}),
    ("dataset", "Split.subset", (_, _), {}),
]


def _resolve(module: str, name: str):
    obj = importlib.import_module(f"mrmtl.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def test_benchmark_attributes_exist():
    missing = [f"{module}.{name}" for module, names in BENCHMARK_ATTRIBUTES.items()
               for name in names if not hasattr(importlib.import_module(f"mrmtl.{module}"),
                                                name)]
    assert missing == []


def test_benchmark_call_shapes_bind():
    for module, name, args, kwargs in BENCHMARK_CALLS:
        inspect.signature(_resolve(module, name)).bind(*args, **kwargs)


def test_benchmark_value_shapes():
    from mrmtl import channel, nn

    cfg = channel.ChannelConfig("rayleigh", 7.0, 3)
    assert (cfg.kind, cfg.snr_db, cfg.seed) == ("rayleigh", 7.0, 3)
    assert cfg.to_dict() == {"kind": "rayleigh", "snr_db": 7.0, "seed": 3}
    assert isinstance(nn.Adam().lr, float)


def test_encoder_layers_carry_what_the_layer_timings_read():
    # microbench names conv1..conv6, pool1..pool3 and dense1 by layer kind
    from mrmtl import models

    layers = models.build_encoder(4, 0).layers
    kinds = [layer.kind for layer in layers]
    assert [kinds.count(k) for k in ("conv2d", "maxpool2d", "dense")] == [6, 3, 2]
    for layer in layers:
        assert isinstance(layer.params, dict) and isinstance(layer.grads, dict)
        wanted = {"conv2d": ("in_channels", "kernel_size", "filters"),
                  "dense": ("in_size", "out_size")}.get(layer.kind, ())
        assert all(isinstance(getattr(layer, a), int) for a in wanted), layer.kind


def test_demo_01_channel_statistics_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "01_channel_statistics.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^identical:\s+True$", proc.stdout, re.M)
