"""Command-line orchestration: train, calibrate, evaluate, report.

Configuration comes from one JSON file merged with flag overrides (flags
win). Every command validates the merged config fully before touching the
filesystem, trains or loads model bundles, and emits the artifact files
defined by the analysis module. Exit codes: 0 success, 2 usage, config or
input problems (including corrupt bundles and checkpoints), 3 runtime
failures such as training divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, charts, protocol
from .channel import ChannelConfig
from .dataset import (CIFAR10_CLASS_NAMES, CifarFormatError, Dataset, dataset_fingerprint,
                      load_cifar10, make_synthetic)
from .models import (
    ArchitectureConfig,
    BundleError,
    MrmtlModel,
    TrainConfig,
    TrainingError,
    load_bundle,
    save_bundle,
    train_mrmtl,
    train_srstl,
)
from .nn import CheckpointError, NumericError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

DATA_DIR_ENV = "MRMTL_DATA_DIR"

# rng stream tags so calibration and protocol evaluation are independently
# reproducible regardless of which command ran first
_CALIBRATE_STREAM = 11
_EVALUATE_STREAM = 12


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


DEFAULT_CONFIG = {
    "dataset": {"kind": "synthetic", "num_classes": 10, "per_class": 40, "seed": 0},
    "channel": {"kind": "awgn", "snr_db": 10.0, "seed": 0},
    "arch": {"nc": 4, "nc1": None, "nc2": None, "decoder_hidden": None},
    "training": {"epochs": 5, "batch_size": 32, "lr": 1e-3, "loss_weight": 0.5,
                 "seed": 0},
    "protocol": {"delta": "auto", "grid": {"start": 0.0, "stop": 1.0, "step": 0.02},
                 "num_bins": 50, "calibration_split": "test"},
    "output_dir": "runs/default",
}


def _deep_update(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_update(out[key], value)
        else:
            out[key] = value
    return out


def _parse_grid_flag(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid values must be numeric, got {text!r}") from None
    return {"start": start, "stop": stop, "step": step}


def load_run_config(args) -> dict:
    """Merge defaults, config file, and flag overrides.

    The result never aliases DEFAULT_CONFIG, so callers may mutate it.
    """
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = _deep_update(cfg, file_cfg)

    flags: dict = {}
    if getattr(args, "nc", None) is not None:
        flags.setdefault("arch", {})["nc"] = args.nc
    if getattr(args, "snr_db", None) is not None:
        flags.setdefault("channel", {})["snr_db"] = args.snr_db
    if getattr(args, "channel", None) is not None:
        flags.setdefault("channel", {})["kind"] = args.channel
    if getattr(args, "epochs", None) is not None:
        flags.setdefault("training", {})["epochs"] = args.epochs
    if getattr(args, "batch_size", None) is not None:
        flags.setdefault("training", {})["batch_size"] = args.batch_size
    if getattr(args, "lr", None) is not None:
        flags.setdefault("training", {})["lr"] = args.lr
    if getattr(args, "loss_weight", None) is not None:
        flags.setdefault("training", {})["loss_weight"] = args.loss_weight
    if getattr(args, "seed", None) is not None:
        flags.setdefault("training", {})["seed"] = args.seed
        flags.setdefault("channel", {})["seed"] = args.seed
    if getattr(args, "delta", None) is not None:
        flags.setdefault("protocol", {})["delta"] = args.delta
    if getattr(args, "grid", None) is not None:
        flags.setdefault("protocol", {})["grid"] = _parse_grid_flag(args.grid)
    if getattr(args, "data_dir", None) is not None:
        flags.setdefault("dataset", {})["path"] = args.data_dir
    if getattr(args, "output", None) is not None:
        flags["output_dir"] = args.output
    return _deep_update(cfg, flags)


def _parse_delta(value) -> float | str:
    if value == "auto":
        return "auto"
    try:
        delta = _float_value(value, "protocol.delta")
    except (TypeError, ValueError):
        raise ConfigError(f"delta must be a number or 'auto', got {value!r}") from None
    if not 0.0 <= delta <= 1.01:
        raise ConfigError(f"delta must lie in [0, 1.01], got {delta}")
    return delta


def _grid_values(grid: dict) -> list[float]:
    try:
        return protocol.delta_grid(*(_float_value(grid[key], f"protocol.grid.{key}")
                                     for key in ("start", "stop", "step")))
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"grid needs numeric start <= stop and step > 0, got {grid!r} "
                          f"({e})") from None


def _int_field(cfg: dict, path: str, default: int | None = None) -> int:
    """cfg's "section.key" as an int: an int (not a bool) or an integral float.

    Anything else, a missing key without a default included, is a ConfigError
    naming the key, never a silent truncation.
    """
    section, key = path.split(".")
    value = cfg[section].get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{path} must be an integer, got {value!r}")


def _float_value(value, path: str) -> float:
    """value as a float; a bool is a ConfigError naming the key, not 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    return float(value)


def _optional_int_field(cfg: dict, path: str) -> int | None:
    """As _int_field, but an absent or null value is None."""
    section, key = path.split(".")
    return None if cfg[section].get(key) is None else _int_field(cfg, path)


def validate_config(cfg: dict) -> None:
    """Fail fast on anything malformed, before any side effect."""
    for section, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not isinstance(cfg.get(section), dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
    ds = cfg["dataset"]
    kind = ds.get("kind")
    if kind == "synthetic":
        if (_int_field(cfg, "dataset.num_classes", 10) < 2
                or _int_field(cfg, "dataset.per_class", 2) < 2):
            raise ConfigError("synthetic dataset needs num_classes >= 2, per_class >= 2")
    elif kind == "cifar10":
        if _cifar_path(cfg) is None:
            raise ConfigError(
                f"cifar10 dataset needs a path (dataset.path, --data-dir, or ${DATA_DIR_ENV})")
    else:
        raise ConfigError(f"unknown dataset kind: {kind!r}")
    for section in ("dataset", "channel", "training"):
        if _int_field(cfg, f"{section}.seed", 0) < 0:
            raise ConfigError(f"{section}.seed must be >= 0")
    try:
        _float_value(cfg["channel"]["snr_db"], "channel.snr_db")
        ChannelConfig.from_dict(cfg["channel"])
        _arch_config(cfg)
        _train_config(cfg)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(str(e)) from None
    _parse_delta(cfg["protocol"].get("delta", "auto"))
    _grid_values(cfg["protocol"]["grid"])
    if not 1 <= _int_field(cfg, "protocol.num_bins", 50) <= protocol.MAX_NUM_BINS:
        raise ConfigError(f"num_bins must lie in [1, {protocol.MAX_NUM_BINS}]")
    if cfg["protocol"].get("calibration_split", "test") not in ("test", "train"):
        raise ConfigError("calibration_split must be 'test' or 'train'")
    if not cfg.get("output_dir") or not isinstance(cfg["output_dir"], str):
        raise ConfigError("output_dir must be set to a path")


def _cifar_path(cfg: dict):
    path = cfg["dataset"].get("path") or os.environ.get(DATA_DIR_ENV)
    if path and isinstance(path, str) and Path(path).is_dir():
        return Path(path)
    return None


def _num_classes(cfg: dict) -> int:
    """The class count of the configured dataset, as its loader produces it."""
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        return _int_field(cfg, "dataset.num_classes", 10)
    return len(CIFAR10_CLASS_NAMES)


def _arch_config(cfg: dict) -> ArchitectureConfig:
    return ArchitectureConfig(
        nc=_int_field(cfg, "arch.nc"),
        nc1=_optional_int_field(cfg, "arch.nc1"),
        nc2=_optional_int_field(cfg, "arch.nc2"),
        num_classes=_num_classes(cfg),
        decoder_hidden=_optional_int_field(cfg, "arch.decoder_hidden"),
    )


def _train_config(cfg: dict) -> TrainConfig:
    t = cfg["training"]
    return TrainConfig(
        epochs=_int_field(cfg, "training.epochs"),
        batch_size=_int_field(cfg, "training.batch_size"),
        lr=_float_value(t["lr"], "training.lr"),
        loss_weight=_float_value(t["loss_weight"], "training.loss_weight"),
        seed=_int_field(cfg, "training.seed"),
    )


def _load_dataset(cfg: dict) -> Dataset:
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        return make_synthetic(num_classes=_num_classes(cfg),
                              per_class=_int_field(cfg, "dataset.per_class", 40),
                              seed=_int_field(cfg, "dataset.seed", 0))
    return load_cifar10(_cifar_path(cfg))


def _bundle_setup(args) -> tuple[dict, MrmtlModel, dict, Dataset, ChannelConfig]:
    """What calibrate and evaluate start from: the validated config, the MRMTL
    bundle and its manifest, the dataset and the channel config."""
    cfg = load_run_config(args)
    validate_config(cfg)
    path = Path(args.bundle or Path(cfg["output_dir"]) / "mrmtl")
    if not (path / "bundle.json").is_file():
        raise ConfigError(f"no trained bundle at {path}")
    model, manifest = load_bundle(path)
    if manifest["mode"] != "mrmtl":
        raise ConfigError(f"bundle at {path} is {manifest['mode']}, need mrmtl "
                          "for protocol evaluation")
    return cfg, model, manifest, _load_dataset(cfg), ChannelConfig.from_dict(cfg["channel"])


def _calibrate(model: MrmtlModel, dataset: Dataset, cfg: dict, channel_cfg: ChannelConfig):
    """Calibrate δ* on the configured split and print the statistics."""
    split = cfg["protocol"].get("calibration_split", "test")
    rng = np.random.default_rng([channel_cfg.seed, _CALIBRATE_STREAM])
    stats = protocol.calibrate_threshold(
        model, dataset.train if split == "train" else dataset.test, channel_cfg, rng,
        num_bins=_int_field(cfg, "protocol.num_bins", 50))
    print(f"mean confidence (correct):   {stats.mean_conf_correct:.6f}")
    print(f"mean confidence (incorrect): {stats.mean_conf_incorrect:.6f}")
    print(f"delta_star:                  {stats.delta_star:.6f}")
    if not stats.separated:
        print("warning: correct-mean below incorrect-mean; threshold is unreliable")
    return stats


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    cfg = load_run_config(args)
    validate_config(cfg)
    mode = args.mode
    dataset = _load_dataset(cfg)
    arch = _arch_config(cfg)
    channel_cfg = ChannelConfig.from_dict(cfg["channel"])
    train_cfg = _train_config(cfg)
    fingerprint = dataset_fingerprint(dataset)
    out = Path(cfg["output_dir"])

    jobs = []
    if mode in ("mrmtl", "both"):
        jobs.append(("mrmtl", arch))
    if mode in ("srstl", "both"):
        jobs.append((f"srstl_nc{arch.nc1}", arch))
    if mode == "both":
        # the wide baseline spends both rounds' channel uses in one; the raw
        # config value lets an unset decoder width track that budget
        arch2 = ArchitectureConfig(nc=arch.nc1 + arch.nc2, num_classes=arch.num_classes,
                                   decoder_hidden=_optional_int_field(cfg, "arch.decoder_hidden"))
        jobs.append((f"srstl_nc{arch2.nc1}", arch2))

    for name, job_arch in jobs:
        if name == "mrmtl":
            model, log = train_mrmtl(dataset, job_arch, channel_cfg, train_cfg)
            last = log[-1] if log else {}
            summary = (f"round1 {last.get('test_accuracy_round1', float('nan')):.4f} "
                       f"round2 {last.get('test_accuracy_round2', float('nan')):.4f}"
                       if log else "untrained")
        else:
            model, log = train_srstl(dataset, job_arch, channel_cfg, train_cfg)
            summary = (f"test {log[-1]['test_accuracy']:.4f}" if log else "untrained")
        bundle_dir = save_bundle(model, out / name, job_arch, channel_cfg, train_cfg,
                                 fingerprint, log)
        print(f"bundle written: {bundle_dir} ({summary})")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg, model, _, dataset, channel_cfg = _bundle_setup(args)
    stats = _calibrate(model, dataset, cfg, channel_cfg)
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / "calibration.json"
    path.write_text(json.dumps(analysis.calibration_to_dict(stats),
                               indent=2, sort_keys=True) + "\n")
    print(f"calibration written: {path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg, model, manifest, dataset, channel_cfg = _bundle_setup(args)
    if dataset_fingerprint(dataset) != manifest.get("dataset_fingerprint"):
        print("note: evaluation dataset differs from the bundle's training data")

    delta = _parse_delta(cfg["protocol"].get("delta", "auto"))
    stats = None
    if delta == "auto":
        stats = _calibrate(model, dataset, cfg, channel_cfg)
        delta = stats.delta_star

    rng = np.random.default_rng([channel_cfg.seed, _EVALUATE_STREAM])
    cache = protocol.evaluate_rounds(model, dataset.test, channel_cfg, rng)
    grid = _grid_values(cfg["protocol"]["grid"])
    report = analysis.build_report(cache, delta, cfg, sweep_grid=grid,
                                   calibration=stats,
                                   class_names=dataset.class_names)
    report_dir = Path(cfg["output_dir"]) / "report"
    analysis.emit_report(report, report_dir)
    charts.emit_sweep_charts(report.sweep, report_dir)
    p = report.protocol
    print(f"samples:         {p['num_samples']}")
    print(f"delta:           {p['delta']:.6f}")
    print(f"accuracy:        {p['accuracy']:.6f}")
    print(f"avg delay:       {p['avg_delay']:.6f}")
    print(f"escalation rate: {p['escalation_rate']:.6f}")
    print(f"report written: {report_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    """Re-derive a report's headline numbers from its exported traces."""
    report_dir = Path(args.dir)
    report_path = report_dir / "report.json"
    traces_path = report_dir / "traces.csv"
    if not report_path.is_file() or not traces_path.is_file():
        raise ConfigError(f"no report.json/traces.csv under {report_dir}")
    try:
        traces = analysis.read_traces_csv(traces_path)
        recomputed = {
            "accuracy": protocol.task_accuracy(traces),
            "avg_delay": protocol.average_delay(traces),
            "escalation_rate": protocol.escalation_rate(traces),
        }
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{traces_path} is malformed: {e}") from None
    try:
        stored = json.loads(report_path.read_text())["protocol"]
        if not all(type(stored[key]) in (int, float) for key in recomputed):
            raise TypeError(f"protocol {', '.join(recomputed)} must be numbers")
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{report_path} is malformed: {e!r}") from None
    print(f"{'metric':<16} {'stored':>12} {'from traces':>12}")
    mismatch = False
    for key, value in recomputed.items():
        ok = stored[key] == value
        mismatch = mismatch or not ok
        flag = "" if ok else "  MISMATCH"
        print(f"{key:<16} {stored[key]:>12.6f} {value:>12.6f}{flag}")
    if mismatch:
        print("report numbers do not match the exported traces", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"traces: {len(traces)} samples, consistent with report.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, bundle: bool = False) -> None:
    """Flags of the commands that read a run config. A bundle command takes
    the model from its trained bundle, so only train has model flags."""
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--output", "-o", help="output directory")
    p.add_argument("--channel", choices=["awgn", "rayleigh"], help="channel kind")
    p.add_argument("--snr-db", type=float, help="signal-to-noise ratio in dB")
    p.add_argument("--seed", type=int, help="seeds training and channel streams")
    p.add_argument("--data-dir", help=f"CIFAR-10 directory (or ${DATA_DIR_ENV})")
    if bundle:
        p.add_argument("--bundle", help="trained bundle directory "
                                        "(default: <output_dir>/mrmtl)")
    else:
        p.add_argument("--nc", type=int, help="base channel-use budget")
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--loss-weight", type=float, help="round-1 loss weight w")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrmtl",
        description="Multi-round task-oriented communication experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train model bundles")
    _add_common(p)
    p.add_argument("--mode", choices=["mrmtl", "srstl", "both"], default="mrmtl")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="estimate the escalation threshold")
    _add_common(p, bundle=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="run the dynamic protocol and the threshold sweep; "
                                         "emit a report with sweep charts")
    _add_common(p, bundle=True)
    p.add_argument("--delta", help="escalation threshold in [0, 1.01], or 'auto'")
    p.add_argument("--grid", help="sweep grid start:stop:step for the report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="verify a report against its traces")
    p.add_argument("--dir", required=True, help="report directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BundleError, CheckpointError, CifarFormatError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingError, NumericError, protocol.CalibrationError, OSError,
            ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
