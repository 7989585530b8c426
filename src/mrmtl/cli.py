"""Command-line orchestration: train, calibrate, evaluate, report.

Configuration comes from one JSON file merged with flag overrides (flags
win). Every command validates the merged config fully before touching the
filesystem, trains or loads model bundles, and emits the artifact files
defined by the analysis module. Exit codes: 0 success, 2 usage, config or
input problems (including corrupt bundles and checkpoints), 3 runtime
failures such as training divergence or running out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, charts, protocol
from .channel import CHANNEL_KINDS, ChannelConfig
from .dataset import (CIFAR10_CLASS_NAMES, CifarFormatError, Dataset, dataset_fingerprint,
                      load_cifar10, make_synthetic)
from .models import (
    ArchitectureConfig,
    BundleError,
    Model,
    TrainConfig,
    TrainingError,
    load_bundle,
    save_bundle,
    train_mrmtl,
    train_srstl,
    write_json,
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


# flag attribute -> the "section.key" paths it sets ("key" alone for a top-level one)
_FLAG_KEYS = {
    "nc": ["arch.nc"],
    "snr_db": ["channel.snr_db"],
    "channel": ["channel.kind"],
    "epochs": ["training.epochs"],
    "batch_size": ["training.batch_size"],
    "lr": ["training.lr"],
    "loss_weight": ["training.loss_weight"],
    "seed": ["training.seed", "channel.seed"],
    "delta": ["protocol.delta"],
    "grid": ["protocol.grid"],
    "data_dir": ["dataset.path"],
    "output": ["output_dir"],
}


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
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        cfg = _deep_update(cfg, file_cfg)

    flags: dict = {}
    for attr, paths in _FLAG_KEYS.items():
        value = getattr(args, attr, None)
        if value is None:
            continue
        if attr == "grid":
            value = _parse_grid_flag(value)
        for path in paths:
            section, _, key = path.rpartition(".")
            (flags.setdefault(section, {}) if section else flags)[key] = value
    return _deep_update(cfg, flags)


def _parse_delta(value) -> float | str:
    """'auto', or a number in [0, 1.01]; also as text, which --delta passes."""
    if value == "auto":
        return "auto"
    try:
        delta = (float(value) if isinstance(value, str)
                 else _float_value(value, "protocol.delta"))
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"delta must be a number or 'auto', got {value!r}") from None
    if not 0.0 <= delta <= 1.01:
        raise ConfigError(f"delta must lie in [0, 1.01], got {delta}")
    return delta


def _grid_values(grid: dict) -> list[float]:
    try:
        return protocol.delta_grid(*(_float_value(grid[key], f"protocol.grid.{key}")
                                     for key in ("start", "stop", "step")))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"grid needs numeric start <= stop and step > 0, got {grid!r} "
                          f"({e})") from None


def _int_field(cfg: dict, path: str) -> int | None:
    """cfg's "section.key" as an int: an int (not a bool) or an integral float.

    A null is None where DEFAULT_CONFIG's value is null, which marks the
    field optional. Anything else is a ConfigError naming the key, never a
    silent truncation.
    """
    section, key = path.split(".")
    value = cfg[section][key]
    if value is None and DEFAULT_CONFIG[section][key] is None:
        return None
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{path} must be an integer, got {value!r}")


def _float_value(value, path: str) -> float:
    """value as a float: an int or a float, not a bool or a numeric string,
    nor an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path} must be a number, got an integer of "
                          f"{len(str(abs(value)))} digits, too large for a float") from None


@dataclass(frozen=True)
class Run:
    """A validated run config, parsed into what the commands use."""

    load_dataset: Callable[[], Dataset]
    channel: ChannelConfig
    arch: ArchitectureConfig
    wide_arch: ArchitectureConfig   # the single-round baseline with nc1 + nc2 channel uses
    training: TrainConfig
    delta: float | str
    grid: list[float]
    num_bins: int
    calibration_split: str
    output_dir: Path


def validate_config(cfg: dict) -> Run:
    """Check a merged config fully, before any side effect, and parse it.

    The only reader of the config's values: commands read the returned Run.
    A key cfg leaves out takes its DEFAULT_CONFIG value, as in a config file.
    """
    cfg = _deep_update(json.loads(json.dumps(DEFAULT_CONFIG)), cfg)
    for section, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not isinstance(cfg.get(section), dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
    ds = cfg["dataset"]
    seeds = {section: _int_field(cfg, f"{section}.seed")
             for section in ("dataset", "channel", "training")}
    if ds["kind"] == "synthetic":
        num_classes = _int_field(cfg, "dataset.num_classes")
        per_class = _int_field(cfg, "dataset.per_class")
        if num_classes < 2 or per_class < 2:
            raise ConfigError("synthetic dataset needs num_classes >= 2, per_class >= 2")
        load_dataset = partial(make_synthetic, num_classes, per_class, seeds["dataset"])
    elif ds["kind"] == "cifar10":
        path = ds.get("path") or os.environ.get(DATA_DIR_ENV)
        if not (path and isinstance(path, str) and Path(path).is_dir()):
            raise ConfigError(
                f"cifar10 dataset needs a path (dataset.path, --data-dir, or ${DATA_DIR_ENV})")
        num_classes = len(CIFAR10_CLASS_NAMES)
        load_dataset = partial(load_cifar10, Path(path))
    else:
        raise ConfigError(f"unknown dataset kind: {ds['kind']!r}")
    for section, seed in seeds.items():
        if seed < 0:
            raise ConfigError(f"{section}.seed must be >= 0")
    t = cfg["training"]
    try:
        channel = ChannelConfig(
            kind=cfg["channel"]["kind"],
            snr_db=_float_value(cfg["channel"]["snr_db"], "channel.snr_db"),
            seed=seeds["channel"])
        hidden = _int_field(cfg, "arch.decoder_hidden")
        arch = ArchitectureConfig(nc=_int_field(cfg, "arch.nc"), nc1=_int_field(cfg, "arch.nc1"),
                                  nc2=_int_field(cfg, "arch.nc2"), num_classes=num_classes,
                                  decoder_hidden=hidden)
        # an unset decoder width tracks the wide baseline's budget, not nc
        wide_arch = ArchitectureConfig(nc=arch.nc1 + arch.nc2, num_classes=num_classes,
                                       decoder_hidden=hidden)
        training = TrainConfig(
            epochs=_int_field(cfg, "training.epochs"),
            batch_size=_int_field(cfg, "training.batch_size"),
            lr=_float_value(t["lr"], "training.lr"),
            loss_weight=_float_value(t["loss_weight"], "training.loss_weight"),
            seed=seeds["training"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(str(e)) from None
    p = cfg["protocol"]
    delta = _parse_delta(p["delta"])
    grid = _grid_values(p["grid"])
    num_bins = _int_field(cfg, "protocol.num_bins")
    if not 1 <= num_bins <= protocol.MAX_NUM_BINS:
        raise ConfigError(f"num_bins must lie in [1, {protocol.MAX_NUM_BINS}]")
    if p["calibration_split"] not in ("test", "train"):
        raise ConfigError("calibration_split must be 'test' or 'train'")
    if not cfg["output_dir"] or not isinstance(cfg["output_dir"], str):
        raise ConfigError("output_dir must be set to a path")
    output_dir = Path(cfg["output_dir"])
    # the nearest existing ancestor is where the commands' mkdir would fail
    existing = next(d for d in (output_dir, *output_dir.parents) if d.exists())
    if not existing.is_dir():
        raise ConfigError(f"output_dir {output_dir}: {existing} is not a directory")
    return Run(load_dataset=load_dataset, channel=channel, arch=arch, wide_arch=wide_arch,
               training=training, delta=delta, grid=grid, num_bins=num_bins,
               calibration_split=p["calibration_split"], output_dir=output_dir)


def _bundle_setup(args) -> tuple[dict, Run, Model, dict, Dataset]:
    """What calibrate and evaluate start from: the merged config and its
    parsed Run, the MRMTL bundle and its manifest, and a dataset it fits."""
    cfg = load_run_config(args)
    run = validate_config(cfg)
    path = Path(args.bundle or run.output_dir / "mrmtl")
    if not (path / "bundle.json").is_file():
        raise ConfigError(f"no trained bundle at {path}")
    model, manifest = load_bundle(path)
    if model.mode != "mrmtl":
        raise ConfigError(f"bundle at {path} is {model.mode}, need mrmtl "
                          "for protocol evaluation")
    dataset = run.load_dataset()
    bundle_io = (model.encoder1.input_shape, model.decoder1.output_shape[0])
    data_io = (dataset.test.images.shape[1:], len(dataset.class_names))
    if bundle_io != data_io:
        raise ConfigError(f"bundle at {path} takes {bundle_io[0]} images in {bundle_io[1]} "
                          f"classes, the dataset has {data_io[0]} images in {data_io[1]}")
    return cfg, run, model, manifest, dataset


def _calibrate(model: Model, dataset: Dataset, run: Run):
    """Calibrate δ* on the configured split and print the statistics."""
    rng = np.random.default_rng([run.channel.seed, _CALIBRATE_STREAM])
    stats = protocol.calibrate_threshold(
        model, dataset.train if run.calibration_split == "train" else dataset.test,
        run.channel, rng, num_bins=run.num_bins)
    print(f"mean confidence (correct):   {stats.mean_conf_correct:.6f}")
    print(f"mean confidence (incorrect): {stats.mean_conf_incorrect:.6f}")
    print(f"delta_star:                  {stats.delta_star:.6f}")
    if not stats.separated:
        print("warning: correct-mean below incorrect-mean; threshold is unreliable")
    return stats


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    run = validate_config(load_run_config(args))
    dataset = run.load_dataset()
    fingerprint = dataset_fingerprint(dataset)

    # (bundle name, architecture, trainer, summary of the last log entry)
    srstl = (train_srstl, "test {test_accuracy:.4f}")
    jobs = []
    if args.mode in ("mrmtl", "both"):
        jobs.append(("mrmtl", run.arch, train_mrmtl,
                     "round1 {test_accuracy_round1:.4f} round2 {test_accuracy_round2:.4f}"))
    if args.mode in ("srstl", "both"):
        jobs.append((f"srstl_nc{run.arch.nc1}", run.arch, *srstl))
    if args.mode == "both":
        jobs.append((f"srstl_nc{run.wide_arch.nc1}", run.wide_arch, *srstl))

    for name, job_arch, train, summary in jobs:
        model, log = train(dataset, job_arch, run.channel, run.training)
        bundle_dir = save_bundle(model, run.output_dir / name, job_arch, run.channel,
                                 run.training, fingerprint, log)
        summary = summary.format(**log[-1]) if log else "untrained"
        print(f"bundle written: {bundle_dir} ({summary})")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    _, run, model, _, dataset = _bundle_setup(args)
    stats = _calibrate(model, dataset, run)
    run.output_dir.mkdir(parents=True, exist_ok=True)
    path = run.output_dir / "calibration.json"
    write_json(analysis.calibration_to_dict(stats), path)
    print(f"calibration written: {path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg, run, model, manifest, dataset = _bundle_setup(args)
    if dataset_fingerprint(dataset) != manifest.get("dataset_fingerprint"):
        print("note: evaluation dataset differs from the bundle's training data")

    delta, stats = run.delta, None
    if delta == "auto":
        stats = _calibrate(model, dataset, run)
        delta = stats.delta_star

    rng = np.random.default_rng([run.channel.seed, _EVALUATE_STREAM])
    cache = protocol.evaluate_rounds(model, dataset.test, run.channel, rng)
    # the evaluated model was built and trained as its bundle says
    echo = {**cfg, "arch": manifest["architecture"], "training": manifest["training"]}
    report = analysis.build_report(cache, delta, echo, sweep_grid=run.grid,
                                   calibration=stats,
                                   class_names=dataset.class_names)
    report_dir = run.output_dir / "report"
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
        doc = json.loads(report_path.read_text())
        version = doc["format_version"]
        if type(version) is not int or version != analysis.REPORT_VERSION:
            raise ValueError(f"unsupported format_version {version!r}")
        stored = doc["protocol"]
        if not all(type(stored[key]) in (int, float) for key in recomputed):
            raise TypeError(f"protocol {', '.join(recomputed)} must be numbers")
        if type(stored["num_samples"]) is not int:
            raise TypeError("protocol num_samples must be an integer")
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{report_path} is malformed: {e!r}") from None
    print(f"{'metric':<16} {'stored':>12} {'from traces':>12}")
    mismatch = False
    for key, value in recomputed.items():
        ok = stored[key] == value
        mismatch = mismatch or not ok
        flag = "" if ok else "  MISMATCH"
        print(f"{key:<16} {stored[key]:>12.6f} {value:>12.6f}{flag}")
    if stored["num_samples"] != len(traces):
        mismatch = True
        print(f"{report_path} has {stored['num_samples']} samples, {traces_path} has "
              f"{len(traces)}", file=sys.stderr)
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
    p.add_argument("--channel", choices=CHANNEL_KINDS, help="channel kind")
    p.add_argument("--snr-db", type=float, help="signal-to-noise ratio in dB")
    p.add_argument("--seed", type=int, help="seeds the channel streams" if bundle
                   else "seeds training and channel streams")
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
            ValueError, RuntimeError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
