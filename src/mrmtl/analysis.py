"""Confusion matrices, run reports, and file emission.

Everything here is pure bookkeeping over results produced by the protocol
module: counting, tabulating, and writing CSV/JSON artifacts that can be
re-parsed to recompute every reported number.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .models import DecoderOutput
from .protocol import (
    CalibrationStats,
    ProtocolTrace,
    RoundCache,
    apply_threshold,
    operating_point,
    sweep_from_cache,
)

REPORT_VERSION = 1

TRACE_COLUMNS = ["sample_index", "true_label", "round1_pred", "round1_conf",
                 "escalated", "round2_pred", "final_pred", "delay"]
SWEEP_COLUMNS = ["delta", "accuracy", "avg_delay", "escalation_rate"]


@dataclass
class ConfusionMatrix:
    """Square count matrix, rows = true class, columns = predicted class."""

    counts: np.ndarray
    class_names: list[str]


def confusion(predicted, true_labels, num_classes: int,
              class_names: list[str]) -> ConfusionMatrix:
    """Count (true, predicted) pairs, rows and columns named by class_names."""
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape:
        raise ValueError(f"{pred.shape[0]} predictions vs {true.shape[0]} labels")
    for name, arr in (("prediction", pred), ("label", true)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} out of range for {num_classes} classes")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    if len(class_names) != num_classes:
        raise ValueError("class_names length must equal num_classes")
    return ConfusionMatrix(counts=counts, class_names=list(class_names))


@dataclass
class RunReport:
    """Everything one evaluation run produced, ready for emission."""

    config: dict
    mrmtl: dict
    protocol: dict
    sweep: list[dict]
    traces: list[ProtocolTrace]
    confusion_round1: ConfusionMatrix
    confusion_round2: ConfusionMatrix
    srstl: dict | None = None
    calibration: CalibrationStats | None = None
    generated_at: str = ""

    def __post_init__(self):
        if not self.generated_at:
            self.generated_at = datetime.now(timezone.utc).isoformat()


def build_report(cache: RoundCache, delta: float, config: dict, *, sweep_grid,
                 calibration: CalibrationStats | None = None,
                 srstl: dict | None = None, class_names: list[str]) -> RunReport:
    """Assemble a report from one evaluation cache at one threshold."""
    traces = apply_threshold(cache, delta)
    n = len(cache)
    num_classes = cache.round1_probs.shape[1]
    r1_acc = int(np.count_nonzero(cache.round1_pred == cache.true_labels)) / n
    r2_acc = int(np.count_nonzero(cache.round2_pred == cache.true_labels)) / n
    protocol_section = {"delta": delta, "num_samples": n, **operating_point(cache, delta)}
    mrmtl_section = {
        "nc1": cache.nc1,
        "nc2": cache.nc2,
        "round1_accuracy": r1_acc,
        "round2_accuracy": r2_acc,
    }
    return RunReport(
        config=config,
        mrmtl=mrmtl_section,
        protocol=protocol_section,
        sweep=sweep_from_cache(cache, sweep_grid),
        traces=traces,
        confusion_round1=confusion(cache.round1_pred, cache.true_labels, num_classes,
                                   class_names),
        confusion_round2=confusion(cache.round2_pred, cache.true_labels, num_classes,
                                   class_names),
        srstl=srstl,
        calibration=calibration,
    )


# ---------------------------------------------------------------------------
# file emission


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def write_traces_csv(traces, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(TRACE_COLUMNS)
        for t in traces:
            w.writerow([
                t.sample_index,
                t.true_label,
                t.round1.predicted,
                _fmt(float(t.round1.confidence)),
                _fmt(t.escalated),
                t.round2.predicted if t.round2 is not None else "",
                t.final_predicted,
                t.delay,
            ])


def read_traces_csv(path) -> list[ProtocolTrace]:
    """Parse an exported trace table.

    Probability vectors are not serialized, so the rebuilt DecoderOutput
    objects carry probs=None; all scalar statistics recompute exactly.
    """
    traces = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace columns: {reader.fieldnames}")
        for row in reader:
            if row["escalated"] not in ("0", "1"):
                raise ValueError(f"line {reader.line_num}: escalated must be 0 or 1")
            escalated = row["escalated"] == "1"
            conf = float(row["round1_conf"])
            r1 = DecoderOutput(probs=None, predicted=int(row["round1_pred"]),
                               confidence=conf)
            r2 = None
            if escalated:
                r2 = DecoderOutput(probs=None, predicted=int(row["round2_pred"]),
                                   confidence=float("nan"))
            traces.append(ProtocolTrace(
                sample_index=int(row["sample_index"]),
                round1=r1,
                escalated=escalated,
                round2=r2,
                final_predicted=int(row["final_pred"]),
                true_label=int(row["true_label"]),
                delay=int(row["delay"]),
            ))
    return traces


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(SWEEP_COLUMNS)
        for row in rows:
            w.writerow([_fmt(float(row[c])) for c in SWEEP_COLUMNS])


def read_sweep_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != SWEEP_COLUMNS:
            raise ValueError(f"unexpected sweep columns: {reader.fieldnames}")
        return [{c: float(row[c]) for c in SWEEP_COLUMNS} for row in reader]


def write_confusion_csv(matrix: ConfusionMatrix, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["true_class"] + list(matrix.class_names))
        for name, row in zip(matrix.class_names, matrix.counts):
            w.writerow([name] + [int(v) for v in row])


def read_confusion_csv(path) -> ConfusionMatrix:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"confusion table in {path} is empty")
    names = rows[0][1:]
    counts = np.array([[int(v) for v in row[1:]] for row in rows[1:]], dtype=np.int64)
    if counts.shape != (len(names), len(names)):
        raise ValueError(f"confusion table in {path} is not square")
    return ConfusionMatrix(counts=counts, class_names=names)


def calibration_to_dict(stats: CalibrationStats | None) -> dict:
    if stats is None:
        return {"mean_conf_correct": None, "mean_conf_incorrect": None,
                "delta_star": None, "available": False}
    return {
        "available": True,
        "mean_conf_correct": stats.mean_conf_correct,
        "mean_conf_incorrect": stats.mean_conf_incorrect,
        "delta_star": stats.delta_star,
        "n_correct": stats.n_correct,
        "n_incorrect": stats.n_incorrect,
        "separated": stats.separated,
        "bin_edges": [float(v) for v in stats.bin_edges],
        "histogram_correct": [int(v) for v in stats.histogram_correct],
        "histogram_incorrect": [int(v) for v in stats.histogram_incorrect],
    }


def emit_report(report: RunReport, out_dir) -> list[Path]:
    """Write the full artifact set; overwrites are idempotent.

    The only volatile value is the report's generated_at string, which is
    stored once in report.json and nowhere else.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "format_version": REPORT_VERSION,
        "config": report.config,
        "srstl": report.srstl,
        "mrmtl": report.mrmtl,
        "protocol": report.protocol,
        "calibration": calibration_to_dict(report.calibration),
        "generated_at": report.generated_at,
    }
    paths = []

    def emit(name: str, writer) -> None:
        path = out / name
        writer(path)
        paths.append(path)

    emit("report.json", lambda p: p.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"))
    emit("traces.csv", lambda p: write_traces_csv(report.traces, p))
    emit("sweep.csv", lambda p: write_sweep_csv(report.sweep, p))
    emit("confusion_round1.csv", lambda p: write_confusion_csv(report.confusion_round1, p))
    emit("confusion_round2.csv", lambda p: write_confusion_csv(report.confusion_round2, p))
    emit("calibration.json", lambda p: p.write_text(
        json.dumps(calibration_to_dict(report.calibration), indent=2, sort_keys=True) + "\n"))
    return paths
