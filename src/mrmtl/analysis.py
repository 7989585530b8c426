"""Confusion matrices, run reports, and file emission.

Everything here is pure bookkeeping over results produced by the protocol
module: counting, tabulating, and writing CSV/JSON artifacts that can be
re-parsed to recompute every reported number.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .models import DecoderOutput, write_json
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
    num_classes = cache.round1_probs.shape[1]
    r1_acc, r2_acc = cache.head_accuracies()
    return RunReport(
        config=config,
        mrmtl={"nc1": cache.nc1, "nc2": cache.nc2,
               "round1_accuracy": r1_acc, "round2_accuracy": r2_acc},
        protocol={"delta": delta, "num_samples": len(cache), **operating_point(cache, delta)},
        sweep=sweep_from_cache(cache, sweep_grid),
        traces=apply_threshold(cache, delta),
        confusion_round1=confusion(cache.round1_pred, cache.true_labels, num_classes,
                                   class_names),
        confusion_round2=confusion(cache.round2_pred, cache.true_labels, num_classes,
                                   class_names),
        srstl=srstl,
        calibration=calibration,
    )


# ---------------------------------------------------------------------------
# file emission


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_traces_csv(traces, path) -> None:
    _write_csv(path, TRACE_COLUMNS, (
        [t.sample_index, t.true_label, t.round1.predicted,
         repr(float(t.round1.confidence)), int(t.escalated),
         t.round2.predicted if t.round2 is not None else "", t.final_predicted, t.delay]
        for t in traces))


def read_traces_csv(path) -> list[ProtocolTrace]:
    """Parse an exported trace table.

    Probability vectors are not serialized, so the rebuilt DecoderOutput
    objects carry probs=None; all scalar statistics recompute exactly. Rows
    must hold sample indices 0 to N-1 in order, as apply_threshold() emits
    them.
    """
    traces = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace columns: {reader.fieldnames}")
        for row in reader:
            index = int(row["sample_index"])
            if index != len(traces):
                raise ValueError(f"line {reader.line_num}: sample_index {index}, expected "
                                 f"{len(traces)}; indices run 0 to N-1 in order")
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
                sample_index=index,
                round1=r1,
                escalated=escalated,
                round2=r2,
                final_predicted=int(row["final_pred"]),
                true_label=int(row["true_label"]),
                delay=int(row["delay"]),
            ))
    return traces


def write_sweep_csv(rows, path) -> None:
    _write_csv(path, SWEEP_COLUMNS,
               ([repr(float(row[c])) for c in SWEEP_COLUMNS] for row in rows))


def read_sweep_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != SWEEP_COLUMNS:
            raise ValueError(f"unexpected sweep columns: {reader.fieldnames}")
        return [{c: float(row[c]) for c in SWEEP_COLUMNS} for row in reader]


def write_confusion_csv(matrix: ConfusionMatrix, path) -> None:
    _write_csv(path, ["true_class", *matrix.class_names],
               ([name, *row.tolist()] for name, row in zip(matrix.class_names, matrix.counts)))


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
    return {"available": True, **{k: v.tolist() if isinstance(v, np.ndarray) else v
                                  for k, v in asdict(stats).items()}}


def emit_report(report: RunReport, out_dir) -> list[Path]:
    """Write the full artifact set; overwrites are idempotent.

    The only volatile value is the report's generated_at string, which is
    stored once in report.json and nowhere else.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    calibration = calibration_to_dict(report.calibration)
    doc = {
        "format_version": REPORT_VERSION,
        "config": report.config,
        "srstl": report.srstl,
        "mrmtl": report.mrmtl,
        "protocol": report.protocol,
        "calibration": calibration,
        "generated_at": report.generated_at,
    }
    files = {
        "report.json": (write_json, doc),
        "traces.csv": (write_traces_csv, report.traces),
        "sweep.csv": (write_sweep_csv, report.sweep),
        "confusion_round1.csv": (write_confusion_csv, report.confusion_round1),
        "confusion_round2.csv": (write_confusion_csv, report.confusion_round2),
        "calibration.json": (write_json, calibration),
    }
    for name, (write, data) in files.items():
        write(data, out / name)
    return [out / name for name in files]
