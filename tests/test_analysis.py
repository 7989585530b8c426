"""Reporting layer: confusion counting, CSV/JSON artifacts, charts."""

import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mrmtl import analysis, charts
from mrmtl.analysis import (
    build_report,
    calibration_to_dict,
    confusion,
    emit_report,
    read_confusion_csv,
    read_sweep_csv,
    read_traces_csv,
    write_confusion_csv,
    write_sweep_csv,
    write_traces_csv,
)
from mrmtl.protocol import (
    CalibrationStats,
    apply_threshold,
    average_delay,
    escalation_rate,
    sweep_from_cache,
    task_accuracy,
)
from test_protocol import crafted_cache, random_cache

NAMES = [f"class_{i}" for i in range(10)]

# emit_report's files for the fixed report in test_artifact_bytes_are_fixed
ARTIFACT_SHA256 = {
    "report.json": "9c250ca2ca94642bd6489688a08e09823d7322284c5d593196334ae50aef752d",
    "traces.csv": "2230ff146b50a9dedb84adeebe086d744515aaadab230a8af8b9253507f3f6cb",
    "sweep.csv": "9872f5d2fc1d749765a057f41c80b282e104f361de596f515e8c0f6c7d8d94df",
    "confusion_round1.csv": "89f9d8531e5d9276314ee668959fc84fcbc1471c45372d4e96547f9c9c5a5634",
    "confusion_round2.csv": "f33ef961649929d2aac89299201c25bb8c2774f054aea7270dbeb60fb85ef444",
    "calibration.json": "cb253f9a9aa1b4ef57b20e979a56092a2cf934cc94ce17c90878bb7d51594a6a",
}


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        labels = np.array([0, 1, 2, 2, 3])
        m = confusion(labels, labels, 4, NAMES[:4])
        assert np.array_equal(m.counts, np.diag([1, 1, 2, 1]))
        assert np.trace(m.counts) / m.counts.sum() == 1.0

    def test_single_error_cell(self):
        m = confusion(np.array([7]), np.array([3]), 10, NAMES)
        assert m.counts[3, 7] == 1
        assert int(m.counts.sum()) == 1
        assert np.trace(m.counts) / m.counts.sum() == 0.0

    def test_accuracy_matches_task_accuracy_exactly(self):
        cache = random_cache(seed=20)
        traces = apply_threshold(cache, 0.4)
        m = confusion([t.final_predicted for t in traces], [t.true_label for t in traces],
                      10, NAMES)
        # the diagonal share is the final-prediction accuracy, bit for bit
        assert np.trace(m.counts) / m.counts.sum() == task_accuracy(traces)

    def test_traces_use_final_predictions(self):
        cache = crafted_cache([0.2], [1], [8], [8])
        traces = apply_threshold(cache, 0.5)
        m = confusion([t.final_predicted for t in traces], [t.true_label for t in traces],
                      10, NAMES)
        assert m.counts[8, 8] == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            confusion(np.array([10]), np.array([0]), 10, NAMES)
        with pytest.raises(ValueError, match="out of range"):
            confusion(np.array([0]), np.array([-1]), 10, NAMES)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion(np.array([0, 1]), np.array([0]), 10, NAMES)

    def test_class_names_length_checked(self):
        with pytest.raises(ValueError, match="class_names"):
            confusion(np.array([0]), np.array([0]), 10, ["a"])


class TestCsvRoundTrips:
    def test_traces_roundtrip_recomputes_statistics(self, tmp_path):
        cache = random_cache(seed=21, n=60)
        traces = apply_threshold(cache, 0.55)
        path = tmp_path / "traces.csv"
        write_traces_csv(traces, path)
        back = read_traces_csv(path)
        assert len(back) == len(traces)
        for a, b in zip(traces, back):
            assert a.sample_index == b.sample_index
            assert a.true_label == b.true_label
            assert a.escalated == b.escalated
            assert a.final_predicted == b.final_predicted
            assert a.delay == b.delay
            assert a.round1.predicted == b.round1.predicted
            assert a.round1.confidence == b.round1.confidence
        assert task_accuracy(back) == task_accuracy(traces)
        assert average_delay(back) == average_delay(traces)
        assert escalation_rate(back) == escalation_rate(traces)

    def test_traces_header_validated(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            read_traces_csv(path)

    def test_sweep_roundtrip_is_exact(self, tmp_path):
        rows = sweep_from_cache(random_cache(seed=22), [0.0, 0.33, 0.8, 1.01])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        back = read_sweep_csv(path)
        assert back == [{k: float(r[k]) for k in r} for r in rows]

    def test_sweep_header_validated(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("delta,accuracy\n0.0,1.0\n")
        with pytest.raises(ValueError, match="columns"):
            read_sweep_csv(path)

    def test_confusion_roundtrip(self, tmp_path):
        cache = random_cache(seed=23)
        m = confusion(cache.round1_pred, cache.true_labels, 10, NAMES)
        path = tmp_path / "confusion.csv"
        write_confusion_csv(m, path)
        back = read_confusion_csv(path)
        assert np.array_equal(back.counts, m.counts)
        assert back.class_names == m.class_names

    def test_confusion_shape_validated(self, tmp_path):
        path = tmp_path / "confusion.csv"
        path.write_text("true_class,a,b\na,1,2\n")
        with pytest.raises(ValueError, match="square"):
            read_confusion_csv(path)

    def test_empty_confusion_file_rejected(self, tmp_path):
        path = tmp_path / "confusion.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_confusion_csv(path)


class TestReports:
    def _report(self, seed=24):
        cache = random_cache(seed=seed, n=80)
        return build_report(cache, 0.5, {"run": "unit"}, sweep_grid=[0.0, 0.5, 1.01],
                            class_names=NAMES), cache

    def test_report_sections(self):
        report, cache = self._report()
        assert report.protocol["num_samples"] == 80
        traces = apply_threshold(cache, 0.5)
        assert report.protocol["accuracy"] == task_accuracy(traces)
        assert report.protocol["avg_delay"] == average_delay(traces)
        assert report.mrmtl["nc1"] == cache.nc1
        r1_acc = int(np.count_nonzero(cache.round1_pred == cache.true_labels)) / 80
        assert report.mrmtl["round1_accuracy"] == r1_acc
        assert len(report.sweep) == 3
        assert report.generated_at

    def test_emit_writes_full_artifact_set(self, tmp_path):
        report, _ = self._report()
        paths = emit_report(report, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == sorted([
            "report.json", "traces.csv", "sweep.csv",
            "confusion_round1.csv", "confusion_round2.csv", "calibration.json",
        ])
        doc = json.loads((tmp_path / "report.json").read_text())
        assert sorted(doc) == ["calibration", "config", "format_version",
                               "generated_at", "mrmtl", "protocol", "srstl"]
        assert doc["format_version"] == 1
        assert doc["config"] == {"run": "unit"}
        assert doc["srstl"] is None
        assert doc["calibration"]["available"] is False

    def test_reemission_is_byte_identical(self, tmp_path):
        report, _ = self._report(seed=25)
        emit_report(report, tmp_path / "a")
        emit_report(report, tmp_path / "b")
        for name in ("report.json", "traces.csv", "sweep.csv",
                     "confusion_round1.csv", "confusion_round2.csv", "calibration.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_emitted_files_recompute_report_numbers(self, tmp_path):
        report, _ = self._report(seed=26)
        emit_report(report, tmp_path)
        traces = read_traces_csv(tmp_path / "traces.csv")
        assert task_accuracy(traces) == report.protocol["accuracy"]
        assert average_delay(traces) == report.protocol["avg_delay"]
        assert escalation_rate(traces) == report.protocol["escalation_rate"]
        sweep = read_sweep_csv(tmp_path / "sweep.csv")
        assert [r["accuracy"] for r in sweep] == [r["accuracy"] for r in report.sweep]
        m1 = read_confusion_csv(tmp_path / "confusion_round1.csv")
        assert np.array_equal(m1.counts, report.confusion_round1.counts)

    def test_empty_sweep_writes_header_only(self, tmp_path):
        write_sweep_csv([], tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_text() == "delta,accuracy,avg_delay,escalation_rate\n"

    def test_calibration_to_dict_none(self):
        d = calibration_to_dict(None)
        assert d["available"] is False
        assert d["delta_star"] is None

    def test_calibration_carried_into_report(self, tmp_path):
        from mrmtl.protocol import CalibrationStats

        stats = CalibrationStats(
            mean_conf_correct=0.8, mean_conf_incorrect=0.6, delta_star=0.7,
            histogram_correct=np.array([2, 3]), histogram_incorrect=np.array([4, 1]),
            bin_edges=np.linspace(0.0, 1.0, 3), n_correct=5, n_incorrect=5,
            separated=True)
        report = build_report(random_cache(seed=29), 0.5, {}, sweep_grid=[0.5],
                              calibration=stats, class_names=NAMES)
        assert report.calibration is stats
        emit_report(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["calibration"]["available"] is True
        assert doc["calibration"]["delta_star"] == 0.7
        standalone = json.loads((tmp_path / "calibration.json").read_text())
        assert standalone == doc["calibration"]

    def test_artifact_bytes_are_fixed(self, tmp_path):
        # digests of every file emit_report writes, so any change to the JSON
        # or CSV encoding shows: it would change every report this package
        # writes
        stats = CalibrationStats(
            mean_conf_correct=0.7, mean_conf_incorrect=0.1 + 0.2, delta_star=0.5,
            histogram_correct=np.array([0, 2, 5, 9]),
            histogram_incorrect=np.array([6, 3, 1, 0]),
            bin_edges=np.linspace(0.0, 1.0, 5), n_correct=16, n_incorrect=10,
            separated=True)
        report = build_report(random_cache(seed=30, n=40), 0.2, {"run": "pinned"},
                              sweep_grid=[0.0, 0.15, 0.2, 1 / 3, 1.01],
                              calibration=stats, class_names=NAMES)
        report.generated_at = "2026-01-01T00:00:00+00:00"
        paths = emit_report(report, tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        assert digests == ARTIFACT_SHA256


class TestCharts:
    def test_sweep_charts_are_valid_svg(self, tmp_path):
        rows = sweep_from_cache(random_cache(seed=28), [0.0, 0.25, 0.5, 0.75, 1.01])
        paths = charts.emit_sweep_charts(rows, tmp_path)
        assert sorted(p.name for p in paths) == [
            "accuracy_vs_delay.svg", "accuracy_vs_threshold.svg", "delay_vs_threshold.svg"]
        for p in paths:
            root = ET.fromstring(p.read_text())
            assert root.tag.endswith("svg")
            assert any(child.tag.endswith("polyline") for child in root.iter())

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            charts.render_line_chart([], "t", "x", "y")
        with pytest.raises(ValueError):
            charts.render_line_chart([("s", [], [])], "t", "x", "y")

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            charts.emit_sweep_charts([], tmp_path)

    def test_flat_series_renders(self, tmp_path):
        svg = charts.render_line_chart([("flat", [0.0, 1.0], [0.5, 0.5])], "t", "x", "y")
        ET.fromstring(svg)
