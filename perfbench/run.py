"""mrmtl benchmark: one workload per process, measured from outside the library.

    python3 perfbench/run.py --workload train_joint --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 times the encoder layers on their real shapes, then alternates
untraced and traced units (the untraced ones are the overhead baseline) and
reports the per-layer metrics. Without --trace both happen in one process. Readable
lines come first; the last line of stdout is the JSON result. NOTES.md says
why each workload exists and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import microbench  # noqa: E402
from tracer import Tracer, durations, instrument, self_time_table, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

NC = 4
NUM_CLASSES = 10
SNR_DB = 10.0
TRAIN_BATCH = 32
CHUNK = 64
SERVE_DELTA = 0.15  # escalates roughly 40% of images on an untrained model

SIZES = {
    # per_class sets the split sizes: 80% train, 20% test per class.
    "full": {"train_per_class": 40, "eval_per_class": 200, "serve_per_class": 100,
             "setup_reps": 3},
    "tiny": {"train_per_class": 4, "eval_per_class": 50, "serve_per_class": 10,
             "setup_reps": 1},
}

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "OPENBLAS_CORETYPE")


class Checks:
    """Counts checked operations and failed checks for error_rate."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def import_mrmtl():
    src = ROOT / "src"
    if not (src / "mrmtl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mrmtl sources under {src}")
    sys.path.insert(0, str(src))
    import mrmtl
    import mrmtl.charts  # noqa: F401  (not imported by the package itself)
    if Path(mrmtl.__file__).resolve().parent != (src / "mrmtl").resolve():
        raise SystemExit(f"perfbench: imported mrmtl from {mrmtl.__file__}, not {src}")
    return mrmtl


def sha256_params(nets) -> str:
    h = hashlib.sha256()
    for net in nets:
        for name, p in net.param_items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    return h.hexdigest()


def sha256_artifacts(dirs) -> str:
    """Digest of every file, with report.json's generated_at left out."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(Path(d).iterdir()):
            data = path.read_bytes()
            if path.name == "report.json":
                doc = json.loads(data)
                doc.pop("generated_at", None)
                data = json.dumps(doc, indent=2, sort_keys=True).encode()
            h.update(path.name.encode())
            h.update(data)
    return h.hexdigest()


def rows_sum_to_one(probs) -> bool:
    probs = np.asarray(probs)
    return bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12))


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def bundle_bytes(bundle_dir: Path) -> int:
    return sum(p.stat().st_size for p in bundle_dir.glob("*.ckpt"))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, one closed-loop unit of work, and the checks on its outputs."""

    name = ""

    def __init__(self, mrmtl, seed: int, size: dict, work: Path, checks: Checks):
        self.m = mrmtl
        self.seed = seed
        self.size = size
        self.work = work
        self.checks = checks
        self.stages: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}

    def stage(self, name: str, fn, *args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        self.stages.setdefault(name, []).append(time.perf_counter() - t)
        return out

    def arch(self):
        return self.m.ArchitectureConfig(nc=NC, num_classes=NUM_CLASSES)

    def train_cfg(self, epochs: int):
        return self.m.TrainConfig(epochs=epochs, batch_size=TRAIN_BATCH, lr=1e-3,
                                  loss_weight=0.5, seed=self.seed)

    def nets(self) -> dict:
        """Networks that exist before the timed units start, by role."""
        return {}

    def bundle_setup(self, per_class: int, channel_cfg):
        """Seeded dataset plus an MRMTL bundle written, reloaded and checked."""
        m = self.m
        ds = self.stage("make_synthetic", m.dataset.make_synthetic, NUM_CLASSES, per_class,
                        self.seed)
        model, _ = self.stage("build", m.models.train_mrmtl, ds, self.arch(), channel_cfg,
                              self.train_cfg(0))
        bundle = self.work / "bundle"
        self.stage("save_bundle", m.models.save_bundle, model, bundle, self.arch(),
                   channel_cfg, self.train_cfg(0), m.dataset_fingerprint(ds))
        loaded, _ = self.stage("load_bundle", m.models.load_bundle, bundle)
        parts = ("encoder1", "encoder2", "decoder1", "decoder2")
        self.checks("bundle round-trip is bit-identical",
                    sha256_params([getattr(model, p) for p in parts])
                    == sha256_params([getattr(loaded, p) for p in parts]))
        self.bundle_size = bundle_bytes(bundle)
        warm = ds.test.subset(np.arange(min(CHUNK, len(ds.test))))
        self.stage("warmup", m.protocol.evaluate_rounds, loaded, warm, channel_cfg,
                   np.random.default_rng([self.seed, 3]))
        return ds, loaded, bundle

    def micro_inputs(self):
        """(training batch or None, inference chunk) for the layer timings."""
        raise NotImplementedError


class TrainJoint(Workload):
    name = "train_joint"

    def setup(self) -> None:
        m = self.m
        self.channel = m.ChannelConfig("awgn", SNR_DB, self.seed)
        ds = self.stage("make_synthetic", m.dataset.make_synthetic, NUM_CLASSES,
                        self.size["train_per_class"], self.seed)
        self.stage("build", m.models.train_mrmtl, ds, self.arch(), self.channel,
                   self.train_cfg(0))
        # One untimed training step and one test chunk.
        warm = m.Dataset(train=ds.train.subset(np.arange(min(TRAIN_BATCH, len(ds.train)))),
                         test=ds.test.subset(np.arange(min(16, len(ds.test)))),
                         class_names=ds.class_names)
        self.stage("warmup", m.models.train_mrmtl, warm, self.arch(), self.channel,
                   self.train_cfg(1))
        self.fingerprint = m.dataset_fingerprint(ds)
        self.ds = ds

    def micro_inputs(self):
        imgs = self.ds.train.images
        idx = np.arange(max(CHUNK, TRAIN_BATCH)) % len(imgs)
        return imgs[idx[:TRAIN_BATCH]], imgs[idx[:CHUNK]]

    def unit(self, i: int) -> dict:
        m = self.m
        t = time.perf_counter()
        model, log = m.models.train_mrmtl(self.ds, self.arch(), self.channel, self.train_cfg(1))
        seconds = time.perf_counter() - t
        bundle = self.work / "trained"
        m.models.save_bundle(model, bundle, self.arch(), self.channel, self.train_cfg(1),
                             self.fingerprint, log)
        self.model = model
        self.bundle_size = bundle_bytes(bundle)
        return {"samples": len(self.ds.train), "seconds": seconds, "log": log,
                "params_sha256": sha256_params([model.encoder1, model.encoder2,
                                                model.decoder1, model.decoder2])}

    def check(self, units: list[dict]) -> None:
        m = self.m
        for u in units:
            for row in u["log"]:
                for key in ("train_loss", "train_loss_round1", "train_loss_round2"):
                    self.checks(f"{key} is finite", bool(np.isfinite(row[key])))
        digests = {u["params_sha256"] for u in units}
        if len(units) > 1:
            self.checks("repeated training gives identical parameters", len(digests) == 1)
        self.digests["params_sha256"] = units[0]["params_sha256"]
        rng = np.random.default_rng([self.seed, 9])
        n = min(16, len(self.ds.test))
        draws = [m.channel.draw_channel(self.channel, n, NC, rng) for _ in range(2)]
        _, _, _, p1, p2 = m.models.mrmtl_loss(self.model, self.ds.test.images[:n],
                                              self.ds.test.labels[:n], *draws)
        self.checks("round-1 probability rows sum to 1", rows_sum_to_one(p1))
        self.checks("round-2 probability rows sum to 1", rows_sum_to_one(p2))

    def layer_metrics(self, spans, units) -> dict:
        steps = [s for s in spans if s["name"] == "models.train_step"]
        own, selfs = durations(spans), self_times(spans)
        kids: dict[int, list[dict]] = {}
        for s in spans:
            kids.setdefault(s["parent"], []).append(s)

        def per_step(match) -> float:
            return 1e3 * median([sum(selfs[c["id"]] for c in kids.get(st["id"], [])
                                     if match(c["name"])) for st in steps])

        step_ms = [1e3 * own[s["id"]] for s in steps]
        last = units[-1]["log"][-1]
        return {
            "dataset.batches_ms": per_step(lambda n: n == "dataset.batches"),
            "channel.draw_ms": per_step(lambda n: n == "channel.draw"),
            "channel.power_norm_ms": per_step(lambda n: n == "channel.power_norm"),
            "models.train_step_p50_ms": median(step_ms),
            "models.train_step_max_ms": max(step_ms),
            "models.train_step_count": len(step_ms),
            "models.step.forward_ms": per_step(lambda n: n.startswith("nn.") and ".forward" in n),
            "models.step.backward_ms": per_step(lambda n: n.endswith(".backward")),
            "models.step.optimizer_ms": per_step(lambda n: n == "nn.adam.step"),
            "models.step.data_ms": per_step(lambda n: n in ("dataset.batches", "channel.draw")),
            "models.head_accuracies_s": span_median(spans, "models.head_accuracies"),
            "models.save_bundle_s": span_median(spans, "models.save_bundle"),
            "models.train_loss_final": float(last["train_loss"]),
            "models.test_accuracy_round2": float(last["test_accuracy_round2"]),
        }


class EvalProtocol(Workload):
    name = "eval_protocol"

    def setup(self) -> None:
        self.channel = self.m.ChannelConfig("awgn", SNR_DB, self.seed)
        self.ds, _, self.bundle = self.bundle_setup(self.size["eval_per_class"], self.channel)
        self.config = {"workload": self.name, "seed": self.seed,
                       "dataset": {"kind": "synthetic", "num_classes": NUM_CLASSES,
                                   "per_class": self.size["eval_per_class"], "seed": self.seed},
                       "channel": self.channel.to_dict()}

    def micro_inputs(self):
        return None, self.ds.test.images[:CHUNK]

    def unit(self, i: int) -> dict:
        """mrmtl evaluate --delta auto, sweep --charts and report, as library calls."""
        m, test = self.m, self.ds.test
        report_dir, sweep_dir = self.work / "report", self.work / "sweep"
        t = time.perf_counter()
        model, _ = m.models.load_bundle(self.bundle)
        stats = m.protocol.calibrate_threshold(model, test, self.channel,
                                               np.random.default_rng([self.seed, 1]))
        cache = m.protocol.evaluate_rounds(model, test, self.channel,
                                           np.random.default_rng([self.seed, 2]))
        report = m.analysis.build_report(cache, stats.delta_star, self.config,
                                         sweep_grid=m.protocol.default_delta_grid(),
                                         calibration=stats,
                                         class_names=list(self.ds.class_names))
        paths = m.analysis.emit_report(report, report_dir)
        paths += m.charts.emit_sweep_charts(report.sweep, sweep_dir)
        traces = m.analysis.read_traces_csv(report_dir / "traces.csv")
        stored = json.loads((report_dir / "report.json").read_text())["protocol"]
        rederived = (stored["accuracy"] == m.protocol.task_accuracy(traces)
                     and stored["avg_delay"] == m.protocol.average_delay(traces)
                     and stored["escalation_rate"] == m.protocol.escalation_rate(traces))
        seconds = time.perf_counter() - t
        self.checks("report.json re-derives from traces.csv", rederived)
        return {"samples": len(test), "seconds": seconds, "cache": cache,
                "sweep0": report.sweep[0], "round1_accuracy": report.mrmtl["round1_accuracy"],
                "escalated": sum(tr.escalated for tr in traces),
                "bytes_written": sum(p.stat().st_size for p in paths),
                "artifacts_sha256": sha256_artifacts([report_dir, sweep_dir])}

    def check(self, units: list[dict]) -> None:
        for u in units:
            cache = u["cache"]
            self.checks("round-1 probability rows sum to 1", rows_sum_to_one(cache.round1_probs))
            self.checks("round-2 probability rows sum to 1", rows_sum_to_one(cache.round2_probs))
            row = u["sweep0"]
            self.checks("delta=0 sweep row is the round-1 head",
                        row["delta"] == 0.0 and row["escalation_rate"] == 0.0
                        and row["accuracy"] == u["round1_accuracy"])
        if len(units) > 1:
            self.checks("repeated passes give identical artifacts",
                        len({u["artifacts_sha256"] for u in units}) == 1)
        self.digests["artifacts_sha256"] = units[0]["artifacts_sha256"]

    def layer_metrics(self, spans, units) -> dict:
        out = protocol_metrics(spans, units)
        out.update({
            "protocol.calibrate_s": span_median(spans, "protocol.calibrate_threshold"),
            "protocol.sweep_from_cache_ms": 1e3 * span_median(spans, "protocol.sweep_from_cache"),
            "models.load_bundle_s": span_median(spans, "models.load_bundle"),
            "analysis.build_report_ms": 1e3 * span_median(spans, "analysis.build_report"),
            "analysis.emit_report_ms": 1e3 * span_median(spans, "analysis.emit_report"),
            "analysis.read_traces_csv_ms": 1e3 * span_median(spans, "analysis.read_traces_csv"),
            "analysis.bytes_written": median([u["bytes_written"] for u in units]),
            "charts.emit_sweep_charts_ms": 1e3 * span_median(spans, "charts.emit_sweep_charts"),
        })
        return out


class ServeFixedDelta(Workload):
    name = "serve_fixed_delta"

    def setup(self) -> None:
        self.channel = self.m.ChannelConfig("rayleigh", SNR_DB, self.seed)
        self.ds, self.model, _ = self.bundle_setup(self.size["serve_per_class"], self.channel)

    def nets(self) -> dict:
        return {p: getattr(self.model, p) for p in ("encoder1", "encoder2", "decoder1", "decoder2")}

    def micro_inputs(self):
        return None, self.request(0)[0].images

    def request(self, i: int):
        """Request i: the next CHUNK images of the test stream and its own rng."""
        test = self.ds.test
        idx = (i * CHUNK + np.arange(CHUNK)) % len(test)
        return test.subset(idx), np.random.default_rng([self.seed, 7, i])

    def unit(self, i: int) -> dict:
        split, rng = self.request(i)
        t = time.perf_counter()
        traces = self.m.protocol.run_protocol(self.model, split, SERVE_DELTA, self.channel, rng)
        seconds = time.perf_counter() - t
        return {"samples": len(split), "seconds": seconds, "traces": traces, "index": i,
                "escalated": sum(tr.escalated for tr in traces)}

    def check(self, units: list[dict]) -> None:
        p = self.m.protocol
        for u in units:
            traces = u["traces"]
            self.checks("round-1 probability rows sum to 1",
                        rows_sum_to_one([t.round1.probs for t in traces]))
            esc = [t.round2.probs for t in traces if t.escalated]
            if esc:
                self.checks("round-2 probability rows sum to 1", rows_sum_to_one(esc))
        # Re-run the first and last requests through the cached path.
        for u in units[:1] + units[1:][-1:]:
            split, rng = self.request(u["index"])
            cache = p.evaluate_rounds(self.model, split, self.channel, rng)
            row = p.sweep_from_cache(cache, [SERVE_DELTA])[0]
            traces = u["traces"]
            self.checks("served traces agree with sweep_from_cache",
                        row["accuracy"] == p.task_accuracy(traces)
                        and row["avg_delay"] == p.average_delay(traces)
                        and row["escalation_rate"] == p.escalation_rate(traces))
        h = hashlib.sha256()
        for t in units[0]["traces"]:
            h.update(f"{t.sample_index},{t.round1.confidence!r},{t.escalated},"
                     f"{t.final_predicted},{t.delay};".encode())
        self.digests["first_request_sha256"] = h.hexdigest()

    def layer_metrics(self, spans, units) -> dict:
        out = protocol_metrics(spans, units)
        out["models.load_bundle_s"] = median(self.stages["load_bundle"])
        return out


WORKLOADS = {w.name: w for w in (TrainJoint, EvalProtocol, ServeFixedDelta)}


def span_median(spans, name: str) -> float:
    own = durations(spans)
    return median([own[s["id"]] for s in spans if s["name"] == name])


def in_unit(spans, unit: dict) -> list[dict]:
    return [s for s in spans if unit["start"] <= s["start"] <= unit["end"]]


def protocol_metrics(spans, units) -> dict:
    """Metrics shared by the two protocol workloads, per pass or request."""
    own = durations(spans)
    draw, norm, r1, r2 = [], [], [], []
    for u in units:
        mine = in_unit(spans, u)
        chunks = max(1, sum(s["name"] == "nn.encoder1.forward" for s in mine))
        draw.append(sum(own[s["id"]] for s in mine if s["name"] == "channel.draw") / chunks)
        norm.append(sum(own[s["id"]] for s in mine if s["name"] == "channel.power_norm") / chunks)
        r1.append(sum(s["n"] for s in mine if s["name"] == "nn.encoder1.forward"))
        r2.append(sum(s["n"] for s in mine if s["name"] == "nn.encoder2.forward"))
    escalated = sum(u["escalated"] for u in units)
    return {
        "channel.draw_ms": 1e3 * median(draw),
        "channel.power_norm_ms": 1e3 * median(norm),
        "protocol.evaluate_rounds_s": span_median(spans, "protocol.evaluate_rounds"),
        "protocol.apply_threshold_ms": 1e3 * span_median(spans, "protocol.apply_threshold"),
        "protocol.round1_images": median(r1),
        "protocol.round2_images": median(r2),
        "protocol.escalation_rate": escalated / sum(u["samples"] for u in units),
        "protocol.round2_useful_ratio": escalated / max(1, sum(r2)),
    }


# ---------------------------------------------------------------------------
# running


def run_units(wl: Workload, seconds: float,
              tracer: Tracer | None = None) -> tuple[list[dict], list[dict]]:
    """Closed loop: the next unit starts when the previous one returns.

    Units run until the next one, at the median pace so far, would end past
    `seconds`; at least one always runs. With a tracer, units alternate
    untraced and traced (untraced first, ending on a traced one), so the
    tracing overhead is measured against baselines interleaved in time.
    Returns (measured units, untraced baselines).
    """
    units, baseline = [], []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(baseline) > len(units)
        with instrument(tracer, wl.nets()) if traced else contextlib.nullcontext():
            if traced:
                tracer.unit += 1
            start = time.perf_counter()
            u = wl.unit(len(units) + len(baseline))
            u["start"], u["end"] = start, time.perf_counter()
        (baseline if tracer is not None and not traced else units).append(u)
        pace = median([v["end"] - v["start"] for v in units + baseline])
        if (tracer is None or traced) and u["end"] - t0 + pace > seconds:
            return units, baseline


def provenance(mrmtl) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        commit = r.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "mrmtl": mrmtl.__version__,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics; 1: per-layer metrics; omit for both")
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="tiny is for the harness self-check only")
    args = ap.parse_args(argv)
    spec = load_spec()
    mrmtl = import_mrmtl()
    import_s = time.perf_counter() - T_START

    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(mrmtl, spec, args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(mrmtl, spec: dict, args, work: Path, import_s: float) -> int:
    size = SIZES[args.size]
    checks = Checks()
    wl = WORKLOADS[args.workload](mrmtl, args.seed, size, work, checks)
    want_e2e = args.trace in (None, 0)
    want_layers = args.trace in (None, 1)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  size {args.size}")
    prov = provenance(mrmtl)
    print("provenance " + json.dumps(prov, sort_keys=True))

    setup_times = []
    for _ in range(size["setup_reps"]):
        t = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t)
    print(f"setup: import {import_s:.3f} s, repetitions "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s; stage medians "
          + ", ".join(f"{k} {median(v):.3f}" for k, v in wl.stages.items()) + " s")

    metrics: dict[str, float] = {}
    if want_e2e:
        untraced, _ = run_units(wl, args.seconds)
        e2e = {
            "setup_s": import_s + median(setup_times),
            "samples_per_s": median([u["samples"] / u["seconds"] for u in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update({m["name"]: e2e[m["name"]] for m in spec["end_to_end"]})
        wl.check(untraced)
        print(f"units {len(untraced)}: "
              + ", ".join(f"{u['samples']} in {u['seconds']:.3f} s" for u in untraced))

    layer_table = []
    if want_layers:
        train_imgs, infer_imgs = wl.micro_inputs()
        layers = microbench.nn_metrics(train_imgs, infer_imgs, NC, args.seed)
        tracer = Tracer()
        traced, baseline = run_units(wl, args.seconds, tracer)
        wl.check(baseline + traced)
        print(f"traced units {len(traced)}, untraced baselines {len(baseline)}: "
              + ", ".join(f"{u['samples']} in {u['seconds']:.3f} s" for u in baseline + traced))
        spans = tracer.spans
        layers.update(wl.layer_metrics(spans, traced))
        unit_wall = [u["end"] - u["start"] for u in traced]
        base_wall = [u["end"] - u["start"] for u in baseline]
        covered = sum(s["end"] - s["start"] for s in spans if s["parent"] == -1)
        layers.update({
            "dataset.make_synthetic_s": median(wl.stages["make_synthetic"]),
            "nn.checkpoint.bytes": wl.bundle_size,
            "trace.overhead_ms": 1e3 * (median(unit_wall) - median(base_wall)),
            "trace.outside_spans_ms": 1e3 * (sum(unit_wall) - covered) / len(traced),
        })
        if "models.save_bundle_s" not in layers:
            layers["models.save_bundle_s"] = median(wl.stages["save_bundle"])
        mb = wl.bundle_size / 1e6
        layers["nn.checkpoint.save_MBps"] = mb / layers["models.save_bundle_s"]
        if layers.get("models.load_bundle_s"):
            layers["nn.checkpoint.load_MBps"] = mb / layers["models.load_bundle_s"]
        names = [m["name"] for m in spec["per_layer"]]
        unknown = sorted(set(layers) - set(names))
        if unknown:
            raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {unknown}")
        absent = [n for n in names if n not in layers]
        metrics.update({n: float(layers.get(n, 0.0)) for n in names})
        layer_table = self_time_table(spans)
        WORK.joinpath("spans").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "spans" / f"{wl.name}-seed{args.seed}.jsonl")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"checks: {checks.attempted} attempted, {len(checks.failed)} failed, "
          f"error_rate {len(checks.failed) / max(1, checks.attempted):g}")
    for name in sorted(set(checks.failed)):
        print(f"  FAILED: {name}")
    print("digests " + json.dumps(wl.digests, sort_keys=True))
    for name, value in metrics.items():
        note = "  (absent: not on this workload's path)" if want_layers and name in absent else ""
        print(f"metric {name} = {value!r} {units[name]}{note}")
    if layer_table:
        total = sum(r[3] for r in layer_table)
        print(f"{'span':<34} {'calls':>6} {'total_ms':>11} {'self_ms':>11} {'self%':>6}")
        for name, calls, tot, own in layer_table:
            print(f"{name:<34} {calls:>6} {1e3 * tot:>11.2f} {1e3 * own:>11.2f} "
                  f"{100 * own / total:>6.2f}")
        print("time waited: absent (no layer has a queue)")

    result = {"correct": not checks.failed, "attempted": checks.attempted,
              "failed": len(checks.failed),
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  size=args.size, provenance=prov, digests=wl.digests,
                  failed_checks=checks.failed, setup_repetitions_s=setup_times)
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
