"""Tiny-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json's shape, runs every workload at the tiny size (twice
untraced with one seed, once traced), and verifies the result line, the
metric names, that no check failed, that digests repeat for a repeated
seed, that every per-layer metric is measured by some workload, and that
the harness refuses to run without the mrmtl sources. Exits non-zero on
the first problem. Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg: str) -> None:
    raise SystemExit(f"selfcheck: {msg}")


def check_spec(spec: dict) -> None:
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != want:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)) or not all(NAME.match(n) for n in names):
        fail("metric or workload names are invalid or repeated")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"bad unit or direction on {m['name']}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"bad end-to-end entry {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s should carry the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        fail("workload count or run_seconds out of range")


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(proc: subprocess.CompletedProcess, label: str) -> tuple[dict, dict, set]:
    if proc.returncode != 0:
        fail(f"{label} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{label}: checks failed:\n{proc.stdout[-3000:]}")
    digests = json.loads(next(x for x in lines if x.startswith("digests "))[8:])
    absent = {x.split()[1] for x in lines if x.startswith("metric ") and "(absent" in x}
    return result, digests, absent


def check_metrics(result: dict, expected: list[dict], label: str, nonzero: bool) -> None:
    got = result["metrics"]
    if list(got) != [m["name"] for m in expected]:
        fail(f"{label}: metric names differ from BENCHMARK.json")
    for m in expected:
        entry = got[m["name"]]
        v = entry["value"]
        if entry["unit"] != m["unit"] or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{label}: bad value for {m['name']}: {entry}")
        if nonzero and v <= 0:
            fail(f"{label}: {m['name']} is {v}")


def check_refuses_without_sources(spec: dict) -> None:
    bare = ROOT / ".perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            fail("harness ran without the mrmtl sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_self_time() -> None:
    sys.path.insert(0, str(HERE))
    from tracer import self_times
    spans = [{"id": 0, "parent": -1, "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "start": 2.0, "end": 5.0},
             {"id": 2, "parent": 1, "start": 3.0, "end": 4.0}]
    if self_times(spans) != {0: 7.0, 1: 2.0, 2: 1.0}:
        fail("self time arithmetic")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_self_time()
    check_refuses_without_sources(spec)
    measured = set()
    for w in spec["workloads"]:
        wl = w["name"]
        base = ["--workload", wl, "--seed", "3", "--seconds", "1", "--size", "tiny"]
        first, d1, _ = result_of(run(base + ["--trace", "0"]), f"{wl} trace 0")
        _, d2, _ = result_of(run(base + ["--trace", "0"]), f"{wl} trace 0 again")
        check_metrics(first, spec["end_to_end"], wl, nonzero=True)
        if d1 != d2 or not d1:
            fail(f"{wl}: digests differ between runs of one seed: {d1} vs {d2}")
        traced, _, absent = result_of(run(base + ["--trace", "1"]), f"{wl} trace 1")
        check_metrics(traced, spec["per_layer"], f"{wl} traced", nonzero=False)
        measured |= set(traced["metrics"]) - absent
        print(f"selfcheck: {wl} ok ({first['attempted']} checks, digests {d1})")
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    if missing:
        fail(f"per-layer metrics no workload measures: {missing}")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
