"""The package surface: exported names and the runnable demos."""

import importlib
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


def test_demo_01_channel_statistics_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "01_channel_statistics.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^identical:\s+True$", proc.stdout, re.M)
