"""The package surface: exported names and the runnable demos."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mrmtl

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in mrmtl.__all__ if not hasattr(mrmtl, name)]
    assert missing == []
    assert len(set(mrmtl.__all__)) == len(mrmtl.__all__)


def test_demo_01_channel_statistics_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "01_channel_statistics.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^identical:\s+True$", proc.stdout, re.M)
