"""Smoke runs of the scripts under ``benchmarks/``, so an API change that
breaks one fails here rather than when someone next benchmarks."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def script_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_kernel_speed_script_prints_timing_table():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "kernel_speed.py"),
         "--n", "2000", "--repeat", "1"],
        env=script_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("n=2000, edges=")
    assert lines[1].split() == ["stage", "best", "[s]"]
    rows = dict(line.split() for line in lines[2:])
    assert {"generate", "bfs_subsample", "longest_paths"} <= rows.keys()
    assert len(rows) == 12
    assert all(float(t) >= 0 for t in rows.values())


def test_output_digests_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "output_digests.py")],
        env=script_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 197
    assert all(len(line.split()) == 2 for line in lines)
