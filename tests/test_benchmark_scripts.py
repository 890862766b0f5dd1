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


def test_kernel_speed_script_runs_and_paths_agree():
    # the script starts its two worker subprocesses one after the other
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "kernel_speed.py"),
         "--n", "2000", "--repeat", "1"],
        env=script_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "outputs identical" in proc.stdout


def test_output_digests_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "output_digests.py")],
        env=script_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 177
    assert all(len(line.split()) == 2 for line in lines)
