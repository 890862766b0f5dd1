"""Smoke runs of the scripts under ``benchmarks/``, so an API change that
breaks one fails here rather than when someone next benchmarks, and the
digest script's output checked against ``benchmarks/digests.txt``."""

import os
import subprocess
import sys
from itertools import zip_longest
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
    assert {"generate", "bfs_subsample", "longest_paths", "graph_views",
            "detect_batch"} <= rows.keys()
    assert len(rows) == 13
    assert all(float(t) >= 0 for t in rows.values())


def test_output_digests_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "output_digests.py")],
        env=script_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    expected = (ROOT / "benchmarks" / "digests.txt").read_text().splitlines()
    changed = [f"line {i}: {want!r} -> {got!r}" for i, (want, got)
               in enumerate(zip_longest(expected, lines), 1) if want != got]
    assert not changed, "outputs changed:\n" + "\n".join(changed)
    assert len(lines) == len(expected) == 226
    assert all(len(line.split()) == 2 for line in lines)
    digests = dict(line.split() for line in lines)
    assert digests["run_bench/threads2"] == digests["run_bench/small"]
    assert any(line.startswith("detect/dag2k ") for line in lines)
    assert any(line.startswith("run_bench/small ") for line in lines)
    assert any(line.startswith("write_artifacts/wtl ") for line in lines)
    assert any(line.startswith("compare/repeat ") for line in lines)
    assert lines[-1].startswith("compare/kept-subsampled ")
    assert sum(line.startswith("estimate/") for line in lines) == 3
