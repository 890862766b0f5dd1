"""Tests of the benchmark itself, on its tiny smoke inputs.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=root)


def _smoke(*args):
    proc = _run("--smoke", "--seconds", "1", *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [json.loads(line) for line in lines[:-1]
                                   if line.startswith("{")]


def _assert_units(emitted, wanted):
    for metric in wanted:
        assert emitted[metric["name"]]["unit"] == metric["unit"], metric["name"]


def test_every_workload_emits_every_metric_with_its_unit():
    spec = _spec()
    result, details = _smoke()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    workloads = result["workloads"]
    assert list(workloads) == [w["name"] for w in spec["workloads"]]
    for name, report in workloads.items():
        _assert_units(report["end_to_end"], spec["end_to_end"])
        _assert_units(report["per_layer"], spec["per_layer"])
        assert set(report["wall"]) == {"wall.setup_s", "wall.run_s"}
        quality = report["quality"]
        assert quality["rho_abs_err"]["unit"] == "1"
        assert quality["rho_abs_err"]["value"] > 0
        assert quality["detected_q"]["unit"] == "1"
        assert quality["ops_failed_ratio"] == {"value": 0.0, "unit": "ratio"}
        assert report["per_layer"]["trace.attributed_share"]["value"] >= 0.9
        assert report["per_layer"]["trace.overhead_ratio"]["value"] > 0
    assert workloads["grow-20k"]["quality"]["detected_q"]["value"] is None
    for name in ("compare-1k", "bench-grid"):
        assert workloads[name]["quality"]["detected_q"]["value"] > 0
    for detail in details:
        env = detail["environment"]
        assert env["threads"]["pinned"] == {"OMP_NUM_THREADS": "1",
                                            "OPENBLAS_NUM_THREADS": "1",
                                            "MKL_NUM_THREADS": "1"}
        assert env["threads"]["unset"] == ["CITEGEN_THREADS"]
        assert {"python", "numpy", "scipy", "numba", "nproc",
                "source_sha256"} <= set(env)
        assert len(detail["digest"]) == 64


def test_result_line_has_exactly_the_listed_metrics():
    spec = _spec()
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        result, _ = _smoke("--workload", "bench-grid", "--seed", "3",
                           "--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
        _assert_units(result["metrics"], spec[kind])


def test_same_seed_gives_same_outputs():
    digests = [_smoke("--workload", "grow-20k", "--seed", "5")[1][0]["digest"]
               for _ in range(2)]
    assert digests[0] == digests[1]


def test_fails_without_the_program_sources():
    os.makedirs(WORKDIR, exist_ok=True)
    bare = tempfile.mkdtemp(dir=WORKDIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run("--workload", "grow-20k", "--seed", "1", "--seconds", "1",
                    "--trace", "0", root=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
