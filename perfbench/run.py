"""Benchmark of citegen's user workflows, with a separate traced run.

One workload, ending with its JSON result line:

    python3 perfbench/run.py --workload grow-20k --seed 1 --seconds 30 --trace 0

Every workload in one process, untraced and then traced, with a table of
every metric and its unit (``--smoke`` shrinks the inputs to seconds):

    python3 perfbench/run.py [--smoke] [--seed 1] [--seconds 30]

A run builds the workload's datasets from ``--seed`` (three times; setup_s
is the import time plus the median build), then runs measured passes, each
on its own inputs, while another pass still fits in ``--seconds``.
``run_s`` is the median pass time.  Every time is stated in reference
seconds: divided by the host's slowness at the moment it was measured
(``hostspeed.py``); wall times are in the detail line.  ``--trace 1`` then
repeats pass 0 with every public citegen function traced and reports the
per-layer metrics of ``layers.py``.  Every pass's outputs are checked and
hashed; a failed check makes the result incorrect and the exit code 1.

citegen is imported from ``src/`` next to this directory and nowhere else.
BLAS thread pools are pinned to one thread and ``CITEGEN_THREADS`` is
unset before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import platform
import resource
import statistics
import sys
import time

import layers
from tracer import LogCounter, Probes, Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, "perfbench", ".work")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNSET = ("CITEGEN_THREADS",)
SETUP_REPEATS = 3
# reported by the all-workloads mode; None where a workload makes no such call
QUALITY_UNITS = {"rho_abs_err": "1", "detected_q": "1", "ops_failed_ratio": "ratio"}


def pin_threads():
    before = {k: os.environ.get(k) for k in PINNED + UNSET}
    for k in PINNED:
        os.environ[k] = "1"
    for k in UNSET:
        os.environ.pop(k, None)
    return {"pinned": {k: "1" for k in PINNED}, "unset": list(UNSET),
            "before": before}


def import_program():
    """Import citegen from this checkout; returns the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "citegen", "__init__.py")):
        sys.exit(f"error: no citegen sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import citegen
    import workloads  # noqa: F401  (imports numpy, scipy and all of citegen)
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(citegen.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: citegen was imported from {citegen.__file__}")
    return elapsed


def git_revision():
    """HEAD of the checkout read from .git, or None outside a git clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "citegen")
    for dirpath, _, filenames in sorted(os.walk(pkg)):
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(threads):
    import numpy
    import scipy

    from citegen import kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba": kernels.using_numba(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": git_revision(), "source_sha256": source_digest(),
            "threads": threads}


@contextlib.contextmanager
def counting_logs():
    """A fresh LogCounter on the ``citegen`` logger, which is set to INFO."""
    logger = logging.getLogger("citegen")
    level = logger.level
    counter = LogCounter()
    logger.addHandler(counter)
    logger.setLevel(logging.INFO)
    try:
        yield counter
    finally:
        logger.removeHandler(counter)
        logger.setLevel(level)


def one_pass(wl, datasets, seed, index, timed):
    """Run and check one pass; the time covers ``wl.run`` only."""
    rec = Recorder(datasets)
    with counting_logs() as logs, Probes(rec, timed):
        t0 = time.perf_counter()
        out = wl.run(datasets, seed, index, WORKDIR)
        elapsed = time.perf_counter() - t0
    return {"seconds": elapsed, "rec": rec, "logs": logs,
            "checks": wl.check(out, rec), "digest": wl.digest(out)}


def run_workload(wl, seed, seconds, trace, import_s):
    """Set up, measure untraced passes, optionally one traced pass.

    A pass's time is divided by the mean of the host factors probed just
    before and after it, set-up time by the median factor of the run (see
    ``hostspeed``).  The wall times are kept in the report as well.
    """
    import hostspeed
    import workloads
    speed = hostspeed.HostSpeed()
    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        datasets = wl.setup(seed)
        build_s.append(time.perf_counter() - t0)
    factors = [speed.factor()]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(wl, datasets, seed, len(passes), timed=False))
        factors.append(speed.factor())
        if time.perf_counter() - start + passes[-1]["seconds"] > seconds:
            break
    wall = [p["seconds"] for p in passes]
    scaled = [t * 2 / (factors[i] + factors[i + 1]) for i, t in enumerate(wall)]
    setup_wall = import_s + statistics.median(build_s)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "build_s": build_s,
        "pass_wall_s": wall,
        "host_factors": factors,
        "wall": {"setup_s": setup_wall, "run_s": statistics.median(wall)},
        "end_to_end": {"setup_s": (setup_wall / statistics.median(factors), "s"),
                       "run_s": (statistics.median(scaled), "s"),
                       "peak_rss_mb": (peak_mb, "MB")},
        "quality": median_quality([workloads.quality(p["rec"]) for p in passes]),
        "log_counts": dict(passes[0]["logs"].counts),
        "digest": passes[0]["digest"],
    }
    checks = [dict(c, pass_index=i) for i, p in enumerate(passes)
              for c in p["checks"]]
    if trace:
        # the traced pass repeats pass 0, so tracing must not change outputs
        traced = one_pass(wl, datasets, seed, 0, timed=True)
        factor = (factors[-1] + speed.factor()) / 2
        checks += [dict(c, pass_index="traced") for c in traced["checks"]]
        checks.append({"check": "traced_outputs_match",
                       "ok": traced["digest"] == passes[0]["digest"],
                       "detail": traced["digest"], "pass_index": "traced"})
        report["per_layer"], report["spans"] = layers.per_layer(
            traced["rec"], traced["logs"], workloads.quality(traced["rec"]),
            traced["seconds"], report["end_to_end"]["run_s"][0], factor)
    failed = sum(not c["ok"] for c in checks)
    report.update(checks=checks, attempted=len(checks), failed=failed)
    report["quality"]["ops_failed_ratio"] = failed / len(checks)
    return report


def median_quality(per_pass):
    """Median over passes of each quality metric the passes define."""
    out = {}
    for key in per_pass[0]:
        values = [q[key] for q in per_pass if q[key] is not None]
        out[key] = statistics.median(values) if values else None
    return out


def _metric_json(pairs):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    help="run one workload and print its result line; "
                         "omit to run every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure passes for this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 reports the per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, so every workload runs in seconds")
    return ap, ap.parse_args(argv)


def main(argv=None):
    ap, args = parse_args(argv)
    threads = pin_threads()
    import_s = import_program()
    import workloads
    if args.workload and args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(WORKDIR, exist_ok=True)
    env = environment(threads)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    for name in names:
        wl = workloads.WORKLOADS[name](smoke=args.smoke)
        trace = bool(args.trace) if args.workload else True
        report = run_workload(wl, args.seed, args.seconds, trace, import_s)
        report.update(workload=name, seed=args.seed,
                      seconds=args.seconds, smoke=args.smoke, config=wl.config(),
                      import_s=import_s, environment=env)
        results[name] = report
        detail = {k: v for k, v in report.items()
                  if k not in ("end_to_end", "per_layer")}
        print(json.dumps(detail, default=float))
    correct = all(r["failed"] == 0 for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        report = results[args.workload]
        metrics = report["per_layer"] if args.trace else report["end_to_end"]
        line = {"metrics": _metric_json(metrics)}
    else:
        print_table(results)
        line = {"workloads": {
            name: {"end_to_end": _metric_json(r["end_to_end"]),
                   "wall": _metric_json(wall(r)),
                   "quality": _metric_json(quality(r)),
                   "per_layer": _metric_json(r["per_layer"])}
            for name, r in results.items()}}
    print(json.dumps(dict({"correct": correct, "attempted": attempted,
                           "failed": failed}, **line)))
    return 0 if correct else 1


def quality(report):
    return {k: (report["quality"][k], unit) for k, unit in QUALITY_UNITS.items()}


def wall(report):
    return {f"wall.{k}": (v, "s") for k, v in report["wall"].items()}


def print_table(results):
    for name, r in results.items():
        print(f"== {name}")
        rows = (list(r["end_to_end"].items()) + list(wall(r).items())
                + list(quality(r).items()))
        rows += [(f"[traced] {k}", v) for k, v in r["per_layer"].items()]
        for metric, (value, unit) in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric:<44} {shown:>14} {unit}")
        for c in r["checks"]:
            if not c["ok"]:
                print(f"  FAILED {c['check']}: {c['detail']}")


if __name__ == "__main__":
    sys.exit(main())
