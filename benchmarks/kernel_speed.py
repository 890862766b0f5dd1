"""Compare the compiled kernels against the pure-numpy fallback.

Runs the same pipeline stages twice in fresh subprocesses, once with the
default (compiled) kernels and once with CITEGEN_NO_NUMBA=1, and prints
a per-stage timing table.  Both paths draw from identical RNG streams,
so the digests printed by each worker must match; the benchmark fails
loudly if they do not.  Back-edge injection, cycle breaking, community
detection, the sampled and exact triad census, betweenness, and ER, SBM
and DC-SBM sampling have no compiled variant (plain Python or numpy);
their times are printed apart from the kernel table.

Usage:
    python3 benchmarks/kernel_speed.py [--n 50000] [--repeat 3]
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time


def run_worker(n, repeat, disable_numba):
    env = dict(os.environ)
    env.pop("CITEGEN_NO_NUMBA", None)
    if disable_numba:
        env["CITEGEN_NO_NUMBA"] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker",
         "--n", str(n), "--repeat", str(repeat)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed (disable_numba={disable_numba})")
    return json.loads(proc.stdout)


def worker(n, repeat):
    import numpy as np

    from citegen import kernels
    from citegen.baselines import (fit_er, fit_sbm, generate_dcsbm,
                                   generate_er, generate_sbm)
    from citegen.generator import CsParams, generate
    from citegen.metrics.communities import detect_communities
    from citegen.metrics.paths import betweenness_values
    from citegen.metrics.triads import triad_census
    from citegen.neardag import cycle_break, inject_back_edges

    params = CsParams(p=(0.5, 0.3, 0.2), m=(5.0, 4.0, 3.0),
                      rho=(0.3, 0.5, 0.7), sigma2=(9.0, 8.0, 4.0))
    generate(params, 2000, 0)  # warm up compilation outside the clock

    def best(fn):
        t_best = float("inf")
        out = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            out = fn()
            t_best = min(t_best, time.perf_counter() - t0)
        return t_best, out

    timings = {}
    timings["generate"], dag = best(lambda: generate(params, n, 42))
    single_timings = {}
    single_timings["inject_back_edges"], near = best(
        lambda: inject_back_edges(dag, 0.1, 7))
    single_timings["cycle_break"], broken = best(
        lambda: cycle_break(near, 0.1, 9, "degree-diff"))
    single_timings["triad_census"], census = best(
        lambda: triad_census(near, n_samples=200_000, seed=1))
    single_timings["triad_census_exact"], exact = best(
        lambda: triad_census(near))
    single_timings["detect_communities"], detected = best(
        lambda: detect_communities(near, seed=2))
    sources = np.arange(0, near.num_nodes, max(1, near.num_nodes // 200))
    single_timings["betweenness"], betw = best(
        lambda: betweenness_values(near, sources=sources))
    single_timings["generate_er"], er = best(
        lambda: generate_er(fit_er(near), 3))
    sbm_fit = fit_sbm(near)
    single_timings["generate_sbm"], sbm = best(
        lambda: generate_sbm(sbm_fit, 4))
    single_timings["generate_dcsbm"], dcsbm = best(
        lambda: generate_dcsbm(sbm_fit, 5))

    digest = hashlib.sha256()
    for arr in (dag.src, dag.dst, near.src, near.dst,
                broken[0].src, broken[0].dst, census, exact,
                detected[0], betw, er.src, er.dst, sbm.src, sbm.dst,
                dcsbm.src, dcsbm.dst):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(repr(round(float(detected[1]), 12)).encode())
    print(json.dumps({"numba": kernels.using_numba(),
                      "digest": digest.hexdigest(),
                      "timings": timings,
                      "single_timings": single_timings}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=50_000,
                    help="node count for the generation stages")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions per stage (best is kept)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.worker:
        worker(args.n, args.repeat)
        return

    fast = run_worker(args.n, args.repeat, disable_numba=False)
    slow = run_worker(args.n, args.repeat, disable_numba=True)
    if not fast["numba"]:
        print("note: numba unavailable, comparing the fallback to itself")
    if fast["digest"] != slow["digest"]:
        raise SystemExit("outputs differ between kernel paths")

    print(f"n={args.n}, repeat={args.repeat}, outputs identical "
          f"(digest {fast['digest'][:12]}...)")
    print(f"{'stage':<20}{'compiled [s]':>14}{'fallback [s]':>14}"
          f"{'speedup':>9}")
    for stage, t_fast in fast["timings"].items():
        t_slow = slow["timings"][stage]
        ratio = t_slow / t_fast if t_fast > 0 else float("inf")
        print(f"{stage:<20}{t_fast:>14.4f}{t_slow:>14.4f}{ratio:>8.1f}x")
    print("single-path stages:")
    for stage, t in slow["single_timings"].items():
        print(f"{stage:<20}{t:>14.4f}")


if __name__ == "__main__":
    main()
