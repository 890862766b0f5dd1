"""Time the heavy pipeline stages on one generated graph.

Generates an n-node graph, injects back edges, and prints the best of
``--repeat`` wall-clock times for each stage: generation, back-edge
injection, the scipy adjacency and the out-, in- and undirected CSR views
of a fresh copy of the near-DAG (so no cached view is reused), cycle
breaking, community detection at the battery's resolutions in one
``detect_batch`` call (as ``profile`` of one graph makes it), the sampled
and exact triad census, BFS subsampling to half the nodes, betweenness
from sampled sources, longest paths, and ER, SBM and DC-SBM sampling.

Usage:
    python3 benchmarks/kernel_speed.py [--n 50000] [--repeat 3]
"""

import argparse
import time

import numpy as np

from citegen.baselines import (fit_er, fit_sbm, generate_dcsbm, generate_er,
                               generate_sbm)
from citegen.generator import CsParams, generate
from citegen.graph import LabeledGraph, bfs_subsample
from citegen.metrics.battery import MetricConfig
from citegen.metrics.communities import detect_batch
from citegen.metrics.paths import betweenness_values, longest_path_lengths
from citegen.metrics.triads import triad_census
from citegen.neardag import cycle_break, inject_back_edges


def best_time(fn, repeat):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def views_time(graph, repeat):
    """Best time of building the adjacency and the three CSR views of a
    fresh copy of ``graph``; the copy's construction is not timed."""
    best = float("inf")
    for _ in range(repeat):
        fresh = LabeledGraph(num_nodes=graph.num_nodes, src=graph.src,
                             dst=graph.dst)
        t0 = time.perf_counter()
        fresh.adjacency, fresh.out_csr, fresh.in_csr, fresh.undirected_csr
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=50_000,
                    help="node count for the generation stages")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions per stage (best is kept)")
    args = ap.parse_args()
    n, repeat = args.n, args.repeat

    params = CsParams(p=(0.5, 0.3, 0.2), m=(5.0, 4.0, 3.0),
                      rho=(0.3, 0.5, 0.7), sigma2=(9.0, 8.0, 4.0))
    timings = {}
    timings["generate"], dag = best_time(lambda: generate(params, n, 42),
                                         repeat)
    timings["inject_back_edges"], near = best_time(
        lambda: inject_back_edges(dag, 0.1, 7), repeat)
    timings["graph_views"] = views_time(near, repeat)
    sources = np.arange(0, n, max(1, n // 200))
    sbm_fit = fit_sbm(near)
    stages = {
        "cycle_break": lambda: cycle_break(near, 0.1, 9, "degree-diff"),
        "triad_census": lambda: triad_census(near, n_samples=200_000, seed=1),
        "triad_census_exact": lambda: triad_census(near),
        "detect_batch": lambda: detect_batch([near], MetricConfig.resolutions,
                                             seed=2),
        "bfs_subsample": lambda: bfs_subsample(near, n // 2, 3),
        "betweenness": lambda: betweenness_values(near, sources=sources),
        "longest_paths": lambda: longest_path_lengths(near, np.arange(n)),
        "generate_er": lambda: generate_er(fit_er(near), 3),
        "generate_sbm": lambda: generate_sbm(sbm_fit, 4),
        "generate_dcsbm": lambda: generate_dcsbm(sbm_fit, 5),
    }
    for stage, fn in stages.items():
        timings[stage], _ = best_time(fn, repeat)

    print(f"n={n}, edges={near.num_edges}, repeat={repeat}")
    print(f"{'stage':<22}{'best [s]':>10}")
    for stage, t in timings.items():
        print(f"{stage:<22}{t:>10.4f}")


if __name__ == "__main__":
    main()
