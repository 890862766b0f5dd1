"""Digests of outputs that a refactor must leave byte-identical.

Prints one ``name sha256-prefix`` line per output: ``inject_back_edges``
(with and without labels), ``cycle_break`` under all three ordering
strategies, ``generate_sbm``, ``generate_dcsbm`` and ``generate_config``
on fixed input graphs that are built here with numpy alone, so that they
do not depend on the code under test; the bytes ``save_edge_list`` writes
for those graphs, with and without node names, and the graph and report
``load_edge_list`` reads back from a file with repeated edges;
``bfs_subsample`` at two budgets and ``longest_path_lengths`` under the
identity and a permuted rank on each of them; ``betweenness_values``, the
exact ``triad_census`` and one ``compare`` report on some of those
graphs; the two reports of one real graph compared in turn with two
others under one config, where the second reads the real graph's kept
profile, and again under a config whose ``max_nodes`` makes it
subsample the real graph, where the second reads the kept values measured
on that subsample; the
labels and modularities ``detect_batch`` finds at the battery's
resolutions on one of them; the distance tensor and the
seven artifact files of one ``run_bench`` over four methods and two
replicates on a small fixed dataset, run on one thread and on two; the
artifact files of two
hand-built results whose win/tie/loss tables hold wins, losses and ties
under the exact null (5 tie-free replicates) and the normal one (25
replicates with ties); ``generate_er`` over a grid of
sizes and edge probabilities; the community labels and the edge lists of
``generate``; the parameters, raw estimates and clamp flags ``estimate``
recovers from a generated DAG, its near-DAG and a graph with a community
clamped high and two whose preferentiality fits land on the two ends of
their search interval; and the out-,
in- and undirected CSR views and the scipy adjacency of each fixed input
graph, dtypes included.

``benchmarks/digests.txt`` holds the expected output, and Tier-1 compares
the script's output with it line by line.  A change that alters an
output on purpose regenerates the file in the same commit:

    PYTHONPATH=src python3 benchmarks/output_digests.py > benchmarks/digests.txt
"""

import hashlib
import io
import os
import tempfile
from dataclasses import replace

import numpy as np

from citegen.baselines import (ErFit, fit_config, fit_sbm, generate_config,
                               generate_dcsbm, generate_er, generate_sbm)
from citegen.bench import (BenchConfig, BenchResult, run_bench,
                           write_artifacts)
from citegen.estimation import estimate
from citegen.generator import CsParams, generate
from citegen.graph import (LabeledGraph, bfs_subsample, in_csr,
                           load_edge_list, out_csr, save_edge_list,
                           undirected_csr)
from citegen.metrics.battery import MetricConfig, compare
from citegen.metrics.communities import detect_batch
from citegen.metrics.paths import betweenness_values, longest_path_lengths
from citegen.metrics.triads import triad_census
from citegen.neardag import cycle_break, inject_back_edges


def random_graph(n, m, k, seed, dag):
    """Simple digraph of at most m edges with k labels and timestamps."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n, m)
    t = rng.integers(0, n, m)
    keep = s != t
    s, t = s[keep], t[keep]
    if dag:
        s, t = np.maximum(s, t), np.minimum(s, t)
    keys = np.unique(s * n + t)
    labels = rng.integers(0, k, n)
    labels[:k] = np.arange(k)
    return LabeledGraph(num_nodes=n, src=keys // n, dst=keys % n,
                        labels=labels,
                        timestamps=rng.permutation(n).astype(np.float64))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def text_bytes(text):
    return np.frombuffer(text.encode(), np.uint8)


def typed_digest(*arrays):
    """``digest`` of the arrays and of their dtypes."""
    return digest(*arrays, text_bytes(" ".join(a.dtype.str for a in arrays)))


def saved(graph):
    buf = io.StringIO()
    save_edge_list(graph, buf)
    return buf.getvalue()


def bounds_graph():
    """A star community whose fit lands on NU_MAX, a ring whose members each
    cite 11 nodes of a third community (fit on NU_MIN), and that third, a
    ring with equal in- and out-totals and Gini 0, so that its closed-form
    estimate is its size, clamped high."""
    star = [(v, 0) for v in range(1, 10)]
    ring = [(10 + (i + 1) % 10, 10 + i) for i in range(10)]
    spread = [(10 + i, 20 + 11 * i + j) for i in range(10) for j in range(11)]
    ring += [(20 + (i + 1) % 110, 20 + i) for i in range(110)]
    src, dst = np.array(star + ring + spread, np.int64).T
    return LabeledGraph(num_nodes=130, src=src, dst=dst,
                        labels=np.repeat(np.arange(3), (10, 10, 110)))


def artifacts(result, seed):
    """The bytes of each file ``write_artifacts`` writes for ``result``."""
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for name in write_artifacts(result, tmp, seed):
            with open(os.path.join(tmp, name), "rb") as fh:
                files.append(np.frombuffer(fh.read(), np.uint8))
    return files


def separated_result(replicates, integers, seed):
    """Bench runs of 4 methods set about one spread apart, so that the U
    tests find wins, losses and ties; integer runs hold ties."""
    rng = np.random.default_rng(seed)
    shape = (2, 3, 4, replicates)  # datasets, metrics, methods, replicates
    shift = rng.normal(scale=1.5, size=shape[:3] + (1,))
    if integers:
        runs = rng.integers(0, 6, shape) + 2.0 * np.round(shift)
    else:
        runs = rng.normal(size=shape) + shift
    return BenchResult(methods=("m0", "m1", "m2", "m3"), datasets=("d0", "d1"),
                       metric_names=("a", "b", "c"),
                       metric_categories=("degree", "degree",
                                          "meso-endogenous"),
                       runs=runs)


def main():
    out = {}
    inputs = {
        "dag2k": random_graph(2000, 10000, 4, 1, True),
        "dag20k": random_graph(20000, 100000, 6, 2, True),
        "cyc3k": random_graph(3000, 15000, 3, 3, False),
        # too few free old -> new pairs: injection falls short
        "dense60": random_graph(60, 3000, 2, 4, False),
        "tiny": random_graph(12, 40, 2, 5, True),
    }
    for name, g in inputs.items():
        bare = LabeledGraph(num_nodes=g.num_nodes, src=g.src, dst=g.dst)
        for r, seed in ((0.05, 7), (0.3, 8)):
            a = inject_back_edges(g, r, seed)
            out[f"inject/{name}/{r}"] = digest(a.src, a.dst)
            b = inject_back_edges(bare, r, seed)
            out[f"inject-nolabels/{name}/{r}"] = digest(b.src, b.dst)
        for strategy in ("timestamps", "degree-diff", "eades"):
            for r, seed in ((0.0, 1), (0.1, 2), (0.45, 3)):
                h, rep = cycle_break(g, r, seed, strategy)
                out[f"cycle/{name}/{strategy}/{r}"] = digest(
                    h.src, h.dst,
                    np.array([rep.collapsed_edges, rep.reversed_edges]),
                    np.float64(rep.back_edge_ratio))
        fit = fit_sbm(g)
        for seed in (11, 12):
            s = generate_sbm(fit, seed)
            out[f"sbm/{name}/{seed}"] = digest(s.src, s.dst)
            d = generate_dcsbm(fit, seed)
            out[f"dcsbm/{name}/{seed}"] = digest(d.src, d.dst)
            c, erased = generate_config(fit_config(g), seed)
            out[f"config/{name}/{seed}"] = digest(c.src, c.dst,
                                                  np.array([erased]))
        out[f"save/{name}"] = digest(text_bytes(saved(bare)))
        named = LabeledGraph(
            num_nodes=g.num_nodes, src=g.src, dst=g.dst,
            names=tuple(f"v{i:x}" for i in range(g.num_nodes)))
        text = saved(named)
        out[f"save-names/{name}"] = digest(text_bytes(text))
        # the file again after the edges of a reorientation: most repeat
        loaded, rep = load_edge_list(io.StringIO(
            saved(cycle_break(named, 0.45, 3, "eades")[0]) + text))
        out[f"load/{name}"] = digest(
            loaded.src, loaded.dst, text_bytes("\t".join(loaded.names)),
            np.array([rep.lines, rep.duplicate_edges, rep.self_loops]))
        for budget in (g.num_nodes // 10, g.num_nodes // 2):
            sub = bfs_subsample(g, budget, 13)
            out[f"bfs/{name}/{budget}"] = digest(sub.src, sub.dst, sub.labels)
        ranks = {"identity": np.arange(g.num_nodes),
                 "permuted": np.random.default_rng(14).permutation(g.num_nodes)}
        for rank_name, rank in ranks.items():
            out[f"longest/{name}/{rank_name}"] = digest(
                longest_path_lengths(g, rank))
        adj = g.adjacency
        out[f"view/{name}/out"] = typed_digest(*out_csr(g))
        out[f"view/{name}/in"] = typed_digest(*in_csr(g))
        out[f"view/{name}/undirected"] = typed_digest(*undirected_csr(g))
        out[f"view/{name}/adjacency"] = typed_digest(
            adj.data, adj.indices, adj.indptr)

    sampled = np.random.default_rng(6).choice(2000, 200, replace=False)
    for name, sources in (("dag2k", None), ("dag2k", sampled),
                          ("cyc3k", sampled), ("dense60", None)):
        label = "all" if sources is None else sources.size
        out[f"betweenness/{name}/{label}"] = digest(
            betweenness_values(inputs[name], sources))
    for name in ("tiny", "dense60", "dag2k", "cyc3k"):
        out[f"census/{name}"] = digest(triad_census(inputs[name]))
    report = compare(inputs["dag2k"], inputs["dense60"])
    out["compare/dag2k/dense60"] = digest(
        np.frombuffer(report.to_tsv().encode(), np.uint8))
    real = random_graph(1000, 5000, 3, 24, True)
    config = MetricConfig(seed=27, n_pairs=500, n_sources=100)
    synths = (inject_back_edges(real, 0.1, 25),
              random_graph(1000, 5000, 3, 26, False))
    reports = [compare(real, synth, config).to_tsv() for synth in synths]
    out["compare/repeat"] = digest(*(text_bytes(r) for r in reports))
    subsampled = replace(config, max_nodes=600)
    kept_subsampled = digest(*(text_bytes(compare(
        real, synth, subsampled).to_tsv()) for synth in synths))
    found, = detect_batch([inputs["dag2k"]], MetricConfig.resolutions, 15)
    out["detect/dag2k"] = digest(*(labels for labels, _ in found),
                                 np.array([q for _, q in found]))

    # no timestamps: the back-edge ratio is measured under degree-diff
    small = random_graph(100, 450, 3, 16, True)
    small = LabeledGraph(num_nodes=small.num_nodes, src=small.src,
                         dst=small.dst, labels=small.labels)
    digests = {}
    for threads in (1, 2):
        result = run_bench({"small": small}, BenchConfig(
            methods=("cs", "er-nd", "config-nd", "dcsbm-nd"), replicates=2,
            seed=17, threads=threads))
        digests[threads] = digest(result.runs, *artifacts(result, 17))
    out["run_bench/small"] = digests[1]
    out["write_artifacts/wtl"] = digest(
        *artifacts(separated_result(5, False, 18), 19),
        *artifacts(separated_result(25, True, 20), 21))

    for n in (2, 3, 50, 1000):
        for p in (1e-6, 0.01, 0.3, 0.99, 1.0):
            for seed in (0, 1):
                g = generate_er(ErFit(n=n, p=p), seed)
                out[f"er/{n}/{p}/{seed}"] = digest(g.src, g.dst)

    params = [
        CsParams(p=(0.5, 0.3, 0.2), m=(5.0, 4.0, 3.0), rho=(0.3, 0.5, 0.7),
                 sigma2=(9.0, 8.0, 4.0)),
        CsParams(p=(1.0,), m=(5.0,), rho=(0.5,), sigma2=(5.0,)),
        CsParams(p=(0.1, 0.2, 0.3, 0.25, 0.15), m=(2.0, 8.0, 3.0, 40.0, 1.0),
                 rho=(0.9, 0.1, 0.5, 0.6, 0.2),
                 sigma2=(1.0, 30.0, 3.0, 400.0, 0.5)),
    ]
    for i, p in enumerate(params):
        for n, seed in ((5, 0), (1000, 1), (30000, 2)):
            if n >= p.k:
                g = generate(p, n, seed)
                out[f"generate-labels/{i}/{n}/{seed}"] = digest(g.labels)
                out[f"generate-edges/{i}/{n}/{seed}"] = digest(g.src, g.dst)

    dag = generate(params[0], 3000, 22)
    fixtures = {"dag": dag, "near-dag": inject_back_edges(dag, 0.1, 23),
                "bounds": bounds_graph()}
    for name, g in fixtures.items():
        fit = estimate(g)
        f = fit.params
        out[f"estimate/{name}"] = typed_digest(
            f.p, f.m, f.rho, f.sigma2, fit.rho_raw, fit.sigma2_raw,
            fit.clamped_low, fit.clamped_high)

    for key in sorted(out):
        print(key, out[key])
    # lines added since digests.txt was first committed follow the sorted
    # ones, so that no committed line moves
    print("run_bench/threads2", digests[2])
    print("compare/kept-subsampled", kept_subsampled)


if __name__ == "__main__":
    main()
