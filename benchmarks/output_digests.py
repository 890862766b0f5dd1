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
graphs; ``generate_er`` over a grid of sizes and edge probabilities; and
the community labels and the edge lists of ``generate``.  Run it on two checkouts and compare:

    PYTHONPATH=src python3 benchmarks/output_digests.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import io

import numpy as np

from citegen.baselines import (ErFit, fit_config, fit_sbm, generate_config,
                               generate_dcsbm, generate_er, generate_sbm)
from citegen.generator import CsParams, generate
from citegen.graph import (LabeledGraph, bfs_subsample, load_edge_list,
                           save_edge_list)
from citegen.metrics.battery import compare
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


def saved(graph):
    buf = io.StringIO()
    save_edge_list(graph, buf)
    return buf.getvalue()


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

    for key in sorted(out):
        print(key, out[key])


if __name__ == "__main__":
    main()
