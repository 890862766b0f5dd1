"""Command-line entry point wiring the package's workflows.

Every option can also be supplied through a JSON config file
(``--config``); explicit command-line flags override file values.  All
subcommands are deterministic under a fixed ``--seed``; when the seed is
omitted one is drawn from system entropy and printed to stderr.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from . import baselines
from . import bench as bench_mod
from . import neardag
from .estimation import estimate
from .generator import (CsParams, derive, empirical_ccdf, generate,
                        ks_to_pareto2, pareto2_ccdf)
from .graph import (GraphError, LabeledGraph, load_edge_list, load_labels,
                    load_timestamps, prune_unlabeled, save_edge_list,
                    save_labels)
from .metrics import MetricConfig, compare

BASELINE_NAMES = ("er", "config", "sbm", "dcsbm")


class UsageError(Exception):
    pass


class Options:
    """Merged view of command-line flags over JSON config file values."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = {}
        cfg = self.args.get("config")
        if cfg:
            path = _require_file(cfg, "config file")
            try:
                data = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file {path} is not valid JSON: {exc}")
            if not isinstance(data, dict):
                raise UsageError(f"config file {path} must hold a JSON object")
            self.file = {str(k).replace("-", "_"): v for k, v in data.items()}

    def get(self, name: str, default=None):
        value = self.args.get(name)
        if value is not None:
            return value
        if name in self.file:
            return self.file[name]
        return default

    def require(self, name: str, what: str):
        value = self.get(name)
        if value is None:
            raise UsageError(f"missing {what} (flag or config key {name!r})")
        return value


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _resolve_seed(value) -> int:
    if value is None:
        value = int(np.random.SeedSequence().entropy % (2 ** 63))
        print(f"seed: {value}", file=sys.stderr)
    return int(value)


def _load_graph(edges, labels=None, timestamps=None) -> LabeledGraph:
    graph, _ = load_edge_list(_require_file(edges, "edge list"))
    if labels is not None:
        label_map, community_names = load_labels(
            _require_file(labels, "labels file"), graph)
        before = graph.num_nodes
        graph = prune_unlabeled(graph, label_map, community_names)
        if graph.num_nodes < before:
            print(f"note: pruned {before - graph.num_nodes} unlabeled nodes",
                  file=sys.stderr)
    if timestamps is not None:
        ts_map = load_timestamps(_require_file(timestamps, "timestamps file"),
                                 graph)
        if len(ts_map) != graph.num_nodes:
            raise GraphError(
                f"timestamps cover {len(ts_map)} of {graph.num_nodes} nodes")
        arr = np.empty(graph.num_nodes, np.int64)
        for node, t in ts_map.items():
            arr[node] = t
        graph = dc_replace(graph, timestamps=arr)
    return graph


def _write_text(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _save_graph(graph: LabeledGraph, out, labels_out=None):
    if out is None or out == "-":
        save_edge_list(graph, sys.stdout)
    else:
        save_edge_list(graph, out)
    if labels_out is not None:
        if graph.labels is None:
            raise UsageError("this graph carries no community labels to save")
        save_labels(graph, labels_out)


def _pick_strategy(opts: Options, graph: LabeledGraph) -> str:
    strategy = opts.get("strategy")
    if strategy is None:
        strategy = "timestamps" if graph.timestamps is not None else "degree-diff"
    if strategy not in neardag.STRATEGIES:
        raise UsageError(f"unknown ordering strategy {strategy!r}; "
                         f"choose from {neardag.STRATEGIES}")
    return strategy


def _measured_ratio(opts: Options, graph: LabeledGraph) -> float:
    r = opts.get("r")
    if r is not None:
        return float(r)
    ordering = neardag.order_nodes(graph, _pick_strategy(opts, graph))
    return neardag.back_edge_ratio(graph, ordering)


# --- subcommands -----------------------------------------------------------


def cmd_fit(args) -> int:
    opts = Options(args)
    graph = _load_graph(opts.require("edges", "edge list path"),
                        opts.require("labels", "labels path"),
                        opts.get("timestamps"))
    fit = estimate(graph)
    ratio = _measured_ratio(opts, graph)
    doc = json.loads(fit.params.to_json())
    doc["n"] = graph.num_nodes
    doc["back_edge_ratio"] = ratio
    _write_text(opts.get("out"), json.dumps(doc, indent=2) + "\n")
    lines = ["community\tsize\tp_hat\tm_hat\tsigma2_hat\trho_hat\trho_raw\tclamped"]
    names = graph.community_names or tuple(str(c) for c in range(fit.params.k))
    for c in range(fit.params.k):
        clamped = bool(fit.clamped_low[c] or fit.clamped_high[c])
        lines.append(f"{names[c]}\t{int(fit.stats.sizes[c])}"
                     f"\t{float(fit.params.p[c])!r}\t{float(fit.params.m[c])!r}"
                     f"\t{float(fit.params.sigma2[c])!r}"
                     f"\t{float(fit.params.rho[c])!r}"
                     f"\t{float(fit.rho_raw[c])!r}\t{int(clamped)}")
    report = "\n".join(lines) + "\n"
    report_path = opts.get("report")
    if report_path is not None:
        _write_text(report_path, report)
    if fit.any_clamped:
        flagged = [names[c] for c in range(fit.params.k)
                   if fit.clamped_low[c] or fit.clamped_high[c]]
        print(f"note: rho estimate clamped for communities: {flagged}",
              file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    opts = Options(args)
    params_path = _require_file(opts.require("params", "parameter file"),
                                "parameter file")
    text = params_path.read_text()
    params = CsParams.from_json(text)
    doc = json.loads(text)
    n = opts.get("n", doc.get("n"))
    if n is None:
        raise UsageError("node count required (--n or config/params key 'n')")
    seed = _resolve_seed(opts.get("seed"))
    graph = generate(params, int(n), seed)
    dag_edges = graph.num_edges
    if not opts.get("dag_only", False):
        ratio = opts.get("back_ratio", doc.get("back_edge_ratio", 0.0))
        graph = neardag.inject_back_edges(graph, float(ratio),
                                          np.random.SeedSequence(seed, spawn_key=(1,)))
    print(f"generated {graph.num_nodes} nodes, {dag_edges} forward edges, "
          f"{graph.num_edges - dag_edges} back edges", file=sys.stderr)
    _save_graph(graph, opts.get("out"), opts.get("labels_out"))
    return 0


def cmd_decycle(args) -> int:
    opts = Options(args)
    graph = _load_graph(opts.require("edges", "edge list path"),
                        opts.get("labels"), opts.get("timestamps"))
    strategy = _pick_strategy(opts, graph)
    ratio = _measured_ratio(opts, graph)
    seed = _resolve_seed(opts.get("seed"))
    out_graph, report = neardag.cycle_break(graph, ratio, seed, strategy)
    print(f"decycled with strategy={report.strategy}: "
          f"{report.collapsed_edges} collapsed, {report.reversed_edges} "
          f"reversed, back-edge ratio {report.back_edge_ratio:.6f}",
          file=sys.stderr)
    _save_graph(out_graph, opts.get("out"), opts.get("labels_out"))
    return 0


def cmd_baseline(args) -> int:
    opts = Options(args)
    name = opts.require("name", "baseline name")
    if name not in BASELINE_NAMES:
        raise UsageError(f"unknown baseline {name!r}; "
                         f"choose from {BASELINE_NAMES}")
    graph = _load_graph(opts.require("edges", "edge list path"),
                        opts.get("labels"), opts.get("timestamps"))
    seed = _resolve_seed(opts.get("seed"))
    ss = np.random.SeedSequence(seed)
    s_gen, s_post = ss.spawn(2)
    if name == "er":
        synth = baselines.generate_er(baselines.fit_er(graph), s_gen)
    elif name == "config":
        synth, erased = baselines.generate_config(baselines.fit_config(graph),
                                                  s_gen)
        if erased:
            print(f"note: {erased} multi-edges erased", file=sys.stderr)
    elif name == "sbm":
        synth = baselines.generate_sbm(baselines.fit_sbm(graph), s_gen)
    else:
        synth = baselines.generate_dcsbm(baselines.fit_sbm(graph), s_gen)
    if opts.get("near_dag", False):
        ratio = _measured_ratio(opts, graph)
        strategy = opts.get("strategy", "degree-diff")
        if strategy == "timestamps":
            strategy = "degree-diff"
        synth, report = neardag.cycle_break(synth, ratio, s_post, strategy)
        print(f"near-DAG transform: {report.collapsed_edges} collapsed, "
              f"{report.reversed_edges} reversed, back-edge ratio "
              f"{report.back_edge_ratio:.6f}", file=sys.stderr)
    _save_graph(synth, opts.get("out"), opts.get("labels_out"))
    return 0


# metric flag -> MetricConfig field, besides --resolutions
_METRIC_FIELDS = {"pairs": "n_pairs", "sources": "n_sources",
                  "max_nodes": "max_nodes", "exact": "exact",
                  "triad_exact_limit": "triad_exact_limit",
                  "triad_samples": "triad_samples"}


def _metric_config(opts: Options, seed: int) -> MetricConfig:
    """MetricConfig defaults, overridden by the metric flags given."""
    config = MetricConfig(seed=seed)
    given = {field: type(getattr(config, field))(opts.get(flag))
             for flag, field in _METRIC_FIELDS.items()
             if opts.get(flag) is not None}
    resolutions = opts.get("resolutions")
    if resolutions is not None:
        if isinstance(resolutions, str):
            resolutions = resolutions.split(",")
        given["resolutions"] = tuple(float(x) for x in resolutions)
    return dc_replace(config, **given)


def cmd_compare(args) -> int:
    opts = Options(args)
    real = _load_graph(opts.require("real", "real edge list"),
                       opts.get("real_labels"))
    synth = _load_graph(opts.require("synth", "synthetic edge list"),
                        opts.get("synth_labels"))
    seed = _resolve_seed(opts.get("seed"))
    report = compare(real, synth, _metric_config(opts, seed))
    _write_text(opts.get("out"), report.to_tsv())
    return 0


def _parse_dataset_spec(spec: str):
    name, _, rest = spec.partition("=")
    if not name or not rest:
        raise UsageError(f"dataset spec must be NAME=EDGES[,LABELS[,TIMESTAMPS]]"
                         f", got {spec!r}")
    parts = rest.split(",")
    if len(parts) > 3:
        raise UsageError(f"too many fields in dataset spec {spec!r}")
    edges = parts[0]
    labels = parts[1] if len(parts) > 1 and parts[1] else None
    timestamps = parts[2] if len(parts) > 2 and parts[2] else None
    return name, edges, labels, timestamps


def cmd_bench(args) -> int:
    opts = Options(args)
    specs = opts.get("dataset") or opts.get("datasets")
    if not specs:
        raise UsageError("at least one --dataset NAME=EDGES[,LABELS[,TS]] "
                         "is required")
    if isinstance(specs, str):
        specs = [specs]
    datasets = {}
    for spec in specs:
        name, edges, labels, timestamps = _parse_dataset_spec(spec)
        if name in datasets:
            raise UsageError(f"duplicate dataset name {name!r}")
        datasets[name] = _load_graph(edges, labels, timestamps)
    methods = opts.get("methods", ",".join(bench_mod.METHODS))
    if isinstance(methods, str):
        methods = tuple(tok for tok in methods.split(",") if tok)
    else:
        methods = tuple(methods)
    seed = _resolve_seed(opts.get("seed"))
    defaults = bench_mod.BenchConfig
    try:
        config = bench_mod.BenchConfig(
            methods=methods,
            replicates=int(opts.get("replicates", defaults.replicates)),
            seed=seed,
            order_strategy=opts.get("order_strategy", defaults.order_strategy),
            metric=_metric_config(opts, 0),
            threads=int(opts.get("threads", defaults.threads)),
        )
    except bench_mod.BenchError as exc:
        raise UsageError(str(exc))
    result = bench_mod.run_bench(datasets, config)
    outdir = opts.get("outdir", "bench_out")
    written = bench_mod.write_artifacts(result, outdir, seed=seed)
    table, _ = result.non_endogenous_table()
    order = np.argsort(table.mean_ranks())
    print(f"wrote {', '.join(written)} to {outdir}")
    print("mean ranks (ground-truth community metrics excluded):")
    for m in order:
        print(f"  {table.methods[m]}\t{table.mean_ranks()[m]:.3f}")
    return 0


def cmd_validate_theory(args) -> int:
    opts = Options(args)
    rho = opts.get("rho", "0.2,0.5,0.9")
    if isinstance(rho, str):
        rho = tuple(float(tok) for tok in rho.split(","))
    else:
        rho = tuple(float(x) for x in rho)
    k = len(rho)
    if k == 0:
        raise UsageError("need at least one rho value")
    n = int(opts.get("n", 30_000))
    m = float(opts.get("m", 5.0))
    sigma2 = float(opts.get("sigma2", m))
    seed = _resolve_seed(opts.get("seed"))
    params = CsParams(p=np.full(k, 1.0 / k), m=np.full(k, m),
                      rho=np.array(rho), sigma2=np.full(k, sigma2))
    graph = generate(params, n, seed)
    derived = derive(params)
    indeg = graph.d_in
    lines = ["rho\tdegree\tempirical_ccdf\ttheoretical_ccdf\tks\tks_bulk99"]
    summaries = []
    for c in range(k):
        members = np.flatnonzero(graph.labels == c)
        degs = indeg[members]
        nu = float(derived.nu[c])
        ks_full, _ = ks_to_pareto2(degs, nu, derived.mean_accidental)
        ks_bulk, _ = ks_to_pareto2(degs, nu, derived.mean_accidental,
                                   bulk_quantile=0.99)
        support, emp = empirical_ccdf(degs)
        theory = pareto2_ccdf(support, nu, derived.mean_accidental)
        for j, e, t in zip(support, emp, theory):
            lines.append(f"{rho[c]!r}\t{int(j)}\t{float(e)!r}"
                         f"\t{float(t)!r}\t{ks_full!r}\t{ks_bulk!r}")
        summaries.append(f"rho={rho[c]}: nodes={degs.size} "
                         f"ks={ks_full:.4f} ks_bulk99={ks_bulk:.4f}")
    _write_text(opts.get("out"), "\n".join(lines) + "\n")
    for line in summaries:
        print(line, file=sys.stderr)
    return 0


# --- parser ----------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", help="JSON file supplying defaults for any flag")
    sp.add_argument("--seed", type=int, default=None)


def _add_metric_flags(sp):
    sp.add_argument("--pairs", type=int, default=None,
                    help="sampled node pairs for distance metrics "
                         f"(default {MetricConfig.n_pairs})")
    sp.add_argument("--sources", type=int, default=None,
                    help="BFS sources for betweenness/reachability "
                         f"(default {MetricConfig.n_sources})")
    sp.add_argument("--max-nodes", type=int, default=None,
                    help=f"BFS subsample cap (default {MetricConfig.max_nodes})")
    sp.add_argument("--triad-samples", type=int, default=None)
    sp.add_argument("--triad-exact-limit", type=int, default=None,
                    help="largest node count with an exact triad census "
                         f"(default {MetricConfig.triad_exact_limit})")
    sp.add_argument("--exact", action="store_const", const=True, default=None,
                    help="exhaustive distances, triads, and betweenness")
    sp.add_argument("--resolutions", default=None,
                    help="comma-separated detector resolutions (default "
                         f"{','.join(map(str, MetricConfig.resolutions))})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citegen",
        description="Generate, transform, and benchmark citation-like graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit", help="estimate generator parameters from a graph")
    sp.add_argument("edges", nargs="?", default=None)
    sp.add_argument("--labels", default=None)
    sp.add_argument("--timestamps", default=None)
    sp.add_argument("--strategy", default=None, choices=neardag.STRATEGIES,
                    help="node ordering for the back-edge ratio")
    sp.add_argument("--out", default=None, help="parameter JSON path (default stdout)")
    sp.add_argument("--report", default=None, help="per-community TSV report path")
    _add_common(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("generate", help="sample a graph from fitted parameters")
    sp.add_argument("params", nargs="?", default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--back-ratio", type=float, default=None,
                    help="override the fitted back-edge ratio")
    sp.add_argument("--dag-only", action="store_const", const=True,
                    default=None, help="skip back-edge injection")
    sp.add_argument("--out", default=None)
    sp.add_argument("--labels-out", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("decycle", help="reorient a graph into a near-DAG")
    sp.add_argument("edges", nargs="?", default=None)
    sp.add_argument("--labels", default=None)
    sp.add_argument("--timestamps", default=None)
    sp.add_argument("--strategy", default=None, choices=neardag.STRATEGIES)
    sp.add_argument("--r", type=float, default=None,
                    help="target back-edge ratio (default: measured)")
    sp.add_argument("--out", default=None)
    sp.add_argument("--labels-out", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_decycle)

    sp = sub.add_parser("baseline", help="fit and sample a classical generator")
    sp.add_argument("name", nargs="?", default=None,
                    help=f"one of {', '.join(BASELINE_NAMES)}")
    sp.add_argument("edges", nargs="?", default=None)
    sp.add_argument("--labels", default=None)
    sp.add_argument("--timestamps", default=None)
    sp.add_argument("--near-dag", action="store_const", const=True, default=None,
                    help="apply cycle breaking at the measured back-edge ratio")
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--strategy", default=None, choices=neardag.STRATEGIES)
    sp.add_argument("--out", default=None)
    sp.add_argument("--labels-out", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_baseline)

    sp = sub.add_parser("compare", help="score a synthetic graph against a real one")
    sp.add_argument("real", nargs="?", default=None)
    sp.add_argument("synth", nargs="?", default=None)
    sp.add_argument("--real-labels", default=None)
    sp.add_argument("--synth-labels", default=None)
    sp.add_argument("--out", default=None, help="metric report TSV (default stdout)")
    _add_metric_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("bench", help="rank generators across datasets")
    sp.add_argument("--dataset", action="append", default=None,
                    metavar="NAME=EDGES[,LABELS[,TIMESTAMPS]]")
    sp.add_argument("--methods", default=None,
                    help=f"comma-separated subset of {', '.join(bench_mod.METHODS)}")
    sp.add_argument("--replicates", type=int, default=None,
                    help="replicates per method and dataset (default "
                         f"{bench_mod.BenchConfig.replicates})")
    sp.add_argument("--outdir", default=None)
    sp.add_argument("--threads", type=int, default=None,
                    help="worker threads (default "
                         f"{bench_mod.BenchConfig.threads})")
    sp.add_argument("--order-strategy", default=None,
                    choices=("degree-diff", "eades"),
                    help="node ordering that measures each dataset's "
                         "back-edge ratio when it has no timestamps; -nd "
                         "replicates are always cycle-broken with "
                         "degree-diff (default "
                         f"{bench_mod.BenchConfig.order_strategy})")
    _add_metric_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("validate-theory",
                        help="compare generated in-degree tails to the "
                             "closed-form law")
    sp.add_argument("--rho", default=None,
                    help="comma-separated per-community preferential "
                         "fractions (default 0.2,0.5,0.9)")
    sp.add_argument("--n", type=int, default=None, help="node count (default 30000)")
    sp.add_argument("--m", type=float, default=None,
                    help="mean out-degree (default 5)")
    sp.add_argument("--sigma2", type=float, default=None,
                    help="out-degree variance (default: equal to m)")
    sp.add_argument("--out", default=None, help="CCDF table TSV (default stdout)")
    _add_common(sp)
    sp.set_defaults(func=cmd_validate_theory)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if os.environ.get("CITEGEN_DEBUG"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
