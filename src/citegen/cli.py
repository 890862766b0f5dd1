"""Command-line entry point wiring the package's workflows.

Every option can also be supplied through a JSON config file
(``--config``).  The file's values become the parser's defaults, so an
explicit flag beats a config value, which beats the declared default, and a
config value of ``null`` counts as not given.  Every subcommand but ``fit``,
which draws nothing at random, takes ``--seed`` and is deterministic under
it; when the seed is omitted one is drawn from system entropy and printed to
stderr.  ``fit``, ``generate`` and ``baseline`` run the benchmark's own
``fit_methods`` and ``realize``; the latter two write the replicate that
``realize`` makes under ``SeedSequence(seed)``.

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

from . import bench as bench_mod
from . import neardag
from .estimation import estimate
from .generator import (CsParams, ParamError, derive, empirical_ccdf,
                        generate, ks_to_pareto2, pareto2_ccdf)
from .graph import (GraphError, LabeledGraph, load_edge_list, load_labels,
                    load_timestamps, prune_unlabeled, save_edge_list,
                    save_labels)
from .metrics import MetricConfig, compare

BASELINE_NAMES = ("er", "config", "sbm", "dcsbm")


class UsageError(Exception):
    pass


def _load_config(path) -> dict:
    """A JSON config file's keys, dashes read as underscores, without those
    whose value is null (not given); {} without a file."""
    if not path:
        return {}
    path = _require_file(path, "config file")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in data.items()
            if v is not None}


def _require(args, name: str, what: str):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"missing {what} (flag or config key {name!r})")
    return value


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _listed(value, cast, split=True) -> tuple:
    """A JSON list, or a string of comma-separated items (one item unless
    ``split``), each passed through ``cast``."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok] if split else [value]
    return tuple(cast(v) for v in value)


def _resolve_seed(value) -> int:
    """The given seed, or one drawn from entropy and printed to stderr when
    it is None.  A config file's non-string seed skips the flag's
    ``type=int``, so the type is checked here."""
    if value is None:
        value = int(np.random.SeedSequence().entropy % (2 ** 63))
        print(f"seed: {value}", file=sys.stderr)
    if type(value) is not int or value < 0:
        raise UsageError(f"seed must be a non-negative integer, got {value!r}")
    return value


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


def _back_ratio(value) -> float:
    """``value`` as a back-edge ratio; outside neardag's range it is a
    usage error."""
    ratio = float(value)
    try:
        neardag.back_edge_count(0, ratio)
    except neardag.NearDagError as exc:
        raise UsageError(str(exc))
    return ratio


def _pick_strategy(args, graph: LabeledGraph) -> str:
    strategy = (neardag.age_strategy(graph) if args.strategy is None
                else args.strategy)
    if strategy not in neardag.STRATEGIES:
        raise UsageError(f"unknown ordering strategy {strategy!r}; "
                         f"choose from {neardag.STRATEGIES}")
    if strategy == "timestamps" and graph.timestamps is None:
        raise UsageError("the timestamps strategy needs node timestamps "
                         "(--timestamps)")
    return strategy


# --- subcommands -----------------------------------------------------------


def cmd_fit(args) -> int:
    graph = _load_graph(_require(args, "edges", "edge list path"),
                        _require(args, "labels", "labels path"),
                        args.timestamps)
    fits = bench_mod.fit_methods(graph, (), _pick_strategy(args, graph))
    # the estimate fit_methods makes for "cs", kept whole for the report
    fit = estimate(graph)
    doc = json.loads(fit.params.to_json())
    doc["n"] = fits.n
    doc["back_edge_ratio"] = fits.back_ratio
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
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
    if args.report is not None:
        _write_text(args.report, report)
    if fit.any_clamped:
        flagged = [names[c] for c in range(fit.params.k)
                   if fit.clamped_low[c] or fit.clamped_high[c]]
        print(f"note: rho estimate clamped for communities: {flagged}",
              file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    params_path = _require_file(_require(args, "params", "parameter file"),
                                "parameter file")
    text = params_path.read_text()
    doc = json.loads(text)
    n = doc.get("n") if args.n is None else args.n
    if n is None:
        raise UsageError("node count required (--n or config/params key 'n')")
    ratio = (doc.get("back_edge_ratio", 0.0) if args.back_ratio is None
             else _back_ratio(args.back_ratio))
    fits = bench_mod.MethodFits(n=int(n), back_ratio=float(ratio),
                                cs_params=CsParams.from_json(text))
    seed = _resolve_seed(args.seed)
    try:
        graph = bench_mod.realize("cs-dag" if args.dag_only else "cs", fits,
                                  np.random.SeedSequence(seed))
    except ParamError as exc:  # a node count below the community count
        raise UsageError(str(exc))
    # generated edges cite older (smaller) ids, injected ones newer ids
    back = int(np.count_nonzero(graph.src < graph.dst))
    print(f"generated {graph.num_nodes} nodes, {graph.num_edges - back} "
          f"forward edges, {back} back edges", file=sys.stderr)
    _save_graph(graph, args.out, args.labels_out)
    return 0


def cmd_decycle(args) -> int:
    graph = _load_graph(_require(args, "edges", "edge list path"),
                        args.labels, args.timestamps)
    strategy = _pick_strategy(args, graph)
    ratio = (bench_mod.fit_methods(graph, (), strategy).back_ratio
             if args.r is None else _back_ratio(args.r))
    seed = _resolve_seed(args.seed)
    out_graph, report = neardag.cycle_break(graph, ratio, seed, strategy)
    print(f"decycled with strategy={report.strategy}: "
          f"{report.collapsed_edges} collapsed, {report.reversed_edges} "
          f"reversed, back-edge ratio {report.back_edge_ratio:.6f}",
          file=sys.stderr)
    _save_graph(out_graph, args.out, args.labels_out)
    return 0


def cmd_baseline(args) -> int:
    name = _require(args, "name", "baseline name")
    if name not in BASELINE_NAMES:
        raise UsageError(f"unknown baseline {name!r}; "
                         f"choose from {BASELINE_NAMES}")
    graph = _load_graph(_require(args, "edges", "edge list path"),
                        args.labels, args.timestamps)
    seed = _resolve_seed(args.seed)
    method = name + "-nd" if args.near_dag else name
    fits = bench_mod.fit_methods(graph, (method,), _pick_strategy(args, graph))
    if args.r is not None:
        fits.back_ratio = _back_ratio(args.r)
    synth = bench_mod.realize(method, fits, np.random.SeedSequence(seed))
    _save_graph(synth, args.out, args.labels_out)
    return 0


# metric flag -> (MetricConfig field, help); --exact and --resolutions aside
_METRIC_FLAGS = {
    "pairs": ("n_pairs", "sampled node pairs for distance metrics"),
    "sources": ("n_sources", "BFS sources for betweenness/reachability"),
    "max_nodes": ("max_nodes", "BFS subsample cap"),
    "triad_samples": ("triad_samples", "sampled triads of the triad census"),
    "triad_exact_limit": ("triad_exact_limit",
                          "largest node count with an exact triad census"),
}


def _metric_config(args, seed: int) -> MetricConfig:
    try:
        return MetricConfig(
            seed=seed, exact=bool(args.exact),
            resolutions=_listed(args.resolutions, float),
            **{field: int(getattr(args, flag))
               for flag, (field, _) in _METRIC_FLAGS.items()})
    except ValueError as exc:  # a MetricError, or a value that is no number
        raise UsageError(str(exc))


def cmd_compare(args) -> int:
    real = _load_graph(_require(args, "real", "real edge list"),
                       args.real_labels)
    synth = _load_graph(_require(args, "synth", "synthetic edge list"),
                        args.synth_labels)
    seed = _resolve_seed(args.seed)
    report = compare(real, synth, _metric_config(args, seed))
    _write_text(args.out, report.to_tsv())
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
    specs = args.dataset or args.datasets
    if not specs:
        raise UsageError("at least one --dataset NAME=EDGES[,LABELS[,TS]] "
                         "is required")
    datasets = {}
    for name, edges, labels, timestamps in _listed(
            specs, _parse_dataset_spec, split=False):
        if name in datasets:
            raise UsageError(f"duplicate dataset name {name!r}")
        datasets[name] = _load_graph(edges, labels, timestamps)
    seed = _resolve_seed(args.seed)
    try:
        config = bench_mod.BenchConfig(
            methods=_listed(args.methods, str),
            replicates=int(args.replicates),
            seed=seed,
            order_strategy=args.order_strategy,
            metric=_metric_config(args, 0),
            threads=int(args.threads),
        )
    except bench_mod.BenchError as exc:
        raise UsageError(str(exc))
    result = bench_mod.run_bench(datasets, config)
    written = bench_mod.write_artifacts(result, args.outdir, seed=seed)
    table, _ = result.tables["_non_endogenous"]
    mean_ranks = table.mean_ranks()
    print(f"wrote {', '.join(written)} to {args.outdir}")
    print("mean ranks (ground-truth community metrics excluded):")
    for m in np.argsort(mean_ranks):
        print(f"  {table.methods[m]}\t{mean_ranks[m]:.3f}")
    return 0


def cmd_validate_theory(args) -> int:
    rho = _listed(args.rho, float)
    k = len(rho)
    if k == 0:
        raise UsageError("need at least one rho value")
    n = int(args.n)
    m = float(args.m)
    sigma2 = m if args.sigma2 is None else float(args.sigma2)
    seed = _resolve_seed(args.seed)
    try:
        params = CsParams(p=np.full(k, 1.0 / k), m=np.full(k, m),
                          rho=np.array(rho), sigma2=np.full(k, sigma2))
        graph = generate(params, n, seed)
    except ParamError as exc:  # the model's own bounds on the flags
        raise UsageError(str(exc))
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
    _write_text(args.out, "\n".join(lines) + "\n")
    for line in summaries:
        print(line, file=sys.stderr)
    return 0


# --- parser ----------------------------------------------------------------


class _ReplaceDefault(argparse.Action):
    """``append``, except that the first flag replaces the default.

    So ``--dataset`` flags replace a config file's datasets, whether the
    file lists them or gives one string.
    """

    def __call__(self, parser, namespace, value, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest,
                [value] if items is self.default else [*items, value])


def _add_graph_args(sp):
    """The edge list, its labels and timestamps, and its age ordering."""
    sp.add_argument("edges", nargs="?")
    sp.add_argument("--labels")
    sp.add_argument("--timestamps")
    sp.add_argument("--strategy", choices=neardag.STRATEGIES,
                    help="node age ordering (default: timestamps when the "
                         "graph has them, else degree-diff)")


def _add_graph_out_args(sp):
    sp.add_argument("--out", help="edge list path (default stdout)")
    sp.add_argument("--labels-out")


def _add_metric_flags(sp):
    for flag, (field, text) in _METRIC_FLAGS.items():
        sp.add_argument("--" + flag.replace("_", "-"), type=int,
                        default=getattr(MetricConfig, field),
                        help=text + " (default %(default)s)")
    sp.add_argument("--exact", action="store_true", default=MetricConfig.exact,
                    help="exhaustive distances, triads, and betweenness")
    sp.add_argument("--resolutions",
                    default=",".join(map(str, MetricConfig.resolutions)),
                    help="comma-separated detector resolutions "
                         "(default %(default)s)")


def build_parser(defaults=None) -> argparse.ArgumentParser:
    """The citegen parser; ``defaults`` (a config file's values, by key)
    replace every subcommand's declared defaults."""
    parser = argparse.ArgumentParser(
        prog="citegen",
        description="Generate, transform, and benchmark citation-like graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit", help="estimate generator parameters from a graph")
    _add_graph_args(sp)
    sp.add_argument("--out", help="parameter JSON path (default stdout)")
    sp.add_argument("--report", help="per-community TSV report path")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("generate", help="sample a graph from fitted parameters")
    sp.add_argument("params", nargs="?")
    sp.add_argument("--n", type=int,
                    help="node count (default: the parameter file's n)")
    sp.add_argument("--back-ratio", type=float,
                    help="override the fitted back-edge ratio")
    sp.add_argument("--dag-only", action="store_true",
                    help="skip back-edge injection")
    _add_graph_out_args(sp)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("decycle", help="reorient a graph into a near-DAG")
    _add_graph_args(sp)
    sp.add_argument("--r", type=float,
                    help="target back-edge ratio (default: measured)")
    _add_graph_out_args(sp)
    sp.set_defaults(func=cmd_decycle)

    sp = sub.add_parser("baseline", help="fit and sample a classical generator")
    sp.add_argument("name", nargs="?",
                    help=f"one of {', '.join(BASELINE_NAMES)}")
    _add_graph_args(sp)
    sp.add_argument("--near-dag", action="store_true",
                    help="apply degree-diff cycle breaking at the measured "
                         "back-edge ratio")
    sp.add_argument("--r", type=float,
                    help="back-edge ratio of --near-dag (default: measured)")
    _add_graph_out_args(sp)
    sp.set_defaults(func=cmd_baseline)

    sp = sub.add_parser("compare", help="score a synthetic graph against a real one")
    sp.add_argument("real", nargs="?")
    sp.add_argument("synth", nargs="?")
    sp.add_argument("--real-labels")
    sp.add_argument("--synth-labels")
    sp.add_argument("--out", help="metric report TSV (default stdout)")
    _add_metric_flags(sp)
    sp.set_defaults(func=cmd_compare)

    bench_config = bench_mod.BenchConfig
    sp = sub.add_parser("bench", help="rank generators across datasets")
    sp.add_argument("--dataset", action=_ReplaceDefault,
                    metavar="NAME=EDGES[,LABELS[,TIMESTAMPS]]",
                    help="a dataset to rank on; repeatable, and replaces "
                         "the config file's datasets")
    sp.add_argument("--methods", default=",".join(bench_config.methods),
                    help="comma-separated methods (default %(default)s)")
    sp.add_argument("--replicates", type=int, default=bench_config.replicates,
                    help="replicates per method and dataset "
                         "(default %(default)s)")
    sp.add_argument("--outdir", default="bench_out",
                    help="artifact directory (default %(default)s)")
    sp.add_argument("--threads", type=int, default=bench_config.threads,
                    help="worker threads (default %(default)s)")
    sp.add_argument("--order-strategy", default=bench_config.order_strategy,
                    choices=bench_mod.ORDER_STRATEGIES,
                    help="node ordering that measures each dataset's "
                         "back-edge ratio when it has no timestamps; -nd "
                         "replicates are always cycle-broken with "
                         "degree-diff (default %(default)s)")
    _add_metric_flags(sp)
    # datasets, a list of --dataset specs, is a config-only key
    sp.set_defaults(func=cmd_bench, datasets=None)

    sp = sub.add_parser("validate-theory",
                        help="compare generated in-degree tails to the "
                             "closed-form law")
    sp.add_argument("--rho", default="0.2,0.5,0.9",
                    help="comma-separated per-community preferential "
                         "fractions (default %(default)s)")
    sp.add_argument("--n", type=int, default=30_000,
                    help="node count (default %(default)s)")
    sp.add_argument("--m", type=float, default=5.0,
                    help="mean out-degree (default %(default)s)")
    sp.add_argument("--sigma2", type=float,
                    help="out-degree variance (default: equal to m)")
    sp.add_argument("--out", help="CCDF table TSV (default stdout)")
    sp.set_defaults(func=cmd_validate_theory)

    file = {k: v for k, v in (defaults or {}).items() if k != "func"}
    for name, sp in sub.choices.items():
        sp.add_argument("--config",
                        help="JSON file supplying defaults for any flag")
        if name != "fit":  # the only subcommand that draws nothing
            sp.add_argument("--seed", type=int)
        sp.set_defaults(**file)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    try:
        defaults = _load_config(pre.parse_known_args(argv)[0].config)
        args = build_parser(defaults).parse_args(argv)
        return args.func(args)
    except (UsageError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if os.environ.get("CITEGEN_DEBUG"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
