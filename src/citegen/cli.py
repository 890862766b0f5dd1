"""Command-line entry point wiring the package's workflows.

Every option can also be supplied through a JSON config file
(``--config``), keyed by its name.  The chosen subcommand parses a file
value as its flag's text: a list joins its items with commas (each is one
``--dataset`` spec), and a switch takes only ``true`` or ``false``.  An
explicit flag beats a config value, which beats the declared default; a
``null`` counts as not given, and a key that is no option of any
subcommand is a usage error.  Every subcommand but ``fit``, which draws
nothing at random, takes ``--seed`` and is deterministic under it; when
the seed is omitted one is drawn from system entropy and printed to
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
from .metrics import MetricConfig, MetricError, compare

BASELINE_NAMES = ("er", "config", "sbm", "dcsbm")


class UsageError(Exception):
    pass


def _load_config(path) -> dict:
    """A JSON config file's keys, dashes read as underscores, without those
    whose value is null (not given); {} without a file.  ``_parse_args``
    parses each value with its option's own action."""
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


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _names(text: str) -> tuple:
    """The comma-separated items of ``text``, empty ones dropped."""
    return tuple(item for item in text.split(",") if item)


def _floats(text: str) -> tuple:
    """The comma-separated numbers of ``text``."""
    try:
        return tuple(map(float, _names(text)))
    except ValueError as exc:  # argparse alone would not say which item
        raise argparse.ArgumentTypeError(str(exc))


def _seed(text: str) -> int:
    """The ``--seed`` text as a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return int(text)


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


def _back_ratio(ratio: float) -> float:
    """``ratio``, a back-edge ratio; outside neardag's range it is a usage
    error."""
    try:
        neardag.back_edge_count(0, ratio)
    except neardag.NearDagError as exc:
        raise UsageError(str(exc))
    return ratio


def _pick_strategy(args, graph: LabeledGraph) -> str:
    strategy = (neardag.age_strategy(graph) if args.strategy is None
                else args.strategy)
    if strategy == "timestamps" and graph.timestamps is None:
        raise UsageError("the timestamps strategy needs node timestamps "
                         "(--timestamps)")
    return strategy


# --- subcommands -----------------------------------------------------------


def cmd_fit(args) -> int:
    if args.labels is None:
        raise UsageError("fit needs community labels (--labels)")
    graph = _load_graph(args.edges, args.labels, args.timestamps)
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
    params_path = _require_file(args.params, "parameter file")
    text = params_path.read_text()
    doc = json.loads(text)
    n = doc.get("n") if args.n is None else args.n
    if n is None:
        raise UsageError("node count required (--n or config/params key 'n')")
    ratio = (doc.get("back_edge_ratio", 0.0) if args.back_ratio is None
             else _back_ratio(args.back_ratio))
    fits = bench_mod.MethodFits(n=n, back_ratio=ratio,
                                cs_params=CsParams.from_json(text))
    try:
        graph = bench_mod.realize("cs-dag" if args.dag_only else "cs", fits,
                                  np.random.SeedSequence(args.seed))
    except ParamError as exc:  # a node count below the community count
        raise UsageError(str(exc))
    # generated edges cite older (smaller) ids, injected ones newer ids
    back = int(np.count_nonzero(graph.src < graph.dst))
    print(f"generated {graph.num_nodes} nodes, {graph.num_edges - back} "
          f"forward edges, {back} back edges", file=sys.stderr)
    _save_graph(graph, args.out, args.labels_out)
    return 0


def cmd_decycle(args) -> int:
    graph = _load_graph(args.edges, args.labels, args.timestamps)
    strategy = _pick_strategy(args, graph)
    ratio = (bench_mod.fit_methods(graph, (), strategy).back_ratio
             if args.r is None else _back_ratio(args.r))
    out_graph, report = neardag.cycle_break(graph, ratio, args.seed, strategy)
    print(f"decycled with strategy={report.strategy}: "
          f"{report.collapsed_edges} collapsed, {report.reversed_edges} "
          f"reversed, back-edge ratio {report.back_edge_ratio:.6f}",
          file=sys.stderr)
    _save_graph(out_graph, args.out, args.labels_out)
    return 0


def cmd_baseline(args) -> int:
    graph = _load_graph(args.edges, args.labels, args.timestamps)
    method = args.name + "-nd" if args.near_dag else args.name
    fits = bench_mod.fit_methods(graph, (method,), _pick_strategy(args, graph))
    if args.r is not None:
        fits.back_ratio = _back_ratio(args.r)
    synth = bench_mod.realize(method, fits, np.random.SeedSequence(args.seed))
    _save_graph(synth, args.out, args.labels_out)
    return 0


# metric flag -> (MetricConfig field, help); --exact and --resolutions aside
_METRIC_FLAGS = {
    "sources": ("n_sources",
                "BFS sources for the distance, reachability and betweenness "
                "rows"),
    "max_nodes": ("max_nodes", "BFS subsample cap"),
    "triad_samples": ("triad_samples", "sampled triads of the triad census"),
    "triad_exact_limit": ("triad_exact_limit",
                          "largest node count with an exact triad census"),
}


def _metric_config(args, seed: int) -> MetricConfig:
    try:
        return MetricConfig(
            seed=seed, exact=args.exact, resolutions=args.resolutions,
            **{field: getattr(args, flag)
               for flag, (field, _) in _METRIC_FLAGS.items()})
    except MetricError as exc:
        raise UsageError(str(exc))


def cmd_compare(args) -> int:
    real = _load_graph(args.real, args.real_labels)
    synth = _load_graph(args.synth, args.synth_labels)
    report = compare(real, synth, _metric_config(args, args.seed))
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
    if not args.dataset:
        raise UsageError("at least one --dataset NAME=EDGES[,LABELS[,TS]] "
                         "is required")
    datasets = {}
    for name, edges, labels, timestamps in map(_parse_dataset_spec,
                                                args.dataset):
        if name in datasets:
            raise UsageError(f"duplicate dataset name {name!r}")
        datasets[name] = _load_graph(edges, labels, timestamps)
    try:
        config = bench_mod.BenchConfig(
            methods=args.methods,
            replicates=args.replicates,
            seed=args.seed,
            order_strategy=args.order_strategy,
            metric=_metric_config(args, 0),
            threads=args.threads,
        )
    except bench_mod.BenchError as exc:
        raise UsageError(str(exc))
    result = bench_mod.run_bench(datasets, config)
    written = bench_mod.write_artifacts(result, args.outdir, seed=args.seed)
    table, _ = result.tables["_non_endogenous"]
    mean_ranks = table.mean_ranks()
    print(f"wrote {', '.join(written)} to {args.outdir}")
    print("mean ranks (ground-truth community metrics excluded):")
    for m in np.argsort(mean_ranks):
        print(f"  {table.methods[m]}\t{mean_ranks[m]:.3f}")
    return 0


def cmd_validate_theory(args) -> int:
    rho = args.rho
    k = len(rho)
    if k == 0:
        raise UsageError("need at least one rho value")
    sigma2 = args.m if args.sigma2 is None else args.sigma2
    try:
        params = CsParams(p=np.full(k, 1.0 / k), m=np.full(k, args.m),
                          rho=np.array(rho), sigma2=np.full(k, sigma2))
        graph = generate(params, args.n, args.seed)
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


def _add_graph_args(sp):
    """The edge list, its labels and timestamps, and its age ordering."""
    sp.add_argument("edges")
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
    sp.add_argument("--resolutions", type=_floats,
                    default=",".join(map(str, MetricConfig.resolutions)),
                    help="comma-separated detector resolutions "
                         "(default %(default)s)")


def build_parser():
    """The citegen parser and its subcommands' parsers, by name; a value
    they reject raises ``argparse.ArgumentError``, a usage error."""
    parser = argparse.ArgumentParser(
        prog="citegen", exit_on_error=False,
        description="Generate, transform, and benchmark citation-like graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit", help="estimate generator parameters from a graph")
    _add_graph_args(sp)
    sp.add_argument("--out", help="parameter JSON path (default stdout)")
    sp.add_argument("--report", help="per-community TSV report path")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("generate", help="sample a graph from fitted parameters")
    sp.add_argument("params")
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
    sp.add_argument("name", choices=BASELINE_NAMES)
    _add_graph_args(sp)
    sp.add_argument("--near-dag", action="store_true",
                    help="apply degree-diff cycle breaking at the measured "
                         "back-edge ratio")
    sp.add_argument("--r", type=float,
                    help="back-edge ratio of --near-dag (default: measured)")
    _add_graph_out_args(sp)
    sp.set_defaults(func=cmd_baseline)

    sp = sub.add_parser("compare", help="score a synthetic graph against a real one")
    sp.add_argument("real")
    sp.add_argument("synth")
    sp.add_argument("--real-labels")
    sp.add_argument("--synth-labels")
    sp.add_argument("--out", help="metric report TSV (default stdout)")
    _add_metric_flags(sp)
    sp.set_defaults(func=cmd_compare)

    bench_config = bench_mod.BenchConfig
    sp = sub.add_parser("bench", help="rank generators across datasets")
    sp.add_argument("--dataset", action="append",
                    metavar="NAME=EDGES[,LABELS[,TIMESTAMPS]]",
                    help="a dataset to rank on; repeatable, and replaces "
                         "the config file's datasets")
    sp.add_argument("--methods", type=_names,
                    default=",".join(bench_config.methods),
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
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("validate-theory",
                        help="compare generated in-degree tails to the "
                             "closed-form law")
    sp.add_argument("--rho", type=_floats, default="0.2,0.5,0.9",
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

    for name, sp in sub.choices.items():
        sp.exit_on_error = False
        sp.add_argument("--config",
                        help="JSON file supplying defaults for any flag")
        if name != "fit":  # the only subcommand that draws nothing
            sp.add_argument("--seed", type=_seed)
    return parser, sub.choices


def _config_value(sp, action, value):
    """A config file's ``value`` for ``action`` of subcommand parser ``sp``,
    parsed as its flag's text (a list joins its items with commas, or gives
    one to each repeat of an ``append`` flag); a switch takes true or false."""
    if action.nargs == 0:  # a switch
        if isinstance(value, bool):
            return value
        raise UsageError(f"config key {action.dest!r} takes true or false, "
                         f"got {value!r}")
    texts = [item if isinstance(item, str) else json.dumps(item)
             for item in (value if isinstance(value, list) else [value])]
    try:  # argparse's own type-and-choices step; it has no public one
        if isinstance(action, argparse._AppendAction):
            return [sp._get_values(action, [text]) for text in texts]
        return sp._get_values(action, [",".join(texts)])
    except argparse.ArgumentError as exc:
        raise UsageError(f"config key {action.dest!r}: {exc}")


def _parse_args(argv) -> argparse.Namespace:
    """``argv`` parsed; each option of the chosen subcommand that no flag
    gives takes its ``--config`` file value, else its default.  The only
    reader of a config file's values, and the seed's one resolution."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    config = _load_config(pre.parse_known_args(argv)[0].config)
    parser, subcommands = build_parser()
    actions = [action for sp in subcommands.values() for action in sp._actions]
    unknown = sorted(config.keys() - {action.dest for action in actions})
    if unknown:
        raise UsageError(f"config keys {unknown} are options of no subcommand")
    for action in actions:
        if action.dest in config:  # only a flag sets it while parsing
            action.default, action.required = argparse.SUPPRESS, False
            if action.help:  # --help cannot show a SUPPRESS default
                action.help = action.help.replace("%(default)s", "in --config")
    args = parser.parse_args(argv)
    sp = subcommands[args.command]
    for action in sp._actions:
        if action.dest in config and not hasattr(args, action.dest):
            setattr(args, action.dest,
                    _config_value(sp, action, config[action.dest]))
    if getattr(args, "seed", 0) is None:  # every subcommand but fit
        args.seed = int(np.random.SeedSequence().entropy % (2 ** 63))
        print(f"seed: {args.seed}", file=sys.stderr)
    return args


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (UsageError, argparse.ArgumentError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if os.environ.get("CITEGEN_DEBUG"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
