"""Benchmark harness: fit every method to each dataset, generate replicate
graphs, score them with the metric battery, and rank the methods.

A "block" is one (dataset, metric) pair.  Within a block each method is
ranked by its mean distance over replicates; blocks where any method is
missing a value (for example ground-truth community metrics for generators
that emit no labels) drop out of the ranking with a warning.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import baselines, neardag
from .estimation import estimate
from .generator import CsParams, generate
from .graph import LabeledGraph
from .metrics import MetricConfig, distance, metric_schema, profiles
from .metrics.communities import union_capacity
from .stats import (RankTable, StatsError, bootstrap_ci, friedman,
                    rank_blocks, wtl_matrix)

log = logging.getLogger(__name__)

METHODS = ("cs", "cs-dag", "er", "er-nd", "config", "config-nd",
           "sbm", "sbm-nd", "dcsbm", "dcsbm-nd")
ORDER_STRATEGIES = ("degree-diff", "eades")
ENDOGENOUS_CATEGORY = "meso-endogenous"


class BenchError(ValueError):
    pass


@dataclass(frozen=True)
class BenchConfig:
    """Grid and seeds of one benchmark run.

    ``order_strategy`` is the node ordering that measures a dataset's
    back-edge ratio when the dataset has no timestamps: ``run_bench``
    resolves it per dataset with ``neardag.age_strategy`` and hands the
    result to ``fit_methods``.  It does not affect cycle breaking:
    ``realize`` always breaks the ``-nd`` replicates with ``degree-diff``.
    ``methods`` must name at least two distinct methods, for the ranking.
    """

    methods: Tuple[str, ...] = METHODS
    replicates: int = 50
    seed: int = 0
    order_strategy: str = "degree-diff"
    metric: MetricConfig = field(default_factory=MetricConfig)
    threads: int = 1

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise BenchError(f"unknown methods: {unknown}; known: {METHODS}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise BenchError(f"methods named more than once: {repeated}")
        if len(self.methods) < 2:
            raise BenchError(f"ranking needs at least 2 methods, got "
                             f"{len(self.methods)}")
        for name in ("replicates", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise BenchError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise BenchError(f"{name} must be >= 1")
        if self.order_strategy not in ORDER_STRATEGIES:
            raise BenchError(f"unknown order_strategy {self.order_strategy!r}"
                             f"; known: {ORDER_STRATEGIES}")


@dataclass
class MethodFits:
    """Per-dataset fitted inputs shared by all replicates."""

    n: int
    back_ratio: float
    cs_params: Optional[CsParams] = None
    er: Optional[baselines.ErFit] = None
    config: Optional[baselines.ConfigFit] = None
    sbm: Optional[baselines.SbmFit] = None


def fit_methods(graph: LabeledGraph, methods: Sequence[str],
                strategy: str) -> MethodFits:
    """Fit every requested method family once per dataset.

    ``strategy`` is the node ordering, already resolved (one of
    ``neardag.STRATEGIES``), under which the back-edge ratio is measured.
    """
    ordering = neardag.order_nodes(graph, strategy)
    fits = MethodFits(n=graph.num_nodes,
                      back_ratio=neardag.back_edge_ratio(graph, ordering))
    wanted = set(methods)
    if wanted & {"cs", "cs-dag"}:
        fits.cs_params = estimate(graph).params
    if wanted & {"er", "er-nd"}:
        fits.er = baselines.fit_er(graph)
    if wanted & {"config", "config-nd"}:
        fits.config = baselines.fit_config(graph)
    if wanted & {"sbm", "sbm-nd", "dcsbm", "dcsbm-nd"}:
        fits.sbm = baselines.fit_sbm(graph)
    return fits


def realize(method: str, fits: MethodFits, seed) -> LabeledGraph:
    """Generate one synthetic replicate for a fitted method.

    ``seed`` is a SeedSequence; methods with a post-processing stage
    (back-edge injection or cycle breaking) consume a second child seed,
    so the base and near-DAG variants share their generation stream.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    s_gen, s_post = ss.spawn(2)
    base = method[:-3] if method.endswith("-nd") else method
    if method == "cs":
        dag = generate(fits.cs_params, fits.n, s_gen)
        return neardag.inject_back_edges(dag, fits.back_ratio, s_post)
    if method == "cs-dag":
        return generate(fits.cs_params, fits.n, s_gen)
    if base == "er":
        out = baselines.generate_er(fits.er, s_gen)
    elif base == "config":
        out, _ = baselines.generate_config(fits.config, s_gen)
    elif base == "sbm":
        out = baselines.generate_sbm(fits.sbm, s_gen)
    elif base == "dcsbm":
        out = baselines.generate_dcsbm(fits.sbm, s_gen)
    else:
        raise BenchError(f"unknown method {method}")
    if method.endswith("-nd"):
        out, _ = neardag.cycle_break(out, fits.back_ratio, s_post, "degree-diff")
    return out


def _gen_seed(master: int, d: int, m: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(0, d, m, rep))


def _compare_seed(master: int, d: int, rep: int) -> int:
    ss = np.random.SeedSequence(master, spawn_key=(1, d, rep))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class BenchResult:
    methods: Tuple[str, ...]
    datasets: Tuple[str, ...]
    metric_names: Tuple[str, ...]
    metric_categories: Tuple[str, ...]
    runs: np.ndarray
    """Distances with shape (datasets, metrics, methods, replicates); NaN marks skips."""

    def block_values(self):
        """Mean distances flattened to (blocks, methods) plus block metadata."""
        n_d, n_met, n_m, _ = self.runs.shape
        means = self.runs.mean(axis=3)
        values = means.reshape(n_d * n_met, n_m)
        blocks = [(d, met) for d in self.datasets for met in self.metric_names]
        categories = [c for _ in self.datasets for c in self.metric_categories]
        return values, blocks, categories

    @cached_property
    def tables(self) -> dict:
        """Each artifact variant's rank table and the runs of its complete
        blocks, ranked once and keyed by file suffix: every metric (""),
        and the ground-truth community metrics excluded
        ("_non_endogenous")."""
        values, blocks, categories = self.block_values()
        n_d, n_met, n_m, n_rep = self.runs.shape
        flat_runs = self.runs.reshape(n_d * n_met, n_m, n_rep)
        keeps = {"": np.ones(len(blocks), bool),
                 "_non_endogenous": np.array(
                     [c != ENDOGENOUS_CATEGORY for c in categories])}
        tables = {}
        for suffix, keep in keeps.items():
            table = rank_blocks(values[keep], self.methods,
                                [b for b, k in zip(blocks, keep) if k])
            complete = ~np.isnan(values[keep]).any(axis=1)
            tables[suffix] = (table, flat_runs[keep][complete])
        return tables


def run_bench(datasets: Dict[str, LabeledGraph],
              config: BenchConfig = None) -> BenchResult:
    """Run the replicate/compare grid and collect the distance tensor.

    Every method sees the identical real-side sampling in a given
    (dataset, replicate) cell: the comparison seed depends only on those
    two indices.  So each job is one such pair: it realizes the methods'
    replicates, profiles them together with the real graph so that one
    Louvain run detects them all, and scores each replicate against the
    real profile.  A job holds at most one detection union's graphs at a
    time (``union_capacity`` of the real graph, taking the replicates to
    be of its size); for graphs that fill a union alone, that is the real
    graph, then one replicate at a time.  At most ``threads`` jobs run at
    once.
    """
    config = config or BenchConfig()
    if not datasets:
        raise BenchError("no datasets supplied")
    names = tuple(datasets)
    methods = config.methods
    fits = {name: fit_methods(graph, methods, neardag.age_strategy(
        graph, config.order_strategy)) for name, graph in datasets.items()}

    schema = metric_schema(config.metric)
    runs = np.full((len(names), len(schema), len(methods),
                    config.replicates), np.nan)

    def job(d: int, rep: int):
        real_graph = datasets[names[d]]
        mc = replace(config.metric, seed=_compare_seed(config.seed, d, rep))
        per = union_capacity(real_graph, mc.resolutions)
        real = None
        # the first union holds the real graph, so one replicate fewer
        for start in range(-1, len(methods), per):
            batch = range(max(start, 0), min(start + per, len(methods)))
            synths = [realize(methods[m], fits[names[d]],
                              _gen_seed(config.seed, d, m, rep))
                      for m in batch]
            found = profiles([real_graph, *synths] if real is None else synths,
                             mc)
            if real is None:
                real, *found = found
            for m, synth in zip(batch, found):
                report = distance(real, synth)
                for i, entry in enumerate(report.entries):
                    if not entry.skipped:
                        runs[d, i, m, rep] = entry.value

    jobs = [(d, rep) for d in range(len(names))
            for rep in range(config.replicates)]
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(lambda args: job(*args), jobs))
    else:
        for args in jobs:
            job(*args)
    return BenchResult(methods=tuple(methods), datasets=names,
                       metric_names=tuple(name for name, _, _ in schema),
                       metric_categories=tuple(c for _, c, _ in schema),
                       runs=runs)


def _write_rank_table(path: Path, table: RankTable):
    with path.open("w") as fh:
        fh.write("dataset\tmetric\tmethod\tmean_distance\trank\n")
        for b, (dataset, metric) in enumerate(table.blocks):
            for m, method in enumerate(table.methods):
                fh.write(f"{dataset}\t{metric}\t{method}"
                         f"\t{float(table.values[b, m])!r}"
                         f"\t{float(table.ranks[b, m])!r}\n")


def _write_mean_ranks(path: Path, table: RankTable, seed: int,
                      draws: int = 10_000):
    ci = bootstrap_ci(table, draws=draws, seed=seed)
    mean_ranks = table.mean_ranks()
    with path.open("w") as fh:
        fh.write("method\tmean_rank\tci_low\tci_high\n")
        for m, method in enumerate(table.methods):
            fh.write(f"{method}\t{float(mean_ranks[m])!r}"
                     f"\t{float(ci[m, 0])!r}\t{float(ci[m, 1])!r}\n")


def _write_wtl(path: Path, methods: Sequence[str], runs: np.ndarray,
               alpha: float = 0.05):
    wins, ties, losses = wtl_matrix(runs, alpha=alpha)
    with path.open("w") as fh:
        fh.write("method_a\tmethod_b\twins\tties\tlosses\n")
        for i, a in enumerate(methods):
            for j, b in enumerate(methods):
                if i == j:
                    continue
                fh.write(f"{a}\t{b}\t{wins[i, j]}\t{ties[i, j]}\t{losses[i, j]}\n")


def write_artifacts(result: BenchResult, outdir, seed: int = 0) -> List[str]:
    """Emit the benchmark summary files; returns the file names written.

    Two variants are produced: the full metric set and the ground-truth
    community metrics excluded ("non_endogenous" suffix).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    friedman_rows = []
    for suffix, (table, runs) in result.tables.items():
        _write_rank_table(outdir / f"rank_table{suffix}.tsv", table)
        written.append(f"rank_table{suffix}.tsv")
        _write_mean_ranks(outdir / f"mean_ranks{suffix}.tsv", table, seed)
        written.append(f"mean_ranks{suffix}.tsv")
        _write_wtl(outdir / f"wtl{suffix}.tsv", table.methods, runs)
        written.append(f"wtl{suffix}.tsv")
        label = "all" if suffix == "" else "non_endogenous"
        try:
            chi2, p = friedman(table)
            friedman_rows.append((label, table.ranks.shape[0],
                                  len(table.methods), repr(chi2), repr(p)))
        except StatsError as exc:
            log.warning("Friedman test unavailable for %s: %s", label, exc)
            friedman_rows.append((label, table.ranks.shape[0],
                                  len(table.methods), "", ""))
    with (outdir / "friedman.tsv").open("w") as fh:
        fh.write("variant\tblocks\tmethods\tchi2\tp_value\n")
        for row in friedman_rows:
            fh.write("\t".join(str(x) for x in row) + "\n")
    written.append("friedman.tsv")
    return written
