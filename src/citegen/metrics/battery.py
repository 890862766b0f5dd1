"""The 26-metric comparison battery across six structural categories."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
from scipy.sparse import csr_matrix

from ..graph import LabeledGraph, bfs_subsample, sample_pairs, undirected_csr
from ..neardag import order_nodes
from .communities import (conductance, density_pair, detect_communities,
                          detected_sizes, modularity, participation)
from .distances import MetricError, ape, l1_triad, wasserstein1
from .paths import (average_path_length, betweenness_values,
                    effective_diameter, longest_path_lengths, pair_distances,
                    all_pair_distances, reachability_counts, scc_sizes)
from .triads import ffl_count, triad_census

CATEGORIES = ("global-topology", "degree", "meso-endogenous",
              "meso-exogenous", "local", "flow")


@dataclass(frozen=True)
class MetricConfig:
    """Sampling knobs for the battery.

    ``exact`` switches to exhaustive pair distances, all-source
    betweenness and reachability, and the exact triad census, regardless
    of graph size.  Sampled modes reuse one seed per sampling role on both
    graphs, so comparing a graph to itself yields zero for every metric.
    """

    seed: int = 0
    n_pairs: int = 2000
    n_sources: int = 200
    max_nodes: int = 50_000
    exact: bool = False
    triad_exact_limit: int = 3000
    triad_samples: int = 200_000
    resolutions: tuple = (1.0, 0.5, 2.0)


@dataclass
class MetricEntry:
    name: str
    category: str
    kind: str
    value: Optional[float]
    skipped: bool = False
    note: str = ""


@dataclass
class MetricReport:
    entries: List[MetricEntry] = field(default_factory=list)

    def value(self, name: str) -> float:
        for e in self.entries:
            if e.name == name:
                if e.skipped:
                    raise MetricError(f"metric {name} was skipped: {e.note}")
                return e.value
        raise KeyError(name)

    def active(self) -> List[MetricEntry]:
        return [e for e in self.entries if not e.skipped]

    def to_tsv(self) -> str:
        buf = io.StringIO()
        buf.write("metric\tcategory\tkind\tvalue\tskipped\tnote\n")
        for e in self.entries:
            val = "" if e.value is None else repr(e.value)
            buf.write(f"{e.name}\t{e.category}\t{e.kind}\t{val}"
                      f"\t{int(e.skipped)}\t{e.note}\n")
        return buf.getvalue()

    @classmethod
    def from_tsv(cls, text: str) -> "MetricReport":
        lines = text.splitlines()
        entries = []
        for line in lines[1:]:
            if not line:
                continue
            name, category, kind, val, skipped, note = line.split("\t")
            entries.append(MetricEntry(
                name=name, category=category, kind=kind,
                value=None if val == "" else float(val),
                skipped=skipped == "1", note=note))
        return cls(entries=entries)


def _guard(entries: list, name: str, category: str, kind: str,
           fn: Callable[[], float]):
    try:
        entries.append(MetricEntry(name, category, kind, float(fn())))
    except MetricError as exc:
        entries.append(MetricEntry(name, category, kind, None,
                                   skipped=True, note=str(exc)))


def _age_rank(graph: LabeledGraph) -> np.ndarray:
    """Rank nodes by age: timestamps when known, else the greedy heuristic."""
    if graph.timestamps is not None:
        return order_nodes(graph, "timestamps").rank
    return order_nodes(graph, "degree-diff").rank


def _sample_sources(graph: LabeledGraph, config: MetricConfig, seed):
    if config.exact or graph.num_nodes <= config.n_sources:
        return np.arange(graph.num_nodes, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(graph.num_nodes, config.n_sources,
                              replace=False)).astype(np.int64)


def _distance_samples(graph: LabeledGraph, config: MetricConfig, seed):
    if config.exact:
        return all_pair_distances(graph)
    pairs = sample_pairs(graph, config.n_pairs, seed)
    return pair_distances(graph, pairs)


def global_topology_metrics(real, synth, config, pair_seed, source_seed):
    entries = []
    dist_r = _distance_samples(real, config, pair_seed)
    dist_s = _distance_samples(synth, config, pair_seed)
    _guard(entries, "effective_diameter", "global-topology", "APE",
           lambda: ape(effective_diameter(dist_s), effective_diameter(dist_r)))
    _guard(entries, "avg_path_length", "global-topology", "APE",
           lambda: ape(average_path_length(dist_s), average_path_length(dist_r)))
    _guard(entries, "reachability", "global-topology", "W1",
           lambda: wasserstein1(
               reachability_counts(real, _sample_sources(real, config, source_seed)),
               reachability_counts(synth, _sample_sources(synth, config, source_seed))))
    return entries


def _assortativity(graph: LabeledGraph, which: str) -> float:
    if graph.num_edges < 2:
        raise MetricError("too few edges for assortativity")
    deg = graph.degrees()
    d = deg.d_in if which == "in" else deg.d_out
    x = d[graph.src].astype(np.float64)
    y = d[graph.dst].astype(np.float64)
    if x.std() == 0 or y.std() == 0:
        raise MetricError(f"{which}-assortativity undefined: zero degree variance")
    return float(np.corrcoef(x, y)[0, 1])


def degree_metrics(real, synth, config=None):
    entries = []
    deg_r = real.degrees()
    deg_s = synth.degrees()
    _guard(entries, "in_degree_dist", "degree", "W1",
           lambda: wasserstein1(deg_r.d_in, deg_s.d_in))
    _guard(entries, "out_degree_dist", "degree", "W1",
           lambda: wasserstein1(deg_r.d_out, deg_s.d_out))
    for which in ("in", "out"):
        _guard(entries, f"{which}_assortativity", "degree", "APE",
               lambda w=which: ape(_assortativity(synth, w),
                                   _assortativity(real, w)))
    return entries


def endogenous_metrics(real, synth, config=None):
    entries = []
    if real.labels is None or synth.labels is None:
        return [MetricEntry(name, "meso-endogenous", kind, None, skipped=True,
                            note="ground-truth labels unavailable")
                for name, kind in (
                    ("gt_modularity", "APE"), ("gt_conductance", "APE"),
                    ("gt_inter_density", "APE"), ("gt_intra_density", "APE"),
                    ("gt_in_participation", "W1"),
                    ("gt_out_participation", "W1"))]
    _guard(entries, "gt_modularity", "meso-endogenous", "APE",
           lambda: ape(modularity(synth), modularity(real)))
    _guard(entries, "gt_conductance", "meso-endogenous", "APE",
           lambda: ape(conductance(synth), conductance(real)))
    _guard(entries, "gt_inter_density", "meso-endogenous", "APE",
           lambda: ape(density_pair(synth)[1], density_pair(real)[1]))
    _guard(entries, "gt_intra_density", "meso-endogenous", "APE",
           lambda: ape(density_pair(synth)[0], density_pair(real)[0]))
    for which in ("in", "out"):
        _guard(entries, f"gt_{which}_participation", "meso-endogenous", "W1",
               lambda w=which: wasserstein1(participation(real, direction=w),
                                            participation(synth, direction=w)))
    return entries


def exogenous_metrics(real, synth, config, detect_seed):
    entries = []
    for res in config.resolutions:
        tag = f"r{int(round(res * 100)):03d}"
        try:
            lab_r, q_r = detect_communities(real, res, detect_seed)
            lab_s, q_s = detect_communities(synth, res, detect_seed)
        except MetricError as exc:
            for name, kind in ((f"detected_modularity_{tag}", "APE"),
                               (f"detected_sizes_{tag}", "W1")):
                entries.append(MetricEntry(name, "meso-exogenous", kind, None,
                                           skipped=True, note=str(exc)))
            continue
        _guard(entries, f"detected_modularity_{tag}", "meso-exogenous", "APE",
               lambda qs=q_s, qr=q_r: ape(qs, qr))
        _guard(entries, f"detected_sizes_{tag}", "meso-exogenous", "W1",
               lambda ls=lab_s, lr=lab_r: wasserstein1(detected_sizes(lr),
                                                       detected_sizes(ls)))
    return entries


# Bound on the two-step paths one row block of U @ U may hold in
# _triangle_counts: a hub's squared degree would otherwise set the memory.
_WEDGE_BLOCK = 1 << 20


def _triangle_counts(indptr, indices, n: int) -> np.ndarray:
    """Per-node triangle counts of the simple undirected graph U.

    The row sums of ``(U @ U) * U`` count each triangle at a node twice.
    Rows are taken in blocks whose two-step paths (a row's neighbours'
    summed degrees) total about ``_WEDGE_BLOCK``.
    """
    und = csr_matrix((np.ones(indices.size, np.int64), indices, indptr),
                     shape=(n, n))
    block = np.cumsum(und @ np.diff(indptr)) // _WEDGE_BLOCK
    tri = np.empty(n, np.int64)
    lo = 0
    for hi in np.append(np.flatnonzero(np.diff(block)) + 1, n):
        rows = und[lo:hi]
        tri[lo:hi] = np.asarray((rows @ und).multiply(rows).sum(axis=1)).ravel() // 2
        lo = hi
    return tri


def _clustering(graph: LabeledGraph):
    """(global transitivity, per-node local clustering) on the symmetrized graph."""
    indptr, indices, _ = undirected_csr(graph)
    n = graph.num_nodes
    tri = _triangle_counts(indptr, indices, n)
    deg = (indptr[1:] - indptr[:-1]).astype(np.float64)
    wedges = deg * (deg - 1.0) / 2.0
    total_wedges = wedges.sum()
    global_c = 0.0 if total_wedges == 0 else float(tri.sum()) / total_wedges
    local = np.zeros(n, np.float64)
    nz = wedges > 0
    local[nz] = tri[nz] / wedges[nz]
    return global_c, local


def _census(graph, config, seed):
    if config.exact or graph.num_nodes <= config.triad_exact_limit:
        return triad_census(graph)
    return triad_census(graph, n_samples=config.triad_samples, seed=seed)


def local_metrics(real, synth, config, triad_seed):
    entries = []
    glob_r, loc_r = _clustering(real)
    glob_s, loc_s = _clustering(synth)
    _guard(entries, "global_clustering", "local", "APE",
           lambda: ape(glob_s, glob_r))
    _guard(entries, "ffl_count", "local", "APE",
           lambda: ape(float(ffl_count(synth)), float(ffl_count(real))))
    _guard(entries, "local_clustering_dist", "local", "W1",
           lambda: wasserstein1(loc_r, loc_s))
    _guard(entries, "triad_census", "local", "L1",
           lambda: l1_triad(_census(real, config, triad_seed),
                            _census(synth, config, triad_seed)))
    return entries


def flow_metrics(real, synth, config, source_seed):
    entries = []
    _guard(entries, "betweenness_dist", "flow", "W1",
           lambda: wasserstein1(
               betweenness_values(real, _sample_sources(real, config, source_seed)),
               betweenness_values(synth, _sample_sources(synth, config, source_seed))))
    _guard(entries, "scc_sizes", "flow", "W1",
           lambda: wasserstein1(scc_sizes(real), scc_sizes(synth)))
    _guard(entries, "longest_path_dist", "flow", "W1",
           lambda: wasserstein1(longest_path_lengths(real, _age_rank(real)),
                                longest_path_lengths(synth, _age_rank(synth))))
    return entries


def compare(real: LabeledGraph, synth: LabeledGraph,
            config: MetricConfig = None) -> MetricReport:
    """Run the full battery; per-metric failures become skips, not aborts.

    Both graphs are subsampled by the same procedure and seed; all sampled
    metrics reuse identical seeds on both sides.
    """
    config = config or MetricConfig()
    ss = np.random.SeedSequence(config.seed)
    sub_seed, pair_seed, source_seed, triad_seed, detect_seed = ss.spawn(5)
    real = bfs_subsample(real, config.max_nodes, sub_seed)
    synth = bfs_subsample(synth, config.max_nodes, sub_seed)
    entries = []
    entries += global_topology_metrics(real, synth, config, pair_seed, source_seed)
    entries += degree_metrics(real, synth, config)
    entries += endogenous_metrics(real, synth, config)
    entries += exogenous_metrics(real, synth, config, detect_seed)
    entries += local_metrics(real, synth, config, triad_seed)
    entries += flow_metrics(real, synth, config, source_seed)
    return MetricReport(entries=entries)
