"""The 26-metric comparison battery across six structural categories."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import List, Optional

import numpy as np

from ..graph import LabeledGraph, bfs_subsample
from ..neardag import age_strategy, order_nodes
from .communities import (conductance, density_pair, detect_batch,
                          detect_communities, detected_sizes, modularity,
                          participation)
from .distances import MetricError, ape, l1_triad, wasserstein1
from .paths import (average_path_length, effective_diameter,
                    longest_path_lengths, scc_sizes, source_rows)
from .triads import _triangle_counts, ffl_count, triad_census

# Each category's metrics as name:kind, in report order; the detected rows
# repeat for each resolution, whose tag fills in {tag}
_SCHEMA = (
    ("global-topology",
     "effective_diameter:APE avg_path_length:APE reachability:W1"),
    ("degree", "in_degree_dist:W1 out_degree_dist:W1 in_assortativity:APE "
               "out_assortativity:APE"),
    ("meso-endogenous", "gt_modularity:APE gt_conductance:APE "
                        "gt_inter_density:APE gt_intra_density:APE "
                        "gt_in_participation:W1 gt_out_participation:W1"),
    ("meso-exogenous", "detected_modularity_{tag}:APE detected_sizes_{tag}:W1"),
    ("local", "global_clustering:APE ffl_count:APE local_clustering_dist:W1 "
              "triad_census:L1"),
    ("flow", "betweenness_dist:W1 scc_sizes:W1 longest_path_dist:W1"),
)
CATEGORIES = tuple(category for category, _ in _SCHEMA)


@dataclass(frozen=True)
class MetricConfig:
    """Sampling knobs for the battery.

    The distance, reachability and betweenness rows all come from one BFS
    from each of ``n_sources`` sampled nodes (every node on a graph of at
    most ``n_sources`` nodes).  ``exact`` switches to every node as a
    source, so to exhaustive pair distances, and to the exact triad
    census, regardless of graph size.  Sampled modes reuse one seed per
    sampling role on both graphs, so comparing a graph to itself yields
    zero for every metric.
    Graphs of at most ``triad_exact_limit`` nodes get the exact triad
    census anyway; on a 2-core Xeon the exact census of a generated
    near-DAG is no slower than the default sampled one up to about 7000
    nodes.  The counts are integers, not bools, all but ``triad_exact_limit``
    at least 1, and ``exact`` is a bool.
    ``resolutions`` is kept as a tuple of floats, each positive and at
    most 1e306 (so its row tag is finite), and no two of them may share a
    row tag.  A config is hashable: ``profiles`` keys the profiles it
    keeps by it.  ``n_pairs`` is validated but read by nothing: the
    distance rows no longer sample pairs.
    """

    seed: int = 0
    n_pairs: int = 2000
    n_sources: int = 200
    max_nodes: int = 50_000
    exact: bool = False
    triad_exact_limit: int = 7000
    triad_samples: int = 200_000
    resolutions: tuple = (1.0, 0.5, 2.0)

    def __post_init__(self):
        for name in ("n_pairs", "n_sources", "max_nodes", "triad_samples",
                     "triad_exact_limit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise MetricError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name != "triad_exact_limit":
                raise MetricError(f"{name} must be at least 1, got {value}")
        if not isinstance(self.exact, bool):
            raise MetricError(f"exact must be a bool, got {self.exact!r}")
        resolutions = tuple(map(float, self.resolutions))
        object.__setattr__(self, "resolutions", resolutions)
        for res in resolutions:
            if not 0 < res <= 1e306:
                raise MetricError(f"resolutions must be finite and positive, "
                                  f"at most 1e306, got {res!r}")
        tags = _tags(self)
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise MetricError(
                    f"resolutions {resolutions[tags.index(tag)]!r} and "
                    f"{resolutions[i]!r} share the row tag {tag}")


def _tags(config: MetricConfig) -> list:
    return [f"r{int(round(res * 100)):03d}" for res in config.resolutions]


def metric_schema(config: MetricConfig) -> list:
    """(name, category, kind) of each metric ``compare`` reports, in order."""
    return [(name.format(tag=tag), category, kind)
            for category, rows in _SCHEMA
            for tag in (_tags(config) if category == "meso-exogenous" else [""])
            for name, kind in (row.split(":") for row in rows.split())]


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
        rows = [f"{e.name}\t{e.category}\t{e.kind}"
                f"\t{'' if e.value is None else repr(e.value)}"
                f"\t{int(e.skipped)}\t{e.note}\n" for e in self.entries]
        return "metric\tcategory\tkind\tvalue\tskipped\tnote\n" + "".join(rows)

    @classmethod
    def from_tsv(cls, text: str) -> "MetricReport":
        entries = []
        for line in filter(None, text.splitlines()[1:]):
            name, category, kind, val, skipped, note = line.split("\t")
            entries.append(MetricEntry(
                name=name, category=category, kind=kind,
                value=None if val == "" else float(val),
                skipped=skipped == "1", note=note))
        return cls(entries=entries)


def _try(fn, *args):
    """``fn(*args)``, or the MetricError it raised, for ``distance`` to raise."""
    try:
        return fn(*args)
    except MetricError as exc:
        return exc


def _sample_sources(graph: LabeledGraph, config: MetricConfig, seed):
    if config.exact or graph.num_nodes <= config.n_sources:
        return np.arange(graph.num_nodes, dtype=np.int64)
    return np.sort(np.random.default_rng(seed).choice(
        graph.num_nodes, config.n_sources, replace=False)).astype(np.int64)


def global_topology_metrics(rows):
    """The distance and reach rows, read off the sources' traversals."""
    return {"effective_diameter": _try(effective_diameter, rows.hist),
            "avg_path_length": _try(average_path_length, rows.hist),
            "reachability": rows.reach}


def _assortativity(graph: LabeledGraph, which: str) -> float:
    if graph.num_edges < 2:
        raise MetricError("too few edges for assortativity")
    d = graph.d_in if which == "in" else graph.d_out
    x = d[graph.src].astype(np.float64)
    y = d[graph.dst].astype(np.float64)
    if x.std() == 0 or y.std() == 0:
        raise MetricError(f"{which}-assortativity undefined: zero degree variance")
    return float(np.corrcoef(x, y)[0, 1])


def degree_metrics(graph, config=None):
    return {"in_degree_dist": graph.d_in, "out_degree_dist": graph.d_out,
            "in_assortativity": _try(_assortativity, graph, "in"),
            "out_assortativity": _try(_assortativity, graph, "out")}


def endogenous_metrics(graph, config=None):
    """Ground-truth partition statistics; none without labels."""
    if graph.labels is None:
        return {}
    densities = _try(density_pair, graph)
    ok = not isinstance(densities, MetricError)
    return {"gt_modularity": _try(modularity, graph),
            "gt_conductance": _try(conductance, graph),
            "gt_inter_density": densities[1] if ok else densities,
            "gt_intra_density": densities[0] if ok else densities,
            "gt_in_participation": _try(participation, graph, "in"),
            "gt_out_participation": _try(participation, graph, "out")}


def exogenous_metrics(graphs, config, detect_seed):
    """Detected modularity and community sizes at each resolution, one dict
    per graph of ``graphs``.

    One batched run (``detect_batch``) detects every graph at every
    resolution.  Until this call returns, each graph holds its runs in
    ``graph.detections`` for the ``detect_communities`` reads.
    """
    keys = [(id(detect_seed), res) for res in config.resolutions]
    out = []
    try:
        for graph, runs in zip(graphs, detect_batch(
                graphs, config.resolutions, detect_seed)):
            if not isinstance(runs, MetricError):
                graph.detections.update(zip(keys, runs))
            values = {}
            for (_, res), tag in zip(keys, _tags(config)):
                found = _try(detect_communities, graph, res, detect_seed)
                ok = not isinstance(found, MetricError)
                values[f"detected_modularity_{tag}"] = found[1] if ok else found
                values[f"detected_sizes_{tag}"] = (detected_sizes(found[0])
                                                   if ok else found)
            out.append(values)
    finally:
        for graph in graphs:
            for key in keys:
                graph.detections.pop(key, None)
    return out


def _clustering(graph: LabeledGraph):
    """(global transitivity, per-node local clustering) on the symmetrized graph."""
    indptr, indices, _ = graph.undirected_csr
    n = graph.num_nodes
    tri = _triangle_counts(indptr, indices, n)
    deg = (indptr[1:] - indptr[:-1]).astype(np.float64)
    wedges = deg * (deg - 1.0) / 2.0
    global_c = float(tri.sum()) / wedges.sum() if wedges.any() else 0.0
    local = np.divide(tri, wedges, out=np.zeros(n), where=wedges > 0)
    return global_c, local


def local_metrics(graph, config, triad_seed):
    global_c, local = _clustering(graph)
    exact = config.exact or graph.num_nodes <= config.triad_exact_limit
    return {"global_clustering": global_c,
            "ffl_count": _try(lambda: float(ffl_count(graph))),
            "local_clustering_dist": local,
            "triad_census": _try(triad_census, graph, None if exact
                                 else config.triad_samples, triad_seed)}


def flow_metrics(graph, config, rows):
    return {"betweenness_dist": rows.betweenness,
            "scc_sizes": _try(scc_sizes, graph),
            "longest_path_dist": _try(lambda: longest_path_lengths(
                graph, order_nodes(graph, age_strategy(graph)).rank))}


@dataclass(frozen=True)
class GraphProfile:
    """One graph's battery quantities under one config, keyed by metric.

    ``values`` is a read-only mapping whose arrays are read-only too; it
    holds no ground-truth quantities for a graph without labels.  A
    quantity whose computation failed holds its MetricError, raised (as a
    copy) when read.  The distance samples (n(n-1) in exact mode) are
    kept as two statistics.
    """

    config: MetricConfig
    values: MappingProxyType

    def __getitem__(self, name: str):
        value = self.values[name]
        if isinstance(value, MetricError):
            # a copy: raising the kept error would give it a traceback
            # whose frames hold the graph that keeps it
            raise copy.copy(value)
        return value


def _keepable(value):
    """``value`` made fit to keep on its graph: an array read-only, an
    error without the traceback and context whose frames hold the graph."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, MetricError):
        value.__traceback__ = value.__context__ = None
    return value


def profiles(graphs, config: MetricConfig = None) -> list:
    """Subsample each of ``graphs`` and compute every per-graph battery
    quantity; returns one GraphProfile per graph.

    Each of the six category functions returns its quantities, keyed by
    metric.  The sampling seeds are spawned from ``config.seed`` alone, so
    every graph profiled under one config is sampled alike, and each
    profile equals that of its graph alone.  Community detection runs
    once for all the graphs (see ``exogenous_metrics``), and one BFS per
    sampled source (``source_rows``) for the global-topology and flow
    rows.

    Each graph keeps the quantities of its latest profile keyed by the
    config, so a graph profiled before under an equal config is not
    profiled again: ``compare(real, ., config)`` in a loop profiles
    ``real`` once.  A profile under another config replaces the kept one.
    The profiles returned are those computed here, never read back from a
    graph, because a concurrent call under another config may replace
    what a graph keeps.
    """
    config = config or MetricConfig()
    found = {id(g): g.profiles.get(config) for g in graphs}
    todo = [g for g in {id(g): g for g in graphs}.values()
            if found[id(g)] is None]
    ss = np.random.SeedSequence(config.seed)
    # the second seed is unused; spawning it keeps the later seeds' streams
    sub_seed, _, source_seed, triad_seed, detect_seed = ss.spawn(5)
    subs = [bfs_subsample(g, config.max_nodes, sub_seed) for g in todo]
    detected = exogenous_metrics(subs, config, detect_seed)
    for graph, sub, exogenous in zip(todo, subs, detected):
        rows = source_rows(sub, _sample_sources(sub, config, source_seed))
        values = {
            **global_topology_metrics(rows),
            **degree_metrics(sub, config),
            **endogenous_metrics(sub, config),
            **exogenous,
            **local_metrics(sub, config, triad_seed),
            **flow_metrics(sub, config, rows)}
        found[id(graph)] = MappingProxyType(
            {name: _keepable(v) for name, v in values.items()})
        graph.profiles.clear()
        graph.profiles[config] = found[id(graph)]
    return [GraphProfile(config, found[id(g)]) for g in graphs]


def profile(graph: LabeledGraph, config: MetricConfig = None) -> GraphProfile:
    """``profiles`` of the one graph."""
    return profiles([graph], config)[0]


def distance(real: GraphProfile, synth: GraphProfile) -> MetricReport:
    """Score two profiles built under one config; failures become skips.

    Ground-truth rows need labels on both sides.  Where both sides failed,
    the side read first gives the skip note: the synthetic one for APE,
    except for detection, where it is the real one, as for W1 and L1.
    """
    if real.config != synth.config:
        raise ValueError("profiles were built under different metric configs")
    report = MetricReport()
    for name, category, kind in metric_schema(real.config):
        try:
            if category == "meso-endogenous" and (
                    name not in real.values or name not in synth.values):
                raise MetricError("ground-truth labels unavailable")
            if kind == "APE" and category != "meso-exogenous":
                s, r = synth[name], real[name]
            else:
                r, s = real[name], synth[name]
            value = ape(s, r) if kind == "APE" else (
                wasserstein1 if kind == "W1" else l1_triad)(r, s)
            report.entries.append(MetricEntry(name, category, kind, float(value)))
        except MetricError as exc:
            report.entries.append(MetricEntry(name, category, kind, None,
                                              skipped=True, note=str(exc)))
    return report


def compare(real: LabeledGraph, synth: LabeledGraph,
            config: MetricConfig = None) -> MetricReport:
    """Run the full battery; per-metric failures become skips, not aborts.

    Both graphs are profiled together under the same config, so they are
    subsampled by the same procedure and seed, and all sampled metrics
    reuse identical seeds on both sides.  A graph compared with itself is
    profiled once.
    """
    return distance(*profiles([real, synth], config))
