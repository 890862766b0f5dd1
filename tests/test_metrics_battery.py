import gc
import sys
import threading
import weakref
from dataclasses import fields, replace
from types import MappingProxyType

import numpy as np
import pytest

from citegen.generator import CsParams, generate
from citegen.graph import LabeledGraph
from citegen.metrics import battery, communities, triads
from citegen.metrics.battery import (CATEGORIES, GraphProfile, MetricConfig,
                                     MetricReport, _clustering, compare,
                                     distance, metric_schema, profile,
                                     profiles)
from citegen.metrics.distances import MetricError
from citegen.neardag import cycle_break, inject_back_edges

EXPECTED_CATEGORY_SIZES = {
    "global-topology": 3,
    "degree": 4,
    "meso-endogenous": 6,
    "meso-exogenous": 6,
    "local": 4,
    "flow": 3,
}


def strip_labels(graph):
    return LabeledGraph(num_nodes=graph.num_nodes, src=graph.src,
                        dst=graph.dst)


def test_battery_shape(near_dag_graph):
    report = compare(near_dag_graph, near_dag_graph)
    assert len(report.entries) == 26
    names = [e.name for e in report.entries]
    assert len(set(names)) == 26
    for category, size in EXPECTED_CATEGORY_SIZES.items():
        assert sum(e.category == category for e in report.entries) == size
    assert set(e.category for e in report.entries) == set(CATEGORIES)


def test_self_comparison_is_exactly_zero(near_dag_graph):
    report = compare(near_dag_graph, near_dag_graph)
    active = report.active()
    assert len(active) == 26
    assert all(e.value == 0.0 for e in active)


def test_self_comparison_zero_with_sampling(near_dag_graph):
    config = MetricConfig(seed=3, n_pairs=50, n_sources=10, max_nodes=400,
                          triad_exact_limit=100, triad_samples=2000)
    report = compare(near_dag_graph, near_dag_graph, config)
    assert all(e.value == 0.0 for e in report.active())


def test_missing_labels_skip_endogenous_block(near_dag_graph):
    report = compare(near_dag_graph, strip_labels(near_dag_graph))
    assert len(report.entries) == 26
    endo = [e for e in report.entries if e.category == "meso-endogenous"]
    assert len(endo) == 6
    assert all(e.skipped for e in endo)
    assert all("labels unavailable" in e.note for e in endo)
    other = [e for e in report.entries if e.category != "meso-endogenous"]
    assert all(not e.skipped for e in other)


def test_degenerate_metrics_skip_not_abort(make_graph):
    chain = make_graph(6, [(i + 1, i) for i in range(5)], labels=[0] * 6)
    report = compare(chain, chain, MetricConfig(exact=True))
    skipped = {e.name for e in report.entries if e.skipped}
    assert "ffl_count" in skipped
    assert "global_clustering" in skipped
    assert "in_assortativity" in skipped
    assert all(e.value == 0.0 for e in report.active())


def test_report_value_accessors(near_dag_graph, make_graph):
    chain = make_graph(6, [(i + 1, i) for i in range(5)], labels=[0] * 6)
    report = compare(chain, chain, MetricConfig(exact=True))
    assert report.value("avg_path_length") == 0.0
    with pytest.raises(MetricError, match="skipped"):
        report.value("ffl_count")
    with pytest.raises(KeyError):
        report.value("no_such_metric")


def test_report_tsv_round_trip(near_dag_graph, dag_graph):
    report = compare(near_dag_graph, dag_graph)
    back = MetricReport.from_tsv(report.to_tsv())
    assert len(back.entries) == len(report.entries)
    for a, b in zip(report.entries, back.entries):
        assert (a.name, a.category, a.kind, a.skipped, a.note) == \
            (b.name, b.category, b.kind, b.skipped, b.note)
        if a.value is None:
            assert b.value is None
        else:
            assert b.value == a.value


def test_compare_deterministic(near_dag_graph, dag_graph):
    config = MetricConfig(seed=11, n_pairs=200, n_sources=40, max_nodes=900,
                          triad_exact_limit=200, triad_samples=5000)
    first = compare(near_dag_graph, dag_graph, config)
    second = compare(near_dag_graph, dag_graph, config)
    assert first.to_tsv() == second.to_tsv()


def test_compare_detects_structural_differences(near_dag_graph):
    # Reversing a fifth of the edges must register in several metrics.
    broken, _ = cycle_break(near_dag_graph, 0.2, 3, "degree-diff")
    report = compare(near_dag_graph, broken)
    values = [e.value for e in report.active()]
    assert any(v > 0.01 for v in values)


@pytest.mark.parametrize("wedge_block", [triads._WEDGE_BLOCK, 8])
def test_clustering_matches_networkx(monkeypatch, wedge_block):
    nx = pytest.importorskip("networkx")
    monkeypatch.setattr(triads, "_WEDGE_BLOCK", wedge_block)
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        adj = rng.random((n, n)) < rng.uniform(0.05, 0.4)
        np.fill_diagonal(adj, False)
        src, dst = np.nonzero(adj)
        graph = LabeledGraph(num_nodes=n, src=src, dst=dst)
        simple = nx.Graph()
        simple.add_nodes_from(range(n))
        simple.add_edges_from(zip(src.tolist(), dst.tolist()))
        global_c, local = _clustering(graph)
        assert global_c == nx.transitivity(simple)
        want = nx.clustering(simple)
        assert local.tolist() == [want[v] for v in range(n)]


# compare(real, synth).to_tsv() as the battery gave it before it was split
# into per-graph profiles; each fixture skips metrics on one or both sides.
GOLDEN_SKIP_TSV = {
    "zero_variance": (
        "metric\tcategory\tkind\tvalue\tskipped\tnote\n"
        "effective_diameter\tglobal-topology\tAPE\t0.2857142857142857\t0\t\n"
        "avg_path_length\tglobal-topology\tAPE\t0.2903337987449459\t0\t\n"
        "reachability\tglobal-topology\tW1\t11.05\t0\t\n"
        "in_degree_dist\tdegree\tW1\t2.0000000000000004\t0\t\n"
        "out_degree_dist\tdegree\tW1\t1.9\t0\t\n"
        "in_assortativity\tdegree\tAPE\t\t1\tin-assortativity undefined: zero degree variance\n"
        "out_assortativity\tdegree\tAPE\t\t1\tout-assortativity undefined: zero degree variance\n"
        "gt_modularity\tmeso-endogenous\tAPE\t0.9833531510107015\t0\t\n"
        "gt_conductance\tmeso-endogenous\tAPE\t0.3281653746770026\t0\t\n"
        "gt_inter_density\tmeso-endogenous\tAPE\t0.4135338345864662\t0\t\n"
        "gt_intra_density\tmeso-endogenous\tAPE\t\t1\tAPE undefined for a zero reference value\n"
        "gt_in_participation\tmeso-endogenous\tW1\t0.3634166666666666\t0\t\n"
        "gt_out_participation\tmeso-endogenous\tW1\t0.3780555555555556\t0\t\n"
        "detected_modularity_r100\tmeso-exogenous\tAPE\t0.038446294094332124\t0\t\n"
        "detected_sizes_r100\tmeso-exogenous\tW1\t0.6666666666666666\t0\t\n"
        "detected_modularity_r050\tmeso-exogenous\tAPE\t0.0\t0\t\n"
        "detected_sizes_r050\tmeso-exogenous\tW1\t12.0\t0\t\n"
        "detected_modularity_r200\tmeso-exogenous\tAPE\t2.6932223543400706\t0\t\n"
        "detected_sizes_r200\tmeso-exogenous\tW1\t1.2571428571428571\t0\t\n"
        "global_clustering\tlocal\tAPE\t\t1\tAPE undefined for a zero reference value\n"
        "ffl_count\tlocal\tAPE\t\t1\tAPE undefined for a zero reference value\n"
        "local_clustering_dist\tlocal\tW1\t0.2723015873015873\t0\t\n"
        "triad_census\tlocal\tL1\t0.5724310776942356\t0\t\n"
        "betweenness_dist\tflow\tW1\t0.3992690058479532\t0\t\n"
        "scc_sizes\tflow\tW1\t9.0\t0\t\n"
        "longest_path_dist\tflow\tW1\t1.4500000000000002\t0\t\n"
    ),
    "labels_one_side": (
        "metric\tcategory\tkind\tvalue\tskipped\tnote\n"
        "effective_diameter\tglobal-topology\tAPE\t0.2\t0\t\n"
        "avg_path_length\tglobal-topology\tAPE\t0.13312122874382873\t0\t\n"
        "reachability\tglobal-topology\tW1\t14.05\t0\t\n"
        "in_degree_dist\tdegree\tW1\t2.0\t0\t\n"
        "out_degree_dist\tdegree\tW1\t1.9\t0\t\n"
        "in_assortativity\tdegree\tAPE\t\t1\tin-assortativity undefined: zero degree variance\n"
        "out_assortativity\tdegree\tAPE\t\t1\tout-assortativity undefined: zero degree variance\n"
        "gt_modularity\tmeso-endogenous\tAPE\t\t1\tground-truth labels unavailable\n"
        "gt_conductance\tmeso-endogenous\tAPE\t\t1\tground-truth labels unavailable\n"
        "gt_inter_density\tmeso-endogenous\tAPE\t\t1\tground-truth labels unavailable\n"
        "gt_intra_density\tmeso-endogenous\tAPE\t\t1\tground-truth labels unavailable\n"
        "gt_in_participation\tmeso-endogenous\tW1\t\t1\tground-truth labels unavailable\n"
        "gt_out_participation\tmeso-endogenous\tW1\t\t1\tground-truth labels unavailable\n"
        "detected_modularity_r100\tmeso-exogenous\tAPE\t0.7260865139949111\t0\t\n"
        "detected_sizes_r100\tmeso-exogenous\tW1\t0.8333333333333334\t0\t\n"
        "detected_modularity_r050\tmeso-exogenous\tAPE\t0.0\t0\t\n"
        "detected_sizes_r050\tmeso-exogenous\tW1\t15.0\t0\t\n"
        "detected_modularity_r200\tmeso-exogenous\tAPE\t4.023820224719104\t0\t\n"
        "detected_sizes_r200\tmeso-exogenous\tW1\t1.1904761904761905\t0\t\n"
        "global_clustering\tlocal\tAPE\t1.0\t0\t\n"
        "ffl_count\tlocal\tAPE\t1.0\t0\t\n"
        "local_clustering_dist\tlocal\tW1\t0.27230158730158727\t0\t\n"
        "triad_census\tlocal\tL1\t1.143859649122807\t0\t\n"
        "betweenness_dist\tflow\tW1\t0.3992690058479532\t0\t\n"
        "scc_sizes\tflow\tW1\t9.0\t0\t\n"
        "longest_path_dist\tflow\tW1\t0.1499999999999999\t0\t\n"
    ),
    "two_nodes": (
        "metric\tcategory\tkind\tvalue\tskipped\tnote\n"
        "effective_diameter\tglobal-topology\tAPE\t3.0\t0\t\n"
        "avg_path_length\tglobal-topology\tAPE\t1.4900000000000002\t0\t\n"
        "reachability\tglobal-topology\tW1\t3.5\t0\t\n"
        "in_degree_dist\tdegree\tW1\t0.5\t0\t\n"
        "out_degree_dist\tdegree\tW1\t0.5\t0\t\n"
        "in_assortativity\tdegree\tAPE\t\t1\tin-assortativity undefined: zero degree variance\n"
        "out_assortativity\tdegree\tAPE\t\t1\tout-assortativity undefined: zero degree variance\n"
        "gt_modularity\tmeso-endogenous\tAPE\t\t1\tAPE undefined for a zero reference value\n"
        "gt_conductance\tmeso-endogenous\tAPE\t1.0\t0\t\n"
        "gt_inter_density\tmeso-endogenous\tAPE\t\t1\tsingle community: inter-density undefined\n"
        "gt_intra_density\tmeso-endogenous\tAPE\t\t1\tsingle community: inter-density undefined\n"
        "gt_in_participation\tmeso-endogenous\tW1\t0.0\t0\t\n"
        "gt_out_participation\tmeso-endogenous\tW1\t0.0\t0\t\n"
        "detected_modularity_r100\tmeso-exogenous\tAPE\t\t1\tAPE undefined for a zero reference value\n"
        "detected_sizes_r100\tmeso-exogenous\tW1\t0.5\t0\t\n"
        "detected_modularity_r050\tmeso-exogenous\tAPE\t0.0\t0\t\n"
        "detected_sizes_r050\tmeso-exogenous\tW1\t3.0\t0\t\n"
        "detected_modularity_r200\tmeso-exogenous\tAPE\t0.6799999999999998\t0\t\n"
        "detected_sizes_r200\tmeso-exogenous\tW1\t0.6666666666666667\t0\t\n"
        "global_clustering\tlocal\tAPE\t\t1\tAPE undefined for a zero reference value\n"
        "ffl_count\tlocal\tAPE\t\t1\tAPE undefined for a zero reference value\n"
        "local_clustering_dist\tlocal\tW1\t0.0\t0\t\n"
        "triad_census\tlocal\tL1\t\t1\ttriad census needs at least 3 nodes\n"
        "betweenness_dist\tflow\tW1\t\t1\tbetweenness needs at least 3 nodes\n"
        "scc_sizes\tflow\tW1\t4.0\t0\t\n"
        "longest_path_dist\tflow\tW1\t1.4999999999999998\t0\t\n"
    ),
}


# As GOLDEN_SKIP_TSV, for a pair that uses every sampling seed: both graphs
# are subsampled, and pairs, sources and census triples are sampled.  The
# inputs come from `generate` and `inject_back_edges` and the detected rows
# from `detect_communities`; after a change to any of them, the unsplit
# battery of the git history, given the same inputs and detector, is the
# oracle that recomputes these values.
GOLDEN_SAMPLED_TSV = (
    "metric\tcategory\tkind\tvalue\tskipped\tnote\n"
    "effective_diameter\tglobal-topology\tAPE\t0.44155844155844143\t0\t\n"
    "avg_path_length\tglobal-topology\tAPE\t0.45859872611464964\t0\t\n"
    "reachability\tglobal-topology\tW1\t19.633333333333333\t0\t\n"
    "in_degree_dist\tdegree\tW1\t0.53\t0\t\n"
    "out_degree_dist\tdegree\tW1\t0.36\t0\t\n"
    "in_assortativity\tdegree\tAPE\t0.09529315069095648\t0\t\n"
    "out_assortativity\tdegree\tAPE\t0.15087427225227373\t0\t\n"
    "gt_modularity\tmeso-endogenous\tAPE\t0.012280607800800713\t0\t\n"
    "gt_conductance\tmeso-endogenous\tAPE\t0.0586387259571197\t0\t\n"
    "gt_inter_density\tmeso-endogenous\tAPE\t0.13697932012772446\t0\t\n"
    "gt_intra_density\tmeso-endogenous\tAPE\t0.09562175431810357\t0\t\n"
    "gt_in_participation\tmeso-endogenous\tW1\t0.03415758476414998\t0\t\n"
    "gt_out_participation\tmeso-endogenous\tW1\t0.02973427092963754\t0\t\n"
    "detected_modularity_r100\tmeso-exogenous\tAPE\t0.0570757191528695\t0\t\n"
    "detected_sizes_r100\tmeso-exogenous\tW1\t5.972222222222222\t0\t\n"
    "detected_modularity_r050\tmeso-exogenous\tAPE\t0.021260845479229795\t0\t\n"
    "detected_sizes_r050\tmeso-exogenous\tW1\t100.0\t0\t\n"
    "detected_modularity_r200\tmeso-exogenous\tAPE\t0.02512680360220638\t0\t\n"
    "detected_sizes_r200\tmeso-exogenous\tW1\t1.038095238095238\t0\t\n"
    "global_clustering\tlocal\tAPE\t0.04570837988826805\t0\t\n"
    "ffl_count\tlocal\tAPE\t0.244\t0\t\n"
    "local_clustering_dist\tlocal\tW1\t0.017257312510440465\t0\t\n"
    "triad_census\tlocal\tL1\t0.007000000000000003\t0\t\n"
    "betweenness_dist\tflow\tW1\t0.0021039541140043653\t0\t\n"
    "scc_sizes\tflow\tW1\t0.11111111111111072\t0\t\n"
    "longest_path_dist\tflow\tW1\t0.875\t0\t\n"
)


def test_sampled_compare_matches_the_unsplit_battery():
    params = CsParams(p=(0.6, 0.4), m=(4.0, 3.0), rho=(0.3, 0.6),
                      sigma2=(6.0, 5.0))
    real = inject_back_edges(generate(params, 300, 1), 0.1, 2)
    synth = generate(params, 260, 3)
    config = MetricConfig(seed=3, n_pairs=200, n_sources=30, max_nodes=200,
                          triad_exact_limit=50, triad_samples=2000)
    assert compare(real, synth, config).to_tsv() == GOLDEN_SAMPLED_TSV


def skip_fixtures():
    """(real, synth) pairs named as in GOLDEN_SKIP_TSV."""
    def graph(n, edges, labels=None):
        e = np.array(edges, np.int64).reshape(-1, 2)
        return LabeledGraph(num_nodes=n, src=e[:, 0], dst=e[:, 1],
                            labels=None if labels is None else np.asarray(labels))

    ring = graph(8, [(i, (i + 1) % 8) for i in range(8)],
                 [i % 2 for i in range(8)])
    rng = np.random.default_rng(5)
    adj = rng.random((20, 20)) < 0.15
    np.fill_diagonal(adj, False)
    labelled = graph(20, np.argwhere(adj), rng.integers(0, 3, 20))
    bare = graph(20, np.argwhere(adj))
    single = graph(5, [(i, (i + 1) % 5) for i in range(5)], [0] * 5)
    pair = graph(2, [(0, 1)], [0, 1])
    return {"zero_variance": (ring, labelled),
            "labels_one_side": (bare, single),
            "two_nodes": (pair, single)}


@pytest.mark.parametrize("name", sorted(GOLDEN_SKIP_TSV))
def test_skip_notes_match_the_unsplit_battery(name):
    real, synth = skip_fixtures()[name]
    assert compare(real, synth).to_tsv() == GOLDEN_SKIP_TSV[name]
    config = MetricConfig()
    assert distance(profile(real, config), profile(synth, config)).to_tsv() \
        == GOLDEN_SKIP_TSV[name]


@pytest.mark.parametrize("resolutions", [(1.0, 0.5, 2.0), (0.25, 3.0)])
def test_schema_matches_report(near_dag_graph, resolutions):
    config = MetricConfig(n_pairs=100, n_sources=20, resolutions=resolutions)
    report = compare(near_dag_graph, near_dag_graph, config)
    assert metric_schema(config) == [(e.name, e.category, e.kind)
                                     for e in report.entries]
    assert len(report.entries) == 20 + 2 * len(resolutions)


def test_profile_stores_failures_and_raises_them_on_read(make_graph):
    pair = make_graph(2, [(0, 1)])
    prof = profile(pair)
    assert isinstance(prof.values["betweenness_dist"], MetricError)
    for _ in range(2):
        with pytest.raises(MetricError, match="at least 3 nodes"):
            prof["betweenness_dist"]
    assert prof["scc_sizes"].tolist() == [1, 1]
    assert "gt_modularity" not in prof.values


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("n", [0, 1])
def test_graphs_below_two_nodes_skip_path_lengths(make_graph, n, exact):
    chain = make_graph(6, [(i + 1, i) for i in range(5)], labels=[0] * 6)
    tiny = make_graph(n, [], labels=[0] * n)
    real, synth = profiles([chain, tiny], MetricConfig(exact=exact))
    for name in ("effective_diameter", "avg_path_length"):
        with pytest.raises(MetricError, match="no finite-distance pairs"):
            synth[name]
    report = distance(real, synth)
    assert len(report.entries) == 26
    assert {"effective_diameter", "avg_path_length"} <= {
        e.name for e in report.entries if e.skipped}


def test_metric_config_keeps_resolutions_as_a_hashable_tuple():
    config = MetricConfig(resolutions=[1, 0.5])
    assert config.resolutions == (1.0, 0.5)
    assert config == MetricConfig(resolutions=(1.0, 0.5))
    assert hash(config) == hash(MetricConfig(resolutions=(1.0, 0.5)))


@pytest.mark.parametrize("resolutions, match", [
    ((float("nan"),), "finite and positive"),
    ((1.0, float("inf")), "finite and positive"),
    ((0.0,), "finite and positive"), ((-1.0,), "finite and positive"),
    ((1.0, 1.0), "1.0 and 1.0 share the row tag r100"),
    ((0.5, 1.0, 1.001), "1.0 and 1.001 share the row tag r100"),
    ((1.0, 1e307), "at most 1e306, got 1e\\+307")])
def test_metric_config_rejects_bad_resolutions(resolutions, match):
    with pytest.raises(MetricError, match=match):
        MetricConfig(resolutions=resolutions)


def test_metric_config_rejects_counts_below_one(make_graph):
    for field in ("n_pairs", "n_sources", "max_nodes", "triad_samples"):
        for value in (0, -1):
            with pytest.raises(MetricError,
                               match=f"{field} must be at least 1"):
                MetricConfig(**{field: value})
        assert getattr(MetricConfig(**{field: 1}), field) == 1
    chain = make_graph(6, [(i + 1, i) for i in range(5)])
    with pytest.raises(MetricError, match="n_sources"):
        compare(chain, chain, MetricConfig(n_sources=0))


def test_distance_rejects_profiles_of_different_configs(make_graph):
    chain = make_graph(6, [(i + 1, i) for i in range(5)])
    with pytest.raises(ValueError, match="different metric configs"):
        distance(profile(chain, MetricConfig(seed=1)),
                 profile(chain, MetricConfig(seed=2)))


def test_self_comparison_builds_one_profile(near_dag_graph, monkeypatch):
    calls = []
    detect = battery.detect_communities

    def counting(graph, *args, **kwargs):
        calls.append(graph)
        return detect(graph, *args, **kwargs)

    monkeypatch.setattr(battery, "detect_communities", counting)
    config = MetricConfig(n_pairs=100, n_sources=20)
    graph = replace(near_dag_graph)  # profiled by no other test
    compare(graph, graph, config)
    assert len(calls) == 3
    # the second compare reads the kept profile of graph
    compare(graph, strip_labels(graph), config)
    assert len(calls) == 6


def test_density_pair_runs_once_per_labelled_profile(make_graph, monkeypatch):
    calls = []
    density_pair = battery.density_pair
    monkeypatch.setattr(battery, "density_pair",
                        lambda graph: calls.append(graph) or density_pair(graph))
    graph = make_graph(4, [(1, 0), (2, 0), (3, 2), (3, 1)], labels=[0, 0, 1, 1])
    prof = profile(graph)
    assert len(calls) == 1 and calls[0] is graph
    assert prof["gt_intra_density"] == 0.5
    assert prof["gt_inter_density"] == 0.25
    profile(strip_labels(graph))
    assert len(calls) == 1


@pytest.mark.parametrize("budget", [1, communities.UNION_ENTRIES])
def test_profiles_equal_the_profile_of_each_graph(make_graph, monkeypatch,
                                                  budget):
    # with budget 1 every graph is detected alone
    monkeypatch.setattr(communities, "UNION_ENTRIES", budget)
    params = CsParams(p=(0.6, 0.4), m=(4.0, 3.0), rho=(0.3, 0.6),
                      sigma2=(6.0, 5.0))
    grown = [inject_back_edges(generate(params, n, n), 0.1, 1)
             for n in (300, 60, 140)]
    graphs = grown + [strip_labels(grown[1]), make_graph(5, []),
                      make_graph(2, [(0, 1)], labels=[0, 1])]
    config = MetricConfig(seed=4, n_pairs=200, n_sources=30, max_nodes=200,
                          triad_exact_limit=50, triad_samples=2000)
    batch = profiles(graphs, config)
    assert len(batch) == len(graphs)
    for graph, got in zip(graphs, batch):
        want = profile(LabeledGraph(
            num_nodes=graph.num_nodes, src=graph.src, dst=graph.dst,
            labels=graph.labels), config)
        assert got.config == want.config
        assert got.values.keys() == want.values.keys()
        for name, value in want.values.items():
            if isinstance(value, MetricError):
                assert type(got.values[name]) is MetricError
                assert str(got.values[name]) == str(value)
            else:
                assert np.array_equal(got.values[name], value)
                assert np.asarray(got.values[name]).dtype == \
                    np.asarray(value).dtype


def _kept_cases(near_dag_graph, make_graph):
    """(real, two synthetic graphs, config) for each kind of kept profile:
    a labelled graph, a subsampled one, and one holding failed rows."""
    small = MetricConfig(seed=3, n_pairs=100, n_sources=20)
    others = [inject_back_edges(near_dag_graph, 0.2, s) for s in (5, 6)]
    pair = make_graph(2, [(0, 1)], labels=[0, 1])
    return {
        "labelled": (replace(near_dag_graph), others, small),
        "subsampled": (replace(near_dag_graph), others,
                       replace(small, max_nodes=400)),
        "skipped": (pair, [make_graph(3, [(1, 0), (2, 0)], labels=[0, 0, 1]),
                           make_graph(3, [(1, 0), (2, 1)], labels=[0, 1, 1])],
                    small)}


@pytest.mark.parametrize("case", ["labelled", "subsampled", "skipped"])
def test_a_kept_profile_reports_as_a_fresh_graph(near_dag_graph, make_graph,
                                                 case):
    real, others, config = _kept_cases(near_dag_graph, make_graph)[case]
    first = compare(real, others[0], config)
    (key, values), = real.profiles.items()
    assert key == config and isinstance(values, MappingProxyType)
    assert len(values["in_degree_dist"]) == (
        config.max_nodes if case == "subsampled" else real.num_nodes)
    assert any(isinstance(v, MetricError)
               for v in values.values()) == (case == "skipped")
    # the second compare reads the kept profile
    second = compare(real, others[1], config)
    assert real.profiles[config] is values
    assert profile(real, config).values is values
    for synth, report in zip(others, (first, second)):
        fresh = compare(replace(real), replace(synth), config)
        assert report.to_tsv() == fresh.to_tsv()
    assert any(e.skipped for e in second.entries) == (case == "skipped")


def test_a_second_config_replaces_the_kept_profile(make_graph, monkeypatch):
    calls = []
    flow = battery.flow_metrics
    monkeypatch.setattr(battery, "flow_metrics",
                        lambda graph, *args: calls.append(graph)
                        or flow(graph, *args))
    graph = make_graph(6, [(1, 0), (2, 0), (3, 1), (4, 2), (5, 3), (0, 5)],
                       labels=[0, 0, 0, 1, 1, 1])
    one, two = MetricConfig(seed=1), MetricConfig(seed=2)
    first = profile(graph, one)
    assert profile(graph, one).values is first.values and len(calls) == 1
    assert list(graph.profiles) == [one]
    profile(graph, two)
    assert list(graph.profiles) == [two] and len(calls) == 2
    again = profile(graph, one)
    assert list(graph.profiles) == [one] and len(calls) == 3
    assert again.values is not first.values
    assert distance(again, first).to_tsv() == distance(first, first).to_tsv()


def _profiled_and_dropped(graph, config):
    """A weak reference to ``graph`` after profiling it and reading every
    row, under an exception being handled, and dropping it."""
    try:
        raise KeyError("handled while profiling")
    except KeyError:
        prof = profile(graph, config)
    report = distance(prof, prof)
    assert report.entries
    return weakref.ref(graph)


def test_a_profiled_graph_is_freed_without_the_cycle_collector(make_graph):
    config = MetricConfig(seed=2, max_nodes=60)
    params = CsParams(p=(0.6, 0.4), m=(4.0, 3.0), rho=(0.3, 0.6),
                      sigma2=(6.0, 5.0))
    gc.collect()
    gc.disable()
    try:
        refs = [_profiled_and_dropped(graph, config) for graph in (
            make_graph(2, [(0, 1)], labels=[0, 1]),  # rows that fail
            inject_back_edges(generate(params, 200, 3), 0.1, 4))]  # subsampled
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_no_subsample_outlives_the_call_that_profiled_it(near_dag_graph,
                                                         monkeypatch):
    # a profile is its values: neither it nor what the graph keeps holds
    # the subsample the values were measured on
    subs = []
    bfs_subsample = battery.bfs_subsample

    def tracked(graph, *args):
        sub = bfs_subsample(graph, *args)
        subs.append(weakref.ref(sub))
        return sub

    monkeypatch.setattr(battery, "bfs_subsample", tracked)
    config = MetricConfig(seed=3, n_pairs=100, n_sources=20, max_nodes=400)
    real = replace(near_dag_graph)
    synth = inject_back_edges(near_dag_graph, 0.2, 5)
    gc.collect()
    gc.disable()
    try:
        prof = profile(real, config)
        assert len(subs) == 1 and subs[0]() is None
        compare(real, synth, config)  # reads real's kept profile
        assert len(subs) == 2 and subs[1]() is None
    finally:
        gc.enable()
    assert [f.name for f in fields(GraphProfile)] == ["config", "values"]
    assert real.profiles[config] is prof.values


def test_kept_values_are_read_only(near_dag_graph):
    config = MetricConfig(seed=5, n_pairs=100, n_sources=20)
    prof = profile(replace(near_dag_graph), config)
    arrays = [v for v in prof.values.values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 8
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(TypeError):
        prof.values["reachability"] = None


def _same_values(got, want):
    return got.keys() == want.keys() and all(
        str(g) == str(w) if isinstance(w, MetricError)
        else np.array_equal(g, w) for g, w in
        ((got[name], want[name]) for name in want))


def test_concurrent_profiles_under_other_configs_return_their_own(
        make_graph):
    # threads replace the graph's kept profile under one another; each
    # must still get the profile of its own config
    params = CsParams(p=(0.6, 0.4), m=(3.0, 2.0), rho=(0.3, 0.6),
                      sigma2=(3.0, 2.0))
    graph = inject_back_edges(generate(params, 60, 9), 0.1, 9)
    configs = [MetricConfig(seed=s, n_pairs=50, n_sources=10,
                            max_nodes=50) for s in range(4)]
    want = [profile(replace(graph), c).values for c in configs]
    errors = []

    def work(shift):
        try:
            for i in range(12):
                k = (i + shift) % len(configs)
                # a second graph to profile after this one is kept
                got = profiles([graph, replace(graph)], configs[k])[0]
                if got.config != configs[k] or not _same_values(
                        got.values, want[k]):
                    errors.append((shift, i))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert not graph.detections


@pytest.mark.parametrize("during", ["_louvain", "detect_communities"])
def test_nested_profiles_calls_hold_their_own_runs(near_dag_graph,
                                                   monkeypatch, during):
    # a second profiles call on the graph runs inside the first one's
    # detection run, or inside its first read of a held run; each must
    # read only the runs it found
    graph = replace(near_dag_graph)
    configs = [MetricConfig(seed=s, n_pairs=100, n_sources=20)
               for s in (1, 2)]
    want = [profile(replace(graph), c).values for c in configs]
    runs, inner = [], []
    louvain = communities._louvain
    monkeypatch.setattr(communities, "_louvain", lambda copies, seed: (
        runs.append(seed.entropy) or louvain(copies, seed)))
    module = communities if during == "_louvain" else battery
    nested = getattr(module, during)

    def nesting(*args):
        if not inner:
            inner.append(None)
            inner[0] = profiles([graph], configs[1])[0]
        return nested(*args)

    monkeypatch.setattr(module, during, nesting)
    outer, = profiles([graph], configs[0])
    assert sorted(runs) == [1, 2]
    assert _same_values(outer.values, want[0])
    assert _same_values(inner[0].values, want[1])
    assert not graph.detections


def test_no_graph_holds_detections_after_a_call(near_dag_graph, make_graph,
                                                monkeypatch):
    seen = []
    detect_batch = battery.detect_batch
    monkeypatch.setattr(battery, "detect_batch", lambda graphs, *args: (
        seen.extend(graphs) or detect_batch(graphs, *args)))
    config = MetricConfig(seed=3, n_pairs=100, n_sources=20, max_nodes=400)
    real = replace(near_dag_graph)
    synth = inject_back_edges(near_dag_graph, 0.2, 5)
    compare(real, synth, config)
    profiles([synth, make_graph(0, []), make_graph(4, [])],
             replace(config, seed=4))
    assert len(seen) == 5 and seen[0] is not real  # subsampled
    assert not any(g.detections for g in seen + [real, synth])
