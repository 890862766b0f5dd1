import numpy as np
import pytest

from citegen.graph import LabeledGraph
from citegen.metrics import battery
from citegen.metrics.battery import (CATEGORIES, MetricConfig, MetricReport,
                                     _clustering, compare)
from citegen.metrics.distances import MetricError
from citegen.neardag import cycle_break

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


@pytest.mark.parametrize("wedge_block", [battery._WEDGE_BLOCK, 8])
def test_clustering_matches_networkx(monkeypatch, wedge_block):
    nx = pytest.importorskip("networkx")
    monkeypatch.setattr(battery, "_WEDGE_BLOCK", wedge_block)
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
