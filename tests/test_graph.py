import io

import numpy as np
import pytest

from citegen.graph import (GraphError, LabeledGraph, _adjacency, bfs_subsample,
                           induced_subgraph, is_acyclic, load_edge_list,
                           load_labels, load_timestamps, out_csr,
                           prune_unlabeled, sample_pairs, save_edge_list,
                           save_labels, undirected_csr)


def test_load_basic():
    graph, report = load_edge_list(io.StringIO("a\tb\nb\tc\n"))
    assert graph.num_nodes == 3
    assert graph.num_edges == 2
    assert report.lines == 2
    assert report.duplicate_edges == 0
    assert report.self_loops == 0
    assert graph.names == ("a", "b", "c")


def test_load_drops_self_loop():
    graph, report = load_edge_list(io.StringIO("a\ta\n"))
    assert graph.num_nodes == 1
    assert graph.num_edges == 0
    assert report.self_loops == 1


def test_load_reports_duplicates():
    graph, report = load_edge_list(io.StringIO("a\tb\na\tb\n"))
    assert graph.num_nodes == 2
    assert graph.num_edges == 1
    assert report.duplicate_edges == 1


def test_load_malformed_line_names_line_number():
    with pytest.raises(GraphError, match="line 2"):
        load_edge_list(io.StringIO("a\tb\nnonsense\n"))


def test_load_empty_stream():
    graph, report = load_edge_list(io.StringIO(""))
    assert graph.num_nodes == 0
    assert graph.num_edges == 0
    assert report.lines == 0


def test_load_header_skipped():
    graph, _ = load_edge_list(io.StringIO("src\tdst\na\tb\n"), has_header=True)
    assert graph.num_nodes == 2
    assert graph.num_edges == 1


def test_interning_stable():
    text = "x\ty\nz\tx\n"
    g1, _ = load_edge_list(io.StringIO(text))
    g2, _ = load_edge_list(io.StringIO(text))
    assert g1.names == g2.names
    assert np.array_equal(g1.src, g2.src)
    assert np.array_equal(g1.dst, g2.dst)


def test_graph_rejects_self_loop(make_graph):
    with pytest.raises(GraphError):
        make_graph(2, [(0, 0)])


def test_graph_rejects_duplicate_edge(make_graph):
    with pytest.raises(GraphError):
        make_graph(2, [(0, 1), (0, 1)])


def test_graph_rejects_out_of_range(make_graph):
    with pytest.raises(GraphError):
        make_graph(2, [(0, 2)])


def test_degrees_path(make_graph):
    graph = make_graph(3, [(0, 1), (1, 2)])
    deg = graph.degrees()
    assert deg.d_out.tolist() == [1, 1, 0]
    assert deg.d_in.tolist() == [0, 1, 1]


def test_degrees_star(make_graph):
    graph = make_graph(6, [(i, 5) for i in range(5)])
    assert graph.degrees().d_in[5] == 5
    assert graph.degrees().d_out.sum() == graph.num_edges


def test_degrees_empty(make_graph):
    deg = make_graph(0, []).degrees()
    assert deg.d_in.size == 0
    assert deg.d_out.size == 0


def test_cached_views_built_once_read_only_and_equal_to_builders(make_graph):
    graph = make_graph(5, [(0, 1), (1, 2), (2, 0), (3, 1), (1, 3), (4, 2)])
    adj = graph.adjacency
    views = {
        "out_csr": (graph.out_csr, out_csr(graph)),
        "undirected_csr": (graph.undirected_csr, undirected_csr(graph)),
        "adjacency": ((adj.data, adj.indices, adj.indptr),
                      (lambda a: (a.data, a.indices, a.indptr))(_adjacency(graph))),
        "degrees": ((graph.degrees().d_in, graph.degrees().d_out),
                    (np.bincount(graph.dst, minlength=5),
                     np.bincount(graph.src, minlength=5))),
    }
    for name, (cached, built) in views.items():
        for got, want in zip(cached, built, strict=True):
            assert np.array_equal(got, want), name
            with pytest.raises(ValueError, match="read-only"):
                got[0] = got[0]
    for name in ("out_csr", "undirected_csr", "adjacency"):
        assert getattr(graph, name) is getattr(graph, name)
    assert graph.degrees() is graph.degrees()


def test_labels_unknown_node_errors():
    graph, _ = load_edge_list(io.StringIO("a\tb\n"))
    with pytest.raises(GraphError, match="unknown node"):
        load_labels(io.StringIO("c\t0\n"), graph)


def test_labels_and_prune_noop():
    graph, _ = load_edge_list(io.StringIO("a\tb\nb\tc\n"))
    mapping, community_names = load_labels(
        io.StringIO("a\tphys\nb\tphys\nc\tbio\n"), graph)
    pruned = prune_unlabeled(graph, mapping, community_names)
    assert pruned.num_nodes == 3
    assert pruned.num_edges == 2
    assert pruned.labels.tolist() == [0, 0, 1]
    assert pruned.community_names == ("phys", "bio")


def test_prune_drops_unlabeled_and_incident_edges():
    graph, _ = load_edge_list(io.StringIO("a\tb\nb\tc\nc\ta\n"))
    mapping, community_names = load_labels(io.StringIO("a\t0\nb\t0\n"), graph)
    pruned = prune_unlabeled(graph, mapping, community_names)
    assert pruned.num_nodes == 2
    assert pruned.num_edges == 1
    assert pruned.names == ("a", "b")


def test_prune_empty_labels():
    graph, _ = load_edge_list(io.StringIO("a\tb\n"))
    pruned = prune_unlabeled(graph, {})
    assert pruned.num_nodes == 0
    assert pruned.num_edges == 0


def test_timestamps_parse_and_reject():
    graph, _ = load_edge_list(io.StringIO("a\tb\n"))
    ts = load_timestamps(io.StringIO("a\t1990\nb\t2005\n"), graph)
    assert ts == {0: 1990, 1: 2005}
    with pytest.raises(GraphError, match="timestamp"):
        load_timestamps(io.StringIO("a\tnope\n"), graph)


def test_induced_subgraph_remaps(make_graph):
    graph = make_graph(5, [(0, 1), (1, 2), (3, 4), (2, 4)],
                       labels=[0, 0, 1, 1, 0])
    sub = induced_subgraph(graph, np.array([1, 2, 4]))
    assert sub.num_nodes == 3
    assert sorted(zip(sub.src.tolist(), sub.dst.tolist())) == [(0, 1), (1, 2)]
    assert sub.labels.tolist() == [0, 1, 0]


def test_bfs_subsample_whole_graph(dag_graph):
    sub = bfs_subsample(dag_graph, dag_graph.num_nodes + 10, 0)
    assert sub.num_nodes == dag_graph.num_nodes
    assert sub.num_edges == dag_graph.num_edges


def test_bfs_subsample_count_and_determinism(dag_graph):
    a = bfs_subsample(dag_graph, 400, 3)
    b = bfs_subsample(dag_graph, 400, 3)
    assert a.num_nodes == 400
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    c = bfs_subsample(dag_graph, 400, 4)
    assert a.num_nodes == c.num_nodes


def test_bfs_subsample_restarts_across_components(make_graph):
    edges = [(i, i + 1) for i in range(29)]
    edges += [(30 + i, 30 + i + 1) for i in range(29)]
    graph = make_graph(60, edges)
    sub = bfs_subsample(graph, 50, 0)
    assert sub.num_nodes == 50


def test_sample_pairs_contract(dag_graph):
    pairs = sample_pairs(dag_graph, 500, 1)
    assert pairs.shape == (500, 2)
    assert (pairs[:, 0] != pairs[:, 1]).all()
    again = sample_pairs(dag_graph, 500, 1)
    assert np.array_equal(pairs, again)
    assert sample_pairs(dag_graph, 0, 1).shape == (0, 2)


def test_sample_pairs_two_node_graph(make_graph):
    graph = make_graph(2, [(0, 1)])
    pairs = sample_pairs(graph, 10, 0)
    assert len(pairs) == 10
    assert all(sorted(p) == [0, 1] for p in pairs.tolist())


def test_sample_pairs_needs_two_nodes(make_graph):
    with pytest.raises(GraphError):
        sample_pairs(make_graph(1, []), 5, 0)


def test_save_load_round_trip(make_graph):
    graph = make_graph(4, [(1, 0), (2, 0), (3, 1), (3, 2)],
                       labels=[0, 0, 1, 1])
    edges_buf = io.StringIO()
    labels_buf = io.StringIO()
    save_edge_list(graph, edges_buf)
    save_labels(graph, labels_buf)
    loaded, _ = load_edge_list(io.StringIO(edges_buf.getvalue()))
    mapping, community_names = load_labels(
        io.StringIO(labels_buf.getvalue()), loaded)
    loaded = prune_unlabeled(loaded, mapping, community_names)
    assert loaded.num_nodes == 4
    assert loaded.num_edges == 4
    original = {(graph.labels[s], graph.labels[d])
                for s, d in zip(graph.src, graph.dst)}
    recovered = {(loaded.labels[s], loaded.labels[d])
                 for s, d in zip(loaded.src, loaded.dst)}
    assert original == recovered


def test_save_labels_skips_isolated(make_graph):
    graph = make_graph(3, [(0, 1)], labels=[0, 1, 0])
    buf = io.StringIO()
    save_labels(graph, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 2
    assert all(not line.startswith("2\t") for line in lines)


def test_save_labels_requires_labels(make_graph):
    with pytest.raises(GraphError):
        save_labels(make_graph(2, [(0, 1)]), io.StringIO())


def test_is_acyclic(make_graph):
    assert is_acyclic(make_graph(3, [(2, 1), (1, 0)]))
    assert not is_acyclic(make_graph(3, [(0, 1), (1, 2), (2, 0)]))
    assert is_acyclic(make_graph(1, []))
    assert is_acyclic(make_graph(0, []))


def test_is_acyclic_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(23)
    verdicts = []
    for _ in range(60):
        n = int(rng.integers(2, 40))
        adj = rng.random((n, n)) < rng.uniform(0.01, 0.15)
        np.fill_diagonal(adj, False)
        if rng.random() < 0.5:
            # keep only arcs from newer to older nodes: a DAG
            adj = np.tril(adj)
        src, dst = np.nonzero(adj)
        graph = LabeledGraph(num_nodes=n, src=src, dst=dst)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(zip(src.tolist(), dst.tolist()))
        verdicts.append(is_acyclic(graph))
        assert verdicts[-1] == nx.is_directed_acyclic_graph(ref)
    assert 0 < sum(verdicts) < len(verdicts)
