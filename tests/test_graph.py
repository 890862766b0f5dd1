import io

import numpy as np
import pytest

from citegen.graph import (GraphError, LabeledGraph, LoadReport, _adjacency,
                           bfs_subsample, induced_subgraph, is_acyclic,
                           load_edge_list, load_labels, load_timestamps,
                           out_csr, prune_unlabeled, sample_pairs,
                           save_edge_list, save_labels, undirected_csr)


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


# ------------------------------------------------ per-line I/O oracles

# The per-line loader and writers that the blocked ones replaced, kept as
# oracles: the blocked I/O must give the same graphs, reports, errors and
# bytes.

def _load_edge_list_oracle(text, has_header=False):
    report = LoadReport()
    ids: dict = {}
    src_list: list = []
    dst_list: list = []
    seen: set = set()
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        if has_header and lineno == 1:
            continue
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise GraphError(f"malformed edge line {lineno}: {raw!r}")
        report.lines += 1
        a = ids.setdefault(parts[0], len(ids))
        b = ids.setdefault(parts[1], len(ids))
        if a == b:
            report.self_loops += 1
            continue
        if (a, b) in seen:
            report.duplicate_edges += 1
            continue
        seen.add((a, b))
        src_list.append(a)
        dst_list.append(b)
    graph = LabeledGraph(num_nodes=len(ids), src=np.array(src_list, np.int64),
                         dst=np.array(dst_list, np.int64), names=tuple(ids))
    return graph, report


def _save_edge_list_oracle(graph, header=None):
    fh = io.StringIO()
    if header:
        fh.write(header.rstrip("\n") + "\n")
    names = graph.names
    for s, d in zip(graph.src, graph.dst):
        if names is None:
            fh.write(f"{s}\t{d}\n")
        else:
            fh.write(f"{names[s]}\t{names[d]}\n")
    return fh.getvalue()


def _save_labels_oracle(graph):
    fh = io.StringIO()
    deg = graph.degrees()
    connected = (deg.d_in + deg.d_out) > 0
    names = graph.names
    cnames = graph.community_names
    for v in range(graph.num_nodes):
        if not connected[v]:
            continue
        node = str(v) if names is None else names[v]
        lab = graph.labels[v]
        token = str(lab) if cnames is None else cnames[lab]
        fh.write(f"{node}\t{token}\n")
    return fh.getvalue()


def _outcome(load, text, has_header):
    try:
        graph, report = load(text, has_header)
    except GraphError as err:
        return "error", str(err)
    return (graph.num_nodes, graph.names, graph.src.tolist(),
            graph.dst.tolist(), report)


def _block_file(n_lines, bad=None):
    """``n_lines`` edge lines over a few hundred nodes, with repeats and
    self-loops; line ``bad`` (1-based) replaced by a 3-field line."""
    rng = np.random.default_rng(n_lines)
    pairs = rng.integers(0, 300, (n_lines, 2))
    lines = [f"n{a}\tn{b}\n" for a, b in pairs.tolist()]
    if bad is not None:
        lines[bad - 1] = "x\ty\tz\n"
    return "".join(lines)


@pytest.mark.parametrize("text, has_header", [
    ("", False),
    ("src\tdst\n", True),
    ("src\tdst", True),
    ("a\tb\r\nb\tc\r\n\r\nc\ta\r\n", False),
    ("src\tdst\r\n\na\tb\n\n\nb\ta\n", True),
    ("a\tb\nb\tc", False),
    ("a\tb\nb\tc\r", False),
    ("\n\n\n", False),
    # x appears only in a dropped self-loop and stays interned
    ("a\tb\nx\tx\nb\tc\n", False),
    ("a\tb\na\tb\nb\ta\na\tb\nb\ta\nc\tc\nc\tc\n", False),
    ("a\tb\nb\tc\td\n", False),
    ("a\tb\nonly\n", False),
    ("a\tb\n\tc\n", False),
    ("a\tb\nc\t\n", False),
    ("a\tb\r\nc\t\r\n", False),
    # one line without a tab and one with two: the token count is right
    ("a\tb\nc\nd\te\tf\n", False),
    (_block_file(20000), False),
    (_block_file(20000), True),
    (_block_file(20000, bad=8200), False),
    (_block_file(20000, bad=8200), True),
    (_block_file(20000, bad=19999), False),
    ("\n" * 9000 + "a\tb\nc\n", False),
])
def test_load_edge_list_matches_per_line_oracle(text, has_header):
    got = _outcome(lambda t, h: load_edge_list(io.StringIO(t), h), text,
                   has_header)
    assert got == _outcome(_load_edge_list_oracle, text, has_header)


def test_load_malformed_line_after_first_block_names_its_line():
    with pytest.raises(GraphError,
                       match=r"malformed edge line 8200: 'x\\ty\\tz\\n'"):
        load_edge_list(io.StringIO(_block_file(20000, bad=8200)))
    with pytest.raises(GraphError, match="malformed edge line 8201:"):
        load_edge_list(io.StringIO("h\n" + _block_file(20000, bad=8200)),
                       has_header=True)


def test_load_keeps_first_occurrences_across_blocks(caplog):
    text = _block_file(20000)
    with caplog.at_level("WARNING"):
        graph, report = load_edge_list(io.StringIO(text))
    assert report.duplicate_edges > 0 and report.self_loops > 0
    assert (f"dropped {report.self_loops} self-loops and "
            f"{report.duplicate_edges} duplicate edges on load") in caplog.text


def test_load_edge_list_reads_a_path(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text(_block_file(9000), encoding="utf-8")
    got = _outcome(lambda t, h: load_edge_list(path, h), None, False)
    assert got == _outcome(_load_edge_list_oracle, _block_file(9000), False)


def _lines(text):
    """Lines with their ends: on a mismatch pytest names the first differing
    line, where a diff of two whole files would take minutes."""
    if isinstance(text, io.StringIO):
        text = text.getvalue()
    return text.splitlines(keepends=True)


@pytest.mark.parametrize("named", [False, True])
def test_save_edge_list_matches_per_line_oracle(named):
    rng = np.random.default_rng(5)
    n = 3000
    keys = np.unique(rng.integers(0, n * n, 20000))
    keys = keys[keys // n != keys % n]
    graph = LabeledGraph(
        num_nodes=n, src=keys // n, dst=keys % n,
        labels=rng.integers(0, 3, n),
        names=tuple(f"node-{i}" for i in range(n)) if named else None,
        community_names=("phys", "bio", "cs") if named else None)
    for header in (None, "src\tdst", "src\tdst\n"):
        buf = io.StringIO()
        save_edge_list(graph, buf, header)
        assert _lines(buf) == _lines(_save_edge_list_oracle(graph, header))
    buf = io.StringIO()
    save_labels(graph, buf)
    assert _lines(buf) == _lines(_save_labels_oracle(graph))
    empty = LabeledGraph(num_nodes=2, src=[], dst=[])
    buf = io.StringIO()
    save_edge_list(empty, buf)
    assert buf.getvalue() == ""


def test_node_columns_allow_empty_value_and_name_bad_lines():
    graph, _ = load_edge_list(io.StringIO("a\tb\nb\tc\n"))
    mapping, community_names = load_labels(
        io.StringIO("a\t\r\n\nb\tx\nc\t\n"), graph)
    assert mapping == {0: 0, 1: 1, 2: 0}
    assert community_names == ("", "x")
    with pytest.raises(GraphError,
                       match="label line 3 references unknown node 'd'"):
        load_labels(io.StringIO("a\t1\n\nd\t1\nc\n"), graph)
    with pytest.raises(GraphError, match="malformed label line 3:"):
        load_labels(io.StringIO("a\t1\n\nc\nd\t1\n"), graph)
    with pytest.raises(GraphError, match="malformed timestamp line 3:"):
        load_timestamps(io.StringIO("node\tyear\na\t1\n\tb\n"), graph,
                        has_header=True)
    with pytest.raises(GraphError, match="timestamp line 8194 references"):
        load_timestamps(io.StringIO("a\t1\n" * 8193 + "zz\t2\n"), graph)
